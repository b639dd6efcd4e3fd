// Copyright 2026 The SONG-Repro Authors.
//
// The repo's only sanctioned synchronization layer: Clang Thread Safety
// Analysis (TSA) annotation macros plus annotated Mutex / SharedMutex /
// CondVar wrappers and their RAII guards. Every locking protocol in src/ is
// declared through these types so the compiler proves, on every Clang
// build, that each guarded field is only touched with its lock held
// (-Werror=thread-safety in the static-analysis CI leg). On GCC and other
// compilers every macro expands to nothing and the wrappers compile down to
// the underlying std primitives (pinned by tests/core/sync_test.cc).
//
// Raw std::mutex / std::shared_mutex / std::lock_guard / std::unique_lock
// are forbidden outside this header — tools/lint/song_lint.py rule
// `raw-sync` enforces it — because a naked primitive is invisible to the
// analysis: fields it guards can be read unlocked and no compile ever
// complains. Idiom:
//
//   class Server {
//    public:
//     void Bump() SONG_EXCLUDES(mu_) {
//       MutexLock lock(mu_);
//       ++count_;
//     }
//    private:
//     Mutex mu_;
//     size_t count_ SONG_GUARDED_BY(mu_) = 0;
//   };
//
// How to read a thread-safety error and the full annotation conventions:
// docs/static_analysis.md.

#ifndef SONG_CORE_SYNC_H_
#define SONG_CORE_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

// --- Annotation macros (no-ops outside Clang). -----------------------------
//
// The attribute spellings follow the Clang documentation
// (clang.llvm.org/docs/ThreadSafetyAnalysis.html); the SONG_ prefix keeps
// them greppable and lets non-Clang builds compile them away.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SONG_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SONG_THREAD_ANNOTATION_
#define SONG_THREAD_ANNOTATION_(x)  // no-op: GCC / MSVC / old Clang
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex").
#define SONG_CAPABILITY(x) SONG_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SONG_SCOPED_CAPABILITY SONG_THREAD_ANNOTATION_(scoped_lockable)

/// Field may only be accessed with `x` held (read: shared; write: exclusive).
#define SONG_GUARDED_BY(x) SONG_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* may only be accessed with `x` held.
#define SONG_PT_GUARDED_BY(x) SONG_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities held exclusively on entry.
#define SONG_REQUIRES(...) \
  SONG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held at least shared on entry.
#define SONG_REQUIRES_SHARED(...) \
  SONG_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively (and does not release it).
#define SONG_ACQUIRE(...) \
  SONG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared (and does not release it).
#define SONG_ACQUIRE_SHARED(...) \
  SONG_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases an exclusively held capability.
#define SONG_RELEASE(...) \
  SONG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function releases a shared-held capability.
#define SONG_RELEASE_SHARED(...) \
  SONG_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Releases a capability whether held shared or exclusive (RAII guard
/// destructors — the analysis tracks which mode the constructor acquired).
#define SONG_RELEASE_GENERIC(...) \
  SONG_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// Function may acquire the capability; returns `b` on success.
#define SONG_TRY_ACQUIRE(b, ...) \
  SONG_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// Function must NOT be called with the listed capabilities held (deadlock /
/// lock-ordering documentation the analysis checks).
#define SONG_EXCLUDES(...) \
  SONG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares that `x` is held at this point (runtime-checked elsewhere).
#define SONG_ASSERT_CAPABILITY(x) \
  SONG_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define SONG_RETURN_CAPABILITY(x) SONG_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol cannot be expressed.
#define SONG_NO_THREAD_SAFETY_ANALYSIS \
  SONG_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace song {

class CondVar;

/// Annotated exclusive mutex. Prefer the RAII MutexLock; the manual
/// Lock/Unlock surface exists for protocols (CondVar loops, adoption) that
/// RAII cannot express.
class SONG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SONG_ACQUIRE() { mu_.lock(); }
  void Unlock() SONG_RELEASE() { mu_.unlock(); }
  bool TryLock() SONG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated reader/writer mutex (std::shared_mutex underneath). Writers
/// use WriterLock / Lock(); readers use ReaderLock / LockShared().
class SONG_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SONG_ACQUIRE() { mu_.lock(); }
  void Unlock() SONG_RELEASE() { mu_.unlock(); }
  bool TryLock() SONG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() SONG_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SONG_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() SONG_TRY_ACQUIRE(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex.
class SONG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SONG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SONG_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class SONG_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) SONG_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() SONG_RELEASE_GENERIC() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class SONG_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) SONG_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() SONG_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to the annotated Mutex. Wait() temporarily
/// adopts the already-held Mutex into a std::unique_lock (no extra
/// lock/unlock round trip) and re-adopts it before returning, so the
/// analysis-visible state — mutex held across the call — matches reality.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; reacquires before returning.
  void Wait(Mutex& mu) SONG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  /// Waits until `pred()` holds; `pred` runs with `mu` held.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) SONG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace song

#endif  // SONG_CORE_SYNC_H_
