// Copyright 2026 The SONG-Repro Authors.
//
// The CPU search preset's frontier: one sorted, fixed-capacity candidate
// array that serves as both SONG's queue `q` and its `topk` (CAGRA's
// internal top-M list; DiskANN's and hnswlib's flat best-first pools). Each
// entry carries an expanded flag, and a cursor points at the best
// unexpanded entry, so a query needs no heap at all: admission is a binary
// search plus a memmove, expansion is a flag flip plus a forward scan.
//
// With an exact visited set and no §IV-D/E rules, SONG's bounded `q ∪ topk`
// expands exactly the vertices that rank within the best `capacity` of
// everything scored so far (docs/algorithms.md gives the argument), which is
// what this pool keeps. The one extra is Algorithm 1's strict termination:
// SONG still expands a queued vertex whose distance *equals* the worst
// top-K distance. The pool therefore also keeps, past its capacity, the
// unexpanded entries that tie the boundary distance and that SONG's bounded
// queue would still hold; they are expanded in order but never returned.

#ifndef SONG_SONG_CANDIDATE_POOL_H_
#define SONG_SONG_CANDIDATE_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/logging.h"
#include "core/types.h"

namespace song {

class CandidatePool {
 public:
  explicit CandidatePool(size_t capacity = 0) { Reset(capacity); }

  /// Empties the pool for a new query that keeps the best `capacity`
  /// entries (clamped up to 1). Storage is reused when the capacity repeats.
  void Reset(size_t capacity) {
    capacity = std::max<size_t>(capacity, 1);
    if (capacity != capacity_) {
      capacity_ = capacity;
      // `capacity` best entries, at most `capacity` unexpanded boundary
      // ties behind them, and one transient slot during admission.
      slots_.assign(2 * capacity + 1, Slot());
    }
    size_ = 0;
    unexpanded_ = 0;
    cursor_ = 0;
  }

  size_t capacity() const { return capacity_; }
  /// Entries held: the best `capacity` plus any boundary ties behind them.
  size_t size() const { return size_; }
  size_t unexpanded() const { return unexpanded_; }
  size_t expanded() const { return size_ - unexpanded_; }
  bool HasUnexpanded() const { return cursor_ < size_; }
  size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  /// Entry `i` in ascending (dist, id) order; i < size().
  const Neighbor& operator[](size_t i) const {
    SONG_DCHECK(i < size_);
    return slots_[i].n;
  }

  /// The best unexpanded entry; requires HasUnexpanded().
  const Neighbor& Next() const {
    SONG_DCHECK(HasUnexpanded());
    return slots_[cursor_].n;
  }

  /// Marks the best unexpanded entry expanded and returns it; requires
  /// HasUnexpanded(). A boundary tie past the capacity is expanded too
  /// (Algorithm 1's strict termination) but then leaves the pool: it ranks
  /// below every kept entry, so it can never be a result.
  Neighbor ExpandNext() {
    SONG_DCHECK(HasUnexpanded());
    const size_t i = cursor_;
    const Neighbor now = slots_[i].n;
    --unexpanded_;
    if (i >= capacity_) {
      EraseAt(i);  // the cursor now names the next tie, or the end
      return now;
    }
    slots_[i].expanded = true;
    do {
      ++cursor_;
    } while (cursor_ < size_ && slots_[cursor_].expanded);
    return now;
  }

  /// Admits a newly scored vertex (ids must be distinct within a query).
  /// Returns false when it is rejected: strictly farther than the worst of
  /// a full pool, or a boundary tie that SONG's bounded queue would drop.
  /// Otherwise adds to `*evicted` the entries the admission pushed out, and
  /// rewinds the cursor when the new entry lands ahead of it.
  bool Insert(const Neighbor& x, size_t* evicted) {
    if (size_ >= capacity_) {
      const Neighbor& bound = slots_[capacity_ - 1].n;
      if (x.dist > bound.dist) return false;
      // A tie behind the boundary enters only while SONG's queue would
      // still hold it: fewer than `capacity` unexpanded entries ahead.
      if (bound < x && unexpanded_ >= capacity_ && slots_[size_ - 1].n < x) {
        return false;
      }
    }
    size_t lo = 0;
    size_t hi = size_;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (slots_[mid].n < x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    Slot* const s = slots_.data();
    std::memmove(s + lo + 1, s + lo, (size_ - lo) * sizeof(Slot));
    s[lo].n = x;
    s[lo].expanded = false;
    ++size_;
    ++unexpanded_;
    if (lo < cursor_) cursor_ = lo;
    if (size_ > capacity_) *evicted += TrimPastCapacity();
    return true;
  }

  /// Appends the best min(k, capacity, size) entries, ascending.
  void CopyBest(size_t k, std::vector<Neighbor>* out) const {
    const size_t n = std::min({k, capacity_, size_});
    for (size_t i = 0; i < n; ++i) out->push_back(slots_[i].n);
  }

 private:
  struct Slot {
    Neighbor n;
    bool expanded = false;
  };

  void EraseAt(size_t i) {
    Slot* const s = slots_.data();
    std::memmove(s + i, s + i + 1, (size_ - i - 1) * sizeof(Slot));
    --size_;
  }

  // Restores the invariant after an admission overfilled the pool: past
  // the capacity only unexpanded entries tying the boundary distance
  // remain, and no more than `capacity` unexpanded entries in all (SONG's
  // queue bound). Returns the number of entries dropped.
  size_t TrimPastCapacity() {
    size_t dropped = 0;
    // The old boundary entry, pushed out by a better admission: once
    // expanded, it is neither a result nor ever expanded again.
    if (slots_[capacity_].expanded) {
      EraseAt(capacity_);
      ++dropped;
    }
    const float bound = slots_[capacity_ - 1].n.dist;
    while (size_ > capacity_ && slots_[size_ - 1].n.dist > bound) {
      --size_;
      --unexpanded_;
      ++dropped;
    }
    if (unexpanded_ > capacity_) {
      --size_;
      --unexpanded_;
      ++dropped;
    }
    return dropped;
  }

  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t unexpanded_ = 0;
  size_t cursor_ = 0;  ///< first unexpanded entry, or size_ if none
  std::vector<Slot> slots_;
};

}  // namespace song

#endif  // SONG_SONG_CANDIDATE_POOL_H_
