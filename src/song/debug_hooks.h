// Copyright 2026 The SONG-Repro Authors.
//
// Test-only fault-injection hooks. The differential harness in tests/harness/
// proves its own sensitivity by flipping these flags and asserting that the
// oracle comparison detects the planted bug (see tests/harness/selftest_test.cc
// and docs/testing.md). Every hook defaults to off and must stay off outside
// the harness self-test; the guarded branches are trivially predictable and
// cost nothing on the hot paths.

#ifndef SONG_SONG_DEBUG_HOOKS_H_
#define SONG_SONG_DEBUG_HOOKS_H_

namespace song::hooks {

/// Planted mutation A: SymmetricMinMaxHeap::BubbleUp stops its grandparent
/// sift loop one level early, so deep inserts can violate the heap invariant
/// (Min()/Max() silently wrong — the classic "recall degrades, nothing
/// crashes" failure mode).
inline bool smmh_sift_off_by_one = false;

/// Planted mutation B: OpenAddressingSet::Reset sizes the slot array to the
/// next power of two >= capacity/2 instead of >= 2*capacity (a dropped
/// doubling), so the table saturates long before its declared element
/// capacity. Reaches only OpenAddressingSet itself; the search's
/// kHashTable runs on CappedEpochSet (mutation D).
inline bool hash_set_skip_growth = false;

/// Planted mutation D: CappedEpochSet::Insert ignores its element-capacity
/// bound, so a kHashTable visited set never saturates and a search whose
/// table should have filled keeps marking (and enqueueing) vertices the
/// GPU table would have refused.
inline bool hash_table_ignore_capacity = false;

/// Planted mutation C: MutableIndex::Insert skips the reverse-link step, so
/// a newly inserted vertex keeps its out-edges but gains no in-edges — it is
/// unreachable from the entry point and silently never returned (the online-
/// mutation analogue of mutation A's "recall degrades, nothing crashes").
/// The mutation differential harness must catch this via its post-insert
/// reachability probe (tests/harness/selftest_test.cc).
inline bool mutation_drop_reverse_links = false;

/// RAII guard so a failing self-test cannot leak an enabled fault into
/// subsequent tests.
class ScopedFault {
 public:
  explicit ScopedFault(bool* flag) : flag_(flag) { *flag_ = true; }
  ~ScopedFault() { *flag_ = false; }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  bool* flag_;
};

}  // namespace song::hooks

#endif  // SONG_SONG_DEBUG_HOOKS_H_
