// Copyright 2026 The SONG-Repro Authors.
//
// Test-only fault-injection hooks. The differential harness in tests/harness/
// proves its own sensitivity by flipping these flags and asserting that the
// oracle comparison detects the planted bug (see tests/harness/selftest_test.cc
// and docs/testing.md). Every hook defaults to off and must stay off outside
// the harness self-test; the guarded branches are trivially predictable and
// cost nothing on the hot paths.

#ifndef SONG_CORE_DEBUG_HOOKS_H_
#define SONG_CORE_DEBUG_HOOKS_H_

namespace song::hooks {

/// Planted mutation A: the SONG frontier's bounded queue (CandidatePool
/// rule kSongPartitions) evicts its *best* unexpanded entry instead of its
/// worst when a better candidate arrives, so the closest frontier vertex is
/// silently dropped (recall degrades, nothing crashes).
inline bool song_queue_evict_best = false;

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

/// Planted mutation E: SongSearchCore's round 0 skips the last id of its
/// seed list, so a search starts from one seed fewer than it was handed (a
/// one-seed search starts from nothing and returns nothing). The search
/// differential must see the missing seed's distance computation.
inline bool search_drop_last_seed = false;

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

#endif  // SONG_CORE_DEBUG_HOOKS_H_
