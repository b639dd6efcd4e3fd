// Tests for the sorted candidate pool. CandidatePool, the CPU preset's
// frontier: ordering, bounded eviction, the cursor rewind, Algorithm 1's
// boundary-tie rule and reuse across queries — plus a randomized check that
// it expands exactly what SONG's bounded queue and top-K heap expand on
// tie-heavy streams. BestFirstCandidatePool, BestFirstSearch's frontier:
// the same check against the two-heap textbook frontier.
// PartitionedCandidatePool, the GPU-priced presets' frontier: the queue and
// top-K partitions (tests/harness fuzzes it against the oracle heaps). And
// the rank kernel of every compiled SIMD tier against std::lower_bound.

#include "core/candidate_pool.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "core/distance_kernels.h"
#include "core/simd.h"
#include "gtest/gtest.h"

namespace song {
namespace {

Neighbor N(float d, idx_t id) { return Neighbor(d, id); }

template <FrontierRule kRule>
std::vector<Neighbor> Best(const BasicCandidatePool<kRule>& pool, size_t k) {
  std::vector<Neighbor> out;
  pool.CopyBest(k, &out);
  return out;
}

bool Admit(CandidatePool* pool, const Neighbor& n, size_t* evicted) {
  return pool->Insert(n, evicted);
}

TEST(CandidatePool, KeepsEntriesSortedByDistanceThenId) {
  CandidatePool pool(8);
  size_t evicted = 0;
  for (const Neighbor& n : {N(3, 1), N(1, 9), N(2, 4), N(1, 2), N(5, 0)}) {
    EXPECT_TRUE(Admit(&pool, n, &evicted));
  }
  EXPECT_EQ(evicted, 0u);
  ASSERT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.unexpanded(), 5u);
  const std::vector<Neighbor> want = {N(1, 2), N(1, 9), N(2, 4), N(3, 1),
                                      N(5, 0)};
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(pool[i], want[i]) << i;
  EXPECT_EQ(pool.Next(), N(1, 2));
}

TEST(CandidatePool, BoundedEvictionKeepsTheBestCapacity) {
  CandidatePool pool(3);
  size_t evicted = 0;
  for (idx_t id = 0; id < 6; ++id) {
    EXPECT_TRUE(Admit(&pool, N(static_cast<float>(10 - id), id), &evicted));
  }
  // Every admission past the third pushed the worst entry out.
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(Best(pool, 10),
            (std::vector<Neighbor>{N(5, 5), N(6, 4), N(7, 3)}));
  // Strictly worse than the full pool's worst: rejected, nothing evicted.
  EXPECT_FALSE(Admit(&pool, N(8, 9), &evicted));
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(Best(pool, 2), (std::vector<Neighbor>{N(5, 5), N(6, 4)}));
}

TEST(CandidatePool, ExpandsInOrderAndRewindsForBetterAdmissions) {
  CandidatePool pool(4);
  size_t evicted = 0;
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(3, 3), &evicted);
  Admit(&pool, N(5, 5), &evicted);
  EXPECT_EQ(pool.ExpandNext(), N(1, 1));
  EXPECT_EQ(pool.ExpandNext(), N(3, 3));
  EXPECT_EQ(pool.Next(), N(5, 5));
  // Lands ahead of the cursor: the cursor rewinds to it.
  Admit(&pool, N(2, 2), &evicted);
  EXPECT_EQ(pool.Next(), N(2, 2));
  EXPECT_EQ(pool.ExpandNext(), N(2, 2));
  // The cursor skips the expanded N(3, 3) on its way forward.
  EXPECT_EQ(pool.ExpandNext(), N(5, 5));
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.expanded(), 4u);
  // Lands behind every expanded entry: the cursor moves to it.
  Admit(&pool, N(0.5f, 7), &evicted);  // evicts the expanded N(5, 5)
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(pool.HasUnexpanded());
  EXPECT_EQ(pool.Next(), N(0.5f, 7));
  EXPECT_EQ(pool.size(), 4u);
}

TEST(CandidatePool, AdmitsBoundaryTiesButNeverReturnsThem) {
  CandidatePool pool(2);
  size_t evicted = 0;
  EXPECT_TRUE(Admit(&pool, N(1, 1), &evicted));
  EXPECT_TRUE(Admit(&pool, N(2, 2), &evicted));
  // Same distance as the worst entry, larger id, behind two unexpanded
  // entries: SONG's queue of 2 would drop it.
  EXPECT_FALSE(Admit(&pool, N(2, 8), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(1, 1));
  // One unexpanded entry ahead: the queue would hold it, and Algorithm 1
  // still expands a vertex tying the worst top-K distance, so the pool
  // keeps it behind the boundary.
  EXPECT_TRUE(Admit(&pool, N(2, 8), &evicted));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));
  // Two unexpanded entries ahead again, and it is the largest: rejected.
  EXPECT_FALSE(Admit(&pool, N(2, 9), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(2, 2));
  EXPECT_TRUE(Admit(&pool, N(2, 9), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(2, 8));  // ties past the boundary, in order
  EXPECT_EQ(pool.ExpandNext(), N(2, 9));
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.size(), 2u);  // expanded ties leave the pool
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));
  EXPECT_EQ(evicted, 0u);
}

TEST(CandidatePool, BetterBoundaryDropsStaleTies) {
  CandidatePool pool(2);
  size_t evicted = 0;
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(2, 2), &evicted);
  pool.ExpandNext();
  Admit(&pool, N(2, 5), &evicted);
  ASSERT_EQ(pool.size(), 3u);
  // The boundary distance falls to 1.5: N(2, 2) and the N(2, 5) tie can
  // never be expanded any more.
  EXPECT_TRUE(Admit(&pool, N(1.5f, 3), &evicted));
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.unexpanded(), 1u);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(1.5f, 3)}));
}

TEST(CandidatePool, ResetEmptiesForTheNextQuery) {
  CandidatePool pool(4);
  size_t evicted = 0;
  for (idx_t id = 0; id < 6; ++id) {
    Admit(&pool, N(static_cast<float>(id), id), &evicted);
  }
  pool.ExpandNext();
  pool.ExpandNext();
  const size_t bytes = pool.MemoryBytes();
  pool.Reset(4);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.unexpanded(), 0u);
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.MemoryBytes(), bytes);  // same capacity: storage reused
  EXPECT_TRUE(Admit(&pool, N(9, 9), &evicted));
  EXPECT_TRUE(Admit(&pool, N(10, 10), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(9, 9));
  // Slot 1 was expanded in the last query; a stale flag would skip it.
  EXPECT_EQ(pool.Next(), N(10, 10));

  pool.Reset(2);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_FALSE(pool.HasUnexpanded());
  Admit(&pool, N(3, 3), &evicted);
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(2, 2), &evicted);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));

  pool.Reset(0);  // clamped to one entry
  EXPECT_EQ(pool.capacity(), 1u);
}

// SONG's frontier in std::set form: bounded queue q and bounded top-K, with
// Algorithm 1's strict termination on the top-K's worst distance.
class SongQueues {
 public:
  explicit SongQueues(size_t ef) : ef_(ef) {}

  void Push(const Neighbor& n) {
    if (q_.size() < ef_) {
      q_.insert(n);
    } else if (n < *q_.rbegin()) {
      q_.erase(std::prev(q_.end()));
      q_.insert(n);
    }
  }

  std::optional<Neighbor> Pop() {
    if (q_.empty()) return std::nullopt;
    const Neighbor m = *q_.begin();
    if (topk_.size() >= ef_ && m.dist > topk_.rbegin()->dist) {
      return std::nullopt;
    }
    q_.erase(q_.begin());
    topk_.insert(m);
    if (topk_.size() > ef_) topk_.erase(std::prev(topk_.end()));
    return m;
  }

  std::vector<Neighbor> TopK() const { return {topk_.begin(), topk_.end()}; }

 private:
  size_t ef_;
  std::set<Neighbor> q_;
  std::set<Neighbor> topk_;
};

TEST(CandidatePool, ExpandsExactlyWhatSongQueuesExpandOnTiedStreams) {
  std::mt19937 rng(20260417);
  CandidatePool pool;  // reused across episodes
  for (int episode = 0; episode < 2000; ++episode) {
    const size_t ef = 1 + rng() % 12;
    const int levels = 1 + static_cast<int>(rng() % 6);  // few: many ties
    pool.Reset(ef);
    SongQueues song(ef);
    idx_t next_id = 0;
    size_t evicted = 0;
    const auto admit_batch = [&] {
      const size_t batch = rng() % 6;
      for (size_t i = 0; i < batch; ++i) {
        // Ids arrive out of order so ties do not always favour newcomers.
        const idx_t id = next_id++ * 7919 % 100003;
        const Neighbor n(static_cast<float>(rng() % levels), id);
        song.Push(n);
        pool.Insert(n, &evicted);
      }
    };
    admit_batch();
    for (int step = 0; step < 200; ++step) {
      const std::optional<Neighbor> want = song.Pop();
      ASSERT_EQ(pool.HasUnexpanded(), want.has_value())
          << "episode " << episode << " step " << step;
      if (!want) break;
      ASSERT_EQ(pool.ExpandNext(), *want)
          << "episode " << episode << " step " << step;
      admit_batch();
    }
    if (!pool.HasUnexpanded()) {
      EXPECT_EQ(Best(pool, ef), song.TopK()) << "episode " << episode;
    }
  }
}

// The two-heap textbook frontier in std::set form: an unbounded candidate
// set and a top-ef set; a candidate enters both while the top list is not
// full or when it is strictly closer than the top list's worst, and the
// search stops at the first candidate strictly worse than a full list's
// worst.
class TwoHeaps {
 public:
  explicit TwoHeaps(size_t ef) : ef_(ef) {}

  void Seed(const Neighbor& n) { Add(n); }
  bool Push(const Neighbor& n) {
    if (top_.size() >= ef_ && !(n.dist < top_.rbegin()->dist)) return false;
    Add(n);
    return true;
  }

  /// The next expansion, or nullopt when the search ends; `stopped` is set
  /// when it ends on a candidate rather than on an empty frontier.
  std::optional<Neighbor> Pop(bool* stopped) {
    if (candidates_.empty()) return std::nullopt;
    const Neighbor m = *candidates_.begin();
    if (top_.size() >= ef_ && m.dist > top_.rbegin()->dist) {
      *stopped = true;
      return std::nullopt;
    }
    candidates_.erase(candidates_.begin());
    return m;
  }

  std::vector<Neighbor> Top() const { return {top_.begin(), top_.end()}; }

 private:
  void Add(const Neighbor& n) {
    candidates_.insert(n);
    top_.insert(n);
    if (top_.size() > ef_) top_.erase(std::prev(top_.end()));
  }

  size_t ef_;
  std::set<Neighbor> candidates_;
  std::set<Neighbor> top_;
};

TEST(BestFirstCandidatePool, KeepsEveryBoundaryTieAndOnlyStrictlyBetter) {
  BestFirstCandidatePool pool(2);
  size_t evicted = 0;
  EXPECT_TRUE(pool.Insert(N(1, 1), &evicted));
  EXPECT_TRUE(pool.Insert(N(2, 5), &evicted));
  // Full: a tie with the worst distance is refused even with a smaller id.
  EXPECT_FALSE(pool.Insert(N(2, 3), &evicted));
  EXPECT_FALSE(pool.dropped_unexpanded());
  // A strictly closer candidate enters; the boundary falls to 1.5 and the
  // unexpanded N(2, 5), now strictly worse, can never be expanded: it goes.
  EXPECT_TRUE(pool.Insert(N(1.5f, 7), &evicted));
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(1.5f, 7)}));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(pool.dropped_unexpanded());
}

TEST(BestFirstCandidatePool, SeedsEnterUnconditionallyAndTiesPastTheBoundGrow) {
  BestFirstCandidatePool pool(1);
  pool.Seed(N(1, 4));
  pool.Seed(N(1, 2));  // ties the boundary: kept behind it
  pool.Seed(N(1, 9));
  EXPECT_FALSE(pool.dropped_unexpanded());
  EXPECT_EQ(pool.size(), 3u);
  pool.Seed(N(3, 1));  // strictly worse: leaves at once, unexpanded
  EXPECT_TRUE(pool.dropped_unexpanded());
  EXPECT_EQ(pool.size(), 3u);
  // More boundary ties than the reserved storage holds.
  size_t evicted = 0;
  for (idx_t id = 10; id < 40; ++id) pool.Seed(N(1, id));
  EXPECT_EQ(pool.size(), 33u);
  EXPECT_EQ(pool.ExpandNext(), N(1, 2));
  EXPECT_EQ(pool.ExpandNext(), N(1, 4));  // a tie past the capacity: leaves
  EXPECT_EQ(pool.size(), 32u);
  EXPECT_FALSE(pool.Insert(N(1, 0), &evicted));
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 2)}));
}

TEST(BestFirstCandidatePool, ExpandsExactlyWhatTwoHeapsExpandOnTiedStreams) {
  std::mt19937 rng(20261017);
  BestFirstCandidatePool pool;  // reused across episodes
  for (int episode = 0; episode < 3000; ++episode) {
    const size_t ef = 1 + rng() % 12;
    const int levels = 1 + static_cast<int>(rng() % 6);  // few: many ties
    pool.Reset(ef);
    TwoHeaps heaps(ef);
    idx_t next_id = 0;
    const auto draw = [&] {
      const idx_t id = next_id++ * 7919 % 100003;
      return Neighbor(static_cast<float>(rng() % levels) - 2.0f, id);
    };
    const size_t seeds = 1 + rng() % 4;
    for (size_t i = 0; i < seeds; ++i) {
      const Neighbor n = draw();
      heaps.Seed(n);
      pool.Seed(n);
    }
    size_t evicted = 0;
    bool stopped = false;
    for (int step = 0; step < 200; ++step) {
      const std::optional<Neighbor> want = heaps.Pop(&stopped);
      ASSERT_EQ(pool.HasUnexpanded(), want.has_value())
          << "episode " << episode << " step " << step;
      if (!want) break;
      ASSERT_EQ(pool.ExpandNext(), *want)
          << "episode " << episode << " step " << step;
      const size_t batch = rng() % 6;
      for (size_t i = 0; i < batch; ++i) {
        const Neighbor n = draw();
        ASSERT_EQ(pool.Insert(n, &evicted), heaps.Push(n))
            << "episode " << episode << " step " << step;
      }
    }
    if (!pool.HasUnexpanded()) {
      EXPECT_EQ(pool.dropped_unexpanded(), stopped) << "episode " << episode;
      EXPECT_EQ(Best(pool, ef), heaps.Top()) << "episode " << episode;
    }
  }
}

TEST(PartitionedCandidatePool, QueueEvictsItsWorstUnexpandedEntry) {
  PartitionedCandidatePool pool(2);
  idx_t evicted = 0;
  EXPECT_TRUE(pool.PushUnexpanded(N(3, 3), &evicted));
  EXPECT_EQ(evicted, kInvalidIdx);
  EXPECT_TRUE(pool.PushUnexpanded(N(1, 1), &evicted));
  // A full queue: a better candidate replaces the worst unexpanded entry.
  EXPECT_TRUE(pool.PushUnexpanded(N(2, 2), &evicted));
  EXPECT_EQ(evicted, 3u);
  // Not strictly better than the worst (a distance tie with a larger id).
  EXPECT_FALSE(pool.PushUnexpanded(N(2, 5), &evicted));
  EXPECT_EQ(evicted, kInvalidIdx);
  EXPECT_EQ(pool.unexpanded(), 2u);
  EXPECT_EQ(pool.expanded(), 0u);
  EXPECT_EQ(pool.Next(), N(1, 1));
  EXPECT_EQ(pool.expanded_bound(), std::numeric_limits<float>::infinity());
  // Expanded entries are topk, not queue: the queue has room again, and a
  // later eviction skips the expanded N(1, 1).
  Neighbor now;
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(now, N(1, 1));
  EXPECT_TRUE(pool.PushUnexpanded(N(4, 4), &evicted));
  EXPECT_TRUE(pool.PushUnexpanded(N(0.5f, 9), &evicted));
  EXPECT_EQ(evicted, 4u);
  EXPECT_EQ(pool.Next(), N(0.5f, 9));  // landed ahead: the cursor rewinds
  EXPECT_EQ(pool.unexpanded(), 2u);
  EXPECT_EQ(pool.expanded(), 1u);
}

TEST(PartitionedCandidatePool, TopkKeepsTheBestExpandedAndTerminatesStrictly) {
  PartitionedCandidatePool pool(2);
  idx_t evicted = 0;
  Neighbor now;
  pool.PushUnexpanded(N(1, 1), &evicted);
  pool.PushUnexpanded(N(2, 2), &evicted);
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(pool.expanded_bound(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(now, N(2, 2));
  EXPECT_EQ(evicted, kInvalidIdx);
  EXPECT_EQ(pool.expanded_bound(), 2.0f);  // topk is full
  EXPECT_FALSE(pool.HasUnexpanded());
  // A tie with the worst distance is still expanded; sorting before the
  // worst, it pushes the worst out of topk.
  pool.PushUnexpanded(N(2, 1), &evicted);
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(now, N(2, 1));
  EXPECT_EQ(evicted, 2u);
  // Sorting after the worst, topk rejects it: it leaves the pool.
  pool.PushUnexpanded(N(2, 7), &evicted);
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(now, N(2, 7));
  EXPECT_EQ(evicted, kInvalidIdx);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.expanded_bound(), 2.0f);
  // Strictly farther than a full topk's worst: Algorithm 1 terminates and
  // the pool is left as it was.
  pool.PushUnexpanded(N(3, 3), &evicted);
  EXPECT_FALSE(pool.ExpandBounded(&now, &evicted));
  EXPECT_EQ(now, N(3, 3));
  EXPECT_EQ(pool.unexpanded(), 1u);
  EXPECT_EQ(pool.Next(), N(3, 3));
  std::vector<Neighbor> topk;
  pool.CopyExpanded(10, &topk);
  EXPECT_EQ(topk, (std::vector<Neighbor>{N(1, 1), N(2, 1)}));
  topk.clear();
  pool.CopyExpanded(1, &topk);
  EXPECT_EQ(topk, (std::vector<Neighbor>{N(1, 1)}));

  // Reset clears the expanded flags and the top-K bound.
  pool.Reset(2);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.expanded_bound(), std::numeric_limits<float>::infinity());
  pool.PushUnexpanded(N(5, 5), &evicted);
  pool.PushUnexpanded(N(6, 6), &evicted);
  EXPECT_TRUE(pool.ExpandBounded(&now, &evicted));
  // Slot 1 was expanded in the last query; a stale flag would skip it.
  EXPECT_EQ(pool.Next(), N(6, 6));
}

// The tiers this binary can run: compiled in and supported by the CPU.
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier t :
       {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierCompiled(t) && t <= CpuSimdTier()) tiers.push_back(t);
  }
  return tiers;
}

TEST(CandidatePoolRank, EveryTierMatchesLowerBound) {
  // Few distinct distances (heavy ties), negative ones, and both zeros
  // (-0.0 == +0.0, so their order is by id alone); ids straddle 2^31 so an
  // unsigned compare done as signed would misorder them.
  const float levels[] = {-3.5f, -1.0f, -0.0f, 0.0f, 0.25f, 2.0f, 7.0f};
  const idx_t id_pool[] = {0u, 1u, 2u, 5u, 77u, 0x7fffffffu, 0x80000000u,
                           0x80000001u, 0xfffffff0u, 0xfffffffeu};
  std::mt19937 rng(7);
  for (const SimdTier tier : RunnableTiers()) {
    const internal::RankKernel rank = internal::KernelTableForTier(tier).rank;
    for (const size_t cap : {size_t{1}, size_t{7}, size_t{16}, size_t{33}}) {
      for (size_t n = 0; n <= 2 * cap + 1; ++n) {
        // n entries with distinct (dist, id), sorted.
        std::set<Neighbor> distinct;
        while (distinct.size() < n) {
          const idx_t id = rng() % 3 == 0 ? id_pool[rng() % std::size(id_pool)]
                                          : static_cast<idx_t>(rng());
          distinct.insert(Neighbor(levels[rng() % std::size(levels)], id));
        }
        const std::vector<Neighbor> sorted(distinct.begin(), distinct.end());
        std::vector<float> dists;
        std::vector<idx_t> ids;
        for (const Neighbor& x : sorted) {
          dists.push_back(x.dist);
          ids.push_back(x.id);
        }
        // Probe every level with every special id, and every entry itself
        // and its id neighbours.
        std::vector<Neighbor> probes;
        for (const float d : levels) {
          for (const idx_t id : id_pool) probes.emplace_back(d, id);
        }
        for (const Neighbor& x : sorted) {
          probes.push_back(x);
          probes.emplace_back(x.dist, x.id + 1);
          probes.emplace_back(x.dist, x.id - 1);
          probes.emplace_back(-x.dist, x.id);
        }
        for (const Neighbor& x : probes) {
          const size_t want = static_cast<size_t>(
              std::lower_bound(sorted.begin(), sorted.end(), x) -
              sorted.begin());
          ASSERT_EQ(rank(dists.data(), ids.data(), n, x.dist, x.id), want)
              << SimdTierName(tier) << " n=" << n << " probe (" << x.dist
              << ", " << x.id << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace song
