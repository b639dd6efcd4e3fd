// Harness self-test: proves the differential harness actually has teeth by
// planting known bugs behind the test-only hooks in
// src/core/debug_hooks.h and asserting the oracle comparison catches each —
// then asserting the very same runners pass clean once the fault is lifted.
// A fuzz harness that cannot detect a planted off-by-one is worse than none:
// it would launder broken structures as "verified".

#include <cstddef>
#include <vector>

#include "core/debug_hooks.h"
#include "core/random.h"
#include "gtest/gtest.h"
#include "harness/fuzz.h"
#include "harness/oracles.h"

namespace song::harness {
namespace {

// Smaller round counts than the real suites: detection must be quick, and
// every round after the first detection is wasted work.
constexpr size_t kRounds = 60;

TEST(HarnessSelfTest, DetectsPlantedQueueEvictingItsBest) {
  // The planted mutation makes the SONG frontier's full queue drop its best
  // unexpanded entry instead of its worst. The pool fuzz must see the wrong
  // eviction against the oracle heaps, and the full pipeline must visit
  // different vertices than the reference search.
  {
    hooks::ScopedFault fault(&hooks::song_queue_evict_best);
    const DifferentialReport pool =
        FuzzSongPartitionsVsOracle(BaseSeed(), kRounds);
    EXPECT_GT(pool.failures, 0u)
        << "pool fuzz failed to detect the queue evicting its best entry";
    const DifferentialReport search =
        FuzzSearchDifferential(VisitedStructure::kHashTable, BaseSeed(), 120);
    EXPECT_GT(search.failures, 0u)
        << "search differential failed to detect the queue evicting its "
           "best entry";
  }
  const DifferentialReport pool =
      FuzzSongPartitionsVsOracle(BaseSeed(), kRounds);
  EXPECT_EQ(pool.failures, 0u) << pool.first_divergence;
  const DifferentialReport search =
      FuzzSearchDifferential(VisitedStructure::kHashTable, BaseSeed(), 120);
  EXPECT_EQ(search.failures, 0u) << search.first_divergence;
}

TEST(HarnessSelfTest, OracleDynamicIndexCatchesPlantedMutationDrops) {
  // The oracle is the reference the whole mutation differential leans on,
  // so it gets its own sensitivity proof: replay one mutation script into
  // the oracle and into two deliberately unfaithful twins — one drops a
  // delete, one drops an insert — and assert the oracle's view diverges
  // from both, then that a faithful replay matches it exactly.
  constexpr size_t kDim = 4;
  constexpr size_t kPoints = 32;
  RandomEngine rng(BaseSeed());
  std::vector<std::vector<float>> points;
  for (size_t i = 0; i < kPoints; ++i) {
    std::vector<float> p(kDim);
    for (float& x : p) x = static_cast<float>(rng.NextGaussian());
    points.push_back(std::move(p));
  }
  const std::vector<idx_t> deletions = {3, 7, 11};

  OracleDynamicIndex ref(Metric::kL2, kDim);
  OracleDynamicIndex faithful(Metric::kL2, kDim);
  OracleDynamicIndex dropped_delete(Metric::kL2, kDim);
  OracleDynamicIndex dropped_insert(Metric::kL2, kDim);
  for (size_t i = 0; i < kPoints; ++i) {
    const idx_t id = ref.Insert(points[i].data());
    EXPECT_EQ(faithful.Insert(points[i].data()), id);
    EXPECT_EQ(dropped_delete.Insert(points[i].data()), id);
    if (i != 10) dropped_insert.Insert(points[i].data());  // planted drop
  }
  for (const idx_t id : deletions) {
    EXPECT_TRUE(ref.Delete(id));
    EXPECT_TRUE(faithful.Delete(id));
    if (id != 7) EXPECT_TRUE(dropped_delete.Delete(id));  // planted drop
    EXPECT_TRUE(dropped_insert.Delete(id));
  }

  // The dropped delete shows up as a live tombstone: id 7 still answers
  // queries in the broken twin.
  EXPECT_FALSE(ref.IsLive(7));
  EXPECT_TRUE(dropped_delete.IsLive(7));
  EXPECT_NE(ref.live_count(), dropped_delete.live_count());
  const std::vector<Neighbor> near7 = dropped_delete.TopK(points[7].data(), 1);
  ASSERT_EQ(near7.size(), 1u);
  EXPECT_EQ(near7[0].id, 7u);
  EXPECT_NE(ref.TopK(points[7].data(), 1)[0].id, 7u);

  // The dropped insert shows up as id skew: every id after the gap points
  // at the wrong vector, so a full-set scan cannot agree with the oracle.
  EXPECT_NE(ref.num_points(), dropped_insert.num_points());
  const std::vector<Neighbor> near11 =
      ref.TopK(points[11].data(), 1);  // id 11 was deleted in both...
  const std::vector<Neighbor> skewed =
      dropped_insert.TopK(points[11].data(), 1);
  // ...but the skewed twin stores points[11] under id 10, which it never
  // tombstoned — exact-match distance 0 where the oracle reports > 0.
  ASSERT_EQ(skewed.size(), 1u);
  EXPECT_EQ(skewed[0].dist, 0.0f);
  EXPECT_GT(near11[0].dist, 0.0f);

  // A faithful replay is indistinguishable from the oracle.
  EXPECT_EQ(ref.num_points(), faithful.num_points());
  EXPECT_EQ(ref.LiveIds(), faithful.LiveIds());
  for (size_t q = 0; q < 8; ++q) {
    std::vector<float> query(kDim);
    for (float& x : query) x = static_cast<float>(rng.NextGaussian());
    const std::vector<Neighbor> a = ref.TopK(query.data(), 5);
    const std::vector<Neighbor> b = faithful.TopK(query.data(), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
  }
}

TEST(HarnessSelfTest, DetectsPlantedDroppedReverseLinks) {
  // The planted mutation makes MutableIndex::Insert link the new vertex
  // outward but skip both the reverse edges and the connectivity repair, so
  // freshly inserted points become unreachable islands. The mutation
  // differential's post-insert ample-ef reachability probe must flag the
  // missing ids. Epoch-array rounds make the probe exact and unbounded.
  {
    hooks::ScopedFault fault(&hooks::mutation_drop_reverse_links);
    const DifferentialReport broken = FuzzMutationDifferential(
        VisitedStructure::kEpochArray, BaseSeed(), kRounds);
    EXPECT_GT(broken.failures, 0u)
        << "mutation differential failed to detect dropped reverse links";
  }
  const DifferentialReport clean = FuzzMutationDifferential(
      VisitedStructure::kEpochArray, BaseSeed(), kRounds);
  EXPECT_EQ(clean.failures, 0u) << clean.first_divergence;
}

TEST(HarnessSelfTest, DetectsPlantedHashTableIgnoredCapacity) {
  // The planted mutation lets the search's kHashTable visited set
  // (CappedEpochSet) keep accepting ids past its element capacity. The
  // structure fuzz's tight rounds must see inserts the capacity-modelled
  // oracle refuses, and the search differential's auto-sized (saturating)
  // rounds must visit vertices the reference's saturated table skipped.
  {
    hooks::ScopedFault fault(&hooks::hash_table_ignore_capacity);
    const DifferentialReport structure = FuzzExactVisitedVsOracle(
        VisitedStructure::kHashTable, BaseSeed(), kRounds);
    EXPECT_GT(structure.failures, 0u)
        << "structure fuzz failed to detect the ignored hash-table capacity";
    const DifferentialReport search = FuzzSearchDifferential(
        VisitedStructure::kHashTable, BaseSeed(), kRounds);
    EXPECT_GT(search.failures, 0u)
        << "search differential failed to detect the ignored hash-table "
           "capacity";
  }
  const DifferentialReport structure = FuzzExactVisitedVsOracle(
      VisitedStructure::kHashTable, BaseSeed(), kRounds);
  EXPECT_EQ(structure.failures, 0u) << structure.first_divergence;
  const DifferentialReport search =
      FuzzSearchDifferential(VisitedStructure::kHashTable, BaseSeed(), kRounds);
  EXPECT_EQ(search.failures, 0u) << search.first_divergence;
}

TEST(HarnessSelfTest, DetectsPlantedDroppedLastSeed) {
  // The planted mutation makes round 0 skip the last seed. The search
  // differential scores every seed in the reference, so the first visit
  // order that names the dropped seed diverges; a one-seed list loses its
  // entry and the whole search.
  for (const VisitedStructure structure :
       {VisitedStructure::kEpochArray, VisitedStructure::kHashTable}) {
    {
      hooks::ScopedFault fault(&hooks::search_drop_last_seed);
      const DifferentialReport search =
          FuzzSearchDifferential(structure, BaseSeed(), kRounds);
      EXPECT_GT(search.failures, 0u)
          << "search differential failed to detect the dropped last seed on "
          << VisitedStructureName(structure);
    }
    const DifferentialReport search =
        FuzzSearchDifferential(structure, BaseSeed(), kRounds);
    EXPECT_EQ(search.failures, 0u) << search.first_divergence;
  }
}

}  // namespace
}  // namespace song::harness
