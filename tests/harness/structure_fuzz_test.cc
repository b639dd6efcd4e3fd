// Structure-vs-oracle fuzzing: the SONG frontier's partitioned candidate
// pool, the exact visited sets, the Cuckoo filter and the Bloom filter are
// driven through thousands of seed-derived randomized op sequences and
// compared against the std::multiset / std::unordered_set oracles in
// harness/oracles.h. Every failure message embeds the seed and round needed
// to replay it.

#include <cstdio>

#include "gtest/gtest.h"
#include "harness/fuzz.h"

namespace song::harness {
namespace {

/// Prints the active base seed once per run so any later failure — in any
/// suite — can be replayed from the log.
class HarnessSeedEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { std::printf("%s\n", SeedBanner().c_str()); }
};

const ::testing::Environment* const kSeedEnvironment =
    ::testing::AddGlobalTestEnvironment(new HarnessSeedEnvironment);

TEST(HarnessStructureFuzz, SongPartitionedPoolMatchesOracle) {
  const DifferentialReport report =
      FuzzSongPartitionsVsOracle(BaseSeed(), 300);
  EXPECT_GT(report.checks, 10000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessStructureFuzz, HashTableVisitedMatchesOracle) {
  const DifferentialReport report =
      FuzzExactVisitedVsOracle(VisitedStructure::kHashTable, BaseSeed(), 150);
  EXPECT_GT(report.checks, 10000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessStructureFuzz, EpochArrayVisitedMatchesOracle) {
  const DifferentialReport report = FuzzExactVisitedVsOracle(
      VisitedStructure::kEpochArray, BaseSeed(), 150);
  EXPECT_GT(report.checks, 10000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessCuckoo, OneSidedErrorTerminationAndFpBound) {
  const DifferentialReport report = FuzzCuckooVsOracle(BaseSeed(), 100);
  EXPECT_GT(report.checks, 1000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessBloom, NoFalseNegativesFpBoundAndSaturation) {
  const DifferentialReport report = FuzzBloomVsOracle(BaseSeed(), 40);
  EXPECT_GT(report.checks, 1000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

}  // namespace
}  // namespace song::harness
