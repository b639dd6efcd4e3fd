// SearchCore-vs-reference differential fuzzing. For the exact visited
// structures (open-addressing hash table and epoch array) the production
// pipeline must match the oracle-backed reference search *exactly* — same
// visit order, same iteration count, same saturation behaviour, same final
// neighbors — across randomized datasets, graphs, metrics, queue sizes and
// the §IV-D/§IV-E optimization combinations. Most epoch-array rounds drop
// §IV-D/E and so run the CPU preset's CandidatePool frontier, whose
// iteration count is the reference's expansion rounds. The probabilistic
// structures (Bloom, Cuckoo) are held to their one-sided-error contract
// instead: valid, genuinely-scored, terminating results whose aggregate
// recall never beats the exact-visited twin.
//
// Together with tests/harness/structure_fuzz_test.cc this runs well over
// 1000 fuzz iterations per invocation across all four VisitedStructure
// variants.

#include "gtest/gtest.h"
#include "harness/fuzz.h"

namespace song::harness {
namespace {

TEST(HarnessSearchDifferential, HashTableMatchesReferenceExactly) {
  const DifferentialReport report =
      FuzzSearchDifferential(VisitedStructure::kHashTable, BaseSeed(), 400);
  EXPECT_GT(report.checks, 1000u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessSearchDifferential, EpochArrayMatchesReferenceExactly) {
  const DifferentialReport report =
      FuzzSearchDifferential(VisitedStructure::kEpochArray, BaseSeed(), 400);
  EXPECT_GT(report.checks, 1000u);
  EXPECT_GE(report.pool_rounds, 200u);  // at least half run the pool
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessSearchDifferential, BloomFilterSanityAndRecallDominance) {
  const DifferentialReport report = FuzzProbabilisticSearchSanity(
      VisitedStructure::kBloomFilter, BaseSeed(), 150);
  EXPECT_GT(report.checks, 500u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

TEST(HarnessSearchDifferential, CuckooFilterSanityAndRecallDominance) {
  const DifferentialReport report = FuzzProbabilisticSearchSanity(
      VisitedStructure::kCuckooFilter, BaseSeed(), 150);
  EXPECT_GT(report.checks, 500u);
  EXPECT_EQ(report.failures, 0u) << report.first_divergence;
}

}  // namespace
}  // namespace song::harness
