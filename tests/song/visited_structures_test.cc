// Tests for the visited-set structures (paper §IV-B / §IV-E): the Bloom
// filter (including the paper's sizing claim: ~300 u32 words keep false
// positives under 1% for 1000 insertions), the Cuckoo filter (deletion
// support, no false negatives), and the VisitedTable facade, whose hash
// table reports the GPU open-addressing table's modelled bytes.

#include <random>
#include <iterator>
#include <vector>

#include "gtest/gtest.h"
#include "song/bloom_filter.h"
#include "song/cuckoo_filter.h"
#include "song/visited_table.h"

namespace song {
namespace {

// ---- BloomFilter ----

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(9600);
  std::mt19937 rng(1);
  std::vector<idx_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng());
  for (const idx_t k : keys) bloom.Insert(k);
  for (const idx_t k : keys) EXPECT_TRUE(bloom.Contains(k));
}

TEST(BloomFilter, PaperSizingClaimUnderOnePercentFp) {
  // Paper §IV-B: "a Bloom filter with around 300 32-bit integers has less
  // than 1% false positives when inserting 1,000 vertices".
  BloomFilter bloom(300 * 32);
  for (idx_t k = 0; k < 1000; ++k) bloom.Insert(k);
  int fp = 0;
  const int probes = 50000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.Contains(static_cast<idx_t>(1000000 + i))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.01);
}

TEST(BloomFilter, TheoreticalRateMatchesEmpirical) {
  const size_t bits = 4096;
  const size_t hashes = 5;
  const size_t n = 500;
  BloomFilter bloom(bits, hashes);
  for (idx_t k = 0; k < n; ++k) bloom.Insert(k * 7919);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.Contains(static_cast<idx_t>(0x40000000 + i))) ++fp;
  }
  const double empirical = static_cast<double>(fp) / probes;
  const double theoretical =
      BloomFilter::TheoreticalFpRate(bloom.bit_count(), hashes, n);
  EXPECT_NEAR(empirical, theoretical, 0.02);
}

TEST(BloomFilter, ClearResets) {
  BloomFilter bloom(1024);
  bloom.Insert(42);
  ASSERT_TRUE(bloom.Contains(42));
  bloom.Clear();
  EXPECT_FALSE(bloom.Contains(42));
  EXPECT_EQ(bloom.size(), 0u);
}

TEST(BloomFilter, MemoryFootprintIsConstant) {
  BloomFilter bloom(9600);
  const size_t bytes = bloom.MemoryBytes();
  for (idx_t k = 0; k < 5000; ++k) bloom.Insert(k);
  EXPECT_EQ(bloom.MemoryBytes(), bytes);
  EXPECT_LE(bytes, 1280u);  // ~300 u32 + word rounding
}

TEST(BloomFilter, MoreBitsFewerFalsePositives) {
  auto fp_rate = [](size_t bits) {
    BloomFilter bloom(bits);
    for (idx_t k = 0; k < 2000; ++k) bloom.Insert(k);
    int fp = 0;
    for (int i = 0; i < 10000; ++i) {
      if (bloom.Contains(static_cast<idx_t>(100000 + i))) ++fp;
    }
    return static_cast<double>(fp) / 10000.0;
  };
  EXPECT_LT(fp_rate(1 << 16), fp_rate(1 << 12));
}

// ---- CuckooFilter ----

TEST(CuckooFilter, InsertContainsErase) {
  CuckooFilter filter(128);
  EXPECT_FALSE(filter.Contains(7));
  EXPECT_TRUE(filter.Insert(7));
  EXPECT_TRUE(filter.Contains(7));
  EXPECT_TRUE(filter.Erase(7));
  EXPECT_FALSE(filter.Contains(7));
}

TEST(CuckooFilter, NoFalseNegativesUnderLoad) {
  CuckooFilter filter(1000);
  std::vector<idx_t> keys;
  for (idx_t k = 0; k < 800; ++k) keys.push_back(k * 2654435761u);
  for (const idx_t k : keys) ASSERT_TRUE(filter.Insert(k));
  for (const idx_t k : keys) EXPECT_TRUE(filter.Contains(k)) << k;
}

TEST(CuckooFilter, LowFalsePositiveRate) {
  CuckooFilter filter(1000);
  for (idx_t k = 0; k < 800; ++k) filter.Insert(k);
  int fp = 0;
  const int probes = 50000;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(static_cast<idx_t>(1000000 + i))) ++fp;
  }
  // 16-bit fingerprints, 2 buckets of 4 slots: expected FP ~ 8/2^16 ≈ 0.012%.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.005);
}

TEST(CuckooFilter, EraseMissingReturnsFalse) {
  CuckooFilter filter(64);
  filter.Insert(1);
  EXPECT_FALSE(filter.Erase(2));
}

TEST(CuckooFilter, DeleteThenReinsert) {
  CuckooFilter filter(64);
  for (int round = 0; round < 50; ++round) {
    EXPECT_TRUE(filter.Insert(9));
    EXPECT_TRUE(filter.Contains(9));
    EXPECT_TRUE(filter.Erase(9));
    EXPECT_FALSE(filter.Contains(9));
  }
  EXPECT_EQ(filter.size(), 0u);
}

TEST(CuckooFilter, ClearResets) {
  CuckooFilter filter(64);
  filter.Insert(5);
  filter.Clear();
  EXPECT_FALSE(filter.Contains(5));
  EXPECT_EQ(filter.size(), 0u);
}

TEST(CuckooFilter, SmallerThanHashTableForSameCapacity) {
  // §IV-B: probabilistic structures trade accuracy for memory.
  CuckooFilter cuckoo(1024);
  EXPECT_LT(cuckoo.MemoryBytes(), HashTableModelBytes(1024));
}

// ---- VisitedTable facade ----

class VisitedTableTest : public ::testing::TestWithParam<VisitedStructure> {};

TEST_P(VisitedTableTest, BasicProtocol) {
  VisitedTable table;
  table.Reset(GetParam(), 256, /*num_ids=*/256);
  EXPECT_FALSE(table.Test(3));
  table.Insert(3);
  EXPECT_TRUE(table.Test(3));
  table.Clear();
  EXPECT_FALSE(table.Test(3));
}

TEST_P(VisitedTableTest, NoFalseNegatives) {
  VisitedTable table;
  table.Reset(GetParam(), 512, /*num_ids=*/400 * 31 + 8);
  for (idx_t k = 0; k < 400; ++k) table.Insert(k * 31 + 7);
  for (idx_t k = 0; k < 400; ++k) EXPECT_TRUE(table.Test(k * 31 + 7));
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, VisitedTableTest,
    ::testing::Values(VisitedStructure::kHashTable,
                      VisitedStructure::kBloomFilter,
                      VisitedStructure::kCuckooFilter),
    [](const ::testing::TestParamInfo<VisitedStructure>& info) {
      return VisitedStructureName(info.param);
    });

TEST(VisitedTable, DeletionSupportMatrix) {
  VisitedTable table;
  table.Reset(VisitedStructure::kHashTable, 16, /*num_ids=*/16);
  EXPECT_TRUE(table.SupportsDeletion());
  table.Reset(VisitedStructure::kCuckooFilter, 16, /*num_ids=*/16);
  EXPECT_TRUE(table.SupportsDeletion());
  table.Reset(VisitedStructure::kBloomFilter, 16, /*num_ids=*/16);
  EXPECT_FALSE(table.SupportsDeletion());
}

TEST(VisitedTable, HashTableReportsTheProbingTablesBytes) {
  // The host runs the hash table on the stamp array, but the footprint the
  // cost model prices stays the GPU table's slot array: the next power of
  // two >= 2 * capacity slots, at least 16, of 4 bytes each.
  const size_t capacities[] = {0, 1, 7, 8, 9, 100, 112, 2560, 5000};
  const size_t bytes[] = {64, 64, 64, 64, 128, 1024, 1024, 32768, 65536};
  VisitedTable table;
  for (size_t i = 0; i < std::size(capacities); ++i) {
    EXPECT_EQ(HashTableModelBytes(capacities[i]), bytes[i]) << capacities[i];
    table.Reset(VisitedStructure::kHashTable, capacities[i], /*num_ids=*/10000);
    EXPECT_EQ(table.MemoryBytes(), bytes[i]) << capacities[i];
  }
}

TEST(VisitedTable, BloomIsSmallest) {
  VisitedTable hash, bloom;
  hash.Reset(VisitedStructure::kHashTable, 1024, /*num_ids=*/1024);
  bloom.Reset(VisitedStructure::kBloomFilter, 1024, /*num_ids=*/1024);
  // Paper: "the Bloom filter method takes at least 3x less memory".
  EXPECT_LE(bloom.MemoryBytes() * 3, hash.MemoryBytes());
}

}  // namespace
}  // namespace song
