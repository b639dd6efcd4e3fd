// The seed list every searcher scores as round 0 (SeedList in
// song/search_core.h): the entry first and once, distinct in-range ids,
// min(degree, n) of them, and a pure function of (n, degree, entry).

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "song/search_core.h"

namespace song {
namespace {

void ExpectWellFormed(size_t n, size_t degree, idx_t entry) {
  const std::vector<idx_t> seeds = SeedList(n, degree, entry);
  SCOPED_TRACE(testing::Message() << "n=" << n << " degree=" << degree
                                  << " entry=" << entry);
  ASSERT_EQ(seeds.size(), std::min(degree, n));
  EXPECT_EQ(seeds.front(), entry);
  EXPECT_EQ(std::count(seeds.begin(), seeds.end(), entry), 1);
  const std::set<idx_t> distinct(seeds.begin(), seeds.end());
  EXPECT_EQ(distinct.size(), seeds.size());
  for (const idx_t s : seeds) EXPECT_LT(s, n);
}

TEST(SeedList, EntryFirstDistinctInRangeAndFull) {
  const size_t degrees[] = {1, 2, 3, 12, 16, 32};
  const size_t sizes[] = {1, 2, 3, 5, 11, 12, 13, 31, 100, 16000};
  for (const size_t degree : degrees) {
    for (const size_t n : sizes) {
      const idx_t last = static_cast<idx_t>(n - 1);
      for (const idx_t entry : {idx_t{0}, last / 2, last}) {
        ExpectWellFormed(n, degree, entry);
      }
    }
  }
}

TEST(SeedList, SinglePointHoldsJustTheEntry) {
  EXPECT_EQ(SeedList(1, 16, 0), std::vector<idx_t>{0});
  EXPECT_TRUE(SeedList(0, 16, 0).empty());
}

TEST(SeedList, FewerPointsThanDegreeSeedsEveryPoint) {
  const std::vector<idx_t> seeds = SeedList(5, 16, 3);
  EXPECT_EQ(seeds.front(), 3u);
  EXPECT_EQ(std::set<idx_t>(seeds.begin(), seeds.end()),
            (std::set<idx_t>{0, 1, 2, 3, 4}));
}

TEST(SeedList, DefaultEntryWalksTheEvenGrid) {
  // entry 0, then floor(i * n / degree) for i = 1 .. degree - 1.
  EXPECT_EQ(SeedList(100, 4, 0), (std::vector<idx_t>{0, 25, 50, 75}));
  EXPECT_EQ(SeedList(10, 3, 0), (std::vector<idx_t>{0, 3, 6}));
}

TEST(SeedList, EntryOnTheGridStillGetsVertexZero) {
  // 50 is a grid vertex: dropped as a repeat, so vertex 0 (i = 0) fills in.
  EXPECT_EQ(SeedList(100, 4, 50), (std::vector<idx_t>{50, 25, 75, 0}));
  // Off the grid: the entry displaces vertex 0.
  EXPECT_EQ(SeedList(100, 4, 7), (std::vector<idx_t>{7, 25, 50, 75}));
}

TEST(SeedList, IsAPureFunctionOfItsArguments) {
  for (const size_t n : {1, 7, 1000}) {
    for (const size_t degree : {1, 8, 24}) {
      const idx_t entry = static_cast<idx_t>(n / 3);
      EXPECT_EQ(SeedList(n, degree, entry), SeedList(n, degree, entry));
    }
  }
  // Distinct arguments give the lists the rule names, not leftovers of an
  // earlier call.
  EXPECT_EQ(SeedList(8, 2, 0), (std::vector<idx_t>{0, 4}));
  EXPECT_EQ(SeedList(8, 2, 1), (std::vector<idx_t>{1, 4}));
  EXPECT_EQ(SeedList(8, 2, 0), (std::vector<idx_t>{0, 4}));
}

}  // namespace
}  // namespace song
