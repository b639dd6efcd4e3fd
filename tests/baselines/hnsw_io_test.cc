// HNSW serialization round-trip: a reloaded index must search identically.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/hnsw.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"

namespace song {
namespace {

TEST(HnswIo, SaveLoadRoundTripSearchesIdentically) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_points = 1500;
  spec.num_queries = 10;
  spec.num_clusters = 6;
  spec.seed = 91;
  SyntheticData gen = GenerateSynthetic(spec);
  HnswBuildOptions opts;
  opts.num_threads = 1;
  Hnsw original(&gen.points, Metric::kL2, opts);

  const std::string path =
      (std::filesystem::temp_directory_path() / "song_hnsw_io.bin").string();
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = Hnsw::Load(path, &gen.points, Metric::kL2);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->max_level(), original.max_level());
  EXPECT_EQ(loaded->entry_point(), original.entry_point());
  EXPECT_EQ(loaded->MemoryBytes(), original.MemoryBytes());

  for (size_t q = 0; q < gen.queries.num(); ++q) {
    const float* query = gen.queries.Row(static_cast<idx_t>(q));
    const auto a = original.Search(query, 10, 64);
    const auto b = loaded->Search(query, 10, 64);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " i=" << i;
      EXPECT_FLOAT_EQ(a[i].dist, b[i].dist);
    }
  }
  std::remove(path.c_str());
}

TEST(HnswIo, LoadRejectsWrongDatasetSize) {
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_points = 200;
  spec.num_queries = 1;
  spec.seed = 92;
  SyntheticData gen = GenerateSynthetic(spec);
  HnswBuildOptions opts;
  opts.num_threads = 1;
  Hnsw original(&gen.points, Metric::kL2, opts);
  const std::string path =
      (std::filesystem::temp_directory_path() / "song_hnsw_io2.bin")
          .string();
  ASSERT_TRUE(original.Save(path).ok());

  Dataset other(100, 8);
  auto loaded = Hnsw::Load(path, &other, Metric::kL2);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// Patches one u32 of a saved index and expects Load to refuse the file.
class HnswCorruptLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.dim = 8;
    spec.num_points = 300;
    spec.num_queries = 1;
    spec.seed = 93;
    gen_ = GenerateSynthetic(spec);
    HnswBuildOptions opts;
    opts.m = 4;
    opts.num_threads = 1;
    ASSERT_TRUE(Hnsw(&gen_.points, Metric::kL2, opts).Save(path_).ok());
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    for (int c; (c = std::fgetc(f)) != EOF;) bytes_.push_back(c);
    std::fclose(f);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  uint32_t U32(size_t offset) const {
    uint32_t v;
    std::memcpy(&v, &bytes_[offset], 4);
    return v;
  }
  // Offset of vertex v's level, and of the first slot of v's level-1 row.
  size_t LevelAt(size_t v) const { return 24 + 4 * v; }
  size_t UpperRowAt(size_t v) const {
    const size_t n = gen_.points.num(), m = U32(4);
    size_t offset = 24 + 4 * n + 4 * 2 * m * n;
    for (size_t u = 0; u < v; ++u) offset += 4 * m * U32(LevelAt(u));
    return offset;
  }
  StatusCode LoadPatched(size_t offset, uint32_t value) {
    std::vector<uint8_t> bytes = bytes_;
    std::memcpy(&bytes[offset], &value, 4);
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return Hnsw::Load(path_, &gen_.points, Metric::kL2).status().code();
  }

  SyntheticData gen_;
  const std::string path_ =
      (std::filesystem::temp_directory_path() / "song_hnsw_corrupt.bin")
          .string();
  std::vector<uint8_t> bytes_;
};

TEST_F(HnswCorruptLoadTest, RejectsEachInconsistentField) {
  const uint32_t n = static_cast<uint32_t>(gen_.points.num());
  const uint32_t top = U32(8);
  ASSERT_GT(top, 0u) << "fixture needs an upper layer";
  EXPECT_EQ(LoadPatched(0, U32(0)), StatusCode::kOk);
  EXPECT_NE(LoadPatched(4, 1u << 30), StatusCode::kOk);  // degree m
  EXPECT_EQ(LoadPatched(8, 32), StatusCode::kDataLoss);  // max level
  EXPECT_EQ(LoadPatched(12, n), StatusCode::kDataLoss);  // entry point
  // The entry point must sit on the top level, and no vertex above it.
  EXPECT_EQ(LoadPatched(LevelAt(U32(12)), top - 1), StatusCode::kDataLoss);
  EXPECT_EQ(LoadPatched(LevelAt(0), top + 1), StatusCode::kDataLoss);
  // Layer-0 ids must be vertices.
  EXPECT_EQ(LoadPatched(24 + 4 * n, n), StatusCode::kDataLoss);
  // An upper-layer id must name a vertex that reaches that layer (search
  // reads its row there): vertex 0 is built at level 0.
  size_t v = 1;
  while (U32(LevelAt(v)) == 0) ++v;
  EXPECT_EQ(LoadPatched(UpperRowAt(v), 0), StatusCode::kDataLoss);
}

TEST(HnswIo, LoadMissingFileFails) {
  Dataset data(10, 4);
  EXPECT_FALSE(Hnsw::Load("/nonexistent/hnsw.bin", &data, Metric::kL2).ok());
}

}  // namespace
}  // namespace song
