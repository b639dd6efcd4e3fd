// Corrupted-bytes fuzz over every on-disk format (SNGD datasets, SNGG
// fixed-degree graphs, SNGH HNSW indexes): hundreds of deterministic
// truncations, bit flips, extensions and header scrambles, each of which
// must come back as an error Status (or as a still-valid load) — never a
// crash, OOM, or sanitizer report. This is the acceptance gate for the
// loader hardening: a hostile header may not drive an allocation, and a
// mutated payload may not smuggle out-of-range neighbor ids into search.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "baselines/hnsw.h"
#include "core/dataset.h"
#include "graph/fixed_degree_graph.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"

namespace song {
namespace {

std::vector<uint8_t> ReadAll(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Applies one deterministic mutation drawn from `rng` to a copy of
/// `pristine`: truncation, 1–16 bit flips, garbage extension, or a header
/// overwrite with an extreme value (the hostile-allocation case).
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& pristine,
                            std::mt19937_64& rng) {
  std::vector<uint8_t> bytes = pristine;
  switch (rng() % 4) {
    case 0: {  // truncate anywhere, including to zero bytes
      bytes.resize(rng() % (bytes.size() + 1));
      break;
    }
    case 1: {  // flip 1..16 random bits
      const size_t flips = 1 + rng() % 16;
      for (size_t i = 0; i < flips && !bytes.empty(); ++i) {
        bytes[rng() % bytes.size()] ^= uint8_t{1} << (rng() % 8);
      }
      break;
    }
    case 2: {  // append random garbage
      const size_t extra = 1 + rng() % 256;
      for (size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<uint8_t>(rng()));
      }
      break;
    }
    default: {  // stomp a header field with an extreme count
      const uint64_t extremes[] = {0, ~0ull, uint64_t{1} << 62,
                                   uint64_t{1} << 41, 0x4141414141414141ull};
      const uint64_t v = extremes[rng() % 5];
      const size_t header = std::min<size_t>(bytes.size(), 24);
      if (header >= sizeof(v)) {
        const size_t off = rng() % (header - sizeof(v) + 1);
        std::memcpy(bytes.data() + off, &v, sizeof(v));
      }
      break;
    }
  }
  return bytes;
}

struct FuzzFixture {
  std::string dataset_path;
  std::string graph_path;
  std::string hnsw_path;
  Dataset data;
  std::vector<uint8_t> dataset_bytes;
  std::vector<uint8_t> graph_bytes;
  std::vector<uint8_t> hnsw_bytes;

  static const FuzzFixture& Get() {
    static FuzzFixture* f = [] {
      auto* fx = new FuzzFixture();
      const std::string dir = ::testing::TempDir();
      fx->dataset_path = dir + "/corrupt_fuzz.sngd";
      fx->graph_path = dir + "/corrupt_fuzz.sngg";
      fx->hnsw_path = dir + "/corrupt_fuzz.sngh";

      Dataset& data = fx->data;
      data = Dataset(200, 16);
      std::mt19937_64 rng(0x51a7e57);
      std::vector<float> row(16);
      for (size_t i = 0; i < data.num(); ++i) {
        for (float& v : row) {
          v = static_cast<float>(rng() % 1000) / 100.0f;
        }
        data.SetRow(static_cast<idx_t>(i), row.data());
      }
      EXPECT_TRUE(data.Save(fx->dataset_path).ok());

      NswBuildOptions nsw;
      nsw.degree = 8;
      nsw.num_threads = 1;
      const FixedDegreeGraph graph = NswBuilder::Build(data, Metric::kL2, nsw);
      EXPECT_TRUE(graph.Save(fx->graph_path).ok());
      HnswBuildOptions hnsw;
      hnsw.m = 4;  // small m: several upper levels over 200 points
      hnsw.num_threads = 1;
      EXPECT_TRUE(Hnsw(&data, Metric::kL2, hnsw).Save(fx->hnsw_path).ok());

      fx->dataset_bytes = ReadAll(fx->dataset_path);
      fx->graph_bytes = ReadAll(fx->graph_path);
      fx->hnsw_bytes = ReadAll(fx->hnsw_path);
      return fx;
    }();
    return *f;
  }
};

constexpr size_t kRoundsPerFormat = 100;  // 300 mutated files total

TEST(HarnessCorruptFileFuzz, DatasetLoadNeverCrashes) {
  const FuzzFixture& fx = FuzzFixture::Get();
  std::mt19937_64 rng(0xD47A);
  const std::string path = fx.dataset_path + ".mut";
  for (size_t round = 0; round < kRoundsPerFormat; ++round) {
    WriteAll(path, Mutate(fx.dataset_bytes, rng));
    StatusOr<Dataset> loaded = Dataset::Load(path);
    if (loaded.ok()) {
      // A load that survives mutation must still be internally consistent.
      EXPECT_GT(loaded->dim(), 0u) << "round " << round;
      EXPECT_GT(loaded->num(), 0u) << "round " << round;
    } else {
      EXPECT_FALSE(loaded.status().message().empty()) << "round " << round;
    }
  }
  std::remove(path.c_str());
}

TEST(HarnessCorruptFileFuzz, FixedDegreeGraphLoadNeverCrashes) {
  const FuzzFixture& fx = FuzzFixture::Get();
  std::mt19937_64 rng(0x6A4F);
  const std::string path = fx.graph_path + ".mut";
  for (size_t round = 0; round < kRoundsPerFormat; ++round) {
    WriteAll(path, Mutate(fx.graph_bytes, rng));
    StatusOr<FixedDegreeGraph> loaded = FixedDegreeGraph::Load(path);
    if (loaded.ok()) {
      // Bounds validation is part of the load contract: every surviving
      // neighbor id must be a real vertex (search indexes rows with them).
      const FixedDegreeGraph& g = loaded.value();
      for (size_t v = 0; v < g.num_vertices(); ++v) {
        for (const idx_t u : g.Neighbors(static_cast<idx_t>(v))) {
          ASSERT_LT(u, g.num_vertices()) << "round " << round;
        }
      }
    } else {
      EXPECT_FALSE(loaded.status().message().empty()) << "round " << round;
    }
  }
  std::remove(path.c_str());
}

TEST(HarnessCorruptFileFuzz, HnswLoadNeverCrashes) {
  const FuzzFixture& fx = FuzzFixture::Get();
  std::mt19937_64 rng(0x5A6B);
  const std::string path = fx.hnsw_path + ".mut";
  for (size_t round = 0; round < kRoundsPerFormat; ++round) {
    WriteAll(path, Mutate(fx.hnsw_bytes, rng));
    StatusOr<Hnsw> loaded = Hnsw::Load(path, &fx.data, Metric::kL2);
    if (loaded.ok()) {
      // A surviving load must search without touching out-of-range rows
      // (ASan turns any stray read into a failure here).
      EXPECT_LT(loaded->entry_point(), fx.data.num()) << "round " << round;
      for (idx_t q = 0; q < 5; ++q) {
        for (const Neighbor& n : loaded->Search(fx.data.Row(q), 5, 16)) {
          ASSERT_LT(n.id, fx.data.num()) << "round " << round;
        }
      }
    } else {
      EXPECT_FALSE(loaded.status().message().empty()) << "round " << round;
    }
  }
  std::remove(path.c_str());
}

TEST(HarnessCorruptFileFuzz, PristineFilesRoundTrip) {
  const FuzzFixture& fx = FuzzFixture::Get();
  EXPECT_TRUE(Dataset::Load(fx.dataset_path).ok());
  EXPECT_TRUE(FixedDegreeGraph::Load(fx.graph_path).ok());
  EXPECT_TRUE(Hnsw::Load(fx.hnsw_path, &fx.data, Metric::kL2).ok());
}

TEST(HarnessCorruptFileFuzz, MissingFileIsStatusNotCrash) {
  const StatusOr<Dataset> d = Dataset::Load("/nonexistent/dir/x.sngd");
  EXPECT_FALSE(d.ok());
  const StatusOr<FixedDegreeGraph> g =
      FixedDegreeGraph::Load("/nonexistent/dir/x.sngg");
  EXPECT_FALSE(g.ok());
  const StatusOr<Hnsw> h =
      Hnsw::Load("/nonexistent/dir/x.sngh", &FuzzFixture::Get().data,
                 Metric::kL2);
  EXPECT_FALSE(h.ok());
}

}  // namespace
}  // namespace song
