// Golden digests of the GPU-priced search presets. Every SONG-frontier
// configuration (hashtable, +selected insertion, +visited deletion, Bloom,
// Cuckoo, a saturating hash-table capacity, multi-step probing at 2 and 4
// pops per round, the §IV-D/E rules over the epoch array) and the CPU
// preset must keep returning exactly these ids and distance bits and
// counting exactly these SearchStats: a faster visited structure or
// frontier may not move one result or one counter, since the GPU cost model
// and every figure price the counters. Each preset has two rows: the
// one-seed search (SongSearchCore from `{entry}` alone, the single-entry
// walk every search ran before seeding) and the default SongSearcher, which
// starts from its SeedList. The metrics are L2, inner product and cosine
// over the exact-in-float datasets of harness/exact_data.h, so the digests
// hold under every SIMD tier (SONG_SIMD). One workspace serves every preset
// in turn, as a serving thread's would.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "graph/fixed_degree_graph.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "harness/exact_data.h"
#include "obs/request_timeline.h"
#include "song/search_core.h"
#include "song/search_options.h"
#include "song/song_searcher.h"

namespace song {
namespace {

using harness::Coords;
using harness::MakeExactData;

struct Preset {
  const char* name;
  SongSearchOptions options;
};

// hash_capacity 48 without deletion, and 40 with it, saturate at ef 32 on
// these graphs (the test asserts visited_insert_failures > 0), so the
// refused-insert path is pinned as well.
std::vector<Preset> Presets() {
  SongSearchOptions saturated = SongSearchOptions::HashTable();
  saturated.hash_capacity = 48;
  SongSearchOptions saturated_del = SongSearchOptions::HashTableSelDel();
  saturated_del.hash_capacity = 40;
  // Multi-step probing (§V, Fig 9) pops 2 or 4 vertices per round, so one
  // Stage 3 batch interleaves several expansions' neighbours.
  const auto multi_step = [](SongSearchOptions o, size_t steps) {
    o.multi_step_probe = steps;
    return o;
  };
  // The §IV-D/E rules over the unbounded epoch array.
  SongSearchOptions epoch_seldel = SongSearchOptions::HashTableSelDel();
  epoch_seldel.structure = VisitedStructure::kEpochArray;
  return {{"hashtable", SongSearchOptions::HashTable()},
          {"sel", SongSearchOptions::HashTableSel()},
          {"seldel", SongSearchOptions::HashTableSelDel()},
          {"bloom", SongSearchOptions::Bloom()},
          {"cuckoo", SongSearchOptions::Cuckoo()},
          {"hashtable-cap48", saturated},
          {"seldel-cap40", saturated_del},
          {"cpu", SongSearchOptions::CpuEngineered()},
          {"seldel-ms2", multi_step(SongSearchOptions::HashTableSelDel(), 2)},
          {"seldel-ms4", multi_step(SongSearchOptions::HashTableSelDel(), 4)},
          {"cuckoo-ms2", multi_step(SongSearchOptions::Cuckoo(), 2)},
          {"cuckoo-ms4", multi_step(SongSearchOptions::Cuckoo(), 4)},
          {"epoch-seldel", epoch_seldel}};
}
constexpr size_t kNumPresets = 13;

uint64_t Mix(uint64_t h, const SearchStats& s) {
  const size_t fields[] = {s.iterations,
                           s.vertices_expanded,
                           s.graph_rows_loaded,
                           s.graph_bytes_loaded,
                           s.q_pops,
                           s.distance_computations,
                           s.data_bytes_loaded,
                           s.adc_tables_built,
                           s.adc_table_build_ns,
                           s.rerank_candidates,
                           s.rerank_bytes_loaded,
                           s.q_pushes,
                           s.q_evictions,
                           s.q_rejections,
                           s.topk_pushes,
                           s.topk_evictions,
                           s.visited_tests,
                           s.visited_insertions,
                           s.visited_deletions,
                           s.visited_insert_failures,
                           s.selected_insertion_skips,
                           s.budget_terminations,
                           s.visited_capacity_bytes,
                           s.peak_visited_size,
                           s.queue_bytes};
  for (const size_t f : fields) h = obs::Fnv1aMix(h, f);
  return h;
}

std::string Hex(uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

struct Case {
  Coords coords;
  Metric metric;
  const char* one_seed[kNumPresets];  ///< in Presets() order
  const char* seeded[kNumPresets];    ///< in Presets() order
};

std::string Name(const Case& c) {
  return std::string(c.coords == Coords::kTies ? "ties/" : "gauss/") +
         MetricName(c.metric);
}

const Case kCases[] = {
    {Coords::kTies,
     Metric::kL2,
     {"2503a96b8db3d0cf", "645d28d87f10351c", "7fca8ab3dddefa0a",
      "7e13a74a5c235c8c", "504da0576fdaf3fa", "a0a89d1e6abdd37d",
      "d7e727ec36dc28d7", "673032c6985be105", "f8bb0beaf7b1d028",
      "78bb696998d085ca", "4d11654e7a0e8b10", "e5e43595ce56fec6",
      "6c0fa90a56c8a47e"},
     {"dc78a17c4dc2a679", "9053a7e8fd96a009", "2301fbd6db5d11b4",
      "3a77996f52122e39", "7cfc209991c50729", "927ce36f0675359a",
      "7606e8e07582ba1e", "4116abc1ffd85fe6", "b082e982b6acb0f6",
      "0f59c1f57dcf0999", "4b46f0f881653d66", "653f0d35197dc925",
      "e6c1836dfc735164"}},
    {Coords::kTies,
     Metric::kInnerProduct,
     {"bd8b9d30641d2bd0", "6a1ad2e1b8da3800", "b3bbe3731432bae8",
      "3141dabbd0dc6150", "00d84ed0be89b5e4", "71cc98104ac1cf1b",
      "4a3e6a2ed1cdecb4", "70fa1c78dea039a0", "412e060eb9bd9ecd",
      "526b3f9e4d8aa7b4", "a3993405a24d7d3d", "b36d0bd6561c5e44",
      "e0df44ebc9a75020"},
     {"13817d637b512658", "1eea87f37b80dba2", "e51c2f891d66dc55",
      "cecaa4fe4817cada", "0a87b4401fafdb51", "cd6522ac40480434",
      "6e07801269f1d00e", "cfbb6d78819e0002", "5bad7eee2316a422",
      "25327d79546df278", "dc2627705df4b54e", "475abbb5c4c1e110",
      "8fca81bad2d083a1"}},
    {Coords::kTies,
     Metric::kCosine,
     {"05dc93f057db1b80", "0a3bb0bd3d3cd4b6", "c2f6eb7f5e636149",
      "ab34781954e1ec1e", "191eb08e11c9dc02", "88ee5019cb4f495b",
      "f452cb379038d9cf", "a0582b12d7a627d3", "d9ec3ef630f942d8",
      "041fee8fbc3e8ddf", "ab8878fe30286881", "3bd120e4fe02c47b",
      "15edda24ee42a701"},
     {"e2a77cdc91899750", "f4a6b9215171ce94", "556550a2c5cbf93b",
      "4c7eca524ade9d44", "e0e11742eb85f220", "dc6c5d8f4717b9f1",
      "3837655b63bc9bc9", "aa05a065d6960895", "9eeadac6c6171810",
      "00966159d7f04464", "6e0a8eee577bb6b0", "31971894ae549690",
      "2905174999b696b3"}},
    {Coords::kGauss,
     Metric::kL2,
     {"91e19eb8fc1bc05e", "b0bb1522c468ba82", "54a1e0364da46b3a",
      "c4212b05102b9882", "8f730a1245a50eae", "8d15b327f725d9d3",
      "840cba90e0209246", "67c19778a382be62", "484d3aebd9bdb029",
      "d8a80d1eb896b2e5", "04d29616702e28f1", "d2f831ecc7ede5c1",
      "c3ae6ad6910d8bd2"},
     {"c1b89281f25661b6", "9404ac8534a992e4", "58e9af069c3be9e0",
      "cd39353969bd9acc", "f2818dea4d43b2b8", "b6ee48a379e40b25",
      "59771211afbee1ca", "fb795fe322b0e36e", "e538f19534bea37c",
      "738cdf93560a28c6", "1c68e0321e871300", "626f1369a4c691fa",
      "441286f12055acb0"}},
    {Coords::kGauss,
     Metric::kInnerProduct,
     {"d41b9bcf8f449a83", "83bac1e4b7cc8b6e", "a0d93b94b4985cac",
      "7522b37536bfe2be", "597ae586e453b16c", "5af8a8b980661e69",
      "cee303f8ffef2103", "91ff5be1057b92d7", "4a8852152da512db",
      "e41bb8e98a87ebd2", "72f756cef28f6b43", "c42bf61884039b62",
      "35fa27d9854d9398"},
     {"e84fc3d982bf623d", "f3df2ffe3e65190b", "5a3820aded4d4ac1",
      "f958bc6545895653", "b10f4d4e36eb5a99", "e68e028e668d198a",
      "f7a0a61ae80a1c41", "ab5db549f1da45c4", "365717b4cc0db65f",
      "2097d41e4f94d8cb", "7b60f26ae80cb81f", "fff134428cb8798f",
      "21d421aaa8cc8d8d"}},
    {Coords::kGauss,
     Metric::kCosine,
     {"4ffceedf0fadfecd", "240abbaaef57f763", "6f09159d867ad08b",
      "bd9cbbf773f5a3b3", "1bd905e1c84235db", "ad95d7684c31dd54",
      "d0ad44db3f9b1eaa", "dfcad40c2d9822cd", "f0ea6191e6fb136a",
      "7b3f6e65aad867eb", "f5c0860af4c3878e", "47ea821d7548be8f",
      "d63a09e5d74daf27"},
     {"f9f13b5664ddec86", "f8b9769cf36b3303", "962d2fbec4ae7c4f",
      "bc0697f3dfb92573", "2ebf3dba5ece2e0b", "a2ab77f6e0e0eaa1",
      "7fd31c93f7dd2b67", "683cbdb6c70f5049", "f55edd0241f6ed2f",
      "6f7c66f7b55f55aa", "653df3ced8276277", "4f632409e0fa44a2",
      "433f75b55317a2b7"}},
};

/// The searcher's Stage-2 callable, rebuilt over the same BatchDistance so
/// the one-seed rows score exactly as SongSearcher::Search does.
struct DenseDistance {
  const BatchDistance* bd;
  const float* query;
  float query_norm_sqr;

  float operator()(idx_t v) const {
    return bd->Compute(query, query_norm_sqr, v);
  }
  void ComputeBatch(const idx_t* ids, size_t n, float* out) const {
    bd->ComputeBatch(query, query_norm_sqr, ids, n, out);
  }
};

/// Runs every preset over every case and checks each digest against
/// `want(case)[preset]`. `search` runs one query and returns its results.
template <typename Want, typename Search>
void CheckDigests(Want want, Search search) {
  const std::vector<Preset> presets = Presets();
  ASSERT_EQ(presets.size(), kNumPresets);
  SongWorkspace workspace;
  for (const Case& c : kCases) {
    const Dataset data = MakeExactData(c.coords, c.metric, 600, 0xD16E1);
    const Dataset queries = MakeExactData(c.coords, c.metric, 24, 0xD16E2);
    NswBuildOptions build;
    build.degree = 12;
    build.ef_construction = 40;
    build.num_threads = 1;
    const FixedDegreeGraph graph = NswBuilder::Build(data, c.metric, build);
    const SongSearcher searcher(&data, &graph, c.metric);
    for (size_t p = 0; p < kNumPresets; ++p) {
      SongSearchOptions options = presets[p].options;
      options.queue_size = 32;
      uint64_t h = obs::kFnv1aOffset;
      size_t insert_failures = 0;
      for (idx_t q = 0; q < queries.num(); ++q) {
        SearchStats stats;
        const std::vector<Neighbor> result =
            search(searcher, queries.Row(q), options, &workspace, &stats);
        h = obs::Fnv1aMix(h, result.size());
        for (const Neighbor& nb : result) {
          uint32_t bits = 0;
          std::memcpy(&bits, &nb.dist, sizeof(bits));
          h = obs::Fnv1aMix(h, nb.id);
          h = obs::Fnv1aMix(h, bits);
        }
        h = Mix(h, stats);
        insert_failures += stats.visited_insert_failures;
      }
      if (options.hash_capacity != 0) {
        EXPECT_GT(insert_failures, 0u)
            << Name(c) << "/" << presets[p].name << " never saturated";
      }
      EXPECT_EQ(Hex(h), want(c)[p]) << Name(c) << "/" << presets[p].name;
    }
  }
}

TEST(PresetDigest, SearchResultsAndCountersAreByteIdentical) {
  // The one-seed rows: a direct SongSearchCore call from `{entry}`.
  CheckDigests(
      [](const Case& c) { return c.one_seed; },
      [](const SongSearcher& searcher, const float* query,
         const SongSearchOptions& options, SongWorkspace* workspace,
         SearchStats* stats) {
        const BatchDistance bd(searcher.metric(), &searcher.data());
        const DenseDistance distance{&bd, query, bd.QueryNormSqr(query)};
        const idx_t seeds[] = {searcher.entry()};
        return SongSearchCore(searcher.graph(), seeds, searcher.data().num(),
                              searcher.data().dim() * sizeof(float), distance,
                              10, options, workspace, stats);
      });
}

TEST(PresetDigest, SeededSearcherIsByteIdentical) {
  // The default SongSearcher, seeded by its SeedList.
  CheckDigests(
      [](const Case& c) { return c.seeded; },
      [](const SongSearcher& searcher, const float* query,
         const SongSearchOptions& options, SongWorkspace* workspace,
         SearchStats* stats) {
        return searcher.Search(query, 10, options, workspace, stats);
      });
}

}  // namespace
}  // namespace song
