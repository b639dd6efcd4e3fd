// BestFirstSearch-vs-textbook differential. graph/graph_search.h's
// BestFirstSearch is the one best-first loop behind the reference search,
// every graph builder and HNSW; here it must match the textbook paper
// Algorithm 1 oracle (tests/harness/reference_search.h) on the visit order,
// the scored-vertex stream, the pop/expansion counts and the results, over
// seeded random graphs. Half the instances use small-integer coordinates so
// exact distance ties — and with them the strict-termination and id
// tie-break rules — are common.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/distance.h"
#include "core/random.h"
#include "graph/graph_search.h"
#include "gtest/gtest.h"
#include "harness/fuzz.h"
#include "harness/reference_search.h"

namespace song::harness {
namespace {

constexpr size_t kRounds = 200;

struct Case {
  bool multiple_entries = false;
  bool hide_vertices = false;  // may_traverse refuses ~30 % of vertices,
                               // in half the rounds only until its n-th
                               // call (a builder's insert published
                               // mid-search)
  bool sink = false;           // record the on_scored stream
  bool batch = false;          // score rows through ComputeBatch
};

struct Instance {
  Dataset data;
  FixedDegreeGraph graph;
  std::vector<float> query;
  std::vector<bool> hidden;
  Metric metric = Metric::kL2;
  size_t k = 1;
};

Instance MakeInstance(RandomEngine& rng) {
  const size_t n = 20 + rng.NextUint(300);
  const size_t dim = 2 + rng.NextUint(10);
  const size_t degree = 2 + rng.NextUint(15);
  const bool ties = rng.NextUint(2) == 0;
  const auto coord = [&] {
    return ties ? static_cast<float>(rng.NextUint(4))
                : static_cast<float>(rng.NextUniform(-1.0, 1.0));
  };
  Instance inst{Dataset(n, dim), FixedDegreeGraph(n, degree), {}, {}};
  const Metric metrics[] = {Metric::kL2, Metric::kInnerProduct,
                            Metric::kCosine};
  inst.metric = metrics[rng.NextUint(3)];
  std::vector<float> row(dim);
  for (size_t v = 0; v < n; ++v) {
    for (float& x : row) x = coord();
    // Cosine needs non-zero rows.
    if (inst.metric == Metric::kCosine) row[0] += 5.0f;
    inst.data.SetRow(static_cast<idx_t>(v), row.data());
    // Random rows: short, padded, with repeats and self-loops allowed.
    std::vector<idx_t> nbrs(rng.NextUint(degree + 1));
    for (idx_t& u : nbrs) u = static_cast<idx_t>(rng.NextUint(n));
    inst.graph.SetNeighbors(static_cast<idx_t>(v), nbrs);
    inst.hidden.push_back(rng.NextUint(10) < 3);
  }
  inst.query.resize(dim);
  for (float& x : inst.query) x = coord();
  if (inst.metric == Metric::kCosine) inst.query[0] += 5.0f;
  inst.k = 1 + rng.NextUint(10);
  return inst;
}

// Per-id scoring that logs every call.
struct LoggedDistance {
  std::function<float(idx_t)> score;
  std::vector<idx_t>* log;
  float operator()(idx_t v) const {
    log->push_back(v);
    return score(v);
  }
};

// Row-batch scoring through the fused kernel; per-id calls are counted so
// the test can prove BestFirstSearch took the ComputeBatch path.
struct LoggedBatchDistance {
  const BatchDistance* batch;
  const float* query;
  float query_norm_sqr;
  std::vector<idx_t>* log;
  size_t* per_id_calls;
  float operator()(idx_t v) const {
    ++*per_id_calls;
    log->push_back(v);
    return batch->Compute(query, query_norm_sqr, v);
  }
  void ComputeBatch(const idx_t* ids, size_t n, float* out) const {
    log->insert(log->end(), ids, ids + n);
    batch->ComputeBatch(query, query_norm_sqr, ids, n, out);
  }
};

void RunDifferential(const Case& c, uint64_t runner_seed) {
  RandomEngine rng(BaseSeed() ^ runner_seed);
  BestFirstScratch scratch;  // reused across instances of every size
  size_t batch_calls_checked = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    const Instance inst = MakeInstance(rng);
    const size_t n = inst.data.num();
    const float* query = inst.query.data();
    const BatchDistance batch(inst.metric, &inst.data);
    const float qn = batch.QueryNormSqr(query);
    const DistanceFunc pairwise = GetDistanceFunc(inst.metric);
    const std::function<float(idx_t)> score =
        c.batch ? std::function<float(idx_t)>([&](idx_t v) {
          return batch.Compute(query, qn, v);
        })
                : std::function<float(idx_t)>([&](idx_t v) {
                    return pairwise(query, inst.data.Row(v), inst.data.dim());
                  });
    // Each search gets a fresh predicate: both loops must ask it about the
    // same vertices in the same order for the reveals to line up.
    const size_t reveal_after =
        rng.NextUint(2) == 0 ? SIZE_MAX : rng.NextUint(64);
    const auto make_may_traverse = [&] {
      return std::function<bool(idx_t)>(
          [&, calls = size_t{0}](idx_t v) mutable {
            ++calls;
            return !(c.hide_vertices && inst.hidden[v] &&
                     calls <= reveal_after);
          });
    };

    // Entries may repeat: the second copy must be refused by test-and-set.
    std::vector<Neighbor> entries;
    const size_t num_entries = c.multiple_entries ? 2 + rng.NextUint(4) : 1;
    for (size_t i = 0; i < num_entries; ++i) {
      const idx_t v = static_cast<idx_t>(rng.NextUint(n));
      entries.emplace_back(score(v), v);
    }
    const auto row_of = [&](idx_t v) {
      return std::span<const idx_t>(inst.graph.Row(v), inst.graph.degree());
    };

    for (const size_t ef : {size_t{1}, inst.k, 4 * inst.k}) {
      const std::string where = "SONG_FUZZ_SEED=" + std::to_string(BaseSeed()) +
                                " runner_seed=" + std::to_string(runner_seed) +
                                " round=" + std::to_string(round) +
                                " ef=" + std::to_string(ef);
      const ReferenceBestFirstResult want =
          ReferenceBestFirstSearch(inst.graph, entries, ef, score,
                                   make_may_traverse());

      std::vector<idx_t> visit_order;
      std::vector<Neighbor> scored;
      GraphSearchStats stats;
      size_t per_id_calls = 0;
      const auto on_scored = [&](const Neighbor& x) {
        if (c.sink) scored.push_back(x);
      };
      std::vector<Neighbor> got;
      std::function<bool(idx_t)> may_traverse = make_may_traverse();
      if (c.batch) {
        got = BestFirstSearch(
            row_of,
            LoggedBatchDistance{&batch, query, qn, &visit_order,
                                &per_id_calls},
            entries, ef, n, &scratch, &stats, may_traverse, on_scored);
        ASSERT_EQ(per_id_calls, 0u) << where;
        batch_calls_checked += visit_order.size();
      } else {
        got = BestFirstSearch(row_of, LoggedDistance{score, &visit_order},
                              entries, ef, n, &scratch, &stats, may_traverse,
                              on_scored);
      }

      ASSERT_EQ(visit_order, want.visit_order) << where;
      ASSERT_EQ(got, want.results) << where;
      ASSERT_EQ(stats.iterations, want.iterations) << where;
      ASSERT_EQ(stats.hops, want.hops) << where;
      ASSERT_EQ(stats.distance_computations, want.visit_order.size()) << where;
      if (c.sink) ASSERT_EQ(scored, want.scored) << where;

      // GraphSearch is the single-entry, per-id instantiation: its top-k is
      // the oracle's best k at ef clamped up to k.
      if (!c.multiple_entries && !c.hide_vertices && !c.batch) {
        const std::vector<Neighbor> top_k = GraphSearch(
            inst.data, inst.metric, inst.graph, entries[0].id, query, ef,
            inst.k, &scratch);
        std::vector<Neighbor> expect =
            ReferenceBestFirstSearch(inst.graph, entries, std::max(ef, inst.k),
                                     score, make_may_traverse())
                .results;
        if (expect.size() > inst.k) expect.resize(inst.k);
        ASSERT_EQ(top_k, expect) << where;
      }
    }
  }
  if (c.batch) EXPECT_GT(batch_calls_checked, 0u);
}

TEST(HarnessBestFirstDifferential, SingleEntryMatchesTextbook) {
  RunDifferential(Case{}, 0xB1);
}

TEST(HarnessBestFirstDifferential, MultipleEntriesMatchTextbook) {
  RunDifferential(Case{.multiple_entries = true}, 0xB2);
}

TEST(HarnessBestFirstDifferential, MayTraverseHidesVertices) {
  RunDifferential(Case{.multiple_entries = true, .hide_vertices = true}, 0xB3);
}

TEST(HarnessBestFirstDifferential, ScoredSinkSeesEveryScoredVertex) {
  RunDifferential(Case{.hide_vertices = true, .sink = true}, 0xB4);
}

TEST(HarnessBestFirstDifferential, ComputeBatchMatchesPerIdScoring) {
  RunDifferential(Case{.multiple_entries = true, .sink = true, .batch = true},
                  0xB5);
}

}  // namespace
}  // namespace song::harness
