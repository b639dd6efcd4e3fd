// Micro ablation for §IV-A: fixed-degree rows vs CSR adjacency during graph
// traversal. The fixed-degree layout locates a row with one multiply and one
// (coalesced) load; CSR needs the offset pair first — an extra dependent
// memory access per expansion, on the GPU (modeled) a full extra global
// transaction. The CSR side is a transaction count, not a stored format.

#include <benchmark/benchmark.h>

#include <random>

#include "data/synthetic.h"
#include "graph/fixed_degree_graph.h"
#include "graph/nsw_builder.h"

namespace song {
namespace {

struct StorageFixture {
  FixedDegreeGraph fixed;
  static StorageFixture& Get() {
    static StorageFixture* f = [] {
      auto* fx = new StorageFixture();
      SyntheticSpec spec;
      spec.dim = 32;
      spec.num_points = 20000;
      spec.num_queries = 1;
      spec.num_clusters = 50;
      spec.seed = 5050;
      const SyntheticData gen = GenerateSynthetic(spec);
      fx->fixed = NswBuilder::Build(gen.points, Metric::kL2, {});
      return fx;
    }();
    return *f;
  }
};

// Random-walk traversal: the access pattern of graph search without the
// distance computations, isolating the storage layer.
void BM_FixedDegreeWalk(benchmark::State& state) {
  auto& fx = StorageFixture::Get();
  std::mt19937 rng(1);
  idx_t v = 0;
  size_t sum = 0;
  for (auto _ : state) {
    const idx_t* row = fx.fixed.Row(v);
    size_t count = 0;
    while (count < fx.fixed.degree() && row[count] != kInvalidIdx) {
      sum += row[count];
      ++count;
    }
    v = count > 0 ? row[rng() % count] : static_cast<idx_t>(rng() % 20000);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedDegreeWalk);

// GPU-side accounting comparison (printed as counters, not wall time). A CSR
// expansion reads the offset pair (one transaction) and then its `count`
// ids packed contiguously: 1 + ceil(count*4/128) transactions.
void BM_ModeledTransactionsPerExpansion(benchmark::State& state) {
  auto& fx = StorageFixture::Get();
  size_t fixed_tx = 0, csr_tx = 0, expansions = 0;
  for (auto _ : state) {
    for (idx_t v = 0; v < 1000; ++v) {
      // Fixed degree: ceil(degree*4/128) transactions, no indirection.
      fixed_tx += (fx.fixed.degree() * sizeof(idx_t) + 127) / 128;
      csr_tx += 1 + (fx.fixed.NeighborCount(v) * sizeof(idx_t) + 127) / 128;
      ++expansions;
    }
  }
  state.counters["fixed_tx_per_expand"] =
      static_cast<double>(fixed_tx) / static_cast<double>(expansions);
  state.counters["csr_tx_per_expand"] =
      static_cast<double>(csr_tx) / static_cast<double>(expansions);
}
BENCHMARK(BM_ModeledTransactionsPerExpansion);

}  // namespace
}  // namespace song

BENCHMARK_MAIN();
