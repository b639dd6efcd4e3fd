// Fig 12 reproduction: SONG generalizes to other graph indexes. Build an
// NSG index (MRNG edge selection + navigating node) over SIFT, then compare
// SONG searching that NSG index (simulated GPU) against NSG's own CPU
// search (single thread, the reference Algorithm-1 implementation starting
// from the navigating node). Paper: 30-37x speedup at recall > 0.8.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/recall.h"
#include "core/timer.h"
#include "graph/graph_search.h"
#include "graph/nsg_builder.h"

using song::bench::BenchContext;
using song::bench::BenchEnv;
using song::bench::Curve;
using song::bench::CurvePoint;
using song::bench::DefaultQueueSizes;
using song::bench::PrintCurve;
using song::bench::PrintHeader;

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  BenchContext ctx("sift", env);
  constexpr size_t kTop = 10;
  const song::Workload& w = ctx.workload();

  song::NsgBuildOptions nsg_opts;
  nsg_opts.degree = 16;
  nsg_opts.num_threads = env.threads;
  std::printf("building NSG index over %zu points...\n", w.data.num());
  const song::NsgIndex nsg = song::NsgBuilder::Build(w.data, w.metric,
                                                     nsg_opts);
  std::printf("navigating node: %u\n", nsg.navigating_node);

  PrintHeader("Fig 12: SONG on an NSG index, sift top-10");

  // SONG (simulated GPU) over the NSG graph, entry = navigating node.
  song::SongSearcher searcher(&w.data, &nsg.graph, w.metric,
                              nsg.navigating_node);
  Curve song_curve;
  song_curve.label = "SONG-NSG";
  for (const size_t qs : DefaultQueueSizes(kTop)) {
    song::SongSearchOptions options =
        song::SongSearchOptions::HashTableSelDel();
    options.queue_size = qs;
    const song::SimulatedRun run = SimulateBatch(
        searcher, w.queries, kTop, options, env.gpu, env.threads);
    CurvePoint pt;
    pt.param = qs;
    pt.recall = song::MeanRecallAtK(run.batch.Ids(), w.ground_truth, kTop);
    pt.qps = run.SimQps();
    pt.cpu_qps = run.batch.Qps();
    song_curve.points.push_back(pt);
  }
  PrintCurve(song_curve, "queue");

  // NSG's own CPU search (single thread).
  Curve nsg_curve;
  nsg_curve.label = "NSG";
  song::BestFirstScratch scratch;
  for (const size_t ef : DefaultQueueSizes(kTop)) {
    std::vector<std::vector<song::idx_t>> ids(w.queries.num());
    song::Timer timer;
    for (size_t q = 0; q < w.queries.num(); ++q) {
      const auto found = GraphSearch(
          w.data, w.metric, nsg.graph, nsg.navigating_node,
          w.queries.Row(static_cast<song::idx_t>(q)), ef, kTop, &scratch);
      for (const song::Neighbor& n : found) ids[q].push_back(n.id);
    }
    const double seconds = timer.ElapsedSeconds();
    CurvePoint pt;
    pt.param = ef;
    pt.recall = song::MeanRecallAtK(ids, w.ground_truth, kTop);
    pt.qps = static_cast<double>(w.queries.num()) / seconds;
    pt.cpu_qps = pt.qps;
    nsg_curve.points.push_back(pt);
  }
  PrintCurve(nsg_curve, "ef");

  for (const double r : {0.8, 0.9, 0.95}) {
    const double s = song::bench::QpsAtRecall(song_curve, r);
    const double n = song::bench::QpsAtRecall(nsg_curve, r);
    if (s > 0 && n > 0) {
      std::printf("speedup at recall %.2f: %.1fx\n", r, s / n);
    }
  }
  return 0;
}
