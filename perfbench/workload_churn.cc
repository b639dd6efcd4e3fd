// churn: sift-like vectors (128-d, L2) adopted into a MutableIndex. A
// seeded schedule of inserts and deletes runs until 30 % of the points are
// tombstoned, with one writer thread and two reader threads searching
// acquired snapshots beside it. Ef sweeps over the final snapshot, scored
// against an exact scan of its live set, run between the churn passes.

#include <malloc.h>

#include <atomic>
#include <thread>

#include "core/random.h"
#include "song/mutable_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBasePoints = 6000;
constexpr size_t kInsertPool = 1200;
constexpr size_t kQueries = 200;
constexpr size_t kSetups = 5;
constexpr size_t kReaders = 2;
constexpr double kTombstoneShare = 0.30;
constexpr size_t kInsertEvery = 4;  ///< every 4th schedule step inserts
constexpr double kRecallFloor = 0.90;
/// Few efs, so the sweep over the final snapshot gets many passes: ef 10
/// and 24 bracket recall 0.90 and 0.95 on the fresh index.
const std::vector<size_t> kEfs = {10, 24, 64};
/// The readers' ef: the swept ef whose recall on the fresh index is nearest
/// above 0.95 (0.975 to 0.982 over query seeds 1-5; ef 16 gives 0.94-0.96).
constexpr size_t kEf95 = 24;
/// Reader spans carry this in the upper half of their request id, apart
/// from the sweep's ef-tagged spans.
constexpr uint64_t kReaderSpanTag = 0xffff;

struct Op {
  bool insert = false;
  idx_t id = 0;  ///< insert: the id it must receive; delete: the victim
};

/// Every kInsertEvery-th step inserts the next pool row, the others delete
/// a random live id: the seed picks the victims, not the shape, so the
/// tombstone count grows alike for every seed.
std::vector<Op> MakeSchedule(uint64_t seed) {
  song::RandomEngine rng(seed ^ 0x636875726eull);  // "churn"
  std::vector<idx_t> live(kBasePoints);
  for (size_t i = 0; i < kBasePoints; ++i) live[i] = static_cast<idx_t>(i);
  size_t points = kBasePoints;
  size_t deletes = 0;
  std::vector<Op> ops;
  while (static_cast<double>(deletes) <
         kTombstoneShare * static_cast<double>(points)) {
    if (ops.size() % kInsertEvery == kInsertEvery - 1 &&
        points < kBasePoints + kInsertPool) {
      ops.push_back({true, static_cast<idx_t>(points)});
      live.push_back(static_cast<idx_t>(points++));
    } else {
      const size_t j = rng.NextUint(live.size());
      ops.push_back({false, live[j]});
      live[j] = live.back();
      live.pop_back();
      ++deletes;
    }
  }
  return ops;
}

struct Setup {
  Inputs base;  ///< the adopted points and the queries
  Dataset pool;  ///< rows the schedule inserts
  FixedDegreeGraph graph;
};

/// The seeded rows serve as queries and, after them, as the insert pool.
/// The graph is left to the caller.
Setup MakeSetup(uint64_t seed) {
  Inputs all = Generate("sift", kBasePoints, kQueries + kInsertPool, seed);
  Setup setup;
  setup.base.metric = all.metric;
  setup.base.points = std::move(all.points);
  setup.base.queries = Dataset(kQueries, all.queries.dim());
  setup.pool = Dataset(kInsertPool, all.queries.dim());
  for (size_t i = 0; i < kQueries + kInsertPool; ++i) {
    const float* row = all.queries.Row(static_cast<idx_t>(i));
    if (i < kQueries) {
      setup.base.queries.SetRow(static_cast<idx_t>(i), row);
    } else {
      setup.pool.SetRow(static_cast<idx_t>(i - kQueries), row);
    }
  }
  return setup;
}

std::unique_ptr<song::MutableIndex> Adopt(const Setup& setup) {
  auto index = std::make_unique<song::MutableIndex>(
      setup.base.metric, setup.base.points.dim());
  Dataset data = setup.base.points.CopyGrown(setup.base.points.num());
  if (!index->AdoptFrozen(std::move(data), setup.graph).ok()) return nullptr;
  return index;
}

/// A SearchFn over one pinned snapshot.
SearchFn SnapshotFn(std::shared_ptr<const song::IndexSnapshot> snapshot) {
  auto workspace = std::make_shared<song::SongWorkspace>();
  return [snapshot, workspace](const float* query, size_t k,
                               const SongSearchOptions& options,
                               SearchStats* stats) {
    return snapshot->Search(query, k, options, workspace.get(), stats);
  };
}

/// Results must be k live ids of the pinned snapshot, ascending.
bool ValidRead(const song::IndexSnapshot& snapshot,
               const std::vector<Neighbor>& results) {
  if (results.size() != kTopK) return false;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!snapshot.IsLive(results[i].id)) return false;
    if (i > 0 && results[i] < results[i - 1]) return false;
  }
  return true;
}

struct ChurnRun {
  double insert_per_s = 0.0;
  double read_qps = 0.0;
  std::vector<double> read_us;  ///< every read of the pass
  double peak_rss_mb = 0.0;  ///< largest resident set seen after an insert
  size_t retired_max = 0;
  std::unique_ptr<song::MutableIndex> index;
};

/// One pass of the schedule with readers beside the writer.
ChurnRun RunChurnOnce(const Setup& setup, const std::vector<Op>& ops,
                      const SongSearchOptions& read_options, Tracer* tracer,
                      Report* report, SpanLog* writer_log) {
  ChurnRun run;
  run.index = Adopt(setup);
  if (run.index == nullptr) {
    report->Invalid("MutableIndex::AdoptFrozen failed");
    return run;
  }
  song::MutableIndex& index = *run.index;
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> read_us(kReaders);
  std::vector<uint64_t> bad_reads(kReaders, 0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    SpanLog* log = tracer->NewLog();
    readers.emplace_back([&, r, log] {
      song::SongWorkspace workspace;
      const Dataset& queries = setup.base.queries;
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t q = (r * 97 + i) % queries.num();
        const uint64_t request = (kReaderSpanTag << 32) | i;
        const int64_t t0 = NowNs();
        std::shared_ptr<const song::IndexSnapshot> snapshot;
        {
          ScopedSpan span(log, "MutableIndex::Acquire", "song.index", request);
          snapshot = index.Acquire();
        }
        std::vector<Neighbor> results;
        {
          ScopedSpan span(log, "IndexSnapshot::Search", "song.index", request);
          results = snapshot->Search(queries.Row(static_cast<idx_t>(q)), kTopK,
                                     read_options, &workspace);
        }
        read_us[r].push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        if (!ValidRead(*snapshot, results)) ++bad_reads[r];
      }
    });
  }

  double insert_s = 0.0;
  size_t inserts = 0;
  const int64_t start = NowNs();
  for (const Op& op : ops) {
    const int64_t t0 = NowNs();
    if (op.insert) {
      song::StatusOr<idx_t> id = [&] {
        ScopedSpan span(writer_log, "MutableIndex::Insert", "song.index");
        return index.Insert(setup.pool.Row(op.id - kBasePoints));
      }();
      insert_s += SecondsSince(t0);
      ++inserts;
      run.peak_rss_mb = std::max(run.peak_rss_mb, ResidentMb("VmRSS:"));
      if (!id.ok() || id.value() != op.id) {
        report->Failed("MutableIndex::Insert did not return the next id");
      }
    } else {
      song::Status deleted = [&] {
        ScopedSpan span(writer_log, "MutableIndex::Delete", "song.index");
        return index.Delete(op.id);
      }();
      if (!deleted.ok()) report->Failed("MutableIndex::Delete failed");
    }
    run.retired_max = std::max(run.retired_max, index.retired_versions());
  }
  const double writer_s = SecondsSince(start);
  stop.store(true);
  for (std::thread& t : readers) t.join();

  report->Attempted(ops.size());
  for (size_t r = 0; r < kReaders; ++r) {
    run.read_us.insert(run.read_us.end(), read_us[r].begin(),
                       read_us[r].end());
    report->Attempted(read_us[r].size());
    if (bad_reads[r] > 0) {
      report->Failed("a reader got results that are not k live ids in order",
                     bad_reads[r]);
    }
  }
  run.insert_per_s = static_cast<double>(inserts) / insert_s;
  run.read_qps = static_cast<double>(run.read_us.size()) / writer_s;
  return run;
}

/// Exact top-k over the live rows of `snapshot`, in snapshot ids.
IdLists ExactLiveTopK(const song::IndexSnapshot& snapshot,
                      const Dataset& queries, size_t threads) {
  std::vector<idx_t> live;
  for (idx_t id = 0; id < snapshot.num_points(); ++id) {
    if (snapshot.IsLive(id)) live.push_back(id);
  }
  Dataset rows(live.size(), snapshot.data().dim());
  for (size_t i = 0; i < live.size(); ++i) {
    rows.SetRow(static_cast<idx_t>(i), snapshot.data().Row(live[i]));
  }
  IdLists truth = ExactTopK(rows, queries, snapshot.metric(), threads);
  for (std::vector<idx_t>& ids : truth) {
    for (idx_t& id : ids) id = live[id];
  }
  return truth;
}

}  // namespace

void RunChurn(const RunConfig& config, Tracer* tracer, Report* report) {
  SpanLog* log = tracer->NewLog();
  SetupLog setups;
  // Generate, build and adopt; later set-ups run between churn passes.
  const auto set_up = [&](Setup* setup) {
    const int64_t t0 = NowNs();
    *setup = MakeSetup(config.seed);
    setup->graph = BuildGraph(setup->base.points, setup->base.metric, log);
    std::unique_ptr<song::MutableIndex> index;
    {
      ScopedSpan span(log, "MutableIndex::AdoptFrozen", "song.index");
      index = Adopt(*setup);
    }
    if (index == nullptr) {
      report->Invalid("MutableIndex::AdoptFrozen failed");
      return index;
    }
    setups.Add(SecondsSince(t0), setup->graph, report);
    return index;
  };
  Setup setup;
  std::unique_ptr<song::MutableIndex> adopted = set_up(&setup);
  if (adopted == nullptr) return;

  // Untimed: the freshly adopted index's ids and counters per ef, the base
  // of churn_distance_ratio and of the engine probe.
  const IdLists fresh_truth = ExactTopK(setup.base.points, setup.base.queries,
                                        setup.base.metric, config.nproc);
  const SongSearchOptions base = SongSearchOptions::CpuEngineered();
  Report untimed;
  const Sweep fresh = RunSweep(SnapshotFn(adopted->Acquire()),
                               setup.base.queries, fresh_truth, kEfs, base,
                               &untimed, nullptr, "", "");
  const SweepPoint& fresh95 = fresh.At(kEf95);
  adopted.reset();
  SongSearchOptions read_options = base;
  read_options.queue_size = kEf95;

  // Churn passes, each from a fresh adoption through the whole schedule,
  // alternate with repeated set-ups and with sweep passes over the first
  // churn pass's final snapshot (every pass ends in the same one), the
  // sweep taking about half of the time.
  const std::vector<Op> ops = MakeSchedule(config.seed);
  const Dataset& queries = setup.base.queries;
  std::vector<double> insert_per_s;
  std::vector<double> read_qps;
  std::vector<double> read_us;  ///< pooled over passes
  std::vector<double> peak_rss_mb;
  size_t retired_max = 0;
  std::unique_ptr<song::MutableIndex> final_index;
  std::shared_ptr<const song::IndexSnapshot> final_snapshot;
  IdLists live_truth;
  SearchFn final_search;
  Sweep sweep;
  double sweep_s = 0.0;
  const int64_t start = NowNs();
  while (insert_per_s.size() < 3 || setups.seconds.size() < kSetups ||
         SecondsSince(start) < 0.9 * config.seconds) {
    if (setups.seconds.size() < kSetups) {
      Setup again;
      set_up(&again);
    }
    // Each pass starts from the live memory alone: freed index copies go
    // back to the system, so one pass's heap does not inflate the next
    // pass's resident set.
    ::malloc_trim(0);
    ChurnRun run = RunChurnOnce(setup, ops, read_options, tracer, report, log);
    if (run.index == nullptr) return;
    insert_per_s.push_back(run.insert_per_s);
    read_qps.push_back(run.read_qps);
    read_us.insert(read_us.end(), run.read_us.begin(), run.read_us.end());
    peak_rss_mb.push_back(run.peak_rss_mb);
    retired_max = std::max(retired_max, run.retired_max);
    if (final_index == nullptr) {
      final_index = std::move(run.index);
      final_snapshot = final_index->Acquire();
      // The oracle over the final live set, outside any clock.
      live_truth = ExactLiveTopK(*final_snapshot, queries, config.nproc);
      final_search = SnapshotFn(final_snapshot);
    } else if (GraphDigest(run.index->Acquire()->graph()) !=
               GraphDigest(final_snapshot->graph())) {
      report->Invalid("the same schedule produced different final graphs");
    }
    if (sweep.passes == 0 || sweep_s < 0.5 * SecondsSince(start)) {
      const int64_t t0 = NowNs();
      if (sweep.passes == 0) {
        sweep = RunSweep(final_search, queries, live_truth, kEfs, base, report,
                         log, "IndexSnapshot::Search", "song.index");
      } else {
        SweepPass(final_search, queries, live_truth, base, &sweep, report,
                  log, "IndexSnapshot::Search", "song.index");
      }
      sweep_s += SecondsSince(t0);
    }
  }
  report->Set("setup_s", Median(setups.seconds));
  report->Set("insert_per_s", BestQuartile(insert_per_s, true));
  report->Set("saturated_qps", BestQuartile(read_qps, true));
  report->Set("loaded_p50_us", Percentile(read_us, 50.0));
  const SweepPoint& at95 = sweep.At(kEf95);
  report->Set("recall_at_10", sweep.points.back().recall);
  if (sweep.points.back().recall < kRecallFloor) {
    report->Invalid("recall at the top ef is below the floor");
  }
  report->Set("qps_at_recall_0.90", sweep.QpsAtRecall(0.90));
  report->Set("qps_at_recall_0.95", sweep.QpsAtRecall(0.95));
  report->Set("closed1_p50_us", at95.p50_us());
  report->Set("closed1_p90_us", at95.p90_us());
  report->Set("peak_rss_mb", Median(peak_rss_mb));

  if (!config.trace) return;
  ReportGraphLayer(setup.graph, *tracer, report);
  ProbeCore(setup.base.points, setup.base.metric, report, log);
  ReportSearchLayer(sweep, at95, *tracer, "IndexSnapshot::Search", report);
  ReportGpusim(sweep, at95, setup.base, setup.graph.degree(), base, report);
  ReportIndexSpans(*tracer, report);
  report->Set("song.index.churn_distance_ratio",
              static_cast<double>(at95.stats.distance_computations) /
                  static_cast<double>(fresh95.stats.distance_computations));
  report->Set("song.index.retired_versions_max",
              static_cast<double>(retired_max));

  const song::SongSearcher searcher(&setup.base.points, &setup.graph,
                                    setup.base.metric);
  ProbeEngine(searcher, setup.base.queries, read_options, fresh95,
              config.nproc, 2.0, report, log);
  ProbeHnsw(setup.base, fresh_truth, report, log);
  ProbeServe(config, setup.base, setup.graph, fresh_truth, kEf95, report,
             log);
  SongSearchOptions options = base;
  options.queue_size = at95.ef;
  ReportTraceOverhead(final_search, queries, options,
                      "IndexSnapshot::Search", "song.index", report);
  ReportSelfTimes(config, *tracer, report);
}

}  // namespace perfbench
