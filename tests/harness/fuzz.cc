#include "harness/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/candidate_pool.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "core/random.h"
#include "core/status.h"
#include "graph/fixed_degree_graph.h"
#include "harness/oracles.h"
#include "harness/reference_search.h"
#include "song/bloom_filter.h"
#include "song/cuckoo_filter.h"
#include "song/index_snapshot.h"
#include "song/mutable_index.h"
#include "song/search_core.h"

namespace song::harness {
namespace {

constexpr uint64_t kDefaultSeed = 0x534f4e472026ULL;  // "SONG" 2026

/// Stateless per-(stream, round) seed derivation so every round replays
/// independently of how many rounds preceded it.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t round) {
  uint64_t s = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
               ((round + 1) * 0xda942042e4dd58b5ULL);
  return SplitMix64(s);
}

std::string Ctx(const char* what, uint64_t seed, size_t round) {
  std::ostringstream os;
  os << what << " diverged (base_seed=0x" << std::hex << BaseSeed()
     << ", runner_seed=0x" << seed << std::dec << ", round=" << round
     << "; replay with SONG_FUZZ_SEED=0x" << std::hex << BaseSeed()
     << std::dec << "): ";
  return os.str();
}

std::string DescribeNeighbor(const Neighbor& n) {
  std::ostringstream os;
  os << "(" << n.dist << ", id=" << n.id << ")";
  return os.str();
}

}  // namespace

uint64_t BaseSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("SONG_FUZZ_SEED");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 0);
      if (end != nullptr && *end == '\0') return static_cast<uint64_t>(v);
      std::fprintf(stderr,
                   "[harness] ignoring unparsable SONG_FUZZ_SEED='%s'\n", env);
    }
    return kDefaultSeed;
  }();
  return seed;
}

std::string SeedBanner() {
  std::ostringstream os;
  os << "[harness] fuzz base seed = 0x" << std::hex << BaseSeed() << std::dec
     << " (override with SONG_FUZZ_SEED=<u64>; failures log the exact seed "
        "and round to replay)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Frontier fuzzer.
// ---------------------------------------------------------------------------

DifferentialReport FuzzSongPartitionsVsOracle(uint64_t seed, size_t rounds) {
  DifferentialReport report;
  PartitionedCandidatePool pool;  // reused across rounds, as a workspace's
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed = DeriveSeed(seed, 0x51, round);
    RandomEngine rng(rseed);
    size_t capacity = 1 + rng.NextUint(48);
    pool.Reset(capacity);
    OracleBoundedQueue q(capacity);
    OracleBoundedQueue topk(capacity);
    const std::string ctx = Ctx("PartitionedCandidatePool", seed, round);
    // Few distance levels and a small id range: many exact ties, and now
    // and then a repeated (dist, id) pair, which both heaps keep as
    // separate equal elements.
    const size_t levels = 1 + rng.NextUint(12);
    bool round_ok = true;

    const auto fail = [&](const std::string& what) {
      report.Fail(ctx + what);
      round_ok = false;
    };
    const auto check_state = [&](const char* op) {
      ++report.checks;
      if (pool.unexpanded() != q.size() || pool.expanded() != topk.size()) {
        fail(std::string(op) + ": partition sizes " +
             std::to_string(pool.unexpanded()) + "/" +
             std::to_string(pool.expanded()) + " vs oracle " +
             std::to_string(q.size()) + "/" + std::to_string(topk.size()));
        return;
      }
      if (pool.HasUnexpanded() != !q.empty() ||
          (!q.empty() && !(pool.Next() == q.Min()))) {
        fail(std::string(op) + ": queue minimum " +
             (pool.HasUnexpanded() ? DescribeNeighbor(pool.Next()) : "none") +
             " vs oracle " + (q.empty() ? "none" : DescribeNeighbor(q.Min())));
        return;
      }
      const float bound = topk.full() ? topk.Max().dist
                                      : std::numeric_limits<float>::infinity();
      if (pool.expanded_bound() != bound) {
        fail(std::string(op) + ": top-K bound " +
             std::to_string(pool.expanded_bound()) + " vs oracle " +
             std::to_string(bound));
      }
    };
    const auto check_contents = [&](const char* op) {
      ++report.checks;
      std::vector<Neighbor> expanded;
      pool.CopyExpanded(pool.size(), &expanded);
      std::vector<Neighbor> all;
      for (size_t i = 0; i < pool.size(); ++i) all.push_back(pool[i]);
      std::vector<Neighbor> want_all = q.Sorted();
      const std::vector<Neighbor> want_topk = topk.Sorted();
      want_all.insert(want_all.end(), want_topk.begin(), want_topk.end());
      std::sort(want_all.begin(), want_all.end());
      if (expanded != want_topk || all != want_all) {
        fail(std::string(op) + ": partition contents differ (" +
             std::to_string(expanded.size()) + " expanded of " +
             std::to_string(all.size()) + " vs oracle " +
             std::to_string(want_topk.size()) + " of " +
             std::to_string(want_all.size()) + ")");
      }
    };

    const size_t ops = 40 + rng.NextUint(240);
    for (size_t op = 0; op < ops && round_ok; ++op) {
      const uint64_t pick = rng.NextUint(16);
      if (pick < 9) {
        const Neighbor x(static_cast<float>(rng.NextUint(levels)),
                         static_cast<idx_t>(rng.NextUint(64)));
        Neighbor evicted_o;
        const bool was_full = q.full();
        const bool ro = q.PushBounded(x, &evicted_o);
        const idx_t want_evicted = ro && was_full ? evicted_o.id : kInvalidIdx;
        idx_t evicted = 0;
        const bool rp = pool.PushUnexpanded(x, &evicted);
        ++report.checks;
        if (rp != ro || evicted != want_evicted) {
          fail("PushUnexpanded " + DescribeNeighbor(x) + " -> " +
               std::to_string(rp) + ", evicted " + std::to_string(evicted) +
               " vs oracle " + std::to_string(ro) + ", evicted " +
               std::to_string(want_evicted));
          break;
        }
        check_state("PushUnexpanded");
      } else if (pick < 15) {
        if (q.empty()) continue;
        const Neighbor m = q.Min();
        const bool terminates = topk.full() && m.dist > topk.Max().dist;
        idx_t want_evicted = kInvalidIdx;
        if (!terminates) {
          q.PopMin();
          Neighbor evicted_o;
          const bool was_full = topk.full();
          if (topk.PushBounded(m, &evicted_o) && was_full) {
            want_evicted = evicted_o.id;
          }
        }
        Neighbor now;
        idx_t evicted = 0;
        const bool rp = pool.ExpandBounded(&now, &evicted);
        ++report.checks;
        if (rp == terminates || !(now == m) || evicted != want_evicted) {
          fail("ExpandBounded -> " + std::to_string(rp) + " " +
               DescribeNeighbor(now) + ", evicted " +
               std::to_string(evicted) + " vs oracle " +
               std::to_string(!terminates) + " " + DescribeNeighbor(m) +
               ", evicted " + std::to_string(want_evicted));
          break;
        }
        check_state("ExpandBounded");
      } else if (rng.NextUint(4) == 0) {
        capacity = 1 + rng.NextUint(48);
        pool.Reset(capacity);
        q.Reset(capacity);
        topk.Reset(capacity);
        check_state("Reset");
      }
      if (round_ok && op % 8 == 0) check_contents("periodic");
    }
    if (round_ok) check_contents("final");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Visited-set fuzzers.
// ---------------------------------------------------------------------------

DifferentialReport FuzzExactVisitedVsOracle(VisitedStructure structure,
                                            uint64_t seed, size_t rounds) {
  DifferentialReport report;
  VisitedTable table;
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed = DeriveSeed(seed, 0x53, round);
    RandomEngine rng(rseed);
    // Mix deliberately tight capacities (saturation regime) with ample ones.
    const bool tight = rng.NextUint(3) == 0;
    const size_t capacity =
        tight ? 8 + rng.NextUint(150) : 256 + rng.NextUint(512);
    const size_t key_range = std::max<size_t>(4, capacity * 3);
    table.Reset(structure, capacity, /*num_ids=*/key_range);
    // The epoch array is unbounded over [0, key_range); the hash table
    // saturates exactly at its element capacity.
    OracleVisitedSet oracle(
        structure == VisitedStructure::kEpochArray ? 0 : capacity);
    const std::string ctx = Ctx(VisitedStructureName(structure), seed, round);
    bool round_ok = true;

    const size_t ops = 3 * capacity + 50;
    for (size_t op = 0; op < ops && round_ok; ++op) {
      const idx_t key = static_cast<idx_t>(rng.NextUint(key_range));
      switch (rng.NextUint(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const bool rt = table.Insert(key);
          const bool ro = oracle.Insert(key);
          ++report.checks;
          if (rt != ro) {
            report.Fail(ctx + "Insert(" + std::to_string(key) + ") -> " +
                        std::to_string(rt) + " vs oracle " +
                        std::to_string(ro) + " at size " +
                        std::to_string(oracle.size()) + "/cap " +
                        std::to_string(capacity));
            round_ok = false;
          }
          break;
        }
        case 4:
        case 5: {
          const bool rt = table.Test(key);
          const bool ro = oracle.Test(key);
          ++report.checks;
          if (rt != ro) {
            report.Fail(ctx + "Test(" + std::to_string(key) + ") -> " +
                        std::to_string(rt) + " vs oracle " +
                        std::to_string(ro));
            round_ok = false;
          }
          break;
        }
        case 6: {
          table.Erase(key);
          oracle.Erase(key);
          ++report.checks;
          if (table.Test(key)) {
            report.Fail(ctx + "Test(" + std::to_string(key) +
                        ") true right after Erase");
            round_ok = false;
          }
          break;
        }
        case 7:
          if (rng.NextUint(20) == 0) {
            table.Clear();
            oracle.Clear();
          }
          break;
      }
      if (round_ok && table.size() != oracle.size()) {
        report.Fail(ctx + "size " + std::to_string(table.size()) +
                    " vs oracle " + std::to_string(oracle.size()));
        round_ok = false;
      }
    }
  }
  return report;
}

DifferentialReport FuzzCuckooVsOracle(uint64_t seed, size_t rounds,
                                      double max_fp_rate) {
  DifferentialReport report;
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed = DeriveSeed(seed, 0x55, round);
    RandomEngine rng(rseed);
    const size_t capacity = 32 + rng.NextUint(256);
    CuckooFilter filter(capacity);
    const std::string ctx = Ctx("CuckooFilter", seed, round);
    bool round_ok = true;

    // Randomized insert/erase churn. While every insert has succeeded and
    // only inserted keys are erased, the filter must have no false
    // negatives (the visited-set contract the search relies on).
    std::multiset<idx_t> live;
    bool saturated = false;
    const size_t key_range = capacity * 4;
    const size_t ops = 4 * capacity;
    for (size_t op = 0; op < ops && round_ok; ++op) {
      if (rng.NextUint(3) != 0 || live.empty()) {
        const idx_t key = static_cast<idx_t>(rng.NextUint(key_range));
        if (filter.Insert(key)) {
          live.insert(key);
        } else {
          saturated = true;  // one victim fingerprint may now be dropped
        }
      } else {
        auto it = live.begin();
        std::advance(it, rng.NextUint(live.size()));
        const idx_t key = *it;
        live.erase(it);
        ++report.checks;
        if (!saturated && !filter.Erase(key)) {
          report.Fail(ctx + "Erase(" + std::to_string(key) +
                      ") of an inserted key found nothing");
          round_ok = false;
        }
      }
      if (!saturated && rng.NextUint(4) == 0 && !live.empty()) {
        auto it = live.begin();
        std::advance(it, rng.NextUint(live.size()));
        ++report.checks;
        if (!filter.Contains(*it)) {
          report.Fail(ctx + "false negative for live key " +
                      std::to_string(*it));
          round_ok = false;
        }
      }
    }
    if (!round_ok) continue;

    // Eviction-loop termination: inserting 10x capacity distinct keys must
    // return (kMaxKicks bound) and must report saturation at some point.
    filter.Clear();
    size_t failures = 0;
    for (idx_t key = 0; static_cast<size_t>(key) < 10 * capacity; ++key) {
      if (!filter.Insert(key + 1000000)) ++failures;
    }
    ++report.checks;
    if (failures == 0) {
      report.Fail(ctx + "no insert failure at 10x capacity overload");
      continue;
    }

    // False-positive rate at design load.
    filter.Clear();
    for (idx_t key = 0; static_cast<size_t>(key) < capacity; ++key) {
      filter.Insert(key);
    }
    size_t false_positives = 0;
    const size_t probes = 4000;
    for (size_t i = 0; i < probes; ++i) {
      const idx_t key = static_cast<idx_t>(2000000 + i);
      if (filter.Contains(key)) ++false_positives;
    }
    ++report.checks;
    const double rate =
        static_cast<double>(false_positives) / static_cast<double>(probes);
    if (rate > max_fp_rate) {
      std::ostringstream os;
      os << ctx << "false-positive rate " << rate << " exceeds bound "
         << max_fp_rate << " at design load " << capacity;
      report.Fail(os.str());
    }
  }
  return report;
}

DifferentialReport FuzzBloomVsOracle(uint64_t seed, size_t rounds) {
  DifferentialReport report;
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed = DeriveSeed(seed, 0x56, round);
    RandomEngine rng(rseed);
    const size_t bits = 256u << rng.NextUint(6);
    BloomFilter filter(bits);
    const std::string ctx = Ctx("BloomFilter", seed, round);

    // Design load: ~10 bits/key. No false negative is tolerable, ever.
    const size_t n = std::max<size_t>(8, bits / 10);
    std::vector<idx_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<idx_t>(rng.NextUint(1u << 30));
      filter.Insert(keys[i]);
    }
    bool round_ok = true;
    for (const idx_t key : keys) {
      ++report.checks;
      if (!filter.Contains(key)) {
        report.Fail(ctx + "false negative for inserted key " +
                    std::to_string(key));
        round_ok = false;
        break;
      }
    }
    if (!round_ok) continue;

    // False-positive rate within 3x the analytic bound (+1% absolute slack).
    size_t false_positives = 0;
    const size_t probes = 2000;
    for (size_t i = 0; i < probes; ++i) {
      const idx_t key = static_cast<idx_t>((1u << 30) + i);
      if (filter.Contains(key)) ++false_positives;
    }
    const double rate =
        static_cast<double>(false_positives) / static_cast<double>(probes);
    const double bound =
        3.0 * BloomFilter::TheoreticalFpRate(filter.bit_count(),
                                            filter.num_hashes(), n) +
        0.01;
    ++report.checks;
    if (rate > bound) {
      std::ostringstream os;
      os << ctx << "false-positive rate " << rate << " exceeds " << bound
         << " (" << n << " keys in " << filter.bit_count() << " bits)";
      report.Fail(os.str());
      continue;
    }

    // Saturation: pushing 5 bits worth of keys per bit degrades toward
    // always-true Contains — but still never a false negative.
    for (size_t i = 0; i < 5 * bits; ++i) {
      filter.Insert(static_cast<idx_t>(rng.NextUint(1u << 30)));
    }
    for (size_t i = 0; i < 64; ++i) {
      ++report.checks;
      if (!filter.Contains(keys[i % keys.size()])) {
        report.Fail(ctx + "false negative after saturation");
        round_ok = false;
        break;
      }
    }
    if (!round_ok) continue;
    size_t still_false = 0;
    for (size_t i = 0; i < 256; ++i) {
      if (!filter.Contains(static_cast<idx_t>((1u << 30) + 500000 + i))) {
        ++still_false;
      }
    }
    ++report.checks;
    if (still_false > 16) {
      report.Fail(ctx + "saturated filter still answers false " +
                  std::to_string(still_false) + "/256 times");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Search differential.
// ---------------------------------------------------------------------------

namespace {

struct FuzzInstance {
  Dataset points;
  std::vector<float> query;
  FixedDegreeGraph graph;
  Metric metric = Metric::kL2;
  idx_t entry = 0;
  std::vector<idx_t> seeds;  ///< round 0's list; seeds[0] == entry
  size_t k = 1;
  SongSearchOptions options;
};

/// Randomized dataset + connected random graph + query + option set. All
/// randomness flows from `rng`; `structure` fixes the visited structure.
FuzzInstance MakeInstance(RandomEngine& rng, VisitedStructure structure) {
  FuzzInstance inst;
  const size_t n = 2 + rng.NextUint(300);
  const size_t dim = 1 + rng.NextUint(24);
  const size_t degree = 2 + rng.NextUint(10);
  inst.metric = static_cast<Metric>(rng.NextUint(3));

  inst.points = Dataset(n, dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
    row[0] += row[0] == 0.0f ? 0.5f : 0.0f;  // keep rows nonzero for cosine
    inst.points.SetRow(static_cast<idx_t>(i), row.data());
  }
  inst.query.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    inst.query[d] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  if (inst.query[0] == 0.0f) inst.query[0] = 0.5f;

  // Ring edge guarantees connectivity; the rest is uniform random.
  std::vector<std::vector<idx_t>> adjacency(n);
  for (size_t v = 0; v < n; ++v) {
    adjacency[v].push_back(static_cast<idx_t>((v + 1) % n));
    const size_t extra = rng.NextUint(degree);
    for (size_t e = 0; e < extra; ++e) {
      const idx_t u = static_cast<idx_t>(rng.NextUint(n));
      if (u == v) continue;
      if (std::find(adjacency[v].begin(), adjacency[v].end(), u) ==
          adjacency[v].end()) {
        adjacency[v].push_back(u);
      }
    }
  }
  inst.graph = FixedDegreeGraph::FromAdjacency(adjacency, degree);

  inst.entry = static_cast<idx_t>(rng.NextUint(n));
  inst.k = 1 + rng.NextUint(std::min<size_t>(n, 32));
  inst.options.structure = structure;
  inst.options.queue_size = 1 + rng.NextUint(48);
  inst.options.selected_insertion = rng.NextUint(2) == 0;
  inst.options.visited_deletion = rng.NextUint(2) == 0;
  if (structure == VisitedStructure::kEpochArray && rng.NextUint(3) != 0) {
    // Three in four epoch-array rounds run the CPU preset's candidate pool
    // (internal::UsesCandidatePool); the rest keep the SONG frontier.
    inst.options.selected_insertion = false;
    inst.options.visited_deletion = false;
  }
  const size_t steps[4] = {1, 1, 2, 4};
  inst.options.multi_step_probe = steps[rng.NextUint(4)];
  if (structure == VisitedStructure::kHashTable) {
    // Mix the paper's auto-sized capacity, an ample one and a tight one
    // that saturates within a few rounds; the oracle models all exactly.
    const size_t pick = rng.NextUint(3);
    inst.options.hash_capacity =
        pick == 0 ? 0
        : pick == 1
            ? n + 1
            : 1 + rng.NextUint(2 * inst.options.queue_size + 8);
  } else if (structure == VisitedStructure::kBloomFilter) {
    inst.options.bloom_bits =
        rng.NextUint(2) == 0 ? 0 : (1024u << rng.NextUint(4));
  }
  // Seed lists (drawn last, so the draws above keep their instances): one
  // in four is the searchers' SeedList; the rest hold 1 to 2 * degree ids
  // after the entry, with repeats of the entry and of earlier seeds.
  if (rng.NextUint(4) == 0) {
    inst.seeds = SeedList(n, degree, inst.entry);
  } else {
    const size_t len = 1 + rng.NextUint(2 * degree);
    inst.seeds.push_back(inst.entry);
    while (inst.seeds.size() < len) {
      const size_t pick = rng.NextUint(8);
      inst.seeds.push_back(
          pick == 0   ? inst.entry
          : pick == 1 ? inst.seeds[rng.NextUint(inst.seeds.size())]
                      : static_cast<idx_t>(rng.NextUint(n)));
    }
  }
  return inst;
}

std::string DescribeInstance(const FuzzInstance& inst) {
  std::ostringstream os;
  os << "[n=" << inst.points.num() << " dim=" << inst.points.dim()
     << " degree=" << inst.graph.degree() << " metric="
     << MetricName(inst.metric) << " entry=" << inst.entry
     << " seeds=" << inst.seeds.size() << " k=" << inst.k
     << " queue=" << inst.options.queue_size
     << " sel=" << inst.options.selected_insertion
     << " del=" << inst.options.visited_deletion
     << " steps=" << inst.options.multi_step_probe
     << " cap=" << inst.options.hash_capacity << " structure="
     << VisitedStructureName(inst.options.structure) << "]";
  return os.str();
}

double RecallAgainst(const std::vector<Neighbor>& result,
                     const std::vector<Neighbor>& ground_truth) {
  if (ground_truth.empty()) return 1.0;
  std::unordered_set<idx_t> gt;
  for (const Neighbor& n : ground_truth) gt.insert(n.id);
  size_t hit = 0;
  for (const Neighbor& n : result) hit += gt.count(n.id);
  return static_cast<double>(hit) / static_cast<double>(gt.size());
}

}  // namespace

DifferentialReport FuzzSearchDifferential(VisitedStructure structure,
                                          uint64_t seed, size_t rounds) {
  DifferentialReport report;
  SongWorkspace workspace;  // reused across rounds: exercises stale-state bugs
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed =
        DeriveSeed(seed, 0x60 + static_cast<uint64_t>(structure), round);
    RandomEngine rng(rseed);
    const FuzzInstance inst = MakeInstance(rng, structure);
    const std::string ctx = Ctx("SearchCore", seed, round);
    const bool pool = internal::UsesCandidatePool(inst.options);
    if (pool) ++report.pool_rounds;
    const size_t n = inst.points.num();
    const size_t dim = inst.points.dim();
    const DistanceFunc dist = GetDistanceFunc(inst.metric);

    std::vector<idx_t> visit_order;
    auto distance = [&](idx_t v) {
      visit_order.push_back(v);
      return dist(inst.query.data(), inst.points.Row(v), dim);
    };
    auto pure_distance = [&](idx_t v) {
      return dist(inst.query.data(), inst.points.Row(v), dim);
    };

    SearchStats stats;
    const std::vector<Neighbor> got =
        SongSearchCore(inst.graph, inst.seeds, n, dim * sizeof(float),
                       distance, inst.k, inst.options, &workspace, &stats);

    const size_t ef = std::max(inst.options.queue_size, inst.k);
    const size_t oracle_capacity =
        structure == VisitedStructure::kHashTable
            ? internal::AutoHashCapacity(inst.options, ef, n)
            : 0;
    const ReferenceSearchResult want = ReferenceSongSearch(
        inst.graph, inst.seeds, inst.k, inst.options, oracle_capacity,
        pure_distance);

    ++report.checks;
    if (visit_order != want.visit_order) {
      size_t i = 0;
      while (i < visit_order.size() && i < want.visit_order.size() &&
             visit_order[i] == want.visit_order[i]) {
        ++i;
      }
      std::ostringstream os;
      os << ctx << "visit order diverged at step " << i << " ("
         << visit_order.size() << " vs " << want.visit_order.size()
         << " visits) " << DescribeInstance(inst);
      report.Fail(os.str());
      continue;
    }
    ++report.checks;
    if (got.size() != want.results.size() ||
        !std::equal(got.begin(), got.end(), want.results.begin(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a == b;
                    })) {
      report.Fail(ctx + "result set mismatch " + DescribeInstance(inst));
      continue;
    }
    // The CPU pool skips the SONG frontier's final round that only
    // discovers termination, so its iterations are the reference's
    // expansion rounds.
    const size_t want_iterations =
        pool ? want.expansion_rounds : want.iterations;
    ++report.checks;
    if (stats.iterations != want_iterations ||
        stats.distance_computations != visit_order.size() ||
        stats.visited_insert_failures != want.visited_insert_failures) {
      std::ostringstream os;
      os << ctx << "stats mismatch (iterations " << stats.iterations << " vs "
         << want_iterations << ", dists " << stats.distance_computations
         << " vs " << visit_order.size() << ", insert failures "
         << stats.visited_insert_failures << " vs "
         << want.visited_insert_failures << ") " << DescribeInstance(inst);
      report.Fail(os.str());
    }
  }
  return report;
}

DifferentialReport FuzzProbabilisticSearchSanity(VisitedStructure structure,
                                                 uint64_t seed,
                                                 size_t rounds) {
  DifferentialReport report;
  SongWorkspace workspace;
  double recall_prob = 0.0;
  double recall_exact = 0.0;
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed =
        DeriveSeed(seed, 0x70 + static_cast<uint64_t>(structure), round);
    RandomEngine rng(rseed);
    const FuzzInstance inst = MakeInstance(rng, structure);
    const std::string ctx = Ctx("ProbabilisticSearch", seed, round);
    const size_t n = inst.points.num();
    const size_t dim = inst.points.dim();
    const DistanceFunc dist = GetDistanceFunc(inst.metric);
    auto distance = [&](idx_t v) {
      return dist(inst.query.data(), inst.points.Row(v), dim);
    };

    const std::vector<Neighbor> got =
        SongSearchCore(inst.graph, inst.seeds, n, dim * sizeof(float),
                       distance, inst.k, inst.options, &workspace, nullptr);

    bool round_ok = true;
    ++report.checks;
    if (got.size() > inst.k) {
      report.Fail(ctx + "more than k results " + DescribeInstance(inst));
      round_ok = false;
    }
    std::unordered_set<idx_t> ids;
    for (size_t i = 0; i < got.size() && round_ok; ++i) {
      ++report.checks;
      if (got[i].id >= n || !ids.insert(got[i].id).second) {
        report.Fail(ctx + "invalid or duplicate id " +
                    std::to_string(got[i].id) + " " + DescribeInstance(inst));
        round_ok = false;
        break;
      }
      if (i > 0 && !(got[i - 1] < got[i])) {
        report.Fail(ctx + "results not ascending " + DescribeInstance(inst));
        round_ok = false;
        break;
      }
      // Every reported distance must be genuine, not stale or corrupted.
      if (got[i].dist != distance(got[i].id)) {
        report.Fail(ctx + "fabricated distance for id " +
                    std::to_string(got[i].id) + " " + DescribeInstance(inst));
        round_ok = false;
        break;
      }
    }
    if (!round_ok) continue;

    // Exact-visited twin on the identical instance; aggregate recall of the
    // probabilistic structure must not beat it by more than noise (false
    // positives can only prune exploration).
    SongSearchOptions exact = inst.options;
    exact.structure = VisitedStructure::kHashTable;
    exact.hash_capacity = n + 1;
    const std::vector<Neighbor> exact_got =
        SongSearchCore(inst.graph, inst.seeds, n, dim * sizeof(float),
                       distance, inst.k, exact, &workspace, nullptr);
    const std::vector<Neighbor> gt = BruteForceTopK(n, inst.k, distance);
    recall_prob += RecallAgainst(got, gt);
    recall_exact += RecallAgainst(exact_got, gt);
  }
  ++report.checks;
  if (rounds > 0 && recall_prob > recall_exact + 0.02 * rounds) {
    std::ostringstream os;
    os << Ctx("ProbabilisticSearch", seed, rounds)
       << "aggregate recall of " << VisitedStructureName(structure) << " ("
       << recall_prob / rounds << ") implausibly exceeds exact-visited ("
       << recall_exact / rounds << ")";
    report.Fail(os.str());
  }
  return report;
}

// ---------------------------------------------------------------------------
// Online-mutation differential.
// ---------------------------------------------------------------------------

namespace {

std::vector<float> RandomPoint(RandomEngine& rng, size_t dim) {
  std::vector<float> v(dim);
  for (size_t d = 0; d < dim; ++d) {
    v[d] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  if (v[0] == 0.0f) v[0] = 0.5f;  // keep vectors nonzero for cosine
  return v;
}

/// Randomized per-query option set over the round's structure — the same
/// universe MakeInstance draws from, minus the instance geometry.
SongSearchOptions RandomMutationOptions(RandomEngine& rng,
                                        VisitedStructure structure, size_t n) {
  SongSearchOptions o;
  o.structure = structure;
  o.queue_size = 1 + rng.NextUint(48);
  o.selected_insertion = rng.NextUint(2) == 0;
  o.visited_deletion = rng.NextUint(2) == 0;
  const size_t steps[4] = {1, 1, 2, 4};
  o.multi_step_probe = steps[rng.NextUint(4)];
  if (structure == VisitedStructure::kHashTable) {
    o.hash_capacity = rng.NextUint(2) == 0 ? 0 : n + 1;
  } else if (structure == VisitedStructure::kBloomFilter) {
    o.bloom_bits = rng.NextUint(2) == 0 ? 0 : (1024u << rng.NextUint(4));
  }
  return o;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Neighbor& x, const Neighbor& y) {
                      return x == y;
                    });
}

}  // namespace

DifferentialReport FuzzMutationDifferential(VisitedStructure structure,
                                            uint64_t seed, size_t rounds) {
  DifferentialReport report;
  SongWorkspace workspace;  // reused across rounds and snapshot versions
  const bool exact = structure == VisitedStructure::kHashTable ||
                     structure == VisitedStructure::kEpochArray;
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t rseed =
        DeriveSeed(seed, 0x80 + static_cast<uint64_t>(structure), round);
    RandomEngine rng(rseed);
    const std::string ctx = Ctx("Mutation", seed, round);
    bool round_ok = true;

    const size_t dim = 1 + rng.NextUint(16);
    const Metric metric = static_cast<Metric>(rng.NextUint(3));
    MutableIndexOptions mopts;
    mopts.degree = 3 + rng.NextUint(8);
    mopts.ef_construction = 8 + rng.NextUint(40);
    MutableIndex index(metric, dim, mopts);
    OracleDynamicIndex oracle(metric, dim);
    uint64_t expected_version = 0;

    // Half the rounds adopt a frozen connected graph (the upgrade path for
    // pre-built indexes); the rest grow from empty. The ring edge keeps the
    // adopted graph reachable from entry 0, matching what NswBuilder
    // guarantees and what online inserts maintain via RepairConnectivity.
    if (rng.NextUint(2) == 0) {
      const size_t n0 = 2 + rng.NextUint(50);
      Dataset points(n0, dim);
      for (size_t i = 0; i < n0; ++i) {
        const std::vector<float> p = RandomPoint(rng, dim);
        points.SetRow(static_cast<idx_t>(i), p.data());
        oracle.Insert(p.data());
      }
      std::vector<std::vector<idx_t>> adjacency(n0);
      for (size_t v = 0; v < n0; ++v) {
        adjacency[v].push_back(static_cast<idx_t>((v + 1) % n0));
        const size_t extra = rng.NextUint(mopts.degree);
        for (size_t e = 0; e < extra; ++e) {
          const idx_t u = static_cast<idx_t>(rng.NextUint(n0));
          if (u == v) continue;
          if (std::find(adjacency[v].begin(), adjacency[v].end(), u) ==
              adjacency[v].end()) {
            adjacency[v].push_back(u);
          }
        }
      }
      const Status adopted = index.AdoptFrozen(
          std::move(points),
          FixedDegreeGraph::FromAdjacency(adjacency, mopts.degree));
      ++report.checks;
      if (!adopted.ok()) {
        report.Fail(ctx + "AdoptFrozen failed: " + adopted.ToString());
        continue;
      }
      expected_version = 1;
    }

    auto check_counts = [&](const char* op) {
      ++report.checks;
      if (index.num_points() != oracle.num_points() ||
          index.live_points() != oracle.live_count() ||
          index.version() != expected_version) {
        std::ostringstream os;
        os << ctx << op << ": counts drifted (points " << index.num_points()
           << " vs " << oracle.num_points() << ", live "
           << index.live_points() << " vs " << oracle.live_count()
           << ", version " << index.version() << " vs " << expected_version
           << ")";
        report.Fail(os.str());
        return false;
      }
      return true;
    };

    // Ample-ef exact search from `query`: with every vertex reachable from
    // the entry (the RepairConnectivity invariant), an ef >= n epoch-array
    // search cannot terminate early, so its result must be *precisely* the
    // oracle's live set. This is the probe that catches the planted
    // drop-reverse-links mutation.
    auto check_all_live_reachable = [&](const float* query, const char* what) {
      const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
      SongSearchOptions ample = SongSearchOptions::CpuEngineered();
      ample.queue_size = snapshot->num_points() + 4;
      const std::vector<Neighbor> got = snapshot->Search(
          query, std::max<size_t>(1, oracle.live_count()), ample, &workspace);
      std::vector<idx_t> got_ids;
      got_ids.reserve(got.size());
      for (const Neighbor& n : got) got_ids.push_back(n.id);
      std::sort(got_ids.begin(), got_ids.end());
      ++report.checks;
      if (got_ids != oracle.LiveIds()) {
        std::ostringstream os;
        os << ctx << what << ": ample search returned " << got_ids.size()
           << " of " << oracle.live_count()
           << " live points (version " << snapshot->version()
           << ", n=" << snapshot->num_points() << ") — some live vertex is "
           << "unreachable or a dead one leaked through";
        report.Fail(os.str());
        return false;
      }
      return true;
    };

    // Mid-round pin for the end-of-round isolation replay.
    std::shared_ptr<const IndexSnapshot> pinned;
    std::vector<float> pinned_query;
    size_t pinned_k = 0;
    SongSearchOptions pinned_options;
    std::vector<Neighbor> pinned_result;

    const size_t ops = 20 + rng.NextUint(80);
    for (size_t op = 0; op < ops && round_ok; ++op) {
      const uint64_t kind = rng.NextUint(10);
      if (kind < 4) {
        // --- Insert. ---
        const std::vector<float> p = RandomPoint(rng, dim);
        const StatusOr<idx_t> inserted = index.Insert(p.data());
        ++report.checks;
        if (!inserted.ok()) {
          report.Fail(ctx + "Insert failed: " + inserted.status().ToString());
          round_ok = false;
          break;
        }
        const idx_t want_id = oracle.Insert(p.data());
        ++expected_version;
        ++report.checks;
        if (inserted.value() != want_id) {
          report.Fail(ctx + "Insert id " + std::to_string(inserted.value()) +
                      " vs oracle " + std::to_string(want_id));
          round_ok = false;
          break;
        }
        round_ok = check_counts("Insert") &&
                   check_all_live_reachable(p.data(), "post-insert");
      } else if (kind < 6) {
        // --- Delete (including double-delete probes). ---
        const std::vector<idx_t> live = oracle.LiveIds();
        if (live.empty()) {
          const Status s = index.Delete(0);
          ++report.checks;
          if (s.ok()) {
            report.Fail(ctx + "Delete on an empty/dead index succeeded");
            round_ok = false;
          }
          continue;
        }
        const idx_t victim = live[rng.NextUint(live.size())];
        const Status s = index.Delete(victim);
        oracle.Delete(victim);
        ++expected_version;
        ++report.checks;
        if (!s.ok()) {
          report.Fail(ctx + "Delete(" + std::to_string(victim) +
                      ") failed: " + s.ToString());
          round_ok = false;
          break;
        }
        round_ok = check_counts("Delete");
        if (round_ok && rng.NextUint(4) == 0) {
          const Status again = index.Delete(victim);
          ++report.checks;
          if (again.code() != StatusCode::kNotFound) {
            report.Fail(ctx + "double Delete(" + std::to_string(victim) +
                        ") returned " + again.ToString() +
                        " instead of NotFound");
            round_ok = false;
          }
        }
      } else if (kind < 9) {
        // --- Search differential. ---
        const std::vector<float> q = RandomPoint(rng, dim);
        const size_t k = 1 + rng.NextUint(12);
        const SongSearchOptions options =
            RandomMutationOptions(rng, structure, index.num_points());
        const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
        const std::vector<Neighbor> got =
            snapshot->Search(q.data(), k, options, &workspace);

        if (snapshot->live_points() == 0) {
          ++report.checks;
          if (!got.empty()) {
            report.Fail(ctx + "search on a fully-deleted index returned " +
                        std::to_string(got.size()) + " results");
            round_ok = false;
          }
          continue;
        }

        // The snapshot's tombstone view must track the oracle exactly.
        for (idx_t id = 0;
             round_ok && id < static_cast<idx_t>(snapshot->num_points());
             ++id) {
          if (snapshot->IsLive(id) != oracle.IsLive(id)) {
            ++report.checks;
            report.Fail(ctx + "IsLive(" + std::to_string(id) +
                        ") disagrees with the oracle");
            round_ok = false;
          }
        }
        if (!round_ok) break;

        // The searcher computes distances through its own BatchDistance, so
        // the mirror must too — bit-identical per row within a SIMD tier.
        const BatchDistance bd(metric, &snapshot->data());
        const float qn = bd.QueryNormSqr(q.data());
        const auto mirror = [&](idx_t v) { return bd.Compute(q.data(), qn, v); };

        ++report.checks;
        if (got.size() > k) {
          report.Fail(ctx + "search returned more than k results");
          round_ok = false;
          break;
        }
        for (size_t i = 0; i < got.size() && round_ok; ++i) {
          ++report.checks;
          if (got[i].id >= snapshot->num_points() ||
              !oracle.IsLive(got[i].id)) {
            report.Fail(ctx + "search returned dead or out-of-range id " +
                        std::to_string(got[i].id));
            round_ok = false;
            break;
          }
          if (i > 0 && !(got[i - 1] < got[i])) {
            report.Fail(ctx + "search results not strictly ascending");
            round_ok = false;
            break;
          }
          if (got[i].dist != mirror(got[i].id)) {
            report.Fail(ctx + "fabricated distance for id " +
                        std::to_string(got[i].id));
            round_ok = false;
            break;
          }
          // Payload integrity: the snapshot's row must be byte-equal to the
          // vector the oracle recorded at insert time.
          if (std::memcmp(snapshot->data().Row(got[i].id),
                          oracle.Vector(got[i].id),
                          dim * sizeof(float)) != 0) {
            report.Fail(ctx + "payload row for id " +
                        std::to_string(got[i].id) +
                        " differs from the inserted vector");
            round_ok = false;
            break;
          }
        }
        if (!round_ok) break;

        if (exact) {
          // Full mirror: reference search at the compensated k over the
          // snapshot graph from the searcher's seed list, then the identical
          // tombstone filter + truncate.
          const size_t k_eff = snapshot->CompensatedK(k);
          const std::vector<idx_t> seeds =
              SeedList(snapshot->num_points(), snapshot->graph().degree(),
                       snapshot->entry());
          const size_t ef = std::max(options.queue_size, k_eff);
          const size_t cap =
              structure == VisitedStructure::kHashTable
                  ? internal::AutoHashCapacity(options, ef,
                                               snapshot->num_points())
                  : 0;
          const ReferenceSearchResult ref =
              ReferenceSongSearch(snapshot->graph(), seeds, k_eff, options,
                                  cap, mirror);
          std::vector<Neighbor> want;
          want.reserve(std::min(k, ref.results.size()));
          for (const Neighbor& n : ref.results) {
            if (!snapshot->IsLive(n.id)) continue;
            want.push_back(n);
            if (want.size() == k) break;
          }
          ++report.checks;
          if (!SameNeighbors(got, want)) {
            std::ostringstream os;
            os << ctx << "search mismatch vs reference (" << got.size()
               << " vs " << want.size() << " results, n="
               << snapshot->num_points() << " live="
               << snapshot->live_points() << " k=" << k << " queue="
               << options.queue_size << " sel=" << options.selected_insertion
               << " del=" << options.visited_deletion << " steps="
               << options.multi_step_probe << " cap="
               << options.hash_capacity << " metric=" << MetricName(metric)
               << " structure=" << VisitedStructureName(structure) << ")";
            report.Fail(os.str());
            round_ok = false;
          }
        }
      } else {
        // --- Error-path probes (must not bump the version). ---
        switch (rng.NextUint(3)) {
          case 0: {
            const StatusOr<idx_t> r = index.Insert(nullptr);
            ++report.checks;
            if (r.ok()) {
              report.Fail(ctx + "Insert(nullptr) succeeded");
              round_ok = false;
            }
            break;
          }
          case 1: {
            std::vector<float> bad = RandomPoint(rng, dim);
            bad[rng.NextUint(dim)] = std::nanf("");
            const StatusOr<idx_t> r = index.Insert(bad.data());
            ++report.checks;
            if (r.ok()) {
              report.Fail(ctx + "Insert of a NaN vector succeeded");
              round_ok = false;
            }
            break;
          }
          case 2: {
            const idx_t bogus =
                static_cast<idx_t>(index.num_points() + 5 + rng.NextUint(10));
            const Status s = index.Delete(bogus);
            ++report.checks;
            if (s.code() != StatusCode::kOutOfRange) {
              report.Fail(ctx + "Delete(" + std::to_string(bogus) +
                          ") returned " + s.ToString() +
                          " instead of OutOfRange");
              round_ok = false;
            }
            break;
          }
        }
        if (round_ok) round_ok = check_counts("error probe");
      }

      // Maybe pin a snapshot now; it must replay bit-identically at round
      // end, after every later mutation.
      if (round_ok && pinned == nullptr && oracle.live_count() > 0 &&
          rng.NextUint(4) == 0) {
        pinned = index.Acquire();
        pinned_query = RandomPoint(rng, dim);
        pinned_k = 1 + rng.NextUint(8);
        pinned_options =
            RandomMutationOptions(rng, structure, pinned->num_points());
        pinned_result = pinned->Search(pinned_query.data(), pinned_k,
                                       pinned_options, &workspace);
      }
    }

    if (round_ok) {
      // Structural sanity of the final graph: in-range neighbor ids, no
      // self loops, no duplicate slots.
      const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
      const FixedDegreeGraph& graph = snapshot->graph();
      for (size_t v = 0; round_ok && v < graph.num_vertices(); ++v) {
        const std::vector<idx_t> row =
            graph.Neighbors(static_cast<idx_t>(v));
        std::set<idx_t> uniq(row.begin(), row.end());
        ++report.checks;
        if (uniq.size() != row.size() ||
            uniq.count(static_cast<idx_t>(v)) != 0 ||
            (!row.empty() && *uniq.rbegin() >= graph.num_vertices())) {
          report.Fail(ctx + "malformed adjacency row at vertex " +
                      std::to_string(v));
          round_ok = false;
        }
      }
    }

    if (round_ok && pinned != nullptr) {
      const std::vector<Neighbor> replay = pinned->Search(
          pinned_query.data(), pinned_k, pinned_options, &workspace);
      ++report.checks;
      if (!SameNeighbors(replay, pinned_result)) {
        report.Fail(ctx + "pinned snapshot (version " +
                    std::to_string(pinned->version()) +
                    ") replay differs after later mutations");
        round_ok = false;
      }
    }
    pinned.reset();

    // With every reader pin dropped, reclamation must drain the retired
    // list completely.
    index.ReclaimRetired();
    ++report.checks;
    if (round_ok && index.retired_versions() != 0) {
      report.Fail(ctx + std::to_string(index.retired_versions()) +
                  " retired versions survived reclamation with no reader");
    }
  }
  return report;
}

}  // namespace song::harness
