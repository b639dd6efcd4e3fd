#include "graph/nsw_builder.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "core/thread_pool.h"
#include "core/types.h"
#include "graph/graph_search.h"
#include "graph/graph_stats.h"

namespace song {

namespace {

// Build-time view of the graph with per-vertex locking so that concurrent
// inserts can read a consistent neighbor row.
class LockedGraph {
 public:
  LockedGraph(size_t n, size_t degree)
      : degree_(degree),
        rows_(n * degree, kInvalidIdx),
        counts_(n),
        locks_(std::make_unique<Mutex[]>(n)) {}

  size_t degree() const { return degree_; }

  // Copies the row of v into out (returns count).
  size_t SnapshotRow(idx_t v, idx_t* out) {
    MutexLock guard(locks_[v]);
    const size_t count = counts_[v];
    std::copy_n(&rows_[static_cast<size_t>(v) * degree_], count, out);
    return count;
  }

  // Replaces the row of v with `neighbors` (<= degree entries).
  void SetRow(idx_t v, const std::vector<idx_t>& neighbors) {
    MutexLock guard(locks_[v]);
    idx_t* row = &rows_[static_cast<size_t>(v) * degree_];
    std::fill(row, row + degree_, kInvalidIdx);
    std::copy(neighbors.begin(), neighbors.end(), row);
    counts_[v] = neighbors.size();
  }

  // Adds edge v->u. If the row overflows, ReselectRow picks v's row (at
  // most degree ids) from its neighbors plus u.
  void AddEdgeWithShrink(idx_t v, idx_t u, const BatchDistance& dist) {
    MutexLock guard(locks_[v]);
    idx_t* row = &rows_[static_cast<size_t>(v) * degree_];
    const size_t count = counts_[v];
    for (size_t i = 0; i < count; ++i) {
      if (row[i] == u) return;  // edge already present
    }
    if (count < degree_) {
      row[count] = u;
      counts_[v] = count + 1;
      return;
    }
    // Overflow: re-select the row from current neighbors plus u.
    const std::vector<idx_t> kept =
        NswBuilder::ReselectRow(dist, v, {row, count}, u, degree_);
    std::fill(row, row + degree_, kInvalidIdx);
    std::copy(kept.begin(), kept.end(), row);
    counts_[v] = kept.size();
  }

  FixedDegreeGraph Finish(size_t n) {
    FixedDegreeGraph g(n, degree_);
    std::vector<idx_t> row(degree_);
    for (size_t v = 0; v < n; ++v) {
      const size_t count = counts_[v];
      row.assign(&rows_[v * degree_], &rows_[v * degree_] + count);
      g.SetNeighbors(static_cast<idx_t>(v), row);
    }
    return g;
  }

 private:
  size_t degree_;
  std::vector<idx_t> rows_;
  std::vector<size_t> counts_;
  std::unique_ptr<Mutex[]> locks_;
};

}  // namespace

// Occlusion-pruned neighbor selection (the HNSW "heuristic", Algorithm 4 of
// Malkov & Yashunin): scan candidates ascending; keep c unless some already
// kept r is closer to c than c is to the center. Produces diverse, navigable
// edges instead of a tight clique around the center.
std::vector<idx_t> NswBuilder::SelectDiverse(
    const BatchDistance& dist, idx_t center,
    const std::vector<Neighbor>& sorted_pool, size_t m) {
  std::vector<idx_t> selected;
  selected.reserve(m);
  std::vector<Neighbor> discarded;
  for (const Neighbor& cand : sorted_pool) {
    if (selected.size() >= m) break;
    if (cand.id == center) continue;
    const auto occludes = [&](idx_t r) {
      if (r == cand.id) return true;
      float d_rc = 0.0f;
      dist.ComputeFromRow(r, &cand.id, 1, &d_rc);
      return d_rc < cand.dist;
    };
    if (std::any_of(selected.begin(), selected.end(), occludes)) {
      discarded.push_back(cand);
    } else {
      selected.push_back(cand.id);
    }
  }
  for (const Neighbor& d : discarded) {
    if (selected.size() >= m) break;
    if (std::find(selected.begin(), selected.end(), d.id) ==
        selected.end()) {
      selected.push_back(d.id);
    }
  }
  return selected;
}

std::vector<idx_t> NswBuilder::ReselectRow(const BatchDistance& dist,
                                           idx_t center,
                                           std::span<const idx_t> row,
                                           idx_t added, size_t m) {
  std::vector<idx_t> ids(row.begin(), row.end());
  ids.push_back(added);
  std::vector<float> dists(ids.size());
  dist.ComputeFromRow(center, ids.data(), ids.size(), dists.data());
  std::vector<Neighbor> pool;
  pool.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) pool.emplace_back(dists[i], ids[i]);
  std::sort(pool.begin(), pool.end());
  return SelectDiverse(dist, center, pool, m);
}

FixedDegreeGraph NswBuilder::Build(const Dataset& data, Metric metric,
                                   const NswBuildOptions& options) {
  const size_t n = data.num();
  SONG_CHECK_MSG(n > 0, "cannot build a graph over an empty dataset");
  const size_t degree = options.degree;
  const size_t m = options.m == 0 ? std::max<size_t>(1, degree / 2)
                                  : std::min(options.m, degree);
  LockedGraph graph(n, degree);
  // One BatchDistance per build: row norms are cached once, each gathered
  // row is scored in one fused call, and pruning scores row against row.
  const BatchDistance batch(metric, &data);

  // inserted[v]: v's own row is published and v may be traversed. Vertex 0
  // is the seed/entry vertex.
  std::vector<std::atomic<bool>> inserted(n);
  inserted[0].store(true, std::memory_order_release);

  // Construction-time search from the entry vertex over the in-flux graph,
  // traversing only vertices whose insertion has been published.
  const auto is_inserted = [&](idx_t u) {
    return inserted[u].load(std::memory_order_acquire);
  };
  auto insert_one = [&](idx_t v, BestFirstScratch& scratch,
                        std::vector<idx_t>& row_buf) {
    const float* point = data.Row(v);
    const auto row_of = [&](idx_t u) {
      return std::span<const idx_t>(row_buf.data(),
                                    graph.SnapshotRow(u, row_buf.data()));
    };
    const BatchQueryDistance distance{batch, point, batch.QueryNormSqr(point)};
    const Neighbor entry(distance(0), 0);
    std::vector<Neighbor> found =
        BestFirstSearch(row_of, distance, {&entry, 1}, options.ef_construction,
                        n, &scratch, /*stats=*/nullptr, is_inserted);
    const std::vector<idx_t> own = SelectDiverse(batch, v, found, m);
    graph.SetRow(v, own);
    inserted[v].store(true, std::memory_order_release);
    for (const idx_t u : own) graph.AddEdgeWithShrink(u, v, batch);
  };

  // Warmup backbone: the earliest inserts define the navigable skeleton
  // every later search descends through, and concurrent inserts at that
  // stage cannot see each other — so build the first slice sequentially.
  const size_t warmup =
      std::min(n - 1, std::max<size_t>(degree * 32, n / 20));
  {
    BestFirstScratch scratch;
    std::vector<idx_t> row_buf(degree);
    for (idx_t v = 1; v <= warmup; ++v) insert_one(v, scratch, row_buf);
  }

  ParallelFor(n - 1 - warmup, options.num_threads, [&](size_t job, size_t) {
    thread_local BestFirstScratch scratch;
    thread_local std::vector<idx_t> row_buf;
    row_buf.resize(degree);
    insert_one(static_cast<idx_t>(job + 1 + warmup), scratch, row_buf);
  });

  FixedDegreeGraph result = graph.Finish(n);
  RepairConnectivity(data, metric, &result);
  return result;
}

void NswBuilder::RepairConnectivity(const Dataset& data, Metric metric,
                                    FixedDegreeGraph* graph) {
  // Reverse edges can be evicted by the degree cap, leaving a few vertices
  // with in-degree 0 (unreachable from the entry vertex). Re-attach each
  // unreachable vertex v by forcing an edge from its nearest reachable
  // out-neighbor (falling back to the entry vertex), evicting that row's
  // farthest neighbor when full. Edges this repair itself adds are pinned
  // against later evictions: without the pin, two orphans sharing one full
  // anchor evict each other's attachment forever (the thrash showed up as
  // unreachable live points in the online-mutation differential). With it,
  // every attach makes monotone progress, so the round loop converges.
  const size_t n = graph->num_vertices();
  const DistanceFunc dist = GetDistanceFunc(metric);
  const size_t dim = data.dim();
  std::set<std::pair<idx_t, idx_t>> pinned;
  // Chain anchor: the most recently attached vertex (persists across
  // rounds). Attaching through it when the preferred anchor's row is full
  // avoids evictions that could disconnect previously repaired vertices
  // (adversarial case: many orphans all pointing at one full hub).
  idx_t spare_anchor = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<bool> seen = ReachableFrom(*graph, 0);
    if (std::find(seen.begin(), seen.end(), false) == seen.end()) return;
    if (!seen[spare_anchor]) spare_anchor = 0;  // must stay reachable
    for (size_t vi = 0; vi < n; ++vi) {
      if (seen[vi]) continue;
      const idx_t v = static_cast<idx_t>(vi);
      // Prefer a reachable out-neighbor of v as the attachment point (it is
      // close to v by construction).
      idx_t anchor = 0;
      for (const idx_t u : graph->Neighbors(v)) {
        if (seen[u]) {
          anchor = u;
          break;
        }
      }
      // AddNeighbor also returns false when the edge already exists (the
      // anchor may be another orphan attached earlier this round whose row
      // already pointed at v) — that case IS an attachment, and falling
      // through to the evict write below would duplicate v in the row.
      const auto has_edge = [graph](idx_t from, idx_t to) {
        const idx_t* r = graph->Row(from);
        for (size_t i = 0; i < graph->degree() && r[i] != kInvalidIdx; ++i) {
          if (r[i] == to) return true;
        }
        return false;
      };
      // Evicts the farthest unpinned neighbor of `a` to make room for v (a
      // later BFS round re-repairs anything this disconnects); refuses when
      // every slot holds a pinned repair edge.
      const auto evict_into = [&](idx_t a) {
        std::vector<idx_t> row = graph->Neighbors(a);
        size_t worst = row.size();
        // Inner-product "distances" are negative, so the no-candidate
        // sentinel must be -inf, not -1.
        float worst_d = -std::numeric_limits<float>::infinity();
        for (size_t i = 0; i < row.size(); ++i) {
          if (pinned.count({a, row[i]}) != 0) continue;
          const float d = dist(data.Row(a), data.Row(row[i]), dim);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        if (worst == row.size()) return false;
        row[worst] = v;
        graph->SetNeighbors(a, row);
        return true;
      };
      idx_t attached_via = anchor;
      bool attached = has_edge(anchor, v) || graph->AddNeighbor(anchor, v);
      if (!attached && spare_anchor != v) {
        attached =
            has_edge(spare_anchor, v) || graph->AddNeighbor(spare_anchor, v);
        if (attached) attached_via = spare_anchor;
      }
      if (!attached) {
        attached = evict_into(anchor);
        if (!attached && spare_anchor != v && evict_into(spare_anchor)) {
          attached = true;
          attached_via = spare_anchor;
        }
      }
      if (!attached) continue;  // both rows fully pinned; next round
      pinned.insert({attached_via, v});
      seen[vi] = true;  // attached to the reachable component
      spare_anchor = v;
    }
  }
}

}  // namespace song
