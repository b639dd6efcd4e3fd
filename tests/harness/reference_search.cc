#include "harness/reference_search.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <unordered_set>

#include "harness/oracles.h"

namespace song::harness {

ReferenceSearchResult ReferenceSongSearch(
    const FixedDegreeGraph& graph, std::span<const idx_t> seeds, size_t k,
    const SongSearchOptions& options, size_t visited_capacity,
    const std::function<float(idx_t)>& distance) {
  const size_t ef = std::max(options.queue_size, k);
  const size_t degree = graph.degree();
  const size_t multi_step = std::max<size_t>(1, options.multi_step_probe);
  const bool deletion_ok =
      options.visited_deletion &&
      options.structure != VisitedStructure::kBloomFilter;

  OracleBoundedQueue q(ef);
  OracleBoundedQueue topk(ef);
  OracleVisitedSet visited(visited_capacity);
  std::vector<idx_t> candidates;

  ReferenceSearchResult out;

  // Stage 2 then Stage 3 over this round's candidates.
  const auto score_and_admit = [&] {
    std::vector<float> dists(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      dists[i] = distance(candidates[i]);
      out.visit_order.push_back(candidates[i]);
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Neighbor cand(dists[i], candidates[i]);
      if (options.selected_insertion && topk.full() &&
          cand.dist > topk.Max().dist) {
        continue;  // §IV-D filter
      }
      if (!visited.Insert(cand.id)) {
        ++out.visited_insert_failures;
        continue;  // saturated structure: treated as visited
      }
      Neighbor evicted;
      const bool had_eviction = q.full();
      const bool accepted = q.PushBounded(cand, &evicted);
      if (!accepted) {
        if (deletion_ok) visited.Erase(cand.id);
        continue;
      }
      if (had_eviction && deletion_ok) {
        visited.Erase(evicted.id);
      }
    }
  };

  // Round 0: the seeds, each once and in order, in place of an adjacency
  // row. The visited set is still empty, so only repeats drop out.
  for (const idx_t s : seeds) {
    if (std::find(candidates.begin(), candidates.end(), s) ==
        candidates.end()) {
      candidates.push_back(s);
    }
  }
  score_and_admit();

  while (!q.empty()) {
    ++out.iterations;

    // Stage 1: candidate locating.
    candidates.clear();
    bool terminate = false;
    for (size_t step = 0; step < multi_step && !q.empty(); ++step) {
      const Neighbor now = q.Min();
      // Strictly-greater termination: equal-distance vertices still expand.
      if (topk.full() && now.dist > topk.Max().dist) {
        if (step == 0) terminate = true;
        break;
      }
      q.PopMin();

      Neighbor evicted;
      const bool had_eviction = topk.full();
      const bool entered_topk = topk.PushBounded(now, &evicted);
      if (entered_topk && had_eviction && deletion_ok) {
        visited.Erase(evicted.id);
      }
      // A popped vertex that failed to enter topk (exact tie with the
      // current maximum) stays in `visited` — mirroring search_core.h.

      const idx_t* row = graph.Row(now.id);
      for (size_t i = 0; i < degree && row[i] != kInvalidIdx; ++i) {
        const idx_t v = row[i];
        if (visited.Test(v)) continue;
        if (std::find(candidates.begin(), candidates.end(), v) ==
            candidates.end()) {
          candidates.push_back(v);
        }
      }
    }
    if (terminate) break;
    ++out.expansion_rounds;
    if (candidates.empty()) continue;

    // Stage 2 (bulk distance computation) and Stage 3 (maintenance).
    score_and_admit();
  }

  out.results = topk.Sorted();
  if (out.results.size() > k) out.results.resize(k);
  return out;
}

ReferenceBestFirstResult ReferenceBestFirstSearch(
    const FixedDegreeGraph& graph, const std::vector<Neighbor>& entries,
    size_t ef, const std::function<float(idx_t)>& distance,
    const std::function<bool(idx_t)>& may_traverse) {
  ef = std::max<size_t>(ef, 1);
  std::set<Neighbor> frontier;
  std::set<Neighbor> top;
  std::unordered_set<idx_t> visited;
  ReferenceBestFirstResult out;

  // Adds a scored vertex to both lists, dropping the top list's worst once
  // it holds more than ef.
  const auto admit = [&](const Neighbor& n) {
    frontier.insert(n);
    top.insert(n);
    if (top.size() > ef) top.erase(std::prev(top.end()));
  };
  for (const Neighbor& ep : entries) {
    if (!visited.insert(ep.id).second) continue;
    out.scored.push_back(ep);
    admit(ep);
  }
  while (!frontier.empty()) {
    const Neighbor now = *frontier.begin();
    frontier.erase(frontier.begin());
    ++out.iterations;
    // Stop once the closest unexpanded vertex is strictly worse than the
    // worst of a full top list.
    if (top.size() >= ef && now.dist > top.rbegin()->dist) break;
    ++out.hops;
    const idx_t* row = graph.Row(now.id);
    for (size_t i = 0; i < graph.degree() && row[i] != kInvalidIdx; ++i) {
      const idx_t v = row[i];
      if (!may_traverse(v)) continue;
      if (!visited.insert(v).second) continue;
      const Neighbor cand(distance(v), v);
      out.visit_order.push_back(v);
      out.scored.push_back(cand);
      if (top.size() < ef || cand.dist < top.rbegin()->dist) admit(cand);
    }
  }
  out.results.assign(top.begin(), top.end());
  return out;
}

std::vector<Neighbor> BruteForceTopK(
    size_t num_points, size_t k, const std::function<float(idx_t)>& distance) {
  std::vector<Neighbor> all;
  all.reserve(num_points);
  for (size_t v = 0; v < num_points; ++v) {
    all.emplace_back(distance(static_cast<idx_t>(v)), static_cast<idx_t>(v));
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace song::harness
