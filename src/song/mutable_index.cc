#include "song/mutable_index.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/debug_hooks.h"
#include "core/logging.h"
#include "graph/nsw_builder.h"

namespace song {

MutableIndex::MutableIndex(Metric metric, size_t dim,
                           MutableIndexOptions options,
                           obs::MetricsRegistry* registry)
    : metric_(metric), dim_(dim), options_(options) {
  MutexLock writer(writer_mu_);
  SONG_CHECK_MSG(dim_ > 0, "MutableIndex requires dim > 0");
  SONG_CHECK_MSG(options_.degree > 0, "MutableIndex requires degree > 0");
  if (registry != nullptr) {
    inserts_ = &registry->GetCounter("song.index.inserts");
    deletes_ = &registry->GetCounter("song.index.deletes");
    reclaimed_ = &registry->GetCounter("song.index.snapshots_reclaimed");
    live_points_gauge_ = &registry->GetGauge("song.index.live_points");
    versions_gauge_ = &registry->GetGauge("song.index.snapshot_versions");
    retired_gauge_ = &registry->GetGauge("song.index.retired_snapshots");
  }
  // Version 0: the empty snapshot, so Acquire() is always valid.
  {
    WriterLock snap(snapshot_mu_);
    current_ = std::make_shared<IndexSnapshot>(
        std::make_shared<Dataset>(0, dim_),
        std::make_shared<FixedDegreeGraph>(0, options_.degree),
        std::make_shared<std::vector<uint8_t>>(), metric_, /*entry=*/0,
        /*version=*/0);
  }
  UpdateGauges();
}

Status MutableIndex::AdoptFrozen(Dataset data, FixedDegreeGraph graph) {
  if (data.num() == 0) {
    return Status::InvalidArgument("AdoptFrozen: dataset is empty");
  }
  if (data.dim() != dim_) {
    return Status::InvalidArgument(
        "AdoptFrozen: dataset dim " + std::to_string(data.dim()) +
        " != index dim " + std::to_string(dim_));
  }
  if (graph.num_vertices() != data.num()) {
    return Status::InvalidArgument(
        "AdoptFrozen: graph has " + std::to_string(graph.num_vertices()) +
        " vertices for " + std::to_string(data.num()) + " points");
  }
  MutexLock writer(writer_mu_);
  const std::shared_ptr<const IndexSnapshot> cur = Current();
  if (cur->version() != 0 || cur->num_points() != 0) {
    return Status::FailedPrecondition(
        "AdoptFrozen: index is no longer empty (version " +
        std::to_string(cur->version()) + ")");
  }
  options_.degree = graph.degree();  // online links must match adopted rows
  auto shared_data = std::make_shared<const Dataset>(std::move(data));
  auto shared_graph = std::make_shared<const FixedDegreeGraph>(std::move(graph));
  auto tombstones =
      std::make_shared<std::vector<uint8_t>>(shared_data->num(), uint8_t{0});
  Publish(std::make_shared<IndexSnapshot>(
      std::move(shared_data), std::move(shared_graph), std::move(tombstones),
      metric_, /*entry=*/0, /*version=*/1));
  return Status::OK();
}

StatusOr<idx_t> MutableIndex::Insert(const float* vector) {
  if (vector == nullptr) {
    return Status::InvalidArgument("Insert: vector is null");
  }
  for (size_t d = 0; d < dim_; ++d) {
    if (!std::isfinite(vector[d])) {
      return Status::InvalidArgument("Insert: non-finite component at dim " +
                                     std::to_string(d));
    }
  }
  MutexLock writer(writer_mu_);
  const std::shared_ptr<const IndexSnapshot> cur = Current();
  const size_t n = cur->num_points();
  if (n >= static_cast<size_t>(kInvalidIdx)) {
    return Status::ResourceExhausted("Insert: id space exhausted");
  }
  const idx_t id = static_cast<idx_t>(n);

  auto data = std::make_shared<Dataset>(cur->data().CopyGrown(n + 1));
  data->SetRow(id, vector);
  auto graph =
      std::make_shared<FixedDegreeGraph>(cur->graph().CopyGrown(n + 1));
  auto tombstones =
      std::make_shared<std::vector<uint8_t>>(cur->tombstones());
  tombstones->push_back(0);

  if (n > 0) LinkNewVertex(*data, graph.get(), id, cur->entry());

  Publish(std::make_shared<IndexSnapshot>(
      std::move(data), std::move(graph), std::move(tombstones), metric_,
      cur->entry(), cur->version() + 1));
  if (inserts_ != nullptr) inserts_->Increment();
  return id;
}

Status MutableIndex::Delete(idx_t id) {
  MutexLock writer(writer_mu_);
  const std::shared_ptr<const IndexSnapshot> cur = Current();
  if (id >= cur->num_points()) {
    return Status::OutOfRange("Delete: id " + std::to_string(id) +
                              " was never assigned (num_points " +
                              std::to_string(cur->num_points()) + ")");
  }
  if (!cur->IsLive(id)) {
    return Status::NotFound("Delete: id " + std::to_string(id) +
                            " is already deleted");
  }
  auto tombstones =
      std::make_shared<std::vector<uint8_t>>(cur->tombstones());
  (*tombstones)[id] = 1;
  Publish(std::make_shared<IndexSnapshot>(
      cur->shared_data(), cur->shared_graph(), std::move(tombstones), metric_,
      cur->entry(), cur->version() + 1));
  if (deletes_ != nullptr) deletes_->Increment();
  return Status::OK();
}

std::shared_ptr<const IndexSnapshot> MutableIndex::Acquire() const {
  ReaderLock guard(snapshot_mu_);
  return current_;
}

std::shared_ptr<const IndexSnapshot> MutableIndex::Current() const {
  return Acquire();
}

size_t MutableIndex::degree() const {
  MutexLock writer(writer_mu_);
  return options_.degree;
}

void MutableIndex::Publish(std::shared_ptr<const IndexSnapshot> next) {
  std::shared_ptr<const IndexSnapshot> old;
  {
    WriterLock guard(snapshot_mu_);
    old = std::move(current_);
    current_ = std::move(next);
  }
  retired_.push_back(std::move(old));
  const size_t swept = ReclaimRetiredLocked();
  if (reclaimed_ != nullptr && swept > 0) reclaimed_->Increment(swept);
  UpdateGauges();
}

size_t MutableIndex::ReclaimRetiredLocked() {
  const size_t before = retired_.size();
  // use_count() == 1 means only the retired list itself pins the version:
  // no reader epoch is inside it, so it can be freed. A reader releasing
  // concurrently is benign — the version is simply swept on a later pass.
  retired_.erase(
      std::remove_if(retired_.begin(), retired_.end(),
                     [](const std::shared_ptr<const IndexSnapshot>& s) {
                       return s.use_count() == 1;
                     }),
      retired_.end());
  return before - retired_.size();
}

size_t MutableIndex::ReclaimRetired() {
  MutexLock writer(writer_mu_);
  const size_t swept = ReclaimRetiredLocked();
  if (reclaimed_ != nullptr && swept > 0) reclaimed_->Increment(swept);
  UpdateGauges();
  return swept;
}

size_t MutableIndex::retired_versions() const {
  MutexLock writer(writer_mu_);
  return retired_.size();
}

void MutableIndex::UpdateGauges() {
  if (live_points_gauge_ == nullptr) return;
  const std::shared_ptr<const IndexSnapshot> cur = Current();
  live_points_gauge_->Set(static_cast<double>(cur->live_points()));
  versions_gauge_->Set(static_cast<double>(cur->version()));
  retired_gauge_->Set(static_cast<double>(retired_.size()));
}

void MutableIndex::LinkNewVertex(const Dataset& data, FixedDegreeGraph* graph,
                                 idx_t v, idx_t entry) {
  const size_t degree = options_.degree;
  const size_t m = options_.m == 0 ? std::max<size_t>(1, degree / 2)
                                   : std::min(options_.m, degree);

  // Greedy link-time search over the grown graph. The new vertex's row is
  // still empty and nothing points at it yet, so the search never sees it.
  BatchDistance bd(metric_, &data);
  const float* point = data.Row(v);
  const float norm_sqr = bd.QueryNormSqr(point);
  const auto distance = [&](idx_t u) { return bd.Compute(point, norm_sqr, u); };
  SongSearchOptions opts = SongSearchOptions::CpuEngineered();
  opts.queue_size = std::max(options_.ef_construction, m);
  // The entry alone seeds the link-time search, not SeedList: online inserts
  // keep linking the edges the single-entry search found (BuildDigest pins
  // them).
  const idx_t seeds[] = {entry};
  const std::vector<Neighbor> found = SongSearchCore(
      *graph, seeds, data.num(), data.dim() * sizeof(float), distance,
      /*k=*/opts.queue_size, opts, &link_workspace_, /*stats=*/nullptr);

  // found is ascending (dist, id) — exactly the sorted pool the occlusion
  // heuristic expects. Same policy as construction, so link-time pruning is
  // deterministic (tests/graph/prune_order_test.cc).
  const std::vector<idx_t> own = NswBuilder::SelectDiverse(bd, v, found, m);
  graph->SetNeighbors(v, own);

  if (hooks::mutation_drop_reverse_links) return;

  for (const idx_t u : own) AddReverseLink(bd, graph, u, v);

  // Reverse links can all be pruned away (and a reverse-row re-selection can
  // in principle disconnect some other vertex), so restore the invariant the
  // searcher and the differential harness rely on: every vertex — live or
  // tombstoned — is reachable from the entry vertex.
  NswBuilder::RepairConnectivity(data, metric_, graph);
}

bool MutableIndex::AddReverseLink(const BatchDistance& dist,
                                  FixedDegreeGraph* graph, idx_t u, idx_t v) {
  if (graph->AddNeighbor(u, v)) return true;
  // Degree overflow: deterministic link-time pruning. Re-select u's row from
  // its current neighbors plus v, exactly like construction-time overflow
  // (LockedGraph::AddEdgeWithShrink).
  const std::vector<idx_t> kept = NswBuilder::ReselectRow(
      dist, u, graph->Neighbors(u), v, graph->degree());
  graph->SetNeighbors(u, kept);
  return std::find(kept.begin(), kept.end(), v) != kept.end();
}

}  // namespace song
