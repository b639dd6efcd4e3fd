// Copyright 2026 The SONG-Repro Authors.
//
// Online mutation for the SONG index (ROADMAP open item 2). The frozen
// pipeline — NswBuilder at build time, SongSearcher at query time — gains
// NSW-style incremental Insert (greedy-search-then-link, Malkov et al. 2014)
// and tombstone Delete, published to readers as immutable IndexSnapshot
// versions:
//
//   writer                                readers
//   ------                                -------
//   Insert/Delete (single writer lock)    Acquire() -> shared_ptr snapshot
//     clone + mutate private copies         search any number of times;
//     publish: atomic swap of current_      results for a pinned version
//     retire the old version                never change
//     reclaim retired versions no
//     reader still pins
//
// Reclamation is epoch-by-refcount: a retired snapshot is swept from the
// retired list only when its use_count shows no reader pins it (the
// shared_ptr itself makes use-after-free impossible; the explicit sweep
// makes reclamation *observable* — tests/song/snapshot_isolation_test.cc
// pins a version across writer publishes and watches retired_versions()).
//
// Insert clones the dataset/graph grown by one row (full copy-on-mutation:
// correctness-first and trivially snapshot-safe; delta chains are a later
// optimization), links the new vertex with the same occlusion-pruning
// policy as construction (NswBuilder::SelectDiverse, so fixed fan-out
// overflow resolves deterministically), then restores full reachability
// from the entry vertex via NswBuilder::RepairConnectivity — the invariant
// the mutation differential harness leans on. Delete shares the dataset and
// graph with its predecessor and copies only the tombstone vector.

#ifndef SONG_SONG_MUTABLE_INDEX_H_
#define SONG_SONG_MUTABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/status.h"
#include "core/sync.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "obs/metrics.h"
#include "song/index_snapshot.h"
#include "song/search_core.h"

namespace song {

struct MutableIndexOptions {
  /// Row capacity of the fixed-degree graph (NswBuildOptions::degree).
  size_t degree = 16;

  /// Forward links created per insert; 0 -> degree / 2.
  size_t m = 0;

  /// Frontier width of the link-time greedy search.
  size_t ef_construction = 100;
};

/// Single-writer / many-reader online index. All mutators serialize on an
/// internal writer mutex; Acquire() is safe from any thread at any time.
class MutableIndex {
 public:
  /// An empty index over `dim`-float vectors. When `registry` is non-null
  /// the index records song.index.{inserts,deletes,live_points,
  /// snapshot_versions,retired_snapshots,snapshots_reclaimed} there;
  /// `registry` must outlive the index.
  MutableIndex(Metric metric, size_t dim, MutableIndexOptions options = {},
               obs::MetricsRegistry* registry = nullptr);

  /// Adopts a pre-built frozen index (e.g. NswBuilder output) as version 1.
  /// Only valid while the index is still empty; the graph's degree
  /// overrides options.degree so online links match the adopted rows. The
  /// entry vertex is 0, the NswBuilder reachability anchor and always the
  /// first seed of every snapshot search. The adopted
  /// graph is published untouched, so with no mutations, snapshot searches
  /// are bit-identical to a SongSearcher over the same data and graph.
  Status AdoptFrozen(Dataset data, FixedDegreeGraph graph)
      SONG_EXCLUDES(writer_mu_);

  /// Inserts a vector (dim() floats, finite), returning its new id. Ids are
  /// dense and append-only: the i-th successful insert into an index
  /// adopted with n points gets id n + i; deleted ids are never reused.
  StatusOr<idx_t> Insert(const float* vector) SONG_EXCLUDES(writer_mu_);

  /// Tombstones a live point. The vertex stays traversable (routing quality
  /// under churn) but is filtered from every subsequent snapshot's results.
  /// NotFound if already deleted, OutOfRange if the id was never assigned.
  Status Delete(idx_t id) SONG_EXCLUDES(writer_mu_);

  /// Pins the current version. The returned snapshot is immutable and
  /// serves bit-identical results for its whole lifetime, regardless of
  /// concurrent writers. Readers share snapshot_mu_, so concurrent
  /// Acquire() calls never serialize on each other — only a Publish in
  /// flight (the pointer swap, a few instructions) blocks them.
  std::shared_ptr<const IndexSnapshot> Acquire() const
      SONG_EXCLUDES(snapshot_mu_);

  /// Sweeps retired versions no reader pins; returns how many were freed.
  /// Publish already sweeps opportunistically, so this mainly serves tests
  /// and idle-time maintenance.
  size_t ReclaimRetired() SONG_EXCLUDES(writer_mu_);

  /// Retired-but-not-yet-reclaimed versions (i.e. still pinned by readers
  /// at the last sweep).
  size_t retired_versions() const SONG_EXCLUDES(writer_mu_);

  Metric metric() const { return metric_; }
  size_t dim() const { return dim_; }
  size_t degree() const SONG_EXCLUDES(writer_mu_);
  uint64_t version() const { return Acquire()->version(); }
  size_t num_points() const { return Acquire()->num_points(); }
  size_t live_points() const { return Acquire()->live_points(); }

 private:
  std::shared_ptr<const IndexSnapshot> Current() const
      SONG_EXCLUDES(snapshot_mu_);
  /// Swaps in `next`, retires the predecessor, sweeps, updates gauges.
  void Publish(std::shared_ptr<const IndexSnapshot> next)
      SONG_REQUIRES(writer_mu_) SONG_EXCLUDES(snapshot_mu_);
  size_t ReclaimRetiredLocked() SONG_REQUIRES(writer_mu_);
  void UpdateGauges() SONG_REQUIRES(writer_mu_) SONG_EXCLUDES(snapshot_mu_);
  void LinkNewVertex(const Dataset& data, FixedDegreeGraph* graph, idx_t v,
                     idx_t entry) SONG_REQUIRES(writer_mu_);
  bool AddReverseLink(const BatchDistance& dist, FixedDegreeGraph* graph,
                      idx_t u, idx_t v);

  Metric metric_;
  size_t dim_;
  /// options_.degree is rewritten by AdoptFrozen, so the whole struct is
  /// writer-guarded; metric_/dim_ stay lock-free (immutable after init).
  MutableIndexOptions options_ SONG_GUARDED_BY(writer_mu_);

  obs::Counter* inserts_ = nullptr;
  obs::Counter* deletes_ = nullptr;
  obs::Counter* reclaimed_ = nullptr;
  obs::Gauge* live_points_gauge_ = nullptr;
  obs::Gauge* versions_gauge_ = nullptr;
  obs::Gauge* retired_gauge_ = nullptr;

  /// Serializes mutators and guards retired_ / link_workspace_ / options_.
  /// Lock order: writer_mu_ before snapshot_mu_ (Publish); never the
  /// reverse — Acquire() takes snapshot_mu_ alone.
  mutable Mutex writer_mu_;
  /// Guards the current_ pointer swap: Publish writes it under the
  /// exclusive side, Acquire copies it under the shared side so readers
  /// never serialize behind each other.
  mutable SharedMutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> current_ SONG_GUARDED_BY(snapshot_mu_);
  std::vector<std::shared_ptr<const IndexSnapshot>> retired_
      SONG_GUARDED_BY(writer_mu_);
  /// Link-time search scratch, writer-only.
  SongWorkspace link_workspace_ SONG_GUARDED_BY(writer_mu_);
};

}  // namespace song

#endif  // SONG_SONG_MUTABLE_INDEX_H_
