#include "song/song_searcher.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace song {

namespace {

/// The distance callable handed to SongSearchCore for dense float search.
/// Implements the core's optional hooks: ComputeBatch routes Stage 2
/// through the fused SIMD gather kernel, Prefetch hints candidate vectors
/// into cache during Stage 1 expansion. Per-row values are bit-identical to
/// operator() (distance_kernels.h contract), so batching never changes
/// results.
struct DenseDistanceFn {
  const BatchDistance* bd;
  const Dataset* data;
  const float* query;
  float query_norm_sqr;

  float operator()(idx_t v) const {
    return bd->Compute(query, query_norm_sqr, v);
  }
  void ComputeBatch(const idx_t* ids, size_t n, float* out) const {
    bd->ComputeBatch(query, query_norm_sqr, ids, n, out);
  }
  void Prefetch(idx_t v) const { data->PrefetchRow(v); }
};

/// The quantized Stage-2 callable: distances come from the per-query ADC
/// table over m-byte codes (quant/pq_distance.h). operator() routes through
/// the same kernel with n = 1, so single and batched scores are
/// bit-identical within a SIMD tier.
struct PqAdcDistanceFn {
  const PqBatchDistance* pqd;
  const float* table;

  float operator()(idx_t v) const { return pqd->Compute(table, v); }
  void ComputeBatch(const idx_t* ids, size_t n, float* out) const {
    pqd->ComputeBatch(table, ids, n, out);
  }
  void Prefetch(idx_t v) const { pqd->PrefetchCode(v); }
};

}  // namespace

SongSearcher::SongSearcher(const Dataset* data, const FixedDegreeGraph* graph,
                           Metric metric, idx_t entry)
    : data_(data), graph_(graph), metric_(metric), entry_(entry),
      batch_dist_(metric, data) {
  SONG_CHECK(data != nullptr && graph != nullptr);
  SONG_CHECK_MSG(data->num() == graph->num_vertices(),
                 "dataset / graph size mismatch");
  SONG_CHECK(entry < data->num());
  seeds_ = SeedList(data->num(), graph->degree(), entry);
}

void SongSearcher::SetResultIdMap(std::vector<idx_t> new_to_old) {
  SONG_CHECK_MSG(new_to_old.empty() || new_to_old.size() == data_->num(),
                 "result id map size mismatch");
  result_id_map_ = std::move(new_to_old);
}

std::vector<Neighbor> SongSearcher::Search(const float* query, size_t k,
                                           const SongSearchOptions& options,
                                           SearchStats* stats) const {
  SongWorkspace workspace;
  return Search(query, k, options, &workspace, stats);
}

std::vector<Neighbor> SongSearcher::Search(const float* query, size_t k,
                                           const SongSearchOptions& options,
                                           SongWorkspace* workspace,
                                           SearchStats* stats,
                                           obs::SearchTrace* trace,
                                           bool* degraded) const {
  SONG_DCHECK(workspace != nullptr);
  const Dataset& data = *data_;
  const DenseDistanceFn distance{&batch_dist_, &data, query,
                                 batch_dist_.QueryNormSqr(query)};
  if (options.quant == QuantizationMode::kPq) {
    return SearchPq(query, k, options, workspace, stats, trace, degraded);
  }
  std::vector<Neighbor> result = SongSearchCore(
      *graph_, seeds_, data.num(), data.dim() * sizeof(float), distance, k,
      options, workspace, stats, trace, degraded);
  if (!result_id_map_.empty()) {
    for (Neighbor& n : result) n.id = result_id_map_[n.id];
  }
  return result;
}

size_t SongSearcher::RerankPoolSize(size_t k,
                                    const SongSearchOptions& options) {
  const size_t ef = std::max(options.queue_size, k);
  size_t pool = options.rerank_depth == 0
                    ? std::min(ef, std::max(4 * k, size_t{32}))
                    : options.rerank_depth;
  return std::min(std::max(pool, k), ef);
}

std::vector<Neighbor> SongSearcher::SearchPq(const float* query, size_t k,
                                             const SongSearchOptions& options,
                                             SongWorkspace* workspace,
                                             SearchStats* stats,
                                             obs::SearchTrace* trace,
                                             bool* degraded) const {
  SONG_CHECK_MSG(pq_dist_ != nullptr,
                 "options.quant == kPq but EnablePq was never called; use "
                 "TrySearch for a Status instead of an abort");
  const PqBatchDistance& pqd = *pq_dist_;

  // Stage 0 (PQ only): the per-query asymmetric-distance table. Built once,
  // then every Stage 2 candidate costs m table lookups over its m-byte code.
  Timer table_timer;
  pqd.BuildAdcTable(query, metric_, &workspace->adc_table);
  if (stats != nullptr) {
    stats->adc_tables_built += 1;
    stats->adc_table_build_ns +=
        static_cast<size_t>(table_timer.ElapsedMicros() * 1e3);
  }

  // Traversal over codes. Asking the core for the whole rerank pool is
  // traversal-neutral: the top-k heap capacity is ef = max(queue_size, k)
  // either way (pool <= ef), so expansion order and stats match a plain
  // k-result run — only the emitted prefix length differs.
  const size_t pool = RerankPoolSize(k, options);
  const PqAdcDistanceFn distance{&pqd, workspace->adc_table.data()};
  std::vector<Neighbor> result = SongSearchCore(
      *graph_, seeds_, data_->num(), pqd.code_bytes(), distance, pool, options,
      workspace, stats, trace, degraded);

  // Exact rerank: rescore the surviving pool with full-precision vectors and
  // keep the best k. This is the only stage that touches the float dataset.
  const size_t n = result.size();
  workspace->rerank_ids.resize(n);
  workspace->rerank_dists.resize(n);
  for (size_t i = 0; i < n; ++i) workspace->rerank_ids[i] = result[i].id;
  const float query_norm_sqr = batch_dist_.QueryNormSqr(query);
  batch_dist_.ComputeBatch(query, query_norm_sqr, workspace->rerank_ids.data(),
                           n, workspace->rerank_dists.data());
  for (size_t i = 0; i < n; ++i) result[i].dist = workspace->rerank_dists[i];
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
            });
  if (result.size() > k) result.resize(k);
  if (stats != nullptr) {
    stats->rerank_candidates += n;
    stats->rerank_bytes_loaded += n * data_->dim() * sizeof(float);
  }

  if (!result_id_map_.empty()) {
    for (Neighbor& nb : result) nb.id = result_id_map_[nb.id];
  }
  return result;
}

Status SongSearcher::EnablePq(const PqOptions& pq_options) {
  if (metric_ == Metric::kCosine) {
    return Status::InvalidArgument(
        "PQ traversal does not support the cosine metric; normalize the "
        "rows and use kInnerProduct instead");
  }
  ProductQuantizer pq;
  pq.Train(*data_, pq_options);
  return EnablePq(std::move(pq));
}

Status SongSearcher::EnablePq(ProductQuantizer pq) {
  if (metric_ == Metric::kCosine) {
    return Status::InvalidArgument(
        "PQ traversal does not support the cosine metric; normalize the "
        "rows and use kInnerProduct instead");
  }
  if (!pq.trained()) {
    return Status::FailedPrecondition(
        "EnablePq requires a trained codebook (Train or Load first)");
  }
  if (pq.dim() != data_->dim()) {
    return Status::InvalidArgument(
        "PQ codebook dim " + std::to_string(pq.dim()) +
        " does not match the index dim " + std::to_string(data_->dim()));
  }
  pq_dist_ = std::make_unique<PqBatchDistance>(std::move(pq), *data_);
  return Status::OK();
}

Status SongSearcher::ValidateQuery(const float* query) const {
  if (query == nullptr) {
    return Status::InvalidArgument("query is null");
  }
  const size_t dim = data_->dim();
  for (size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(query[d])) {
      return Status::InvalidArgument(
          "query component " + std::to_string(d) + " is " +
          (std::isnan(query[d]) ? "NaN" : "infinite") +
          "; distances would be undefined");
    }
  }
  return Status::OK();
}

Status SongSearcher::ValidateOptions(size_t k,
                                     const SongSearchOptions& options) const {
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (k > data_->num()) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " exceeds the dataset size " +
        std::to_string(data_->num()));
  }
  const size_t ef = std::max(options.queue_size, k);
  if (ef > kMaxQueueSize) {
    return Status::InvalidArgument(
        "effective queue size " + std::to_string(ef) + " exceeds the limit " +
        std::to_string(kMaxQueueSize));
  }
  if (options.multi_step_probe == 0) {
    return Status::InvalidArgument("multi_step_probe must be >= 1");
  }
  if (options.quant == QuantizationMode::kPq && pq_dist_ == nullptr) {
    return Status::FailedPrecondition(
        "options.quant == kPq but this index has no PQ codebook: call "
        "SongSearcher::EnablePq (or load a .sngq codebook) on a static "
        "index first; mutable-index snapshots serve exact search only");
  }
  return Status::OK();
}

Status SongSearcher::ValidateRequest(const float* query, size_t k,
                                     const SongSearchOptions& options) const {
  SONG_RETURN_IF_ERROR(ValidateOptions(k, options));
  return ValidateQuery(query);
}

StatusOr<std::vector<Neighbor>> SongSearcher::TrySearch(
    const float* query, size_t k, const SongSearchOptions& options,
    SongWorkspace* workspace, SearchStats* stats, obs::SearchTrace* trace,
    bool* degraded, const obs::RequestObserver* observer) const {
  if (observer == nullptr) {
    SONG_RETURN_IF_ERROR(ValidateRequest(query, k, options));
    return Search(query, k, options, workspace, stats, trace, degraded);
  }

  // Lifecycle-observed variant: the caller stamped the pre-search stages
  // (queue / batch_form); this searcher owns the search stage and emits one
  // record per request, rejected or served.
  const Status vs = ValidateRequest(query, k, options);
  if (!vs.ok()) {
    obs::EmitRequestRecord(*observer, options.Digest(k), 0.0f, vs.code(),
                           /*degraded=*/false, /*rejected=*/true);
    return vs;
  }
  bool local_degraded = false;
  Timer search_timer;
  std::vector<Neighbor> result =
      Search(query, k, options, workspace, stats, trace, &local_degraded);
  obs::EmitRequestRecord(*observer, options.Digest(k),
                         static_cast<float>(search_timer.ElapsedMicros()),
                         StatusCode::kOk, local_degraded,
                         /*rejected=*/false);
  if (degraded != nullptr) *degraded = local_degraded;
  return result;
}

}  // namespace song
