#include "baselines/hnsw.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "core/random.h"
#include "core/sync.h"
#include "core/thread_pool.h"
#include "graph/graph_search.h"
#include "graph/nsw_builder.h"

namespace song {

namespace {

// Neighbor-row helpers: rows are padded with kInvalidIdx.
size_t RowCount(const idx_t* row, size_t capacity) {
  size_t c = 0;
  while (c < capacity && row[c] != kInvalidIdx) ++c;
  return c;
}

void WriteRow(idx_t* row, size_t capacity, const std::vector<idx_t>& ids) {
  std::fill(row, row + capacity, kInvalidIdx);
  std::copy(ids.begin(), ids.end(), row);
}

// Greedy descent through layers (top_level, bottom_level]: on each layer,
// move to the closest traversable neighbour until none improves (HNSW
// Algorithm 2 with ef = 1). `row_of(v, level)` follows BestFirstSearch's
// row contract.
template <typename RowFn, typename DistanceFn, typename MayTraverseFn>
Neighbor GreedyDescent(Neighbor ep, size_t top_level, size_t bottom_level,
                       const RowFn& row_of, const DistanceFn& distance,
                       const MayTraverseFn& may_traverse) {
  for (size_t l = top_level; l > bottom_level; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const idx_t u : row_of(ep.id, l)) {
        if (u == kInvalidIdx) break;
        if (!may_traverse(u)) continue;
        const float d = distance(u);
        if (d < ep.dist) {
          ep = Neighbor(d, u);
          improved = true;
        }
      }
    }
  }
  return ep;
}

}  // namespace

Hnsw::Hnsw(const Dataset* data, Metric metric, const HnswBuildOptions& options)
    : data_(data),
      metric_(metric),
      batch_dist_(metric, data),
      m_(options.m),
      level_mult_(1.0 / std::log(static_cast<double>(options.m))) {
  SONG_CHECK(data != nullptr);
  const size_t n = data_->num();
  SONG_CHECK_MSG(n > 0, "cannot build HNSW over an empty dataset");
  levels_.assign(n, 0);
  layer0_.assign(n * RowCapacity(0), kInvalidIdx);
  upper_.resize(n);

  // Pre-draw levels sequentially for determinism regardless of threading.
  uint64_t rng_state = options.seed;
  for (size_t v = 0; v < n; ++v) {
    levels_[v] = static_cast<uint32_t>(RandomLevel(&rng_state));
    upper_[v].assign(levels_[v] * m_, kInvalidIdx);
  }
  // Vertex 0 seeds the structure at level 0; entry_/max_level_ are promoted
  // under lock as deeper vertices are inserted.
  levels_[0] = 0;
  upper_[0].clear();
  entry_ = 0;
  max_level_ = 0;

  std::unique_ptr<Mutex[]> locks(std::make_unique<Mutex[]>(n));
  Mutex global_lock;  // guards entry_ / max_level_ promotion
  std::vector<std::atomic<bool>> inserted(n);
  inserted[0].store(true, std::memory_order_release);

  const auto is_inserted = [&](idx_t u) {
    return inserted[u].load(std::memory_order_acquire);
  };

  ParallelFor(n - 1, options.num_threads, [&](size_t job, size_t) {
    thread_local BestFirstScratch scratch;
    thread_local std::vector<idx_t> row_buf;
    const idx_t v = static_cast<idx_t>(job + 1);
    const float* point = data_->Row(v);
    const size_t level = levels_[v];
    // Rows of the in-flux graph are copied under their vertex lock.
    const auto row_of = [&](idx_t u, size_t l) {
      {
        MutexLock guard(locks[u]);
        const idx_t* row = Row(u, l);
        row_buf.assign(row, row + RowCount(row, RowCapacity(l)));
      }
      return std::span<const idx_t>(row_buf);
    };
    const BatchQueryDistance distance{batch_dist_, point,
                                      batch_dist_.QueryNormSqr(point)};

    idx_t ep;
    size_t top_level;
    {
      MutexLock guard(global_lock);
      ep = entry_;
      top_level = max_level_;
    }
    const Neighbor ep_n = GreedyDescent(Neighbor(distance(ep), ep), top_level,
                                        level, row_of, distance, is_inserted);

    std::vector<Neighbor> eps{ep_n};
    for (size_t l = std::min(level, top_level) + 1; l-- > 0;) {
      std::vector<Neighbor> pool = BestFirstSearch(
          [&](idx_t u) { return row_of(u, l); }, distance,
          std::span<const Neighbor>(eps), options.ef_construction, n,
          &scratch, /*stats=*/nullptr, is_inserted);
      std::vector<idx_t> selected =
          NswBuilder::SelectDiverse(batch_dist_, v, pool, m_);
      {
        MutexLock guard(locks[v]);
        WriteRow(MutableRow(v, l), RowCapacity(l), selected);
      }
      // Reverse edges with occlusion-based shrink on overflow.
      for (const idx_t u : selected) {
        MutexLock guard(locks[u]);
        idx_t* row = MutableRow(u, l);
        const size_t cap = RowCapacity(l);
        const size_t count = RowCount(row, cap);
        bool present = false;
        for (size_t i = 0; i < count; ++i) present |= (row[i] == v);
        if (present) continue;
        if (count < cap) {
          row[count] = v;
          continue;
        }
        WriteRow(row, cap,
                 NswBuilder::ReselectRow(batch_dist_, u, {row, count}, v, cap));
      }
      if (!pool.empty()) eps = std::move(pool);
    }

    inserted[v].store(true, std::memory_order_release);
    if (level > 0) {
      MutexLock guard(global_lock);
      if (level > max_level_) {
        max_level_ = level;
        entry_ = v;
      }
    }
  });
}

size_t Hnsw::RandomLevel(uint64_t* state) const {
  const uint64_t r = SplitMix64(*state);
  double u = static_cast<double>(r >> 11) * 0x1.0p-53;
  if (u <= 1e-12) u = 1e-12;
  const double level = -std::log(u) * level_mult_;
  return std::min<size_t>(static_cast<size_t>(level), 31);
}

const idx_t* Hnsw::Row(idx_t v, size_t level) const {
  if (level == 0) return &layer0_[static_cast<size_t>(v) * RowCapacity(0)];
  return &upper_[v][(level - 1) * m_];
}

idx_t* Hnsw::MutableRow(idx_t v, size_t level) {
  if (level == 0) return &layer0_[static_cast<size_t>(v) * RowCapacity(0)];
  return &upper_[v][(level - 1) * m_];
}

std::vector<Neighbor> Hnsw::Search(const float* query, size_t k, size_t ef,
                                   HnswSearchStats* stats) const {
  thread_local BestFirstScratch scratch;
  const BatchQueryDistance batch{batch_dist_, query,
                                 batch_dist_.QueryNormSqr(query)};
  GraphSearchStats layer_stats;
  const auto distance = [&](idx_t v) {
    ++layer_stats.distance_computations;
    return batch(v);
  };
  const auto row_of = [this](idx_t v, size_t level) {
    return std::span<const idx_t>(Row(v, level), RowCapacity(level));
  };
  const Neighbor ep =
      GreedyDescent(Neighbor(distance(entry_), entry_), max_level_, 0, row_of,
                    distance, TraverseAll{});
  std::vector<Neighbor> result = BestFirstSearch(
      [&](idx_t v) { return row_of(v, 0); }, batch, {&ep, 1}, std::max(ef, k),
      data_->num(), &scratch, &layer_stats);
  if (result.size() > k) result.resize(k);
  if (stats != nullptr) {
    stats->distance_computations += layer_stats.distance_computations;
    stats->hops += layer_stats.hops;
  }
  return result;
}

FixedDegreeGraph Hnsw::ExportBaseLayer() const {
  const size_t n = data_->num();
  const size_t cap = RowCapacity(0);
  FixedDegreeGraph g(n, cap);
  std::vector<idx_t> row;
  for (size_t v = 0; v < n; ++v) {
    const idx_t* r = Row(static_cast<idx_t>(v), 0);
    row.clear();
    for (size_t i = 0; i < cap && r[i] != kInvalidIdx; ++i) row.push_back(r[i]);
    g.SetNeighbors(static_cast<idx_t>(v), row);
  }
  return g;
}

namespace {
constexpr char kHnswMagic[4] = {'S', 'N', 'G', 'H'};

/// Every slot is the kInvalidIdx pad or a vertex whose own level reaches
/// `level` (search reads Row(id, level) of every id it meets there).
bool RowIdsValid(std::span<const idx_t> slots,
                 const std::vector<uint32_t>& levels, size_t level) {
  return std::all_of(slots.begin(), slots.end(), [&](idx_t id) {
    return id == kInvalidIdx || (id < levels.size() && levels[id] >= level);
  });
}
}  // namespace

Status Hnsw::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const uint32_t m32 = static_cast<uint32_t>(m_);
  const uint32_t level32 = static_cast<uint32_t>(max_level_);
  const uint32_t entry32 = entry_;
  const uint64_t n64 = levels_.size();
  bool ok = std::fwrite(kHnswMagic, 1, 4, f) == 4 &&
            std::fwrite(&m32, 4, 1, f) == 1 &&
            std::fwrite(&level32, 4, 1, f) == 1 &&
            std::fwrite(&entry32, 4, 1, f) == 1 &&
            std::fwrite(&n64, 8, 1, f) == 1;
  ok = ok && std::fwrite(levels_.data(), sizeof(uint32_t), levels_.size(),
                         f) == levels_.size();
  ok = ok && std::fwrite(layer0_.data(), sizeof(idx_t), layer0_.size(), f) ==
                 layer0_.size();
  for (size_t v = 0; ok && v < levels_.size(); ++v) {
    if (!upper_[v].empty()) {
      ok = std::fwrite(upper_[v].data(), sizeof(idx_t), upper_[v].size(),
                       f) == upper_[v].size();
    }
  }
  std::fclose(f);
  return ok ? Status::OK() : Status::IOError("short write " + path);
}

StatusOr<Hnsw> Hnsw::Load(const std::string& path, const Dataset* data,
                          Metric metric) {
  SONG_CHECK(data != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char magic[4];
  uint32_t m32 = 0, level32 = 0, entry32 = 0;
  uint64_t n64 = 0;
  bool ok = std::fread(magic, 1, 4, f) == 4 &&
            std::memcmp(magic, kHnswMagic, 4) == 0 &&
            std::fread(&m32, 4, 1, f) == 1 &&
            std::fread(&level32, 4, 1, f) == 1 &&
            std::fread(&entry32, 4, 1, f) == 1 &&
            std::fread(&n64, 8, 1, f) == 1;
  if (!ok || m32 == 0 || n64 == 0 || n64 != data->num()) {
    std::fclose(f);
    return Status::IOError("bad/stale HNSW index: " + path);
  }
  const auto corrupt = [&](const std::string& what) {
    std::fclose(f);
    return Status::DataLoss("corrupt HNSW index (" + what + "): " + path);
  };
  if (level32 > 31) return corrupt("max level past 31");
  if (entry32 >= n64) return corrupt("entry point out of range");
  // Size the per-vertex levels and the layer-0 slots against the file
  // before allocating either (n64 is the in-memory dataset's size, so
  // n64 * 8 cannot overflow).
  const long remaining = RemainingBytes(f);
  const uint64_t levels_bytes = n64 * sizeof(uint32_t);
  if (remaining < 0 || static_cast<uint64_t>(remaining) < levels_bytes ||
      (static_cast<uint64_t>(remaining) - levels_bytes) /
              (n64 * 2 * sizeof(idx_t)) < m32) {
    return corrupt("truncated or oversized degree");
  }
  Hnsw index(LoadTag{}, data, metric, m32);
  index.level_mult_ = 1.0 / std::log(static_cast<double>(m32));
  index.max_level_ = level32;
  index.entry_ = entry32;
  index.levels_.resize(n64);
  if (std::fread(index.levels_.data(), sizeof(uint32_t), n64, f) != n64) {
    return corrupt("short read");
  }
  uint64_t upper_slots = 0;
  for (const uint32_t level : index.levels_) {
    if (level > level32) return corrupt("vertex level above max level");
    upper_slots += uint64_t{level} * m32;
  }
  if (index.levels_[entry32] != level32) {
    return corrupt("entry point not on the top level");
  }
  const uint64_t layer0_slots = n64 * 2 * m32;
  if (static_cast<uint64_t>(remaining) - levels_bytes !=
      (layer0_slots + upper_slots) * sizeof(idx_t)) {
    return corrupt("payload size mismatch");
  }
  index.layer0_.resize(layer0_slots);
  ok = std::fread(index.layer0_.data(), sizeof(idx_t), layer0_slots, f) ==
       layer0_slots;
  ok = ok && RowIdsValid(index.layer0_, index.levels_, 0);
  index.upper_.resize(n64);
  for (size_t v = 0; ok && v < n64; ++v) {
    std::vector<idx_t>& upper = index.upper_[v];
    upper.resize(static_cast<size_t>(index.levels_[v]) * m32);
    if (upper.empty()) continue;
    ok = std::fread(upper.data(), sizeof(idx_t), upper.size(), f) ==
         upper.size();
    for (size_t l = 1; ok && l <= index.levels_[v]; ++l) {
      ok = RowIdsValid(std::span<const idx_t>(upper).subspan((l - 1) * m32,
                                                             m32),
                       index.levels_, l);
    }
  }
  if (!ok) return corrupt("short read or out-of-range neighbour id");
  std::fclose(f);
  return index;
}

size_t Hnsw::MemoryBytes() const {
  size_t bytes = layer0_.size() * sizeof(idx_t) +
                 levels_.size() * sizeof(uint32_t);
  for (const auto& u : upper_) bytes += u.size() * sizeof(idx_t);
  return bytes;
}

void RecordHnswSearchStats(const HnswSearchStats& stats, size_t num_queries,
                           obs::MetricsRegistry* registry,
                           const std::string& prefix) {
  if (registry == nullptr) return;
  registry->GetCounter(prefix + ".queries").Increment(num_queries);
  registry->GetCounter(prefix + ".hops").Increment(stats.hops);
  registry->GetCounter(prefix + ".distance_computations")
      .Increment(stats.distance_computations);
}

}  // namespace song
