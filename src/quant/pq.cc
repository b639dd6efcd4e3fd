#include "quant/pq.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "baselines/kmeans.h"
#include "core/logging.h"

namespace song {

void ProductQuantizer::Train(const Dataset& train, const PqOptions& options) {
  dim_ = train.dim();
  m_ = std::min(options.num_subquantizers, dim_);
  SONG_CHECK_MSG(m_ > 0, "need at least one subquantizer");

  // Balanced subspace split: the first (dim % m) subspaces get one extra
  // dimension.
  offsets_.assign(m_ + 1, 0);
  const size_t base = dim_ / m_;
  const size_t extra = dim_ % m_;
  for (size_t s = 0; s < m_; ++s) {
    offsets_[s + 1] = offsets_[s] + base + (s < extra ? 1 : 0);
  }

  centroid_offsets_.assign(m_ + 1, 0);
  for (size_t s = 0; s < m_; ++s) {
    centroid_offsets_[s + 1] =
        centroid_offsets_[s] + kCodebookSize * SubspaceDim(s);
  }
  codebooks_.assign(centroid_offsets_[m_], 0.0f);

  for (size_t s = 0; s < m_; ++s) {
    const size_t sub_dim = SubspaceDim(s);
    Dataset sub(train.num(), sub_dim);
    for (size_t i = 0; i < train.num(); ++i) {
      sub.SetRow(static_cast<idx_t>(i),
                 train.Row(static_cast<idx_t>(i)) + offsets_[s]);
    }
    KMeansOptions km;
    km.num_clusters = std::min(kCodebookSize, train.num());
    km.max_iterations = options.train_iterations;
    km.seed = options.seed + s;
    km.num_threads = options.num_threads;
    const KMeansResult result = RunKMeans(sub, km);
    float* dst = codebooks_.data() + centroid_offsets_[s];
    for (size_t c = 0; c < result.centroids.num(); ++c) {
      std::copy_n(result.centroids.Row(static_cast<idx_t>(c)), sub_dim,
                  dst + c * sub_dim);
    }
    // If the training set was smaller than the codebook, the remaining
    // centroids stay zero — harmless, they are simply never the argmin for
    // non-degenerate data and decode to zeros.
  }
  trained_ = true;
}

void ProductQuantizer::Encode(const float* vec, uint8_t* code) const {
  SONG_DCHECK(trained_);
  for (size_t s = 0; s < m_; ++s) {
    const size_t sub_dim = SubspaceDim(s);
    const float* sub_vec = vec + offsets_[s];
    float best = std::numeric_limits<float>::max();
    size_t best_c = 0;
    for (size_t c = 0; c < kCodebookSize; ++c) {
      const float d = L2Sqr(sub_vec, Centroid(s, c), sub_dim);
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    code[s] = static_cast<uint8_t>(best_c);
  }
}

void ProductQuantizer::Decode(const uint8_t* code, float* out) const {
  SONG_DCHECK(trained_);
  for (size_t s = 0; s < m_; ++s) {
    std::copy_n(Centroid(s, code[s]), SubspaceDim(s), out + offsets_[s]);
  }
}

namespace {

constexpr char kSngqMagic[4] = {'S', 'N', 'G', 'P'};

/// Subspace count ceiling for deserialized headers: a real codebook never
/// exceeds the vector dimensionality, and dim itself is bounded by what the
/// rest of the system accepts. Keeps a hostile header from sizing anything.
constexpr uint64_t kMaxSubquantizers = uint64_t{1} << 16;
constexpr uint64_t kMaxDim = uint64_t{1} << 24;

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  if (std::fwrite(&n, 8, 1, f) != 1) return false;
  return n == 0 || std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
}

/// Length-prefixed vector read, bounded by the bytes actually left in the
/// stream: a stomped 2^62 count fails cleanly instead of driving a giant
/// allocation (the hostile-header contract of the corrupt-file fuzz suite).
template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (std::fread(&n, 8, 1, f) != 1) return false;
  const int64_t remaining = RemainingBytes(f);
  if (remaining < 0 ||
      n > static_cast<uint64_t>(remaining) / sizeof(T)) {
    return false;
  }
  v->resize(n);
  return n == 0 || std::fread(v->data(), sizeof(T), n, f) == n;
}

}  // namespace

Status ProductQuantizer::SaveTo(std::FILE* f) const {
  const uint64_t dim64 = dim_, m64 = m_;
  bool ok = std::fwrite(&dim64, 8, 1, f) == 1 &&
            std::fwrite(&m64, 8, 1, f) == 1;
  ok = ok && WriteVec(f, std::vector<uint64_t>(offsets_.begin(),
                                               offsets_.end()));
  ok = ok && WriteVec(f, std::vector<uint64_t>(centroid_offsets_.begin(),
                                               centroid_offsets_.end()));
  ok = ok && WriteVec(f, codebooks_);
  return ok ? Status::OK() : Status::IOError("PQ write failed");
}

Status ProductQuantizer::LoadFrom(std::FILE* f) {
  uint64_t dim64 = 0, m64 = 0;
  if (std::fread(&dim64, 8, 1, f) != 1 || std::fread(&m64, 8, 1, f) != 1) {
    return Status::DataLoss("PQ codebook: truncated header");
  }
  if (m64 == 0 || m64 > kMaxSubquantizers || dim64 == 0 ||
      dim64 > kMaxDim || m64 > dim64) {
    return Status::DataLoss("PQ codebook: implausible header (m=" +
                            std::to_string(m64) + ", dim=" +
                            std::to_string(dim64) + ")");
  }
  std::vector<uint64_t> offsets, centroid_offsets;
  std::vector<float> codebooks;
  if (!ReadVec(f, &offsets) || !ReadVec(f, &centroid_offsets) ||
      !ReadVec(f, &codebooks)) {
    return Status::DataLoss("PQ codebook: truncated body");
  }
  // Structural invariants: subspaces tile [0, dim) left to right, centroid
  // offsets follow from the subspace widths, and the flat codebook is
  // exactly 256 centroids per subspace. Anything else is corruption.
  if (offsets.size() != m64 + 1 || offsets[0] != 0 || offsets[m64] != dim64) {
    return Status::DataLoss("PQ codebook: bad subspace offsets");
  }
  if (centroid_offsets.size() != m64 + 1 || centroid_offsets[0] != 0) {
    return Status::DataLoss("PQ codebook: bad centroid offsets");
  }
  for (size_t s = 0; s < m64; ++s) {
    if (offsets[s + 1] <= offsets[s]) {
      return Status::DataLoss("PQ codebook: non-increasing subspace offsets");
    }
    const uint64_t sub_dim = offsets[s + 1] - offsets[s];
    if (centroid_offsets[s + 1] !=
        centroid_offsets[s] + kCodebookSize * sub_dim) {
      return Status::DataLoss("PQ codebook: centroid offsets inconsistent "
                              "with subspace widths");
    }
  }
  if (codebooks.size() != centroid_offsets[m64]) {
    return Status::DataLoss("PQ codebook: codebook size " +
                            std::to_string(codebooks.size()) +
                            " != expected " +
                            std::to_string(centroid_offsets[m64]));
  }
  for (const float v : codebooks) {
    if (!std::isfinite(v)) {
      return Status::DataLoss("PQ codebook: non-finite centroid value");
    }
  }
  dim_ = static_cast<size_t>(dim64);
  m_ = static_cast<size_t>(m64);
  offsets_.assign(offsets.begin(), offsets.end());
  centroid_offsets_.assign(centroid_offsets.begin(), centroid_offsets.end());
  codebooks_ = std::move(codebooks);
  trained_ = true;
  return Status::OK();
}

Status ProductQuantizer::Save(const std::string& path) const {
  if (!trained_) {
    return Status::FailedPrecondition("PQ codebook not trained; nothing to "
                                      "save to " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  bool ok = std::fwrite(kSngqMagic, 1, 4, f) == 4;
  Status body = ok ? SaveTo(f) : Status::IOError("short write " + path);
  std::fclose(f);
  return body;
}

StatusOr<ProductQuantizer> ProductQuantizer::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char magic[4];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kSngqMagic, 4) != 0) {
    std::fclose(f);
    return Status::DataLoss("not a PQ codebook (bad magic): " + path);
  }
  ProductQuantizer pq;
  Status s = pq.LoadFrom(f);
  std::fclose(f);
  if (!s.ok()) {
    return Status::DataLoss(s.message() + " (" + path + ")");
  }
  return pq;
}

void ProductQuantizer::ComputeAdcTable(const float* query, Metric metric,
                                       float* table) const {
  SONG_DCHECK(trained_);
  for (size_t s = 0; s < m_; ++s) {
    const size_t sub_dim = SubspaceDim(s);
    const float* sub_query = query + offsets_[s];
    float* row = table + s * kCodebookSize;
    for (size_t c = 0; c < kCodebookSize; ++c) {
      if (metric == Metric::kInnerProduct) {
        row[c] = InnerProduct(sub_query, Centroid(s, c), sub_dim);
      } else {
        row[c] = L2Sqr(sub_query, Centroid(s, c), sub_dim);
      }
    }
  }
}

}  // namespace song
