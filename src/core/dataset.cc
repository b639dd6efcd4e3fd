#include "core/dataset.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/fault_injection.h"

namespace song {

namespace {
constexpr char kMagic[4] = {'S', 'N', 'G', 'D'};
}  // namespace

long RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return end - pos;
}

Dataset::Dataset(size_t num, size_t dim)
    : num_(num), dim_(dim), stride_(PaddedStride(dim)) {
  data_.Reset(num_ * stride_);
}

StatusOr<Dataset> Dataset::FromFlat(const std::vector<float>& flat, size_t num,
                                    size_t dim) {
  if (flat.size() != num * dim) {
    return Status::InvalidArgument("flat size != num * dim");
  }
  Dataset ds(num, dim);
  for (size_t i = 0; i < num; ++i) {
    ds.SetRow(static_cast<idx_t>(i), flat.data() + i * dim);
  }
  return ds;
}

void Dataset::SetRow(idx_t i, const float* values) {
  float* row = Row(i);
  std::memcpy(row, values, dim_ * sizeof(float));
  if (stride_ > dim_) {
    std::memset(row + dim_, 0, (stride_ - dim_) * sizeof(float));
  }
}

Dataset Dataset::CopyGrown(size_t new_num) const {
  SONG_CHECK(new_num >= num_);
  Dataset out(new_num, dim_);
  if (num_ > 0) {
    std::memcpy(out.data_.data(), data_.data(),
                num_ * stride_ * sizeof(float));
  }
  return out;
}

void Dataset::NormalizeRows() {
  for (size_t i = 0; i < num_; ++i) {
    float* row = Row(static_cast<idx_t>(i));
    double sq = 0.0;
    for (size_t d = 0; d < dim_; ++d) sq += double{row[d]} * row[d];
    if (sq <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / std::sqrt(sq));
    for (size_t d = 0; d < dim_; ++d) row[d] *= inv;
  }
}

Status Dataset::Save(const std::string& path) const {
  if (fault::ShouldFail("io.write")) {
    return Status::Unavailable("injected fault: io.write " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4;
  const uint32_t dim32 = static_cast<uint32_t>(dim_);
  const uint64_t num64 = num_;
  ok = ok && std::fwrite(&dim32, sizeof(dim32), 1, f) == 1;
  ok = ok && std::fwrite(&num64, sizeof(num64), 1, f) == 1;
  for (size_t i = 0; ok && i < num_; ++i) {
    ok = std::fwrite(Row(static_cast<idx_t>(i)), sizeof(float), dim_, f) ==
         dim_;
  }
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return Status::OK();
}

StatusOr<Dataset> Dataset::Load(const std::string& path) {
  if (fault::ShouldFail("io.read")) {
    return Status::Unavailable("injected fault: io.read " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[4];
  uint32_t dim32 = 0;
  uint64_t num64 = 0;
  bool ok = std::fread(magic, 1, 4, f) == 4 &&
            std::memcmp(magic, kMagic, 4) == 0;
  ok = ok && std::fread(&dim32, sizeof(dim32), 1, f) == 1;
  ok = ok && std::fread(&num64, sizeof(num64), 1, f) == 1;
  if (!ok) {
    std::fclose(f);
    return Status::DataLoss("bad header: " + path);
  }
  if (dim32 == 0) {
    std::fclose(f);
    return Status::DataLoss("zero dim in header: " + path);
  }
  // The payload size must match the header's claim exactly — this rejects
  // truncated files and corrupt headers BEFORE the (potentially enormous)
  // allocation a hostile num/dim would request.
  const long remaining = RemainingBytes(f);
  const uint64_t payload = num64 * uint64_t{dim32} * sizeof(float);
  if (remaining < 0 || num64 > (uint64_t{1} << 40) ||
      payload / sizeof(float) / dim32 != num64 ||
      static_cast<uint64_t>(remaining) != payload) {
    std::fclose(f);
    return Status::DataLoss("payload size mismatch (truncated or corrupt): " +
                            path);
  }
  Dataset ds(static_cast<size_t>(num64), dim32);
  std::vector<float> row(dim32);
  for (size_t i = 0; ok && i < num64; ++i) {
    ok = std::fread(row.data(), sizeof(float), dim32, f) == dim32;
    if (ok) ds.SetRow(static_cast<idx_t>(i), row.data());
  }
  std::fclose(f);
  if (!ok) return Status::DataLoss("short read: " + path);
  return ds;
}

}  // namespace song
