// Copyright 2026 The SONG-Repro Authors.
//
// Row-major float matrix holding the vector dataset, with binary IO.
// Rows are padded to a multiple of 16 floats so every row starts on a
// 64-byte boundary (the CPU analogue of the GPU's aligned global-memory
// segments, paper §II).
//
// Invariant: the padded tail of every row (floats [dim, stride)) is always
// zero. The buffer is zero-filled on allocation and SetRow re-clears the
// tail, so full-stride vector reads of a row are well-defined.

#ifndef SONG_CORE_DATASET_H_
#define SONG_CORE_DATASET_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/status.h"
#include "core/types.h"

namespace song {

/// A dense row-major float matrix: `num()` rows of `dim()` usable floats,
/// with an internal padded stride.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a zero-filled dataset with `num` rows of `dim` floats.
  Dataset(size_t num, size_t dim);

  /// Builds from a flat row-major vector (size must be num * dim).
  static StatusOr<Dataset> FromFlat(const std::vector<float>& flat, size_t num,
                                    size_t dim);

  size_t num() const { return num_; }
  size_t dim() const { return dim_; }
  size_t stride() const { return stride_; }
  bool empty() const { return num_ == 0; }

  /// Bytes of *payload* data (num * dim * 4), matching how the paper quotes
  /// dataset sizes; `AllocatedBytes` includes padding.
  size_t PayloadBytes() const { return num_ * dim_ * sizeof(float); }
  size_t AllocatedBytes() const { return data_.size_bytes(); }

  float* Row(idx_t i) {
    SONG_DCHECK(i < num_);
    return data_.data() + static_cast<size_t>(i) * stride_;
  }
  const float* Row(idx_t i) const {
    SONG_DCHECK(i < num_);
    return data_.data() + static_cast<size_t>(i) * stride_;
  }

  /// Copies a row in (source must have dim() floats) and re-zeroes the
  /// padded tail, preserving the zero-pad invariant.
  void SetRow(idx_t i, const float* values);

  /// Hints row `i` into cache (used by the search core to hide the gather
  /// latency of Stage 2 bulk-distance rows one hop ahead). No-op semantics:
  /// safe to call for any valid row.
  void PrefetchRow(idx_t i) const {
    const char* p = reinterpret_cast<const char*>(Row(i));
    const size_t bytes = dim_ * sizeof(float);
    for (size_t off = 0; off < bytes; off += 64) __builtin_prefetch(p + off, 0, 3);
  }

  /// The padded row stride (in floats) used for a given dim: next multiple
  /// of 16. Public so kernels and tests can reason about row layout.
  static size_t PaddedStride(size_t dim) { return (dim + 15) / 16 * 16; }

  /// L2-normalizes every row in place (used for cosine / inner-product
  /// workloads). Zero rows are left unchanged.
  void NormalizeRows();

  /// Copy with the row count grown to `new_num` (>= current); existing rows
  /// are preserved bit-for-bit, new rows are zero. Same dim/stride. The
  /// copy-on-write step of MutableIndex::Insert.
  Dataset CopyGrown(size_t new_num) const;

  /// Serialization: magic "SNGD", u32 dim, u64 num, then num*dim floats
  /// (unpadded).
  Status Save(const std::string& path) const;
  static StatusOr<Dataset> Load(const std::string& path);

 private:
  size_t num_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
  AlignedBuffer<float> data_;
};

/// Bytes from `f`'s current position to EOF, or -1 on seek failure. The
/// file loaders size every payload against it before allocating.
long RemainingBytes(std::FILE* f);

}  // namespace song

#endif  // SONG_CORE_DATASET_H_
