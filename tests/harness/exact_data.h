// Copyright 2026 The SONG-Repro Authors.
//
// Datasets whose distances are exact in float, for the golden digest tests
// (tests/graph/build_digest_test.cc, tests/song/preset_digest_test.cc):
// every product and partial sum is representable, so each SIMD tier
// (SONG_SIMD) computes the same distances and a digest holds under all of
// them.

#ifndef SONG_TESTS_HARNESS_EXACT_DATA_H_
#define SONG_TESTS_HARNESS_EXACT_DATA_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/random.h"

namespace song::harness {

/// kTies: coordinates in {0, 1, 2, 3} (dim 6), so many pairs share a
/// distance exactly. kGauss: 8 Gaussian clusters in 16 dimensions, rounded
/// to multiples of 1/8.
enum class Coords { kTies, kGauss };

inline Dataset MakeExactData(Coords coords, Metric metric, size_t n,
                             uint64_t seed) {
  RandomEngine rng(seed);
  const size_t dim = coords == Coords::kTies ? 6 : 16;
  std::vector<float> centers(8 * dim);
  for (float& c : centers) c = static_cast<float>(rng.NextGaussian() * 3.0);
  Dataset data(n, dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.NextUint(8);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = coords == Coords::kTies
                   ? static_cast<float>(rng.NextUint(4))
                   : std::round(8.0f * (centers[c * dim + d] +
                                        static_cast<float>(
                                            rng.NextGaussian()))) /
                         8.0f;
    }
    // Cosine is undefined on a zero row; keep every row off the origin.
    if (metric == Metric::kCosine) row[0] += 1.0f;
    data.SetRow(static_cast<idx_t>(i), row.data());
  }
  return data;
}

}  // namespace song::harness

#endif  // SONG_TESTS_HARNESS_EXACT_DATA_H_
