// Copyright 2026 The SONG-Repro Authors.
//
// Epoch-stamped visited set: one stamp per vertex id, and a query-global
// epoch. A vertex is visited iff its stamp equals the current epoch, so
// starting a new query is one increment instead of a clear. This is the one
// dense visited structure of the repo: the reference best-first search
// (graph/graph_search.h) and the CPU deployment's VisitedStructure::
// kEpochArray (song/visited_table.h) both run on it.

#ifndef SONG_CORE_EPOCH_VISITED_SET_H_
#define SONG_CORE_EPOCH_VISITED_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace song {

/// `Stamp` is the stamp width; the array re-zeroes once every
/// 2^(8*sizeof(Stamp)) - 1 resets, when the epoch wraps. Only tests pick
/// anything but the uint32_t of EpochVisitedSet (to reach the wrap quickly).
template <typename Stamp>
class BasicEpochVisitedSet {
 public:
  /// Starts a fresh, empty set covering ids [0, capacity). The stamp array
  /// only grows, so a smaller capacity after a larger one keeps the larger
  /// coverage.
  void Reset(size_t capacity) {
    if (stamps_.size() < capacity) stamps_.assign(capacity, 0);
    size_ = 0;
    if (++epoch_ == 0) {  // wrapped: stale stamps would alias the new epoch
      std::fill(stamps_.begin(), stamps_.end(), Stamp{0});
      epoch_ = 1;
    }
  }

  /// False for ids outside the covered range.
  bool Test(idx_t key) const {
    return key < stamps_.size() && stamps_[key] == epoch_;
  }

  /// Test-and-set: true iff `key` was absent and is now marked. An id
  /// outside the covered range is refused (false), so callers treat it as
  /// already visited and never index past the array.
  bool Insert(idx_t key) {
    if (key >= stamps_.size() || stamps_[key] == epoch_) return false;
    stamps_[key] = epoch_;
    ++size_;
    return true;
  }

  void Erase(idx_t key) {
    if (key < stamps_.size() && stamps_[key] == epoch_) {
      stamps_[key] = 0;
      --size_;
    }
  }

  /// Vertices marked since the last Reset.
  size_t size() const { return size_; }
  size_t MemoryBytes() const { return stamps_.size() * sizeof(Stamp); }

 private:
  std::vector<Stamp> stamps_;
  Stamp epoch_ = 0;
  size_t size_ = 0;
};

using EpochVisitedSet = BasicEpochVisitedSet<uint32_t>;

}  // namespace song

#endif  // SONG_CORE_EPOCH_VISITED_SET_H_
