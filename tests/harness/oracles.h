// Copyright 2026 The SONG-Repro Authors.
//
// Reference oracles for the differential harness: trivially-correct
// standard-library implementations of SONG's bounded double-ended priority
// queue and bounded top-k heap (§IV-C), and of the visited set. The
// production structures are checked move-for-move against these on
// randomized op sequences (tests/harness/structure_fuzz_test.cc) and inside
// a full mirrored search (tests/harness/reference_search.*). Oracles favour
// obviousness over speed — a std::multiset is slow and correct by
// construction, which is exactly the point.

#ifndef SONG_TESTS_HARNESS_ORACLES_H_
#define SONG_TESTS_HARNESS_ORACLES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/distance.h"
#include "core/types.h"

namespace song::harness {

/// SONG's bounded double-ended priority queue `q` over Neighbor (operator<
/// orders by distance, ties on id); a second instance models the bounded
/// top-K, whose PushBounded semantics are identical. PartitionedCandidatePool
/// keeps both as the partitions of one sorted array.
class OracleBoundedQueue {
 public:
  explicit OracleBoundedQueue(size_t capacity = 0) : capacity_(capacity) {}

  void Reset(size_t capacity) {
    capacity_ = capacity;
    set_.clear();
  }
  void Clear() { set_.clear(); }

  size_t size() const { return set_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return set_.empty(); }
  bool full() const { return set_.size() >= capacity_; }

  Neighbor Min() const { return *set_.begin(); }
  Neighbor Max() const { return *set_.rbegin(); }

  /// Unbounded insert (caller guarantees !full()).
  void Push(const Neighbor& x) { set_.insert(x); }

  /// Inserts, evicting the maximum when full; rejects x when !(x < Max()).
  bool PushBounded(const Neighbor& x, Neighbor* evicted = nullptr) {
    if (!full()) {
      set_.insert(x);
      return true;
    }
    if (!(x < Max())) return false;
    if (evicted != nullptr) *evicted = Max();
    set_.erase(std::prev(set_.end()));
    set_.insert(x);
    return true;
  }

  Neighbor PopMin() {
    const Neighbor n = *set_.begin();
    set_.erase(set_.begin());
    return n;
  }

  Neighbor PopMax() {
    const Neighbor n = *set_.rbegin();
    set_.erase(std::prev(set_.end()));
    return n;
  }

  /// Contents sorted ascending: the top-K a search returns, or the order
  /// the queue drains in under repeated PopMin.
  std::vector<Neighbor> Sorted() const {
    return std::vector<Neighbor>(set_.begin(), set_.end());
  }

 private:
  std::multiset<Neighbor> set_;
  size_t capacity_ = 0;
};

/// Oracle twin of the exact visited structures (the GPU open-addressing
/// table, which the host runs as CappedEpochSet, and the epoch array).
/// `capacity` = 0 models an unbounded set; otherwise Insert fails exactly
/// when `size() >= capacity` — the table's saturation contract: its slot
/// array (2x capacity) can always place a key while the live count is
/// below the declared element capacity.
class OracleVisitedSet {
 public:
  explicit OracleVisitedSet(size_t capacity = 0) : capacity_(capacity) {}

  void Reset(size_t capacity) {
    capacity_ = capacity;
    set_.clear();
  }
  void Clear() { set_.clear(); }

  size_t size() const { return set_.size(); }
  bool Test(idx_t key) const { return set_.count(key) != 0; }

  bool Insert(idx_t key) {
    if (set_.count(key) != 0) return false;
    if (capacity_ != 0 && set_.size() >= capacity_) return false;
    set_.insert(key);
    return true;
  }

  bool Erase(idx_t key) { return set_.erase(key) != 0; }

 private:
  std::unordered_set<idx_t> set_;
  size_t capacity_ = 0;
};

/// Oracle twin of MutableIndex: a flat store of vectors with live flags.
/// Insert appends, Delete flips a flag, TopK is an exhaustive scan over the
/// live rows — slow and correct by construction. Ids are dense and never
/// reused, mirroring the production contract (the i-th insert gets id i and
/// a deleted id stays dead forever).
class OracleDynamicIndex {
 public:
  OracleDynamicIndex(Metric metric, size_t dim) : metric_(metric), dim_(dim) {}

  Metric metric() const { return metric_; }
  size_t dim() const { return dim_; }
  size_t num_points() const { return live_.size(); }
  size_t live_count() const { return live_count_; }
  bool IsLive(idx_t id) const { return id < live_.size() && live_[id] != 0; }

  idx_t Insert(const float* vector) {
    vectors_.insert(vectors_.end(), vector, vector + dim_);
    live_.push_back(1);
    ++live_count_;
    return static_cast<idx_t>(live_.size() - 1);
  }

  /// False when the id was never assigned or is already dead.
  bool Delete(idx_t id) {
    if (!IsLive(id)) return false;
    live_[id] = 0;
    --live_count_;
    return true;
  }

  const float* Vector(idx_t id) const {
    return vectors_.data() + static_cast<size_t>(id) * dim_;
  }

  std::vector<idx_t> LiveIds() const {
    std::vector<idx_t> out;
    out.reserve(live_count_);
    for (size_t id = 0; id < live_.size(); ++id) {
      if (live_[id] != 0) out.push_back(static_cast<idx_t>(id));
    }
    return out;
  }

  /// Exact top-k over the live rows, ascending — Neighbor's (dist, id)
  /// ordering breaks ties, so the answer is unique.
  std::vector<Neighbor> TopK(const float* query, size_t k) const {
    const DistanceFunc dist = GetDistanceFunc(metric_);
    std::vector<Neighbor> all;
    all.reserve(live_count_);
    for (size_t id = 0; id < live_.size(); ++id) {
      if (live_[id] == 0) continue;
      all.emplace_back(dist(query, Vector(static_cast<idx_t>(id)), dim_),
                       static_cast<idx_t>(id));
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

 private:
  Metric metric_;
  size_t dim_;
  std::vector<float> vectors_;  ///< row-major, including dead rows
  std::vector<uint8_t> live_;
  size_t live_count_ = 0;
};

}  // namespace song::harness

#endif  // SONG_TESTS_HARNESS_ORACLES_H_
