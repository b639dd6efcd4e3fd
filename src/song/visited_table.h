// Copyright 2026 The SONG-Repro Authors.
//
// Unified facade over the three `visited` structures the paper evaluates
// (open-addressing hash table, Bloom filter, Cuckoo filter), with the exact
// false-positive / false-negative semantics the search relies on: Test may
// report a false "visited" (costs a little recall), never a false
// "unvisited".

#ifndef SONG_SONG_VISITED_TABLE_H_
#define SONG_SONG_VISITED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/epoch_visited_set.h"
#include "core/logging.h"
#include "core/status.h"
#include "song/bloom_filter.h"
#include "song/cuckoo_filter.h"
#include "song/open_addressing_set.h"

namespace song {

enum class VisitedStructure {
  kHashTable = 0,
  kBloomFilter = 1,
  kCuckooFilter = 2,
  /// CPU-only specialization: an epoch-stamped dense array (one u32 per
  /// dataset point). O(1) test/insert/erase with no hashing and no
  /// clearing cost between queries — the "heavily engineered" CPU build of
  /// the paper's §VIII-I uses exactly this kind of structure. Not a GPU
  /// candidate (it needs 4*n bytes of random-access memory per query).
  kEpochArray = 3,
};

inline const char* VisitedStructureName(VisitedStructure s) {
  switch (s) {
    case VisitedStructure::kHashTable:
      return "hashtable";
    case VisitedStructure::kBloomFilter:
      return "bloomfilter";
    case VisitedStructure::kCuckooFilter:
      return "cuckoofilter";
    case VisitedStructure::kEpochArray:
      return "epocharray";
  }
  return "unknown";
}

class VisitedTable {
 public:
  VisitedTable() = default;

  /// `capacity`: number of keys the structure must support. For the Bloom
  /// filter, `bloom_bits` overrides the bit budget (0 -> the paper's ~300
  /// u32 = 9600 bits). When the shape is unchanged from the previous query
  /// the allocation is reused and only cleared — per-query reallocation
  /// would dominate the CPU pipeline (and a real kernel reuses its fixed
  /// shared-memory region the same way).
  /// Checked admission for externally supplied capacities (query options,
  /// deserialized configs): rejects sizes past the per-query admission
  /// limit with kResourceExhausted instead of attempting the allocation.
  Status TryReset(VisitedStructure structure, size_t capacity,
                  size_t bloom_bits = 0) {
    if (capacity > OpenAddressingSet::kMaxCapacity) {
      return Status::ResourceExhausted(
          "visited capacity " + std::to_string(capacity) +
          " exceeds the admission limit " +
          std::to_string(OpenAddressingSet::kMaxCapacity));
    }
    if (structure == VisitedStructure::kBloomFilter &&
        bloom_bits > 8 * OpenAddressingSet::kMaxCapacity) {
      return Status::ResourceExhausted("bloom bit budget " +
                                       std::to_string(bloom_bits) +
                                       " exceeds the admission limit");
    }
    Reset(structure, capacity, bloom_bits);
    return Status::OK();
  }

  void Reset(VisitedStructure structure, size_t capacity,
             size_t bloom_bits = 0) {
    if (structure == structure_ && capacity == last_capacity_ &&
        bloom_bits == last_bloom_bits_) {
      Clear();
      return;
    }
    structure_ = structure;
    last_capacity_ = capacity;
    last_bloom_bits_ = bloom_bits;
    switch (structure_) {
      case VisitedStructure::kHashTable:
        hash_.Reset(capacity);
        break;
      case VisitedStructure::kBloomFilter:
        bloom_.Reset(bloom_bits == 0 ? 9600 : bloom_bits);
        break;
      case VisitedStructure::kCuckooFilter:
        cuckoo_.Reset(capacity);
        break;
      case VisitedStructure::kEpochArray:
        epoch_.Reset(capacity);
        break;
    }
  }

  /// Resets to kEpochArray over ids [0, capacity) and hands out the stamp
  /// array itself, so a caller that never switches structure mid-query can
  /// test-and-set without the per-call dispatch.
  EpochVisitedSet& ResetEpoch(size_t capacity) {
    Reset(VisitedStructure::kEpochArray, capacity);
    return epoch_;
  }

  void Clear() {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        hash_.Clear();
        break;
      case VisitedStructure::kBloomFilter:
        bloom_.Clear();
        break;
      case VisitedStructure::kCuckooFilter:
        cuckoo_.Clear();
        break;
      case VisitedStructure::kEpochArray:
        epoch_.Reset(last_capacity_);
        break;
    }
  }

  bool Test(idx_t key) const {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        return hash_.Contains(key);
      case VisitedStructure::kBloomFilter:
        return bloom_.Contains(key);
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.Contains(key);
      case VisitedStructure::kEpochArray:
        return epoch_.Test(key);
    }
    return false;
  }

  /// Marks `key` visited. A failed insert (saturated structure) is treated
  /// upstream as "visited" to preserve the no-false-negative contract.
  bool Insert(idx_t key) {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        return hash_.Insert(key);
      case VisitedStructure::kBloomFilter:
        bloom_.Insert(key);
        return true;
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.Insert(key);
      case VisitedStructure::kEpochArray:
        return epoch_.Insert(key);
    }
    return false;
  }

  /// True if the structure supports deletion (visited-deletion optimization).
  bool SupportsDeletion() const {
    return structure_ != VisitedStructure::kBloomFilter;
  }

  void Erase(idx_t key) {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        hash_.Erase(key);
        break;
      case VisitedStructure::kBloomFilter:
        SONG_CHECK_MSG(false, "Bloom filter does not support deletion");
        break;
      case VisitedStructure::kCuckooFilter:
        cuckoo_.Erase(key);
        break;
      case VisitedStructure::kEpochArray:
        epoch_.Erase(key);
        break;
    }
  }

  size_t MemoryBytes() const {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        return hash_.MemoryBytes();
      case VisitedStructure::kBloomFilter:
        return bloom_.MemoryBytes();
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.MemoryBytes();
      case VisitedStructure::kEpochArray:
        return epoch_.MemoryBytes();
    }
    return 0;
  }

  size_t size() const {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        return hash_.size();
      case VisitedStructure::kBloomFilter:
        return bloom_.size();
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.size();
      case VisitedStructure::kEpochArray:
        return epoch_.size();
    }
    return 0;
  }

  VisitedStructure structure() const { return structure_; }

 private:
  VisitedStructure structure_ = VisitedStructure::kHashTable;
  size_t last_capacity_ = ~size_t{0};
  size_t last_bloom_bits_ = ~size_t{0};
  OpenAddressingSet hash_;
  BloomFilter bloom_;
  CuckooFilter cuckoo_;
  EpochVisitedSet epoch_;
};

}  // namespace song

#endif  // SONG_SONG_VISITED_TABLE_H_
