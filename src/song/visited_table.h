// Copyright 2026 The SONG-Repro Authors.
//
// Unified facade over the three `visited` structures the paper evaluates
// (open-addressing hash table, Bloom filter, Cuckoo filter), with the exact
// false-positive / false-negative semantics the search relies on: Test may
// report a false "visited" (costs a little recall), never a false
// "unvisited". The hash table exists to fit GPU shared memory; the CPU
// executes its exact contract (membership, and the element-capacity bound
// at which inserts fail) on the epoch stamp array and reports the GPU
// table's modelled footprint. The Bloom and Cuckoo filters run for real,
// since their false positives change results.

#ifndef SONG_SONG_VISITED_TABLE_H_
#define SONG_SONG_VISITED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/debug_hooks.h"
#include "core/epoch_visited_set.h"
#include "core/logging.h"
#include "core/status.h"
#include "song/bloom_filter.h"
#include "song/cuckoo_filter.h"

namespace song {

enum class VisitedStructure {
  /// The paper's open-addressing table (§IV-B): exact, and saturating at
  /// its element capacity. Run on the stamp array (CappedEpochSet).
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

/// Bytes of the GPU open-addressing table (§IV-B) sized for `capacity`
/// elements: the next power of two >= 2 * capacity slots (load factor
/// <= 0.5), at least 16, of one idx_t each. The kernel reserves this per
/// query in shared or global memory; the gpusim cost model prices it.
inline size_t HashTableModelBytes(size_t capacity) {
  size_t slots = 16;
  while (slots < 2 * capacity) slots <<= 1;
  return slots * sizeof(idx_t);
}

/// The exact visited set as the CPU runs it: the epoch stamp array over the
/// searched id range, refusing a new id once `capacity` ids are marked.
/// kHashTable executes the GPU table's contract this way — membership is
/// exact and Insert fails iff size() >= capacity, as in a linear-probing
/// table of 2 * capacity slots, so every search counter and result is the
/// table's — without hashing, probing or tombstones. kEpochArray is the
/// same set unbounded.
/// A copyable view: the stamps stay in the VisitedTable that handed it out.
class CappedEpochSet {
 public:
  CappedEpochSet(EpochVisitedSet* set, size_t capacity)
      : set_(set), capacity_(capacity) {}

  bool Test(idx_t key) const { return set_->Test(key); }

  /// True iff `key` was absent and is now marked.
  bool Insert(idx_t key) {
    if (set_->size() >= capacity_ && !hooks::hash_table_ignore_capacity) {
      return false;
    }
    return set_->Insert(key);
  }

  void Erase(idx_t key) { set_->Erase(key); }
  size_t size() const { return set_->size(); }

 private:
  EpochVisitedSet* set_;
  size_t capacity_;
};

/// True for the structures with exact membership (no false positives).
inline bool IsExactVisited(VisitedStructure s) {
  return s == VisitedStructure::kHashTable ||
         s == VisitedStructure::kEpochArray;
}

class VisitedTable {
 public:
  VisitedTable() = default;

  /// Largest element capacity TryReset admits; a request above it is a
  /// corrupt size or a config error.
  static constexpr size_t kMaxCapacity = size_t{1} << 28;

  /// Checked admission for externally supplied capacities (query options,
  /// deserialized configs): rejects sizes past the per-query admission
  /// limit with kResourceExhausted instead of attempting the allocation.
  Status TryReset(VisitedStructure structure, size_t capacity,
                  size_t num_ids, size_t bloom_bits = 0) {
    if (capacity > kMaxCapacity) {
      return Status::ResourceExhausted(
          "visited capacity " + std::to_string(capacity) +
          " exceeds the admission limit " + std::to_string(kMaxCapacity));
    }
    if (structure == VisitedStructure::kBloomFilter &&
        bloom_bits > 8 * kMaxCapacity) {
      return Status::ResourceExhausted("bloom bit budget " +
                                       std::to_string(bloom_bits) +
                                       " exceeds the admission limit");
    }
    Reset(structure, capacity, num_ids, bloom_bits);
    return Status::OK();
  }

  /// Starts an empty set. `capacity`: number of keys the structure must
  /// support (the kHashTable bound and the Cuckoo sizing; the epoch array
  /// is unbounded). `num_ids`: the searched id range [0, num_ids), which
  /// the exact structures' stamp array covers. For the Bloom filter,
  /// `bloom_bits` overrides the bit budget (0 -> the paper's ~300 u32 =
  /// 9600 bits). The exact structures start a new stamp epoch; a filter
  /// whose shape is unchanged from the previous query keeps its allocation
  /// and is only cleared — per-query reallocation would dominate the CPU
  /// pipeline (and a real kernel reuses its fixed shared-memory region the
  /// same way).
  void Reset(VisitedStructure structure, size_t capacity, size_t num_ids,
             size_t bloom_bits = 0) {
    const bool same_shape = structure == structure_ &&
                            capacity == last_capacity_ &&
                            bloom_bits == last_bloom_bits_;
    structure_ = structure;
    last_capacity_ = capacity;
    last_num_ids_ = num_ids;
    last_bloom_bits_ = bloom_bits;
    switch (structure_) {
      case VisitedStructure::kHashTable:
      case VisitedStructure::kEpochArray:
        epoch_.Reset(num_ids);
        break;
      case VisitedStructure::kBloomFilter:
        if (same_shape) {
          bloom_.Clear();
        } else {
          bloom_.Reset(bloom_bits == 0 ? 9600 : bloom_bits);
        }
        break;
      case VisitedStructure::kCuckooFilter:
        if (same_shape) {
          cuckoo_.Clear();
        } else {
          cuckoo_.Reset(capacity);
        }
        break;
    }
  }

  /// Resets to kEpochArray over ids [0, num_ids) and hands out the stamp
  /// array itself, so a caller that never switches structure mid-query can
  /// test-and-set without the per-call dispatch.
  EpochVisitedSet& ResetEpoch(size_t num_ids) {
    Reset(VisitedStructure::kEpochArray, num_ids, num_ids);
    return epoch_;
  }

  /// The exact structure (kHashTable or kEpochArray) as a dispatch-free
  /// view, valid until the next Reset.
  CappedEpochSet exact() {
    SONG_DCHECK(IsExactVisited(structure_));
    return CappedEpochSet(&epoch_,
                          structure_ == VisitedStructure::kHashTable
                              ? last_capacity_
                              : ~size_t{0});
  }

  void Clear() {
    Reset(structure_, last_capacity_, last_num_ids_, last_bloom_bits_);
  }

  bool Test(idx_t key) const {
    switch (structure_) {
      case VisitedStructure::kHashTable:
      case VisitedStructure::kEpochArray:
        return epoch_.Test(key);
      case VisitedStructure::kBloomFilter:
        return bloom_.Contains(key);
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.Contains(key);
    }
    return false;
  }

  /// Marks `key` visited. A failed insert (saturated structure) is treated
  /// upstream as "visited" to preserve the no-false-negative contract.
  bool Insert(idx_t key) {
    switch (structure_) {
      case VisitedStructure::kHashTable:
      case VisitedStructure::kEpochArray:
        return exact().Insert(key);
      case VisitedStructure::kBloomFilter:
        bloom_.Insert(key);
        return true;
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.Insert(key);
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
      case VisitedStructure::kEpochArray:
        epoch_.Erase(key);
        break;
      case VisitedStructure::kBloomFilter:
        SONG_CHECK_MSG(false, "Bloom filter does not support deletion");
        break;
      case VisitedStructure::kCuckooFilter:
        cuckoo_.Erase(key);
        break;
    }
  }

  /// The visited footprint SearchStats::visited_capacity_bytes reports. For
  /// kHashTable that is the GPU table's modelled slot array
  /// (HashTableModelBytes), not the host stamp array; the other structures
  /// report their own allocation.
  size_t MemoryBytes() const {
    switch (structure_) {
      case VisitedStructure::kHashTable:
        return HashTableModelBytes(last_capacity_);
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
      case VisitedStructure::kEpochArray:
        return epoch_.size();
      case VisitedStructure::kBloomFilter:
        return bloom_.size();
      case VisitedStructure::kCuckooFilter:
        return cuckoo_.size();
    }
    return 0;
  }

  VisitedStructure structure() const { return structure_; }

 private:
  VisitedStructure structure_ = VisitedStructure::kHashTable;
  size_t last_capacity_ = ~size_t{0};
  size_t last_num_ids_ = 0;
  size_t last_bloom_bits_ = ~size_t{0};
  BloomFilter bloom_;
  CuckooFilter cuckoo_;
  EpochVisitedSet epoch_;
};

}  // namespace song

#endif  // SONG_SONG_VISITED_TABLE_H_
