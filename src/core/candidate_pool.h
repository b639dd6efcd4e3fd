// Copyright 2026 The SONG-Repro Authors.
//
// The repo's one best-first frontier: a sorted candidate array that serves
// as both the queue of unexpanded vertices and the top list (CAGRA's
// internal top-M list; DiskANN's and hnswlib's flat best-first pools). Each
// entry carries an expanded flag, and a cursor points at the best
// unexpanded entry, so a search needs no heap at all: an admission is a
// rank plus a memmove, an expansion is a flag flip plus a forward scan.
//
// Entries are held as parallel arrays (dists, ids, expanded flags). An
// admission's slot is an exact count over the live prefix,
//   count(dist < x.dist) + count(dist == x.dist && id < x.id),
// which equals std::lower_bound on (dist, id). The count runs through the
// rank kernel of the active SIMD tier (core/distance_kernels.h), so every
// tier lands every entry in the same slot.
//
// Three rules decide what a full pool admits and what it keeps past its
// capacity; each is a compile-time parameter (docs/algorithms.md gives the
// equivalence arguments):
//
//  - FrontierRule::kSongQueue, the CPU search preset's frontier
//    (song/search_core.h). With an exact visited set and no §IV-D/E rules,
//    SONG's bounded `q ∪ topk` expands exactly the vertices that rank
//    within the best `capacity` of everything scored so far, which is what
//    this pool keeps. The one extra is Algorithm 1's strict termination:
//    SONG still expands a queued vertex whose distance *equals* the worst
//    top-K distance. The pool therefore also keeps, past its capacity, the
//    unexpanded entries that tie the boundary distance and that SONG's
//    bounded queue would still hold; they are expanded in order but never
//    returned.
//
//  - FrontierRule::kTextbook, graph/graph_search.h's BestFirstSearch: the
//    best-first search of NSW / HNSW / NSG, textbook-stated with an
//    unbounded candidate min-heap and an ef-bounded result max-heap. A
//    candidate enters iff the pool holds fewer than `capacity` entries or
//    it is strictly closer than the boundary distance. The frontier is
//    unbounded, but an unexpanded entry strictly farther than the boundary
//    can never be expanded again, so only the unexpanded boundary ties are
//    kept past the capacity, however many there are. Seed() admits the
//    search's entry points unconditionally, as the heaps would.
//
//  - FrontierRule::kSongPartitions, the frontier of every GPU-priced SONG
//    preset (song/search_core.h): SONG's bounded queue `q` and its top-K
//    (§IV-C) as the two partitions of the array. The unexpanded entries are
//    `q` and the expanded ones are `topk`, each bounded at `capacity`, and
//    every heap operation maps onto one partition: PushUnexpanded is
//    q.PushBounded, ExpandBounded is q.PopMin into topk.PushBounded with
//    Algorithm 1's strict termination. Both heaps order by (dist, id), so
//    the partitions hold exactly the heaps' contents, and every count the
//    GPU cost model prices comes out the same.

#ifndef SONG_CORE_CANDIDATE_POOL_H_
#define SONG_CORE_CANDIDATE_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/debug_hooks.h"
#include "core/distance_kernels.h"
#include "core/logging.h"
#include "core/types.h"

namespace song {

enum class FrontierRule {
  kSongQueue,       ///< SONG's bounded q + topk (the CPU search preset)
  kTextbook,        ///< the two-heap best-first search (BestFirstSearch)
  kSongPartitions,  ///< q and topk as two partitions (GPU-priced presets)
};

template <FrontierRule kRule>
class BasicCandidatePool {
 public:
  explicit BasicCandidatePool(size_t capacity = 0)
      : rank_(internal::ActiveKernelTable().rank) {
    Reset(capacity);
  }

  /// Empties the pool for a new search that keeps the best `capacity`
  /// entries (clamped up to 1). Storage is reused when the capacity repeats.
  void Reset(size_t capacity) {
    capacity = std::max<size_t>(capacity, 1);
    if (capacity != capacity_) {
      capacity_ = capacity;
      // `capacity` best entries, `capacity` unexpanded boundary ties behind
      // them (SONG's queue bound; kTextbook grows past it when it must),
      // and one transient slot during admission. kSongPartitions holds at
      // most `capacity` entries in each partition.
      Resize(2 * capacity + 1);
    }
    size_ = 0;
    unexpanded_ = 0;
    cursor_ = 0;
    dropped_unexpanded_ = false;
    expanded_bound_ = std::numeric_limits<float>::infinity();
  }

  size_t capacity() const { return capacity_; }
  /// Entries held: the best `capacity` plus any boundary ties behind them.
  size_t size() const { return size_; }
  size_t unexpanded() const { return unexpanded_; }
  size_t expanded() const { return size_ - unexpanded_; }
  bool HasUnexpanded() const { return cursor_ < size_; }
  size_t MemoryBytes() const {
    return dists_.size() * (sizeof(float) + sizeof(idx_t) + sizeof(uint8_t));
  }
  /// True once an entry left the pool without being expanded. Under
  /// kTextbook that is exactly when the two-heap search ends by popping a
  /// candidate strictly worse than its full top list, rather than by
  /// emptying its frontier.
  bool dropped_unexpanded() const { return dropped_unexpanded_; }

  /// Entry `i` in ascending (dist, id) order; i < size().
  Neighbor operator[](size_t i) const {
    SONG_DCHECK(i < size_);
    return Neighbor(dists_[i], ids_[i]);
  }

  /// The best unexpanded entry; requires HasUnexpanded().
  Neighbor Next() const {
    SONG_DCHECK(HasUnexpanded());
    return Neighbor(dists_[cursor_], ids_[cursor_]);
  }

  /// Marks the best unexpanded entry expanded and returns it; requires
  /// HasUnexpanded(). A boundary tie past the capacity is expanded too
  /// (Algorithm 1's strict termination) but then leaves the pool: it ranks
  /// below every kept entry, so it can never be a result.
  Neighbor ExpandNext() {
    SONG_DCHECK(HasUnexpanded());
    const size_t i = cursor_;
    const Neighbor now(dists_[i], ids_[i]);
    --unexpanded_;
    if (i >= capacity_) {
      EraseAt(i);  // the cursor now names the next tie, or the end
      return now;
    }
    expanded_[i] = 1;
    do {
      ++cursor_;
    } while (cursor_ < size_ && expanded_[cursor_] != 0);
    return now;
  }

  /// Admits a newly scored vertex (ids must be distinct within a search).
  /// Returns false when the rule rejects it: under both rules, strictly
  /// farther than the worst of a full pool; under kSongQueue also a
  /// boundary tie that SONG's bounded queue would drop, under kTextbook
  /// any boundary tie. Otherwise adds to `*evicted` the entries the
  /// admission pushed out, and rewinds the cursor when the new entry lands
  /// ahead of it.
  bool Insert(const Neighbor& x, size_t* evicted) {
    if (size_ >= capacity_) {
      const size_t b = capacity_ - 1;
      if constexpr (kRule == FrontierRule::kSongQueue) {
        if (x.dist > dists_[b]) return false;
        // A tie behind the boundary enters only while SONG's queue would
        // still hold it: fewer than `capacity` unexpanded entries ahead.
        if (Precedes(b, x) && unexpanded_ >= capacity_ &&
            Precedes(size_ - 1, x)) {
          return false;
        }
      } else {
        if (!(x.dist < dists_[b])) return false;
      }
    }
    Place(x);
    if (size_ > capacity_) *evicted += TrimPastCapacity();
    return true;
  }

  /// Admits an entry point whatever its distance (kTextbook only): the
  /// two-heap search pushes every entry onto both heaps. An entry strictly
  /// worse than the boundary leaves again at once, unexpanded.
  void Seed(const Neighbor& x) {
    static_assert(kRule == FrontierRule::kTextbook);
    Place(x);
    if (size_ > capacity_) TrimPastCapacity();
  }

  /// Appends the best min(k, capacity, size) entries, ascending.
  void CopyBest(size_t k, std::vector<Neighbor>* out) const {
    const size_t n = std::min({k, capacity_, size_});
    for (size_t i = 0; i < n; ++i) out->emplace_back(dists_[i], ids_[i]);
  }

  // ---- kSongPartitions: q = the unexpanded entries, topk = the expanded.

  /// The worst expanded distance once `capacity` entries are expanded (a
  /// full topk), else +infinity. Selected insertion (§IV-D) skips a
  /// candidate strictly farther than this.
  float expanded_bound() const { return expanded_bound_; }

  /// q.PushBounded: admits x unexpanded while fewer than `capacity` entries
  /// are unexpanded; otherwise x replaces the worst unexpanded entry if it
  /// sorts before it. Returns false when x is rejected. Sets *evicted to
  /// the replaced entry's id, or kInvalidIdx when none was replaced.
  bool PushUnexpanded(const Neighbor& x, idx_t* evicted) {
    static_assert(kRule == FrontierRule::kSongPartitions);
    *evicted = kInvalidIdx;
    if (unexpanded_ >= capacity_) {
      const size_t w = LastWith(0);
      if (!(x < Neighbor(dists_[w], ids_[w]))) return false;
      // Harness self-test fault: drop the best unexpanded entry instead.
      const size_t out = hooks::song_queue_evict_best ? cursor_ : w;
      *evicted = ids_[out];
      EraseAt(out);
      --unexpanded_;
      if (out == cursor_) SkipExpanded();
    }
    Place(x);
    return true;
  }

  /// q.PopMin into topk.PushBounded; requires HasUnexpanded(). Returns
  /// false, leaving the pool unchanged, when Algorithm 1 terminates: topk
  /// is full and the best unexpanded entry is strictly farther than its
  /// worst. Otherwise takes that entry into *now and marks it expanded. A
  /// full topk then drops its worst entry (*evicted; else kInvalidIdx) —
  /// unless `now` ties that entry's distance but sorts after it, in which
  /// case topk rejects `now` and it leaves the pool instead.
  bool ExpandBounded(Neighbor* now, idx_t* evicted) {
    static_assert(kRule == FrontierRule::kSongPartitions);
    SONG_DCHECK(HasUnexpanded());
    const size_t i = cursor_;
    *now = Neighbor(dists_[i], ids_[i]);
    *evicted = kInvalidIdx;
    if (now->dist > expanded_bound_) return false;
    const bool topk_full = expanded() >= capacity_;
    --unexpanded_;
    if (topk_full) {
      const size_t w = LastWith(1);
      if (!(*now < Neighbor(dists_[w], ids_[w]))) {
        EraseAt(i);
        SkipExpanded();
        return true;
      }
      *evicted = ids_[w];
      EraseAt(w);  // w > i: `now` sorts before it
    }
    expanded_[i] = 1;
    SkipExpanded();
    if (expanded() == capacity_) expanded_bound_ = dists_[LastWith(1)];
    return true;
  }

  /// Appends the best min(k, expanded()) expanded entries (topk), ascending.
  void CopyExpanded(size_t k, std::vector<Neighbor>* out) const {
    for (size_t i = 0; i < size_ && out->size() < k; ++i) {
      if (expanded_[i] != 0) out->emplace_back(dists_[i], ids_[i]);
    }
  }

 private:
  void Resize(size_t slots) {
    dists_.resize(slots);
    ids_.resize(slots);
    expanded_.resize(slots);
  }

  /// Entry i sorts before x.
  bool Precedes(size_t i, const Neighbor& x) const {
    return dists_[i] < x.dist || (dists_[i] == x.dist && ids_[i] < x.id);
  }

  /// The last entry whose expanded flag is `flag`; one must exist.
  size_t LastWith(uint8_t flag) const {
    size_t i = size_ - 1;
    while (expanded_[i] != flag) --i;
    return i;
  }

  /// Moves the cursor forward to the first unexpanded entry at or after it.
  void SkipExpanded() {
    while (cursor_ < size_ && expanded_[cursor_] != 0) ++cursor_;
  }

  // Inserts x, unexpanded, at its rank.
  void Place(const Neighbor& x) {
    if constexpr (kRule == FrontierRule::kTextbook) {
      // Boundary ties are unbounded in number; kSongQueue's never exceed
      // the `capacity` reserved for them.
      if (size_ == dists_.size()) Resize(2 * size_);
    }
    const size_t lo = rank_(dists_.data(), ids_.data(), size_, x.dist, x.id);
    const size_t tail = size_ - lo;
    float* const d = dists_.data() + lo;
    idx_t* const v = ids_.data() + lo;
    uint8_t* const e = expanded_.data() + lo;
    std::memmove(d + 1, d, tail * sizeof(float));
    std::memmove(v + 1, v, tail * sizeof(idx_t));
    std::memmove(e + 1, e, tail);
    *d = x.dist;
    *v = x.id;
    *e = 0;
    ++size_;
    ++unexpanded_;
    if (lo < cursor_) cursor_ = lo;
  }

  void EraseAt(size_t i) {
    const size_t tail = size_ - i - 1;
    std::memmove(dists_.data() + i, dists_.data() + i + 1,
                 tail * sizeof(float));
    std::memmove(ids_.data() + i, ids_.data() + i + 1, tail * sizeof(idx_t));
    std::memmove(expanded_.data() + i, expanded_.data() + i + 1, tail);
    --size_;
  }

  // Restores the invariant after an admission overfilled the pool: past
  // the capacity only unexpanded entries tying the boundary distance
  // remain, and under kSongQueue no more than `capacity` unexpanded entries
  // in all (SONG's queue bound). Returns the number of entries dropped.
  size_t TrimPastCapacity() {
    size_t dropped = 0;
    // The old boundary entry, pushed out by a better admission: once
    // expanded, it is neither a result nor ever expanded again.
    if (expanded_[capacity_] != 0) {
      EraseAt(capacity_);
      ++dropped;
    }
    const float bound = dists_[capacity_ - 1];
    while (size_ > capacity_ && dists_[size_ - 1] > bound) {
      --size_;
      --unexpanded_;
      ++dropped;
      dropped_unexpanded_ = true;
    }
    if constexpr (kRule == FrontierRule::kSongQueue) {
      if (unexpanded_ > capacity_) {
        --size_;
        --unexpanded_;
        ++dropped;
        dropped_unexpanded_ = true;
      }
    }
    return dropped;
  }

  internal::RankKernel rank_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t unexpanded_ = 0;
  size_t cursor_ = 0;  ///< first unexpanded entry, or size_ if none
  bool dropped_unexpanded_ = false;
  float expanded_bound_ = 0.0f;  ///< kSongPartitions: see expanded_bound()
  std::vector<float> dists_;
  std::vector<idx_t> ids_;
  std::vector<uint8_t> expanded_;
};

/// The CPU search preset's frontier (song/search_core.h's PoolFrontier).
using CandidatePool = BasicCandidatePool<FrontierRule::kSongQueue>;
/// BestFirstSearch's frontier (graph/graph_search.h).
using BestFirstCandidatePool = BasicCandidatePool<FrontierRule::kTextbook>;
/// The GPU-priced SONG presets' frontier (song/search_core.h's
/// SongFrontier).
using PartitionedCandidatePool =
    BasicCandidatePool<FrontierRule::kSongPartitions>;

}  // namespace song

#endif  // SONG_CORE_CANDIDATE_POOL_H_
