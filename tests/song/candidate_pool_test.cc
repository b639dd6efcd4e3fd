// Tests for CandidatePool, the CPU preset's sorted frontier: ordering,
// bounded eviction, the cursor rewind, Algorithm 1's boundary-tie rule and
// reuse across queries — plus a randomized check that it expands exactly
// what SONG's bounded queue and top-K heap expand on tie-heavy streams.

#include "song/candidate_pool.h"

#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace song {
namespace {

Neighbor N(float d, idx_t id) { return Neighbor(d, id); }

std::vector<Neighbor> Best(const CandidatePool& pool, size_t k) {
  std::vector<Neighbor> out;
  pool.CopyBest(k, &out);
  return out;
}

bool Admit(CandidatePool* pool, const Neighbor& n, size_t* evicted) {
  return pool->Insert(n, evicted);
}

TEST(CandidatePool, KeepsEntriesSortedByDistanceThenId) {
  CandidatePool pool(8);
  size_t evicted = 0;
  for (const Neighbor& n : {N(3, 1), N(1, 9), N(2, 4), N(1, 2), N(5, 0)}) {
    EXPECT_TRUE(Admit(&pool, n, &evicted));
  }
  EXPECT_EQ(evicted, 0u);
  ASSERT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.unexpanded(), 5u);
  const std::vector<Neighbor> want = {N(1, 2), N(1, 9), N(2, 4), N(3, 1),
                                      N(5, 0)};
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(pool[i], want[i]) << i;
  EXPECT_EQ(pool.Next(), N(1, 2));
}

TEST(CandidatePool, BoundedEvictionKeepsTheBestCapacity) {
  CandidatePool pool(3);
  size_t evicted = 0;
  for (idx_t id = 0; id < 6; ++id) {
    EXPECT_TRUE(Admit(&pool, N(static_cast<float>(10 - id), id), &evicted));
  }
  // Every admission past the third pushed the worst entry out.
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(Best(pool, 10),
            (std::vector<Neighbor>{N(5, 5), N(6, 4), N(7, 3)}));
  // Strictly worse than the full pool's worst: rejected, nothing evicted.
  EXPECT_FALSE(Admit(&pool, N(8, 9), &evicted));
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(Best(pool, 2), (std::vector<Neighbor>{N(5, 5), N(6, 4)}));
}

TEST(CandidatePool, ExpandsInOrderAndRewindsForBetterAdmissions) {
  CandidatePool pool(4);
  size_t evicted = 0;
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(3, 3), &evicted);
  Admit(&pool, N(5, 5), &evicted);
  EXPECT_EQ(pool.ExpandNext(), N(1, 1));
  EXPECT_EQ(pool.ExpandNext(), N(3, 3));
  EXPECT_EQ(pool.Next(), N(5, 5));
  // Lands ahead of the cursor: the cursor rewinds to it.
  Admit(&pool, N(2, 2), &evicted);
  EXPECT_EQ(pool.Next(), N(2, 2));
  EXPECT_EQ(pool.ExpandNext(), N(2, 2));
  // The cursor skips the expanded N(3, 3) on its way forward.
  EXPECT_EQ(pool.ExpandNext(), N(5, 5));
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.expanded(), 4u);
  // Lands behind every expanded entry: the cursor moves to it.
  Admit(&pool, N(0.5f, 7), &evicted);  // evicts the expanded N(5, 5)
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(pool.HasUnexpanded());
  EXPECT_EQ(pool.Next(), N(0.5f, 7));
  EXPECT_EQ(pool.size(), 4u);
}

TEST(CandidatePool, AdmitsBoundaryTiesButNeverReturnsThem) {
  CandidatePool pool(2);
  size_t evicted = 0;
  EXPECT_TRUE(Admit(&pool, N(1, 1), &evicted));
  EXPECT_TRUE(Admit(&pool, N(2, 2), &evicted));
  // Same distance as the worst entry, larger id, behind two unexpanded
  // entries: SONG's queue of 2 would drop it.
  EXPECT_FALSE(Admit(&pool, N(2, 8), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(1, 1));
  // One unexpanded entry ahead: the queue would hold it, and Algorithm 1
  // still expands a vertex tying the worst top-K distance, so the pool
  // keeps it behind the boundary.
  EXPECT_TRUE(Admit(&pool, N(2, 8), &evicted));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));
  // Two unexpanded entries ahead again, and it is the largest: rejected.
  EXPECT_FALSE(Admit(&pool, N(2, 9), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(2, 2));
  EXPECT_TRUE(Admit(&pool, N(2, 9), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(2, 8));  // ties past the boundary, in order
  EXPECT_EQ(pool.ExpandNext(), N(2, 9));
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.size(), 2u);  // expanded ties leave the pool
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));
  EXPECT_EQ(evicted, 0u);
}

TEST(CandidatePool, BetterBoundaryDropsStaleTies) {
  CandidatePool pool(2);
  size_t evicted = 0;
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(2, 2), &evicted);
  pool.ExpandNext();
  Admit(&pool, N(2, 5), &evicted);
  ASSERT_EQ(pool.size(), 3u);
  // The boundary distance falls to 1.5: N(2, 2) and the N(2, 5) tie can
  // never be expanded any more.
  EXPECT_TRUE(Admit(&pool, N(1.5f, 3), &evicted));
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.unexpanded(), 1u);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(1.5f, 3)}));
}

TEST(CandidatePool, ResetEmptiesForTheNextQuery) {
  CandidatePool pool(4);
  size_t evicted = 0;
  for (idx_t id = 0; id < 6; ++id) {
    Admit(&pool, N(static_cast<float>(id), id), &evicted);
  }
  pool.ExpandNext();
  pool.ExpandNext();
  const size_t bytes = pool.MemoryBytes();
  pool.Reset(4);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.unexpanded(), 0u);
  EXPECT_FALSE(pool.HasUnexpanded());
  EXPECT_EQ(pool.MemoryBytes(), bytes);  // same capacity: storage reused
  EXPECT_TRUE(Admit(&pool, N(9, 9), &evicted));
  EXPECT_TRUE(Admit(&pool, N(10, 10), &evicted));
  EXPECT_EQ(pool.ExpandNext(), N(9, 9));
  // Slot 1 was expanded in the last query; a stale flag would skip it.
  EXPECT_EQ(pool.Next(), N(10, 10));

  pool.Reset(2);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_FALSE(pool.HasUnexpanded());
  Admit(&pool, N(3, 3), &evicted);
  Admit(&pool, N(1, 1), &evicted);
  Admit(&pool, N(2, 2), &evicted);
  EXPECT_EQ(Best(pool, 5), (std::vector<Neighbor>{N(1, 1), N(2, 2)}));

  pool.Reset(0);  // clamped to one entry
  EXPECT_EQ(pool.capacity(), 1u);
}

// SONG's frontier in std::set form: bounded queue q and bounded top-K, with
// Algorithm 1's strict termination on the top-K's worst distance.
class SongQueues {
 public:
  explicit SongQueues(size_t ef) : ef_(ef) {}

  void Push(const Neighbor& n) {
    if (q_.size() < ef_) {
      q_.insert(n);
    } else if (n < *q_.rbegin()) {
      q_.erase(std::prev(q_.end()));
      q_.insert(n);
    }
  }

  std::optional<Neighbor> Pop() {
    if (q_.empty()) return std::nullopt;
    const Neighbor m = *q_.begin();
    if (topk_.size() >= ef_ && m.dist > topk_.rbegin()->dist) {
      return std::nullopt;
    }
    q_.erase(q_.begin());
    topk_.insert(m);
    if (topk_.size() > ef_) topk_.erase(std::prev(topk_.end()));
    return m;
  }

  std::vector<Neighbor> TopK() const { return {topk_.begin(), topk_.end()}; }

 private:
  size_t ef_;
  std::set<Neighbor> q_;
  std::set<Neighbor> topk_;
};

TEST(CandidatePool, ExpandsExactlyWhatSongQueuesExpandOnTiedStreams) {
  std::mt19937 rng(20260417);
  CandidatePool pool;  // reused across episodes
  for (int episode = 0; episode < 2000; ++episode) {
    const size_t ef = 1 + rng() % 12;
    const int levels = 1 + static_cast<int>(rng() % 6);  // few: many ties
    pool.Reset(ef);
    SongQueues song(ef);
    idx_t next_id = 0;
    size_t evicted = 0;
    const auto admit_batch = [&] {
      const size_t batch = rng() % 6;
      for (size_t i = 0; i < batch; ++i) {
        // Ids arrive out of order so ties do not always favour newcomers.
        const idx_t id = next_id++ * 7919 % 100003;
        const Neighbor n(static_cast<float>(rng() % levels), id);
        song.Push(n);
        pool.Insert(n, &evicted);
      }
    };
    admit_batch();
    for (int step = 0; step < 200; ++step) {
      const std::optional<Neighbor> want = song.Pop();
      ASSERT_EQ(pool.HasUnexpanded(), want.has_value())
          << "episode " << episode << " step " << step;
      if (!want) break;
      ASSERT_EQ(pool.ExpandNext(), *want)
          << "episode " << episode << " step " << step;
      admit_batch();
    }
    if (!pool.HasUnexpanded()) {
      EXPECT_EQ(Best(pool, ef), song.TopK()) << "episode " << episode;
    }
  }
}

}  // namespace
}  // namespace song
