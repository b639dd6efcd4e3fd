// Fixture: a planted SongSearchCore whose Stage 1/2/3 loop runs on two
// frontiers. HeapFrontier keeps SONG's queue in a hand-written heap and
// must be flagged at its definition — a CandidatePool named only in its
// comment or in a string does not count. PoolFrontier runs on the sorted
// pool and must NOT be flagged.
#include <vector>

#include "core/candidate_pool.h"
#include "core/types.h"

namespace fixture {

using song::Neighbor;

namespace internal {

template <typename Frontier>
std::vector<Neighbor> RunSearch(size_t ef) {
  Frontier frontier(ef);
  return frontier.Results();
}

// Not a CandidatePool: a binary heap over a vector.
class HeapFrontier {
 public:
  explicit HeapFrontier(size_t ef) { heap_.reserve(ef); }
  std::vector<Neighbor> Results() const {
    const char* note = "CandidatePool";  // a string: does not count
    (void)note;
    return heap_;
  }

 private:
  std::vector<Neighbor> heap_;
};

class PoolFrontier {
 public:
  explicit PoolFrontier(size_t ef) : pool_(ef) {}
  std::vector<Neighbor> Results() const {
    std::vector<Neighbor> out;
    pool_.CopyBest(pool_.capacity(), &out);
    return out;
  }

 private:
  song::CandidatePool pool_;
};

}  // namespace internal

inline std::vector<Neighbor> SongSearchCore(size_t ef, bool cpu) {
  if (cpu) return internal::RunSearch<internal::PoolFrontier>(ef);
  return internal::RunSearch<internal::HeapFrontier>(ef);
}

}  // namespace fixture
