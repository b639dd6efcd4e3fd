// Fixture: a planted second best-first loop. The min-heap frontier must be
// flagged (outside graph/graph_search.h); the max-heap top list and the
// commented-out frontier must NOT be.
#include <functional>
#include <queue>
#include <vector>

#include "core/types.h"

namespace fixture {

using song::Neighbor;

inline size_t Frontiers() {
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> q;  // violation
  std::priority_queue<Neighbor> top;  // max-heap of results: fine
  // std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> c;
  return q.size() + top.size();
}

}  // namespace fixture
