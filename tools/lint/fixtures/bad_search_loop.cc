// Fixture: a planted heap-based best-first loop. The min-heap frontier must
// be flagged wherever it appears (no file may hold one), and a
// BestFirstSearch defined without the CandidatePool frontier fails the
// tree-level check; the max-heap top list and the commented-out frontier
// must NOT be flagged.
#include <functional>
#include <queue>
#include <vector>

#include "core/types.h"

namespace fixture {

using song::Neighbor;

std::vector<Neighbor> BestFirstSearch(const std::vector<Neighbor>& entries);

inline std::vector<Neighbor> BestFirstSearch(
    const std::vector<Neighbor>& entries) {
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> q;  // violation
  std::priority_queue<Neighbor> top;  // max-heap of results: fine
  // std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> c;
  for (const Neighbor& e : entries) {
    q.push(e);
    top.push(e);
  }
  return {};
}

}  // namespace fixture
