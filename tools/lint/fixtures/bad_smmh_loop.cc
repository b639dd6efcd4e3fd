// Fixture: a planted hand-forked Algorithm-1 loop on the SMMH frontier.
// Outside song/bounded_heap.h and song/search_core.h, code may not name
// SymmetricMinMaxHeap or BoundedMaxHeap: both uses below must be flagged,
// while this comment and the string literal must NOT be.
#include <vector>

#include "core/types.h"
#include "song/bounded_heap.h"

namespace fixture {

using song::Neighbor;

inline std::vector<Neighbor> ForkedSearch(const std::vector<Neighbor>& in,
                                          size_t ef) {
  song::SymmetricMinMaxHeap q(ef);  // violation
  song::BoundedMaxHeap topk(ef);    // violation
  const char* note = "BoundedMaxHeap";  // a string: fine
  (void)note;
  for (const Neighbor& n : in) {
    q.Push(n);
    topk.Push(n);
  }
  return {};
}

}  // namespace fixture
