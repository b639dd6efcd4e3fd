#include "graph/fixed_degree_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/dataset.h"
#include "core/fault_injection.h"

namespace song {

namespace {
constexpr char kMagic[4] = {'S', 'N', 'G', 'G'};
}  // namespace

FixedDegreeGraph::FixedDegreeGraph(size_t num_vertices, size_t degree)
    : num_vertices_(num_vertices), degree_(degree) {
  SONG_CHECK(degree > 0);
  slots_.Reset(num_vertices_ * degree_);
  std::fill(slots_.begin(), slots_.end(), kInvalidIdx);
}

FixedDegreeGraph FixedDegreeGraph::FromAdjacency(
    const std::vector<std::vector<idx_t>>& adjacency, size_t degree) {
  FixedDegreeGraph g(adjacency.size(), degree);
  for (size_t v = 0; v < adjacency.size(); ++v) {
    const auto& row = adjacency[v];
    const size_t count = std::min(row.size(), degree);
    idx_t* slots = g.MutableRow(static_cast<idx_t>(v));
    for (size_t i = 0; i < count; ++i) slots[i] = row[i];
  }
  return g;
}

size_t FixedDegreeGraph::NeighborCount(idx_t v) const {
  const idx_t* row = Row(v);
  size_t count = 0;
  while (count < degree_ && row[count] != kInvalidIdx) ++count;
  return count;
}

std::vector<idx_t> FixedDegreeGraph::Neighbors(idx_t v) const {
  const idx_t* row = Row(v);
  std::vector<idx_t> out;
  out.reserve(degree_);
  for (size_t i = 0; i < degree_ && row[i] != kInvalidIdx; ++i) {
    out.push_back(row[i]);
  }
  return out;
}

void FixedDegreeGraph::SetNeighbors(idx_t v,
                                    const std::vector<idx_t>& neighbors) {
  SONG_CHECK(neighbors.size() <= degree_);
  idx_t* row = MutableRow(v);
  std::fill(row, row + degree_, kInvalidIdx);
  std::copy(neighbors.begin(), neighbors.end(), row);
}

bool FixedDegreeGraph::AddNeighbor(idx_t v, idx_t u) {
  idx_t* row = MutableRow(v);
  for (size_t i = 0; i < degree_; ++i) {
    if (row[i] == u) return false;
    if (row[i] == kInvalidIdx) {
      row[i] = u;
      return true;
    }
  }
  return false;
}

FixedDegreeGraph FixedDegreeGraph::CopyGrown(size_t new_num_vertices) const {
  SONG_CHECK(new_num_vertices >= num_vertices_);
  FixedDegreeGraph g(new_num_vertices, degree_);
  std::copy(slots_.begin(), slots_.end(), g.slots_.begin());
  return g;
}

Status FixedDegreeGraph::Save(const std::string& path) const {
  if (fault::ShouldFail("io.write")) {
    return Status::Unavailable("injected fault: io.write " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const uint32_t degree32 = static_cast<uint32_t>(degree_);
  const uint64_t num64 = num_vertices_;
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4;
  ok = ok && std::fwrite(&degree32, sizeof(degree32), 1, f) == 1;
  ok = ok && std::fwrite(&num64, sizeof(num64), 1, f) == 1;
  ok = ok && std::fwrite(slots_.data(), sizeof(idx_t),
                         num_vertices_ * degree_,
                         f) == num_vertices_ * degree_;
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return Status::OK();
}

StatusOr<FixedDegreeGraph> FixedDegreeGraph::Load(const std::string& path) {
  if (fault::ShouldFail("io.read")) {
    return Status::Unavailable("injected fault: io.read " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[4];
  uint32_t degree32 = 0;
  uint64_t num64 = 0;
  bool ok = std::fread(magic, 1, 4, f) == 4 &&
            std::memcmp(magic, kMagic, 4) == 0;
  ok = ok && std::fread(&degree32, sizeof(degree32), 1, f) == 1;
  ok = ok && std::fread(&num64, sizeof(num64), 1, f) == 1;
  if (!ok || degree32 == 0) {
    std::fclose(f);
    return Status::DataLoss("bad header: " + path);
  }
  // Slot payload must match the header's claim exactly — rejects truncation
  // and absurd header values before any allocation happens.
  const long remaining = RemainingBytes(f);
  const uint64_t slots = num64 * uint64_t{degree32};
  if (remaining < 0 || num64 > (uint64_t{1} << 40) ||
      slots / degree32 != num64 ||
      static_cast<uint64_t>(remaining) != slots * sizeof(idx_t)) {
    std::fclose(f);
    return Status::DataLoss("slot size mismatch (truncated or corrupt): " +
                            path);
  }
  FixedDegreeGraph g(static_cast<size_t>(num64), degree32);
  ok = std::fread(g.slots_.data(), sizeof(idx_t), g.num_vertices_ * g.degree_,
                  f) == g.num_vertices_ * g.degree_;
  std::fclose(f);
  if (!ok) return Status::DataLoss("short read: " + path);
  // Neighbor ids are trusted by the search hot path (Row() feeds Dataset
  // rows without bounds checks), so validate them here, once, at load time:
  // every slot is either the kInvalidIdx pad or a vertex id in range.
  for (size_t v = 0; v < g.num_vertices_; ++v) {
    const idx_t* row = g.Row(static_cast<idx_t>(v));
    for (size_t i = 0; i < g.degree_; ++i) {
      if (row[i] != kInvalidIdx && row[i] >= g.num_vertices_) {
        return Status::DataLoss("out-of-range neighbor id " +
                                std::to_string(row[i]) + " at vertex " +
                                std::to_string(v) + ": " + path);
      }
    }
  }
  return g;
}

}  // namespace song
