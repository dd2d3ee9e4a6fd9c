// Level-bucket frontier structures for the BFS phases.
//
// LevelBuckets records the vertices of every BFS level contiguously so the
// level-synchronous kernels' backward sweep can walk levels in reverse
// (paper Algorithm 2, `Levels[]`); the serial kernels walk a flat queue
// instead (bc/brandes_kernel.hpp). SlotLocalFrontier stands in for the
// paper's CilkPlus reducer bag: parallel_for chunks append to per-slot
// buffers which are concatenated into the next level once the loop returns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "support/error.hpp"

namespace apgre {

/// Vertices grouped by BFS level, stored back to back.
class LevelBuckets {
 public:
  void clear() {
    vertices_.clear();
    offsets_.assign(1, 0);
  }

  /// Close the current level and start the next one.
  void finish_level() { offsets_.push_back(vertices_.size()); }

  void push(Vertex v) { vertices_.push_back(v); }

  /// Append a whole batch (used when merging thread-local buffers).
  void push_batch(const std::vector<Vertex>& batch) {
    vertices_.insert(vertices_.end(), batch.begin(), batch.end());
  }

  /// Number of *closed* levels.
  std::size_t num_levels() const { return offsets_.size() - 1; }

  /// Vertices of closed level `i`. NOTE: the returned span is invalidated
  /// by push()/push_batch().
  std::span<const Vertex> level(std::size_t i) const {
    APGRE_ASSERT(i + 1 < offsets_.size());
    return {vertices_.data() + offsets_[i], vertices_.data() + offsets_[i + 1]};
  }

  /// Every vertex touched by the BFS, in discovery-level order. Used to
  /// reset per-source state in O(touched) instead of O(|V|).
  const std::vector<Vertex>& touched() const { return vertices_; }

  bool empty() const { return vertices_.empty(); }

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::size_t> offsets_{0};
};

/// parallel_for chunk size for a BFS level of `n` vertices: big enough to
/// amortize the chunk claim, small enough to split a fat frontier across
/// `workers`.
inline std::int64_t level_grain(std::size_t n, int workers) {
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(n) / (8 * static_cast<std::int64_t>(workers)));
}

/// Per-slot append buffers for the level-synchronous kernels, indexed by
/// the scheduler slot id a parallel_for body receives and sized by
/// WorkStealingScheduler::num_slots(). Buffers start empty and grow only on
/// slots that actually execute chunks, so oversizing is free.
class SlotLocalFrontier {
 public:
  explicit SlotLocalFrontier(int slots)
      : buffers_(static_cast<std::size_t>(slots)) {}

  std::vector<Vertex>& local(int slot) {
    return buffers_[static_cast<std::size_t>(slot)].items;
  }

  /// Merge every slot's buffer; call only between parallel_for calls.
  void drain_into(LevelBuckets& levels) {
    for (auto& buffer : buffers_) {
      if (buffer.items.empty()) continue;
      levels.push_batch(buffer.items);
      buffer.items.clear();
    }
  }

  /// Same, appending to a plain vertex list.
  void drain_into(std::vector<Vertex>& out) {
    for (auto& buffer : buffers_) {
      out.insert(out.end(), buffer.items.begin(), buffer.items.end());
      buffer.items.clear();
    }
  }

 private:
  struct alignas(64) Buffer {
    std::vector<Vertex> items;
  };
  std::vector<Buffer> buffers_;
};

}  // namespace apgre
