#include "graph/update.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <ostream>
#include <utility>

#include "graph/mutate.hpp"

namespace apgre {

namespace {

/// Per-edge fold state while walking the batch in timestamp order.
struct EdgeFold {
  bool initial = false;  ///< stored in the snapshot before the batch
  bool present = false;  ///< pending state after the ops folded so far
  bool touched = false;  ///< at least one effective op seen
  EdgeOp last;           ///< the op that set the current pending state
  std::size_t order_pos = 0;
};

}  // namespace

CoalesceResult coalesce_batch(const CsrGraph& g,
                              const std::vector<EdgeOp>& ops) {
  CoalesceResult out;
  auto reject = [&out](std::string why) -> CoalesceResult& {
    out.survivors.clear();
    out.coalesced_away = 0;
    out.status = Status::failed(std::move(why));
    return out;
  };

  // Stable timestamp order: ties keep arrival order, so replayed streams
  // coalesce deterministically.
  std::vector<std::size_t> order(ops.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&ops](std::size_t a, std::size_t b) {
                     return ops[a].timestamp < ops[b].timestamp;
                   });

  const Vertex n = g.num_vertices();
  std::map<std::pair<Vertex, Vertex>, EdgeFold> folds;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const EdgeOp& op = ops[order[pos]];
    if (op.u >= n || op.v >= n) {
      return reject("update endpoint out of range");
    }
    if (op.u == op.v) {
      return reject("self-loops do not affect betweenness");
    }
    if (op.weight != 1.0) {
      // Reserved field: the scored graphs are unweighted (docs/API.md).
      return reject("non-unit edge weights are not supported");
    }
    const auto key = g.directed()
                         ? std::make_pair(op.u, op.v)
                         : std::make_pair(std::min(op.u, op.v),
                                          std::max(op.u, op.v));
    auto [it, fresh] = folds.try_emplace(key);
    EdgeFold& fold = it->second;
    if (fresh) {
      fold.initial = has_arc(g, key.first, key.second);
      fold.present = fold.initial;
    }
    if (op.insert == fold.present) {
      // Redundant against what an earlier batch op already established:
      // silently dedupe. Redundant against the snapshot itself: the op was
      // illegal when submitted — reject the whole batch, state untouched.
      if (!fold.touched) {
        return reject(op.insert ? "arc already present" : "arc not present");
      }
      continue;
    }
    fold.present = op.insert;
    fold.last = op;
    fold.order_pos = pos;
    fold.touched = true;
  }

  // One net survivor per edge whose final state differs from the snapshot,
  // ordered by where its last effective op sat in the timestamp order.
  std::vector<std::pair<std::size_t, EdgeOp>> net;
  for (const auto& [key, fold] : folds) {
    if (fold.present != fold.initial) net.emplace_back(fold.order_pos, fold.last);
  }
  std::sort(net.begin(), net.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.survivors.reserve(net.size());
  for (auto& [pos, op] : net) out.survivors.push_back(op);
  out.coalesced_away = ops.size() - out.survivors.size();
  return out;
}

namespace {

/// One arc of a batch: insert or remove src -> dst.
struct ArcEdit {
  Vertex src = 0;
  Vertex dst = 0;
  bool insert = true;
};

bool arc_less(const ArcEdit& a, const ArcEdit& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

bool same_arc(const ArcEdit& a, const ArcEdit& b) {
  return a.src == b.src && a.dst == b.dst;
}

/// Merge `edits` (sorted by arc_less, legal against the input) into one
/// adjacency in a single pass: the neighbour blocks of untouched vertex
/// ranges are copied whole, an edited vertex's sorted block is merged with
/// its edits, and every offset moves by the running arc delta.
void merge_arcs(const std::vector<EdgeId>& offsets,
                const std::vector<Vertex>& targets,
                const std::vector<ArcEdit>& edits,
                std::vector<EdgeId>& out_offsets,
                std::vector<Vertex>& out_targets) {
  const std::size_t n = offsets.size() - 1;
  const std::size_t inserts = static_cast<std::size_t>(std::count_if(
      edits.begin(), edits.end(), [](const ArcEdit& e) { return e.insert; }));
  out_offsets.resize(n + 1);
  out_targets.reserve(targets.size() + inserts - (edits.size() - inserts));
  const Vertex* arcs = targets.data();
  // Arcs added so far, modulo 2^64: a net removal wraps, and offsets[w] +
  // delta wraps back to the right value.
  EdgeId delta = 0;
  std::size_t next = 0;  // first vertex whose block is not emitted yet
  // Emit the untouched vertices [next, end) as one block.
  const auto copy_through = [&](std::size_t end) {
    out_targets.insert(out_targets.end(), arcs + offsets[next],
                       arcs + offsets[end]);
    for (std::size_t w = next + 1; w <= end; ++w) {
      out_offsets[w] = offsets[w] + delta;
    }
  };
  out_offsets[0] = 0;
  for (std::size_t e = 0; e < edits.size();) {
    const Vertex src = edits[e].src;
    copy_through(src);
    const Vertex* it = arcs + offsets[src];
    const Vertex* const end = arcs + offsets[src + 1];
    for (; e < edits.size() && edits[e].src == src; ++e) {
      const ArcEdit& edit = edits[e];
      const Vertex* pos = std::lower_bound(it, end, edit.dst);
      out_targets.insert(out_targets.end(), it, pos);
      const bool present = pos != end && *pos == edit.dst;
      APGRE_ASSERT(present != edit.insert);
      if (edit.insert) {
        out_targets.push_back(edit.dst);
        ++delta;
      } else {
        --delta;
        ++pos;
      }
      it = pos;
    }
    out_targets.insert(out_targets.end(), it, end);
    out_offsets[src + 1] = offsets[src + 1] + delta;
    next = src + 1;
  }
  copy_through(n);
  APGRE_ASSERT(out_offsets[n] == out_targets.size());
}

}  // namespace

CsrGraph apply_edge_ops(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  APGRE_REQUIRE(!ops.empty(), "apply_edge_ops on an empty batch");
  // Validate the whole batch against the input before the successor is
  // allocated: a throw leaves nothing half built, whatever the caller
  // passed.
  const Vertex n = g.num_vertices();
  for (const EdgeOp& op : ops) {
    APGRE_REQUIRE(op.u < n && op.v < n, "update endpoint out of range");
    APGRE_REQUIRE(op.u != op.v, "self-loops do not affect betweenness");
    if (op.insert) {
      APGRE_REQUIRE(!has_arc(g, op.u, op.v), "arc already present");
    } else {
      APGRE_REQUIRE(has_arc(g, op.u, op.v), "arc not present");
      APGRE_REQUIRE(g.directed() || has_arc(g, op.v, op.u),
                    "symmetric arc missing");
    }
  }
  // Undirected: both arcs of an edge edit the one adjacency. Directed: the
  // out-arc edits the out-adjacency, its transpose the in-adjacency.
  std::vector<ArcEdit> out_edits;
  std::vector<ArcEdit> in_edits;
  out_edits.reserve(g.directed() ? ops.size() : 2 * ops.size());
  in_edits.reserve(g.directed() ? ops.size() : 0);
  for (const EdgeOp& op : ops) {
    out_edits.push_back({op.u, op.v, op.insert});
    (g.directed() ? in_edits : out_edits).push_back({op.v, op.u, op.insert});
  }
  std::sort(out_edits.begin(), out_edits.end(), arc_less);
  std::sort(in_edits.begin(), in_edits.end(), arc_less);
  // Each op was checked against the input alone, so an arc named by two
  // ops (an undirected edge in either orientation) is rejected here.
  APGRE_REQUIRE(std::adjacent_find(out_edits.begin(), out_edits.end(),
                                   same_arc) == out_edits.end(),
                "two ops on one arc");

  CsrGraph next;
  next.num_vertices_ = n;
  next.directed_ = g.directed();
  merge_arcs(g.out_offsets_, g.out_targets_, out_edits, next.out_offsets_,
             next.out_targets_);
  if (g.directed()) {
    merge_arcs(g.in_offsets_, g.in_targets_, in_edits, next.in_offsets_,
               next.in_targets_);
  }
  return next;
}

// ---- binary edge-batch frames ("APGB") ------------------------------------

namespace {

constexpr char kMagic[4] = {'A', 'P', 'G', 'B'};
constexpr std::uint32_t kFrameVersion = 1;

void put_u32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.write(bytes, 4);
}

void put_u64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.write(bytes, 8);
}

void put_f64(std::ostream& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  APGRE_REQUIRE(in.gcount() == 4, "unexpected end of edge-batch frame");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{bytes[i]} << (8 * i);
  return value;
}

std::uint64_t get_u64(std::istream& in) {
  unsigned char bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  APGRE_REQUIRE(in.gcount() == 8, "unexpected end of edge-batch frame");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{bytes[i]} << (8 * i);
  return value;
}

double get_f64(std::istream& in) {
  return std::bit_cast<double>(get_u64(in));
}

}  // namespace

void write_edge_batch(std::ostream& out, const UpdateRequest& batch) {
  out.write(kMagic, 4);
  put_u32(out, kFrameVersion);
  put_u64(out, batch.ops.size());
  for (const EdgeOp& op : batch.ops) {
    put_u32(out, op.u);
    put_u32(out, op.v);
    put_u32(out, op.insert ? 1 : 0);
    put_f64(out, op.weight);
    put_u64(out, op.timestamp);
  }
}

UpdateRequest read_edge_batch(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  APGRE_REQUIRE(in.gcount() == 4 && std::memcmp(magic, kMagic, 4) == 0,
                "not an edge-batch frame (bad magic)");
  const std::uint32_t version = get_u32(in);
  APGRE_REQUIRE(version == kFrameVersion,
                "unsupported edge-batch frame version");
  const std::uint64_t count = get_u64(in);
  UpdateRequest batch;
  // Untrusted count: grow as ops actually arrive (the fuzz-hardening idiom
  // from io_binary) instead of reserving attacker-chosen sizes.
  batch.ops.reserve(std::min<std::uint64_t>(count, 1u << 20));
  for (std::uint64_t i = 0; i < count; ++i) {
    EdgeOp op;
    op.u = get_u32(in);
    op.v = get_u32(in);
    op.insert = get_u32(in) != 0;
    op.weight = get_f64(in);
    op.timestamp = get_u64(in);
    batch.ops.push_back(op);
  }
  return batch;
}

void write_edge_batch_file(const std::string& path,
                           const std::vector<UpdateRequest>& batches) {
  std::ofstream out(path, std::ios::binary);
  APGRE_REQUIRE(out.good(), "cannot open for writing: " + path);
  for (const UpdateRequest& batch : batches) write_edge_batch(out, batch);
  APGRE_REQUIRE(out.good(), "write failed: " + path);
}

std::vector<UpdateRequest> read_edge_batch_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  APGRE_REQUIRE(in.good(), "cannot open: " + path);
  std::vector<UpdateRequest> batches;
  while (in.peek() != std::ifstream::traits_type::eof()) {
    batches.push_back(read_edge_batch(in));
  }
  return batches;
}

}  // namespace apgre
