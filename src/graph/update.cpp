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
  bool initial = false;  ///< present before the batch (pending edits applied)
  bool present = false;  ///< pending state after the ops folded so far
  bool touched = false;  ///< at least one effective op seen
  EdgeOp last;           ///< the op that set the current pending state
  std::size_t order_pos = 0;
};

}  // namespace

CoalesceResult coalesce_batch(const CsrGraph& g, const std::vector<EdgeOp>& ops,
                              const PendingEdits* pending) {
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

  // An edge's state before the batch: its pending edit, else its arc in g.
  const auto present_before = [&g, pending](std::pair<Vertex, Vertex> key) {
    if (pending != nullptr) {
      if (const auto edit = pending->find(key); edit != pending->end()) {
        return edit->second;
      }
    }
    return has_arc(g, key.first, key.second);
  };
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
    const auto key = edge_key(g.directed(), op.u, op.v);
    auto [it, fresh] = folds.try_emplace(key);
    EdgeFold& fold = it->second;
    if (fresh) {
      fold.initial = present_before(key);
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
  /// Index in the arc array before the edit (locate_edits): the removed
  /// arc, or the first arc an insert goes before.
  std::size_t at = 0;

  std::ptrdiff_t delta() const { return insert ? 1 : -1; }
};

bool arc_less(const ArcEdit& a, const ArcEdit& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

bool same_arc(const ArcEdit& a, const ArcEdit& b) {
  return a.src == b.src && a.dst == b.dst;
}

/// A batch as sorted arc edits per adjacency. Undirected: both arcs of an
/// edge edit the one adjacency. Directed: the out-arc edits the
/// out-adjacency, its transpose the in-adjacency.
struct ArcEdits {
  std::vector<ArcEdit> out;
  std::vector<ArcEdit> in;
};

/// Check every op against `g` and sort the batch into arc edits. Throws
/// before anything is allocated for the edited graph, so a rejected batch
/// changes nothing.
ArcEdits validated_edits(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  APGRE_REQUIRE(!ops.empty(), "apply_edge_ops on an empty batch");
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
  ArcEdits edits;
  edits.out.reserve(g.directed() ? ops.size() : 2 * ops.size());
  edits.in.reserve(g.directed() ? ops.size() : 0);
  for (const EdgeOp& op : ops) {
    edits.out.push_back({op.u, op.v, op.insert});
    (g.directed() ? edits.in : edits.out).push_back({op.v, op.u, op.insert});
  }
  std::sort(edits.out.begin(), edits.out.end(), arc_less);
  std::sort(edits.in.begin(), edits.in.end(), arc_less);
  // Each op was checked against the input alone, so an arc named by two
  // ops (an undirected edge in either orientation) is rejected here.
  APGRE_REQUIRE(std::adjacent_find(edits.out.begin(), edits.out.end(),
                                   same_arc) == edits.out.end(),
                "two ops on one arc");
  return edits;
}

/// Arc count of an adjacency of `arcs` arcs after `edits`.
std::size_t edited_size(std::size_t arcs, const std::vector<ArcEdit>& edits) {
  for (const ArcEdit& edit : edits) arcs = edit.insert ? arcs + 1 : arcs - 1;
  return arcs;
}

/// Set every edit's `at` in one adjacency. Sorted edits get
/// non-decreasing indices.
void locate_edits(const std::vector<EdgeId>& offsets,
                  const std::vector<Vertex>& targets,
                  std::vector<ArcEdit>& edits) {
  for (ArcEdit& edit : edits) {
    const Vertex* const begin = targets.data() + offsets[edit.src];
    const Vertex* const end = targets.data() + offsets[edit.src + 1];
    const Vertex* const pos = std::lower_bound(begin, end, edit.dst);
    APGRE_ASSERT((pos != end && *pos == edit.dst) != edit.insert);
    edit.at = static_cast<std::size_t>(pos - targets.data());
  }
}

/// Apply located `edits` (sorted by arc_less, legal against the adjacency)
/// to one adjacency in place. `targets` must already have the capacity for
/// the edited size, so nothing here allocates or throws.
///
/// The edits cut the old arc array into segments; segment k (the arcs
/// between edits k - 1 and k) moves by the net arcs the edits before it
/// add. Left moves run front to back and right moves back to front, so no
/// segment is overwritten before it has moved; the inserted arcs then fill
/// the gaps, and the offsets from the first edited vertex on move by the
/// same running delta.
void edit_arcs(std::vector<EdgeId>& offsets, std::vector<Vertex>& targets,
               const std::vector<ArcEdit>& edits) {
  if (edits.empty()) return;
  const std::size_t count = edits.size();
  const std::size_t old_size = targets.size();
  const std::size_t new_size = edited_size(old_size, edits);
  APGRE_ASSERT(targets.capacity() >= new_size);
  if (new_size > old_size) targets.resize(new_size);  // within capacity
  Vertex* const arcs = targets.data();
  const auto move_segment = [&](std::size_t k, std::ptrdiff_t shift) {
    const std::size_t begin =
        k == 0 ? 0 : edits[k - 1].at + (edits[k - 1].insert ? 0 : 1);
    const std::size_t end = k == count ? old_size : edits[k].at;
    if (begin < end) {
      std::memmove(arcs + begin + shift, arcs + begin,
                   (end - begin) * sizeof(Vertex));
    }
  };
  std::ptrdiff_t shift = 0;  // of segment k: the edits before it
  for (std::size_t k = 0; k <= count; ++k) {
    if (shift < 0) move_segment(k, shift);
    if (k < count) shift += edits[k].delta();
  }
  for (std::size_t k = count + 1; k-- > 0;) {
    if (shift > 0) move_segment(k, shift);
    if (k > 0) shift -= edits[k - 1].delta();
  }
  for (const ArcEdit& edit : edits) {
    if (edit.insert) (arcs + edit.at)[shift] = edit.dst;
    shift += edit.delta();
  }
  if (new_size < old_size) targets.resize(new_size);

  // offsets[w] moves by the net arcs of the edits at vertices below w. A
  // net removal wraps modulo 2^64, and offsets[w] + delta wraps back.
  const std::size_t n = offsets.size() - 1;
  std::size_t w = edits.front().src + 1;
  EdgeId delta = 0;
  for (const ArcEdit& edit : edits) {
    for (; w <= edit.src; ++w) offsets[w] += delta;
    delta += static_cast<EdgeId>(edit.delta());
  }
  for (; w <= n; ++w) offsets[w] += delta;
  APGRE_ASSERT(offsets[n] == targets.size());
}

}  // namespace

void apply_edge_ops_in_place(CsrGraph& g, const std::vector<EdgeOp>& ops) {
  ArcEdits edits = validated_edits(g, ops);
  locate_edits(g.out_offsets_, g.out_targets_, edits.out);
  locate_edits(g.in_offsets_, g.in_targets_, edits.in);
  // Every allocation comes before the first write, so a throw leaves `g`
  // equal to its input.
  g.out_targets_.reserve(edited_size(g.out_targets_.size(), edits.out));
  g.in_targets_.reserve(edited_size(g.in_targets_.size(), edits.in));
  edit_arcs(g.out_offsets_, g.out_targets_, edits.out);
  edit_arcs(g.in_offsets_, g.in_targets_, edits.in);
}

CsrGraph apply_edge_ops(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  ArcEdits edits = validated_edits(g, ops);
  locate_edits(g.out_offsets_, g.out_targets_, edits.out);
  locate_edits(g.in_offsets_, g.in_targets_, edits.in);
  // Copy into arrays sized for the edited graph, then edit the copy.
  const auto copy = [](const std::vector<Vertex>& from, std::size_t size) {
    std::vector<Vertex> to;
    to.reserve(std::max(size, from.size()));
    to.assign(from.begin(), from.end());
    return to;
  };
  CsrGraph next;
  next.num_vertices_ = g.num_vertices_;
  next.directed_ = g.directed_;
  next.out_offsets_ = g.out_offsets_;
  next.out_targets_ =
      copy(g.out_targets_, edited_size(g.out_targets_.size(), edits.out));
  next.in_offsets_ = g.in_offsets_;
  next.in_targets_ =
      copy(g.in_targets_, edited_size(g.in_targets_.size(), edits.in));
  edit_arcs(next.out_offsets_, next.out_targets_, edits.out);
  edit_arcs(next.in_offsets_, next.in_targets_, edits.in);
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
  // Untrusted count: reserve at most 2^20 ops and grow as ops actually
  // arrive, instead of reserving an attacker-chosen size.
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
