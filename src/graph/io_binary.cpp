#include "graph/io_binary.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/error.hpp"

namespace apgre {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'G', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in, const std::string& name) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  APGRE_REQUIRE(in.good(), name + ": truncated binary graph");
  return value;
}

struct Header {
  bool directed = false;
  Vertex num_vertices = 0;
  EdgeId num_arcs = 0;
};

/// A hostile header can claim any 64-bit arc count; reserving it up front
/// would allocate before a single payload byte is validated. Cap the
/// up-front reservation and let push_back grow for genuinely huge files —
/// truncated payloads then fail on read, not on allocation.
constexpr EdgeId kMaxArcReserve = EdgeId{1} << 20;

void write_header(std::ostream& out, const Header& h) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint8_t>(h.directed ? 1 : 0));
  write_pod(out, std::uint8_t{0});  // weighted
  write_pod(out, h.num_vertices);
  write_pod(out, h.num_arcs);
}

Header read_header(std::istream& in, const std::string& name) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  APGRE_REQUIRE(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                name + ": not an APGR binary graph");
  const auto version = read_pod<std::uint32_t>(in, name);
  APGRE_REQUIRE(version == kVersion,
                name + ": unsupported binary graph version " + std::to_string(version));
  Header h;
  h.directed = read_pod<std::uint8_t>(in, name) != 0;
  APGRE_REQUIRE(read_pod<std::uint8_t>(in, name) == 0,
                name + ": weighted graphs are not supported");
  h.num_vertices = read_pod<Vertex>(in, name);
  h.num_arcs = read_pod<EdgeId>(in, name);
  return h;
}

}  // namespace

void write_binary(std::ostream& out, const CsrGraph& g) {
  write_header(out, Header{g.directed(), g.num_vertices(), g.num_arcs()});
  for (const Edge& e : g.arcs()) {
    write_pod(out, e.src);
    write_pod(out, e.dst);
  }
  APGRE_REQUIRE(out.good(), "binary graph write failed");
}

CsrGraph read_binary(std::istream& in, const std::string& name) {
  const Header h = read_header(in, name);
  EdgeList edges;
  edges.reserve(std::min(h.num_arcs, kMaxArcReserve));
  for (EdgeId i = 0; i < h.num_arcs; ++i) {
    const auto src = read_pod<Vertex>(in, name);
    const auto dst = read_pod<Vertex>(in, name);
    APGRE_REQUIRE(src < h.num_vertices && dst < h.num_vertices,
                  name + ": arc endpoint out of range");
    edges.push_back(Edge{src, dst});
  }
  return CsrGraph::from_edges(h.num_vertices, std::move(edges), h.directed);
}

void write_binary_file(const std::string& path, const CsrGraph& g) {
  std::ofstream out(path, std::ios::binary);
  APGRE_REQUIRE(out.good(), "cannot open " + path + " for writing");
  write_binary(out, g);
}

CsrGraph read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  APGRE_REQUIRE(in.good(), "cannot open " + path);
  return read_binary(in, path);
}

}  // namespace apgre
