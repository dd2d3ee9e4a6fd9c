#include "graph/io_graphml.hpp"

#include <fstream>
#include <ostream>

#include "support/error.hpp"

namespace apgre {

namespace {

/// GraphML attribute ids must be XML-safe; names are restricted instead of
/// escaped so files stay human-readable.
void check_attribute_name(const std::string& name) {
  APGRE_REQUIRE(!name.empty(), "attribute name must not be empty");
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    APGRE_REQUIRE(ok, "attribute name `" + name + "` has unsafe characters");
  }
}

}  // namespace

void write_graphml(std::ostream& out, const CsrGraph& g,
                   const std::vector<VertexAttribute>& attributes) {
  for (const VertexAttribute& attr : attributes) {
    check_attribute_name(attr.name);
    APGRE_REQUIRE(attr.values != nullptr && attr.values->size() == g.num_vertices(),
                  "attribute `" + attr.name + "` must have one value per vertex");
  }

  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  for (std::size_t i = 0; i < attributes.size(); ++i) {
    out << "  <key id=\"d" << i << "\" for=\"node\" attr.name=\""
        << attributes[i].name << "\" attr.type=\"double\"/>\n";
  }
  out << "  <graph id=\"G\" edgedefault=\""
      << (g.directed() ? "directed" : "undirected") << "\">\n";

  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (attributes.empty()) {
      out << "    <node id=\"n" << v << "\"/>\n";
      continue;
    }
    out << "    <node id=\"n" << v << "\">\n";
    for (std::size_t i = 0; i < attributes.size(); ++i) {
      out << "      <data key=\"d" << i << "\">" << (*attributes[i].values)[v]
          << "</data>\n";
    }
    out << "    </node>\n";
  }

  EdgeId edge_id = 0;
  for (const Edge& e : g.arcs()) {
    if (!g.directed() && e.src > e.dst) continue;  // one element per edge
    out << "    <edge id=\"e" << edge_id++ << "\" source=\"n" << e.src
        << "\" target=\"n" << e.dst << "\"/>\n";
  }
  out << "  </graph>\n</graphml>\n";
  APGRE_REQUIRE(out.good(), "GraphML write failed");
}

void write_graphml_file(const std::string& path, const CsrGraph& g,
                        const std::vector<VertexAttribute>& attributes) {
  std::ofstream out(path);
  APGRE_REQUIRE(out.good(), "cannot open " + path + " for writing");
  write_graphml(out, g, attributes);
}

}  // namespace apgre
