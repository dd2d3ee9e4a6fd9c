// GraphML export for visualisation pipelines (Gephi, Cytoscape, yEd). The
// writer emits the graph structure plus optional per-vertex score
// attributes — the natural hand-off after a centrality run ("colour by
// betweenness").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// One named double attribute per vertex (values.size() == |V|).
struct VertexAttribute {
  std::string name;
  const std::vector<double>* values;
};

void write_graphml(std::ostream& out, const CsrGraph& g,
                   const std::vector<VertexAttribute>& attributes = {});
void write_graphml_file(const std::string& path, const CsrGraph& g,
                        const std::vector<VertexAttribute>& attributes = {});

}  // namespace apgre
