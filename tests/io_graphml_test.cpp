#include <gtest/gtest.h>

#include <sstream>

#include "bc/brandes.hpp"
#include "graph/generators.hpp"
#include "graph/io_graphml.hpp"
#include "support/error.hpp"

namespace apgre {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(GraphmlIo, WritesNodesAndUndirectedEdgesOnce) {
  const CsrGraph g = cycle(5);
  std::ostringstream out;
  write_graphml(out, g);
  const std::string xml = out.str();
  EXPECT_EQ(count_occurrences(xml, "<node id="), 5u);
  EXPECT_EQ(count_occurrences(xml, "<edge id="), 5u);  // not 10 arcs
  EXPECT_NE(xml.find("edgedefault=\"undirected\""), std::string::npos);
}

TEST(GraphmlIo, DirectedKeepsEveryArc) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 0}, {1, 2}}, true);
  std::ostringstream out;
  write_graphml(out, g);
  const std::string xml = out.str();
  EXPECT_EQ(count_occurrences(xml, "<edge id="), 3u);
  EXPECT_NE(xml.find("edgedefault=\"directed\""), std::string::npos);
}

TEST(GraphmlIo, EmbedsScoreAttributes) {
  const CsrGraph g = star(5);
  const auto bc = brandes_bc(g);
  std::ostringstream out;
  write_graphml(out, g, {{"betweenness", &bc}});
  const std::string xml = out.str();
  EXPECT_NE(xml.find("attr.name=\"betweenness\""), std::string::npos);
  EXPECT_EQ(count_occurrences(xml, "<data key=\"d0\">"), 5u);
  EXPECT_NE(xml.find(">12<"), std::string::npos);  // centre: (n-1)(n-2) = 12
}

TEST(GraphmlIo, MultipleAttributes) {
  const CsrGraph g = path(4);
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{4, 3, 2, 1};
  std::ostringstream out;
  write_graphml(out, g, {{"alpha", &a}, {"beta", &b}});
  const std::string xml = out.str();
  EXPECT_EQ(count_occurrences(xml, "<key id="), 2u);
  EXPECT_EQ(count_occurrences(xml, "<data key=\"d1\">"), 4u);
}

TEST(GraphmlIo, RejectsBadAttributeShapes) {
  const CsrGraph g = path(4);
  const std::vector<double> short_values{1.0};
  std::ostringstream out;
  EXPECT_THROW(write_graphml(out, g, {{"x", &short_values}}), Error);
  const std::vector<double> ok(4, 0.0);
  EXPECT_THROW(write_graphml(out, g, {{"bad name!", &ok}}), Error);
  EXPECT_THROW(write_graphml(out, g, {{"", &ok}}), Error);
}

TEST(GraphmlIo, EmptyGraphIsValidDocument) {
  const CsrGraph g = CsrGraph::from_edges(0, {}, false);
  std::ostringstream out;
  write_graphml(out, g);
  EXPECT_NE(out.str().find("</graphml>"), std::string::npos);
}

}  // namespace
}  // namespace apgre
