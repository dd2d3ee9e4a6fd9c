#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io_binary.hpp"
#include "graph/transform.hpp"
#include "support/error.hpp"

namespace apgre {
namespace {

TEST(BinaryIo, RoundTripsUndirected) {
  const CsrGraph g = attach_pendants(barabasi_albert(200, 3, 1), 50, 2);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, g);
  EXPECT_EQ(read_binary(buffer), g);
}

TEST(BinaryIo, RoundTripsDirected) {
  const CsrGraph g = rmat(8, 6, 0.45, 0.2, 0.2, false, 3);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, g);
  const CsrGraph back = read_binary(buffer);
  EXPECT_TRUE(back.directed());
  EXPECT_EQ(back, g);
}

TEST(BinaryIo, RoundTripsEmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(0, {}, false);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, g);
  EXPECT_EQ(read_binary(buffer), g);
}

TEST(BinaryIo, RejectsWrongMagic) {
  std::stringstream buffer("not a graph at all, definitely");
  EXPECT_THROW(read_binary(buffer), Error);
}

TEST(BinaryIo, RejectsTruncatedPayload) {
  const CsrGraph g = cycle(10);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, g);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(half), Error);
}

TEST(BinaryIo, RejectsWeightednessMismatch) {
  // Header of a weighted one-arc graph: magic, version 1, directed 0,
  // weighted 1, |V| = 2, |arcs| = 1, then the arc.
  std::string bytes = "APGR";
  auto append = [&bytes](const auto& value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  append(std::uint32_t{1});
  append(std::uint8_t{0});
  append(std::uint8_t{1});
  append(Vertex{2});
  append(EdgeId{1});
  append(Vertex{0});
  append(Vertex{1});
  ASSERT_EQ(bytes.size(), 30u);

  std::stringstream buffer(bytes, std::ios::in | std::ios::binary);
  try {
    (void)read_binary(buffer);
    FAIL() << "a weighted file was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("weighted graphs are not supported"),
              std::string::npos)
        << e.what();
  }

  // The same bytes with the flag cleared are a valid unweighted graph.
  bytes[9] = 0;
  std::stringstream plain(bytes, std::ios::in | std::ios::binary);
  EXPECT_EQ(read_binary(plain), CsrGraph::from_edges(2, {{0, 1}}, false));
}

TEST(BinaryIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/apgre_binary_test.apgr";
  const CsrGraph g = road_grid(8, 8, 0.3, 0.1, 9);
  write_binary_file(path, g);
  EXPECT_EQ(read_binary_file(path), g);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apgre
