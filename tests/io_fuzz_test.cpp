// Parser robustness: every reader must either parse or throw apgre::Error —
// never crash, hang, or return an inconsistent graph — for arbitrary and
// truncated inputs. Seeds are deterministic; each case feeds mutated or
// random bytes to all three parsers.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_metis.hpp"
#include "graph/io_snap.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace apgre {
namespace {

void expect_parse_or_error(const std::string& bytes) {
  {
    std::istringstream in(bytes);
    try {
      const SnapGraph g = read_snap(in, true);
      EXPECT_LE(g.graph.num_arcs(), bytes.size());  // sanity: bounded output
    } catch (const Error&) {
    }
  }
  {
    std::istringstream in(bytes);
    try {
      (void)read_dimacs(in, true);
    } catch (const Error&) {
    }
  }
  {
    std::istringstream in(bytes);
    try {
      (void)read_metis(in);
    } catch (const Error&) {
    }
  }
}

TEST(IoFuzz, RandomPrintableGarbage) {
  Xoshiro256 rng(1);
  for (int round = 0; round < 50; ++round) {
    std::string bytes;
    const std::size_t length = rng.bounded(400);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(' ' + rng.bounded(95)));
    }
    expect_parse_or_error(bytes);
  }
}

TEST(IoFuzz, RandomBinaryGarbage) {
  Xoshiro256 rng(2);
  for (int round = 0; round < 50; ++round) {
    std::string bytes;
    const std::size_t length = rng.bounded(400);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.bounded(256)));
    }
    expect_parse_or_error(bytes);
  }
}

TEST(IoFuzz, TruncatedValidFiles) {
  const CsrGraph g = erdos_renyi(40, 120, true, 3);
  std::ostringstream snap;
  write_snap(snap, g);
  std::ostringstream dimacs;
  write_dimacs(dimacs, g);

  Xoshiro256 rng(4);
  for (const std::string& full : {snap.str(), dimacs.str()}) {
    for (int round = 0; round < 20; ++round) {
      expect_parse_or_error(full.substr(0, rng.bounded(full.size() + 1)));
    }
  }
}

}  // namespace
}  // namespace apgre
