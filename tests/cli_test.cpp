// End-to-end tests of the apgre_cli binary: spawn the real executable
// (path injected by CMake) against generated graph files and check output
// and exit codes — the full user journey, not just library calls.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_snap.hpp"
#include "graph/transform.hpp"

#ifndef APGRE_CLI_PATH
#error "APGRE_CLI_PATH must be defined by the build"
#endif
#ifndef APGRE_DIFF_PATH
#error "APGRE_DIFF_PATH must be defined by the build"
#endif

namespace apgre {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_tool(const char* tool, const std::string& args) {
  const std::string command = std::string(tool) + " " + args + " 2>&1";
  std::array<char, 4096> buffer{};
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult run_cli(const std::string& args) {
  return run_tool(APGRE_CLI_PATH, args);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each test as its own process, possibly
    // in parallel, and a shared fixture path would let one test's TearDown
    // delete the graph another test is about to read.
    const std::string tag = std::to_string(static_cast<long>(getpid()));
    snap_path_ = ::testing::TempDir() + "/cli_graph_" + tag + ".snap";
    dimacs_path_ = ::testing::TempDir() + "/cli_graph_" + tag + ".gr";
    const CsrGraph g = attach_pendants(caveman(6, 6, 77), 20, 78);
    write_snap_file(snap_path_, g);
    write_dimacs_file(dimacs_path_, g);
  }

  void TearDown() override {
    std::remove(snap_path_.c_str());
    std::remove(dimacs_path_.c_str());
  }

  std::string snap_path_;
  std::string dimacs_path_;
};

TEST_F(CliTest, HelpExitsZero) {
  const CommandResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--algorithm"), std::string::npos);
}

TEST_F(CliTest, MissingFileArgumentFails) {
  const CommandResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, UnknownFlagFails) {
  const CommandResult r = run_cli("--frobnicate " + snap_path_);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, DefaultApgreRunPrintsRanking) {
  const CommandResult r = run_cli("--top 5 " + snap_path_);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("apgre finished"), std::string::npos);
  EXPECT_NE(r.output.find("decomposition:"), std::string::npos);
  EXPECT_NE(r.output.find("rank\tvertex\tscore"), std::string::npos);
}

TEST_F(CliTest, SerialAndApgreAgreeOnTopVertex) {
  const CommandResult apgre = run_cli("--algorithm apgre --top 1 " + snap_path_);
  const CommandResult serial = run_cli("--algorithm serial --top 1 " + snap_path_);
  ASSERT_EQ(apgre.exit_code, 0);
  ASSERT_EQ(serial.exit_code, 0);
  const auto last_line = [](const std::string& s) {
    const auto end = s.find_last_not_of('\n');
    const auto start = s.rfind('\n', end);
    return s.substr(start + 1, end - start);
  };
  EXPECT_EQ(last_line(apgre.output), last_line(serial.output));
}

TEST_F(CliTest, EdgeBetweennessMode) {
  const CommandResult r = run_cli("--algorithm edges --top 3 " + snap_path_);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("rank\tedge\tscore"), std::string::npos);
}

TEST_F(CliTest, CsvExport) {
  const std::string csv = ::testing::TempDir() + "/cli_scores.csv";
  const CommandResult r =
      run_cli("--algorithm serial --output " + csv + " " + snap_path_);
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "vertex,betweenness");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, 56u);  // 6*6 + 20 vertices
  std::remove(csv.c_str());
}

TEST_F(CliTest, MissingInputFileFails) {
  const CommandResult r = run_cli("/nonexistent/graph.txt");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, InvalidOptionsExitThree) {
  // Parses fine, rejected by validate_options: the Status exit code (3),
  // distinct from usage errors (2) and runtime failures (1).
  const CommandResult r = run_cli("--threads -1 " + snap_path_);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("invalid options"), std::string::npos);
}

TEST_F(CliTest, SchedulerFlagsRoundTrip) {
  const CommandResult on = run_cli("--threads 2 --top 1 " + snap_path_);
  EXPECT_EQ(on.exit_code, 0);
  EXPECT_NE(on.output.find("scheduler:"), std::string::npos);
}

// Integer flags are range-checked before any work: a value that would wrap
// in the narrowing (2^32 samples as 0, 2^32 + 1 threads as 1, -1 as every
// vertex) is a usage error.
TEST_F(CliTest, OutOfRangeIntegerFlagsAreUsageErrors) {
  for (const char* flag : {"--samples 4294967296", "--samples -1",
                           "--threads 4294967297", "--threads -2147483649",
                           "--top -1"}) {
    const CommandResult r = run_cli(std::string(flag) + " " + snap_path_);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("must be an integer in"), std::string::npos)
        << flag << "\n" << r.output;
  }
}

// apgre_diff checks its integer flags the same way, before any case runs:
// 2^32 + 1 threads would run on one worker and --max-naive -1 would run the
// O(V^3) oracle on every case.
TEST(DiffFlags, OutOfRangeIntegerFlagsAreUsageErrors) {
  for (const char* flag : {"--threads 4294967297", "--threads 1025",
                           "--threads -1", "--max-naive -1",
                           "--max-naive 4294967296"}) {
    const CommandResult r = run_tool(APGRE_DIFF_PATH, "--seed 1 " + std::string(flag));
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("must be an integer in"), std::string::npos)
        << flag << "\n" << r.output;
  }
}

TEST_F(CliTest, IntegerFlagsAtTheirLimitsRun) {
  const CommandResult r = run_cli(
      "--algorithm sampling --samples 4294967295 --top 0 " + snap_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rank\tvertex\tscore"), std::string::npos);
}

// Names the registry does not know, and flags no longer offered, are usage
// errors (exit 2), not runtime failures.
TEST_F(CliTest, UnknownAlgorithmAndRemovedFlagsAreUsageErrors) {
  const CommandResult algebraic = run_cli("--algorithm algebraic " + snap_path_);
  EXPECT_EQ(algebraic.exit_code, 2) << algebraic.output;
  EXPECT_NE(algebraic.output.find("algebraic"), std::string::npos);
  const CommandResult weighted =
      run_cli("--format dimacs --weighted " + dimacs_path_);
  EXPECT_EQ(weighted.exit_code, 2) << weighted.output;
  EXPECT_NE(weighted.output.find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, SamplingMode) {
  const CommandResult r =
      run_cli("--algorithm sampling --samples 10 --seed 3 --top 3 " + snap_path_);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("sampling finished"), std::string::npos);
}

}  // namespace
}  // namespace apgre
