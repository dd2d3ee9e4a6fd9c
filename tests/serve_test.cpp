// Golden-file tests of the apgre_serve binary (path injected by CMake,
// same popen pattern as cli_test.cpp): write a request transcript, pipe it
// through the server, and compare the response stream. Responses serialize
// key-sorted and without timing fields by default, so whole transcripts
// compare byte-exact; assertions fall back to substrings only where a
// value (e.g. an affected-source count) is an algorithm detail rather than
// part of the protocol contract. All golden runs use --workers 1 so batch
// sub-requests execute in a deterministic order.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/update.hpp"

#ifndef APGRE_SERVE_PATH
#error "APGRE_SERVE_PATH must be defined by the build"
#endif

namespace apgre {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_serve(const std::string& args,
                        const std::string& stdin_path = "") {
  std::string command = std::string(APGRE_SERVE_PATH) + " " + args;
  command += stdin_path.empty() ? " < /dev/null" : " < " + stdin_path;
  command += " 2>&1";
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

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transcript_path_ = ::testing::TempDir() + "/serve_requests_" +
                       std::to_string(static_cast<long>(getpid())) + ".jsonl";
  }

  void TearDown() override { std::remove(transcript_path_.c_str()); }

  /// Writes one request per line and runs the server over the file.
  CommandResult serve(const std::vector<std::string>& requests,
                      const std::string& args = "--workers 1") {
    std::ofstream out(transcript_path_);
    for (const std::string& line : requests) out << line << "\n";
    out.close();
    return run_serve(args, transcript_path_);
  }

  std::string transcript_path_;
};

// P4 path graph 0-1-2-3: serial BC is exactly [0, 4, 4, 0].
const char kRegisterPath[] =
    R"({"op":"register","graph":"p","edges":[[0,1],[1,2],[2,3]]})";

TEST_F(ServeTest, HelpExitsZero) {
  const CommandResult r = run_serve("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--capacity"), std::string::npos);
  EXPECT_NE(r.output.find("--workers"), std::string::npos);
}

TEST_F(ServeTest, UnknownFlagFails) {
  const CommandResult r = run_serve("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos);
}

TEST_F(ServeTest, PositionalArgumentFails) {
  const CommandResult r = run_serve("graph.snap");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("no positional arguments"), std::string::npos);
}

// Integer flags are range-checked before the service starts a worker: a
// value that would wrap in the narrowing (2^32 + 1 workers as 1, -1 as a
// 2^64 - 1 capacity) or lies past the solve-thread cap is a usage error.
TEST_F(ServeTest, OutOfRangeIntegerFlagsAreUsageErrors) {
  for (const char* flag : {"--workers 4294967297", "--workers 1025",
                           "--workers 0", "--workers -1", "--capacity -1",
                           "--capacity 0"}) {
    const CommandResult r = run_serve(flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("must be an integer in"), std::string::npos)
        << flag << "\n" << r.output;
  }
}

TEST_F(ServeTest, EmptyInputExitsZero) {
  const CommandResult r = run_serve("--workers 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST_F(ServeTest, RegisterSolveTopKGolden) {
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
      R"({"op":"top_k","graph":"p","algorithm":"serial","k":2})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(
      r.output,
      "{\"arcs\":6,\"graph\":\"p\",\"ok\":true,\"op\":\"register\","
      "\"vertices\":4}\n"
      "{\"graph\":\"p\",\"ok\":true,\"op\":\"solve\",\"scores\":[0,4,4,0],"
      "\"session_hit\":false}\n"
      "{\"graph\":\"p\",\"ok\":true,\"op\":\"solve\",\"scores\":[0,4,4,0],"
      "\"session_hit\":true}\n"
      "{\"graph\":\"p\",\"ok\":true,\"op\":\"top_k\",\"session_hit\":true,"
      "\"top\":[{\"score\":4,\"vertex\":1},{\"score\":4,\"vertex\":2}]}\n");
}

TEST_F(ServeTest, ApgreAndSerialAgreeOnScores) {
  const CommandResult serial = serve({
      kRegisterPath,
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
  });
  const CommandResult apgre = serve({
      kRegisterPath,
      R"({"op":"solve","graph":"p","algorithm":"apgre"})",
  });
  ASSERT_EQ(serial.exit_code, 0);
  ASSERT_EQ(apgre.exit_code, 0);
  const std::string want = "\"scores\":[0,4,4,0]";
  EXPECT_NE(serial.output.find(want), std::string::npos) << serial.output;
  EXPECT_NE(apgre.output.find(want), std::string::npos) << apgre.output;
}

TEST_F(ServeTest, UpdateLocalityGolden) {
  // C4 cycle: the chord 0-2 lands strictly inside the single block (no
  // endpoint is an articulation point) -> local insert, affecting the whole
  // 4-vertex block. Removing 1-2 afterwards strips vertex 1 to degree one,
  // dissolving the block -> structural. The post-update solve sees the
  // mutated graph: edges {0,1},{0,2},{0,3},{2,3} give BC [4,0,0,0].
  const CommandResult r = serve({
      R"({"op":"register","graph":"c","edges":[[0,1],[1,2],[2,3],[3,0]]})",
      R"({"op":"update","graph":"c","u":0,"v":2,"insert":true})",
      R"({"op":"update","graph":"c","u":1,"v":2,"insert":false})",
      R"({"op":"solve","graph":"c","algorithm":"serial"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find("{\"affected_sources\":4,\"graph\":\"c\",\"locality\":"
                    "\"local_insert\",\"ok\":true,\"op\":\"update\"}"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"locality\":\"structural\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"scores\":[4,0,0,0]"), std::string::npos)
      << r.output;
}

TEST_F(ServeTest, BatchGolden) {
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"batch","requests":[)"
      R"({"op":"solve","graph":"p","algorithm":"serial"},)"
      R"({"op":"top_k","graph":"p","algorithm":"serial","k":1}]})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find(
          "{\"ok\":true,\"op\":\"batch\",\"responses\":["
          "{\"graph\":\"p\",\"ok\":true,\"op\":\"solve\","
          "\"scores\":[0,4,4,0],\"session_hit\":false},"
          "{\"graph\":\"p\",\"ok\":true,\"op\":\"top_k\","
          "\"session_hit\":true,\"top\":[{\"score\":4,\"vertex\":1}]}]}"),
      std::string::npos)
      << r.output;
}

TEST_F(ServeTest, MalformedLineKeepsServing) {
  const CommandResult r = serve({
      "{not json at all",
      R"({"op":"graphs"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  // First reply is an error, second still succeeds.
  const std::size_t newline = r.output.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string first = r.output.substr(0, newline);
  EXPECT_NE(first.find("\"ok\":false"), std::string::npos) << first;
  EXPECT_NE(r.output.find("{\"graphs\":[],\"ok\":true,\"op\":\"graphs\"}"),
            std::string::npos)
      << r.output;
}

TEST_F(ServeTest, DeeplyNestedLineIsAnErrorAndServingContinues) {
  // 100,000 nested arrays in a well-formed request: the parser bounds its
  // recursion, so the line answers an error instead of overflowing the
  // stack, and the next line is still served.
  const std::string deep = R"({"op":"graphs","x":)" +
                           std::string(100000, '[') +
                           std::string(100000, ']') + "}";
  const CommandResult r = serve({deep, R"({"op":"graphs"})"});
  EXPECT_EQ(r.exit_code, 0) << r.output.substr(0, 200);
  EXPECT_EQ(r.output,
            "{\"error\":\"json:1: nesting deeper than 64 levels\","
            "\"ok\":false}\n"
            "{\"graphs\":[],\"ok\":true,\"op\":\"graphs\"}\n");
}

TEST_F(ServeTest, UnknownOpAndUnknownGraphAreErrors) {
  const CommandResult r = serve({
      R"({"op":"bogus"})",
      R"({"op":"solve","graph":"missing"})",
      R"({"op":"update","graph":"missing","u":0,"v":1})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find("{\"error\":\"unknown op: bogus\",\"ok\":false}"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unknown graph: missing"), std::string::npos)
      << r.output;
}

TEST_F(ServeTest, InvalidUpdateReportsErrorAndKeepsState) {
  // Inserting an edge that already exists must fail without wedging the
  // graph: the follow-up solve still answers with the original scores.
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"update","graph":"p","u":0,"v":1,"insert":true})",
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"ok\":false"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"scores\":[0,4,4,0]"), std::string::npos)
      << r.output;
}

TEST_F(ServeTest, OutOfRangeIntegerFieldsAreErrorsGolden) {
  // Wire numbers are doubles. One that does not fit its integer field is an
  // error reply, never a wrapped value: 2^32 is not vertex 0, and k = -1 is
  // not "every vertex". The failed update leaves the graph unchanged. The
  // largest id is reserved (kInvalidVertex), so a register naming it fails
  // instead of wrapping the vertex count to 0. A worker count that fits an
  // int but exceeds kMaxSolveThreads is an invalid option, rejected by
  // validate_options before any pool is built.
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"update","graph":"p","u":4294967296,"v":3})",
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
      R"({"op":"top_k","graph":"p","algorithm":"serial","k":-1})",
      R"({"op":"solve","graph":"p","algorithm":"serial","threads":1.5})",
      R"({"op":"register","graph":"q","edges":[[0,4294967295]]})",
      R"({"op":"solve","graph":"p","algorithm":"serial","threads":1025})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(
      r.output,
      "{\"arcs\":6,\"graph\":\"p\",\"ok\":true,\"op\":\"register\","
      "\"vertices\":4}\n"
      "{\"error\":\"vertex ids must be an integer in [0, 4294967295]\","
      "\"ok\":false}\n"
      "{\"graph\":\"p\",\"ok\":true,\"op\":\"solve\",\"scores\":[0,4,4,0],"
      "\"session_hit\":false}\n"
      "{\"error\":\"k must be non-negative\",\"ok\":false}\n"
      "{\"error\":\"threads must be an integer in [-2147483648, 2147483647]\","
      "\"ok\":false}\n"
      "{\"error\":\"vertex id 4294967295 is reserved\",\"ok\":false}\n"
      "{\"error\":\"threads must be in [0, 1024], got 1025\",\"graph\":\"p\","
      "\"ok\":false}\n");
}

TEST_F(ServeTest, RegistryOpsGolden) {
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"graphs"})",
      R"({"op":"unregister","graph":"p"})",
      R"({"op":"unregister","graph":"p"})",
      R"({"op":"graphs"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("{\"graphs\":[\"p\"],\"ok\":true,\"op\":\"graphs\"}"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "{\"existed\":true,\"graph\":\"p\",\"ok\":true,"
                "\"op\":\"unregister\"}"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "{\"existed\":false,\"graph\":\"p\",\"ok\":true,"
                "\"op\":\"unregister\"}"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("{\"graphs\":[],\"ok\":true,\"op\":\"graphs\"}"),
            std::string::npos)
      << r.output;
}

TEST_F(ServeTest, StatsAndEvictShape) {
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"solve","graph":"p","algorithm":"serial"})",
      R"({"op":"evict"})",
      R"({"op":"stats"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("{\"dropped\":1,\"ok\":true,\"op\":\"evict\"}"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"op\":\"stats\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"hit_rate\":"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"sessions\":0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"requests\":1"), std::string::npos) << r.output;
}

TEST_F(ServeTest, QuitStopsProcessing) {
  const CommandResult r = serve({
      R"({"op":"quit"})",
      kRegisterPath,  // must never be processed
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "{\"ok\":true,\"op\":\"quit\"}\n");
}

// K4: one biconnected block, no articulation points. Deleting the two
// disjoint chords 0-2 and 1-3 leaves the C4 cycle — still one block, so
// the batch classifies local with deterministic counters.
const char kRegisterK4[] =
    R"({"op":"register","graph":"k",)"
    R"("edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]})";

TEST_F(ServeTest, BatchUpdateGoldenV1) {
  const CommandResult r = serve({
      kRegisterK4,
      R"({"op":"batch_update","graph":"k","ops":[)"
      R"({"u":0,"v":2,"insert":false,"t":0},)"
      R"({"u":1,"v":3,"insert":false,"t":1}]})",
      R"({"op":"solve","graph":"k","algorithm":"serial"})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find(
          "{\"affected_sources\":4,\"batch_edges\":2,\"blocks_resolved\":1,"
          "\"coalesced_away\":0,\"downgraded\":false,\"graph\":\"k\","
          "\"ok\":true,\"op\":\"batch_update\"}"),
      std::string::npos)
      << r.output;
  // K4 minus both chords is C4: every vertex mediates one antipodal pair
  // in each direction, half-credit each -> [1,1,1,1] (ordered pairs).
  EXPECT_NE(r.output.find("\"scores\":[1,1,1,1]"), std::string::npos)
      << r.output;
}

TEST_F(ServeTest, BatchUpdateGoldenV2EchoesVersion) {
  const CommandResult r = serve({
      kRegisterK4,
      R"({"v":2,"op":"batch_update","graph":"k","ops":[)"
      R"({"u":0,"v":2,"insert":false},{"u":1,"v":3,"insert":false}]})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find(
          "{\"affected_sources\":4,\"batch_edges\":2,\"blocks_resolved\":1,"
          "\"coalesced_away\":0,\"downgraded\":false,\"graph\":\"k\","
          "\"ok\":true,\"op\":\"batch_update\",\"v\":2}"),
      std::string::npos)
      << r.output;
}

TEST_F(ServeTest, BatchUpdateCoalescesAndDowngrades) {
  // Insert+delete of the same edge cancels; deleting a P4 edge is
  // structural (the path's blocks are bridges).
  const CommandResult r = serve({
      kRegisterPath,
      R"({"op":"batch_update","graph":"p","ops":[)"
      R"({"u":0,"v":2,"insert":true,"t":0},)"
      R"({"u":0,"v":2,"insert":false,"t":1}]})",
      R"({"op":"batch_update","graph":"p","ops":[)"
      R"({"u":2,"v":3,"insert":false}]})",
  });
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find(
          "{\"affected_sources\":0,\"batch_edges\":2,\"blocks_resolved\":0,"
          "\"coalesced_away\":2,\"downgraded\":false,\"graph\":\"p\","
          "\"ok\":true,\"op\":\"batch_update\"}"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"downgraded\":true"), std::string::npos)
      << r.output;
}

TEST_F(ServeTest, MalformedBatchUpdatesAreErrorsAndKeepServing) {
  const CommandResult r = serve({
      kRegisterK4,
      R"({"op":"batch_update","graph":"k"})",                 // no ops/path
      R"({"v":3,"op":"batch_update","graph":"k","ops":[]})",  // bad version
      R"({"op":"batch_update","graph":"k","ops":[)"
      R"({"u":0,"v":1,"insert":true}]})",                     // already present
      R"({"op":"batch_update","graph":"k",)"
      R"("ops":[{"u":0,"v":1,"insert":false,"t":-4}]})",      // negative time
      R"({"op":"batch_update","graph":"missing","ops":[]})",  // unknown graph
      R"({"op":"graphs"})",
  });
  // Malformed batches answer errors; the server keeps serving (exit 0).
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("unsupported protocol version: 3"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("arc already present"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("timestamps must be non-negative"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unknown graph: missing"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("{\"graphs\":[\"k\"],\"ok\":true,\"op\":\"graphs\"}"),
            std::string::npos)
      << r.output;
  // Five errors before the surviving graphs reply.
  std::size_t errors = 0;
  for (std::size_t at = r.output.find("\"ok\":false");
       at != std::string::npos; at = r.output.find("\"ok\":false", at + 1)) {
    ++errors;
  }
  EXPECT_EQ(errors, 5u) << r.output;
}

TEST_F(ServeTest, BatchUpdateReplaysBinaryFrames) {
  // Two frames recorded with the library writer: delete both K4 chords,
  // then re-insert them. Each frame applies as one batch.
  const std::string frames_path =
      ::testing::TempDir() + "/serve_frames_" +
      std::to_string(static_cast<long>(getpid())) + ".apgb";
  {
    std::vector<UpdateRequest> frames(2);
    EdgeOp del02;
    del02.u = 0;
    del02.v = 2;
    del02.insert = false;
    EdgeOp del13 = del02;
    del13.u = 1;
    del13.v = 3;
    frames[0].ops = {del02, del13};
    EdgeOp ins02 = del02;
    ins02.insert = true;
    EdgeOp ins13 = del13;
    ins13.insert = true;
    frames[1].ops = {ins02, ins13};
    write_edge_batch_file(frames_path, frames);
  }
  const CommandResult r = serve({
      kRegisterK4,
      R"({"op":"batch_update","graph":"k","path":")" + frames_path + R"("})",
      R"({"op":"batch_update","graph":"k","path":"/no/such/file.apgb"})",
  });
  std::remove(frames_path.c_str());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(
      r.output.find(
          "{\"affected_sources\":8,\"batch_edges\":4,\"blocks_resolved\":2,"
          "\"coalesced_away\":0,\"downgraded\":false,\"frames\":2,"
          "\"graph\":\"k\",\"ok\":true,\"op\":\"batch_update\"}"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ok\":false"), std::string::npos) << r.output;
}

TEST_F(ServeTest, TimingFlagAddsSeconds) {
  const CommandResult r = serve(
      {
          kRegisterPath,
          R"({"op":"solve","graph":"p","algorithm":"serial"})",
      },
      "--workers 1 --timing");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"seconds\":"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace apgre
