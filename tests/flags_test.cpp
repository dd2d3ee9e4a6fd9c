#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/flags.hpp"

namespace apgre {
namespace {

FlagParser make_parser() {
  FlagParser flags("test tool");
  flags.add_string("format", "snap", "input format")
      .add_int("threads", 0, "thread budget")
      .add_double("scale", 1.5, "size scale")
      .add_bool("directed", false, "directed input");
  return flags;
}

std::vector<std::string> parse(FlagParser& flags,
                               std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParser, DefaultsApplyWithoutArguments) {
  FlagParser flags = make_parser();
  parse(flags, {});
  EXPECT_EQ(flags.get_string("format"), "snap");
  EXPECT_EQ(flags.get_int("threads"), 0);
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 1.5);
  EXPECT_FALSE(flags.get_bool("directed"));
}

TEST(FlagParser, SpaceSeparatedValues) {
  FlagParser flags = make_parser();
  parse(flags, {"--format", "dimacs", "--threads", "8"});
  EXPECT_EQ(flags.get_string("format"), "dimacs");
  EXPECT_EQ(flags.get_int("threads"), 8);
}

TEST(FlagParser, EqualsSeparatedValues) {
  FlagParser flags = make_parser();
  parse(flags, {"--scale=2.25", "--directed=true"});
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 2.25);
  EXPECT_TRUE(flags.get_bool("directed"));
}

TEST(FlagParser, BareBooleanFlag) {
  FlagParser flags = make_parser();
  parse(flags, {"--directed"});
  EXPECT_TRUE(flags.get_bool("directed"));
}

TEST(FlagParser, NumericBooleans) {
  FlagParser flags = make_parser();
  parse(flags, {"--directed=1"});
  EXPECT_TRUE(flags.get_bool("directed"));
  FlagParser flags2 = make_parser();
  parse(flags2, {"--directed=0"});
  EXPECT_FALSE(flags2.get_bool("directed"));
}

TEST(FlagParser, PositionalArgumentsPreserved) {
  FlagParser flags = make_parser();
  const auto positional = parse(flags, {"graph.txt", "--threads", "2", "extra"});
  EXPECT_EQ(positional, (std::vector<std::string>{"graph.txt", "extra"}));
}

TEST(FlagParser, UnknownFlagThrows) {
  FlagParser flags = make_parser();
  EXPECT_THROW(parse(flags, {"--bogus", "1"}), Error);
}

TEST(FlagParser, MalformedValuesThrow) {
  FlagParser flags = make_parser();
  EXPECT_THROW(parse(flags, {"--threads", "eight"}), Error);
  FlagParser flags2 = make_parser();
  EXPECT_THROW(parse(flags2, {"--scale", "big"}), Error);
  FlagParser flags3 = make_parser();
  EXPECT_THROW(parse(flags3, {"--directed=maybe"}), Error);
}

TEST(FlagParser, BareBoolDoesNotConsumeNextToken) {
  // gflags-style: booleans only take values through `=`; the next token is
  // a positional argument.
  FlagParser flags = make_parser();
  const auto positional = parse(flags, {"--directed", "maybe"});
  EXPECT_TRUE(flags.get_bool("directed"));
  EXPECT_EQ(positional, (std::vector<std::string>{"maybe"}));
}

TEST(FlagParser, MissingValueThrows) {
  FlagParser flags = make_parser();
  EXPECT_THROW(parse(flags, {"--threads"}), Error);
}

TEST(FlagParser, HelpRequested) {
  FlagParser flags = make_parser();
  parse(flags, {"--help"});
  EXPECT_TRUE(flags.help_requested());
  const std::string help = flags.help();
  EXPECT_NE(help.find("--format"), std::string::npos);
  EXPECT_NE(help.find("input format"), std::string::npos);
}

TEST(FlagParser, TypeMismatchOnAccessThrows) {
  FlagParser flags = make_parser();
  parse(flags, {});
  EXPECT_THROW(flags.get_int("format"), Error);
  EXPECT_THROW(flags.get_string("missing"), Error);
}

TEST(FlagParser, PartialNumbersRejected) {
  FlagParser flags = make_parser();
  EXPECT_THROW(parse(flags, {"--threads", "3x"}), Error);
}

TEST(IntFlag, ChecksTheTypeRangeAndTheGivenBounds) {
  FlagParser flags = make_parser();
  parse(flags, {"--threads", "4294967297"});
  EXPECT_EQ(int_flag<std::int64_t>(flags, "threads"), 4294967297);
  EXPECT_THROW(int_flag<int>(flags, "threads"), OptionError);
  EXPECT_THROW(int_flag<std::uint32_t>(flags, "threads"), OptionError);

  parse(flags, {"--threads", "-1"});
  EXPECT_EQ(int_flag<int>(flags, "threads"), -1);
  EXPECT_THROW(int_flag<std::size_t>(flags, "threads"), OptionError);
  EXPECT_THROW(int_flag<int>(flags, "threads", 0, 8), OptionError);

  parse(flags, {"--threads", "8"});
  EXPECT_EQ(int_flag<int>(flags, "threads", 0, 8), 8);
  try {
    int_flag<int>(flags, "threads", 1, 7);
    FAIL() << "8 is outside [1, 7]";
  } catch (const OptionError& e) {
    EXPECT_STREQ(e.what(), "--threads must be an integer in [1, 7]");
  }
}

}  // namespace
}  // namespace apgre
