// ArgParser: parsing forms, defaults, errors, usage text.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/cli.h"

namespace omx {
namespace {

ArgParser make() {
  ArgParser p("tool", "test tool");
  p.add_option("n", "128", "process count");
  p.add_option("ratio", "0.5", "a ratio");
  p.add_option("name", "", "a string");
  p.add_flag("verbose", "talk more");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return p.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsApply) {
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_int("n"), 128);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_EQ(p.get("name"), "");
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(Cli, SpaceAndEqualsForms) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--n", "64", "--ratio=0.25", "--verbose"}));
  EXPECT_EQ(p.get_int("n"), 64);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.25);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(Cli, UnknownArgumentFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--bogus", "1"}));
  EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(Cli, PositionalFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"loose"}));
}

TEST(Cli, MissingValueFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--n"}));
  EXPECT_NE(p.error().find("missing value"), std::string::npos);
}

TEST(Cli, FlagWithValueFails) {
  auto p = make();
  EXPECT_FALSE(parse(p, {"--verbose=1"}));
}

TEST(Cli, HelpRequested) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--help"}));
  EXPECT_TRUE(p.help_requested());
  const auto usage = p.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("process count"), std::string::npos);
  EXPECT_NE(usage.find("default: 128"), std::string::npos);
}

TEST(Cli, TypeValidation) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--n", "abc"}));
  EXPECT_THROW(p.get_int("n"), PreconditionError);
  auto q = make();
  ASSERT_TRUE(parse(q, {"--ratio", "x2"}));
  EXPECT_THROW(q.get_double("ratio"), PreconditionError);
}

TEST(Cli, NegativeNumbers) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--n", "-1", "--ratio", "-0.5"}));
  EXPECT_EQ(p.get_int("n"), -1);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), -0.5);
}

TEST(Cli, UnsignedOptionsRefuseSignsAndOutOfRange) {
  // A negative count cast to an unsigned field would wrap (2^64-1 trials,
  // one lane per process): it is refused like any other bad value.
  for (const char* bad :
       {"-8", "-1", "+8", "12abc", "", " 8", "8 ", "0x10", "4294967296"}) {
    auto p = make();
    ASSERT_TRUE(parse(p, {"--n", bad}));
    EXPECT_THROW(p.get_uint<std::uint32_t>("n"), PreconditionError)
        << "'" << bad << "'";
  }
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_uint<std::uint32_t>("n"), 128u);
  auto q = make();
  ASSERT_TRUE(parse(q, {"--n", "4294967295"}));
  EXPECT_EQ(q.get_uint<std::uint32_t>("n"), 4294967295u);
  EXPECT_THROW(q.get_uint<std::uint16_t>("n"), PreconditionError);
  auto r = make();
  ASSERT_TRUE(parse(r, {"--n", "18446744073709551615"}));
  EXPECT_EQ(r.get_uint<std::uint64_t>("n"), UINT64_MAX);
  auto s = make();
  ASSERT_TRUE(parse(s, {"--n", "18446744073709551616"}));
  EXPECT_THROW(s.get_uint<std::uint64_t>("n"), PreconditionError);
}

TEST(Cli, UndeclaredQueriesThrow) {
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), PreconditionError);
  EXPECT_THROW(p.flag("nope"), PreconditionError);
}

TEST(Cli, DuplicateDeclarationThrows) {
  ArgParser p("t", "d");
  p.add_option("x", "1", "h");
  EXPECT_THROW(p.add_option("x", "2", "h"), PreconditionError);
  EXPECT_THROW(p.add_flag("x", "h"), PreconditionError);
}

TEST(Cli, LastValueWins) {
  auto p = make();
  ASSERT_TRUE(parse(p, {"--n", "1", "--n", "2"}));
  EXPECT_EQ(p.get_int("n"), 2);
}

}  // namespace
}  // namespace omx
