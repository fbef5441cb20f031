#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/bits.h"
#include "support/check.h"
#include "support/durable_file.h"
#include "support/prng.h"
#include "support/stats.h"

namespace omx {
namespace {

TEST(Check, RequireThrowsPrecondition) {
  EXPECT_THROW(OMX_REQUIRE(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(OMX_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInvariant) {
  EXPECT_THROW(OMX_CHECK(false, "boom"), InvariantError);
  EXPECT_NO_THROW(OMX_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    OMX_CHECK(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Check, RequireTextIsTheCallersMessage) {
  try {
    OMX_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "one is not two");
  }
  try {
    OMX_REQUIRE(1 == 2, "");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "1 == 2");
  }
}

TEST(Check, CheckLocationIsRepoRelative) {
  try {
    OMX_CHECK(false, "");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at tests/support_test.cpp:"), std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------------------
// The durable-write helpers.

namespace fs = std::filesystem;

fs::path durable_scratch(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("omx_durable_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void put(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary) << bytes;
}

ino_t inode(const fs::path& p) {
  struct stat st {};
  EXPECT_EQ(::stat(p.c_str(), &st), 0);
  return st.st_ino;
}

TEST(DurableFile, AppendAddsOneNewlineEndedLine) {
  const fs::path path = durable_scratch("append") / "log.jsonl";
  ASSERT_TRUE(support::append_line_durably(path.string(), "a"));
  const ino_t first = inode(path);
  ASSERT_TRUE(support::append_line_durably(path.string(), "bc"));
  EXPECT_EQ(slurp(path), "a\nbc\n");
  EXPECT_EQ(inode(path), first);
  EXPECT_FALSE(support::append_line_durably(
      (path.parent_path() / "no-such-dir" / "log").string(), "x"));
}

TEST(DurableFile, PublishReplacesTheWholeFileAndLeavesNoTemp) {
  const fs::path dir = durable_scratch("publish");
  const fs::path path = dir / "state";
  put(path, "old contents that are longer\n");
  ASSERT_TRUE(support::publish_file(path.string(), "new\n"));
  EXPECT_EQ(slurp(path), "new\n");
  EXPECT_FALSE(fs::exists(dir / "state.tmp"));
  EXPECT_FALSE(support::publish_file((dir / "absent" / "f").string(), "x"));
  EXPECT_FALSE(fs::exists(dir / "absent"));
}

TEST(DurableFile, RepairKeepsAcceptedLinesAndEndsOnANewline) {
  const fs::path dir = durable_scratch("repair");
  const auto good = [](const std::string& line) {
    return line.rfind("ok", 0) == 0;
  };
  std::size_t dropped = 99;

  // A missing file is empty: nothing to repair, nothing created.
  ASSERT_TRUE(support::repair_lines((dir / "absent").string(), good, &dropped));
  EXPECT_EQ(dropped, 0u);
  EXPECT_FALSE(fs::exists(dir / "absent"));

  // A clean file is left alone (same inode, same bytes).
  const fs::path clean = dir / "clean";
  put(clean, "ok1\nok2\n");
  const ino_t before = inode(clean);
  ASSERT_TRUE(support::repair_lines(clean.string(), good, &dropped));
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(inode(clean), before);
  EXPECT_EQ(slurp(clean), "ok1\nok2\n");

  // Rejected lines go, wherever they sit; the validator sees them in order.
  const fs::path torn = dir / "torn";
  put(torn, "ok1\nbad\nok2\nok3-torn-tail");
  std::vector<std::string> seen;
  ASSERT_TRUE(support::repair_lines(
      torn.string(),
      [&](const std::string& line) {
        seen.push_back(line);
        return line.rfind("ok", 0) == 0 &&
               line.find("torn") == std::string::npos;
      },
      &dropped));
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"ok1", "bad", "ok2",
                                            "ok3-torn-tail"}));
  EXPECT_EQ(slurp(torn), "ok1\nok2\n");

  // An accepted final line without its newline gets one, so the next
  // append cannot be glued onto it.
  const fs::path unterminated = dir / "unterminated";
  put(unterminated, "ok1\nok2");
  ASSERT_TRUE(support::repair_lines(unterminated.string(), good, &dropped));
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(slurp(unterminated), "ok1\nok2\n");
}

TEST(Bits, FieldBits) {
  EXPECT_EQ(field_bits(0), 1u);
  EXPECT_EQ(field_bits(1), 1u);
  EXPECT_EQ(field_bits(2), 2u);
  EXPECT_EQ(field_bits(3), 2u);
  EXPECT_EQ(field_bits(255), 8u);
  EXPECT_EQ(field_bits(256), 9u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1023), 31u);
  EXPECT_EQ(isqrt(1024), 32u);
  for (std::uint64_t x = 0; x < 3000; ++x) {
    const std::uint64_t r = isqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
}

TEST(Prng, DeterministicStreams) {
  Xoshiro256 a(42), b(42), c(43);
  bool differed = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) differed = true;
  }
  EXPECT_TRUE(differed);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 gen(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(gen.below(bound), bound);
    }
  }
  EXPECT_THROW(gen.below(0), PreconditionError);
}

TEST(Prng, BelowIsRoughlyUniform) {
  Xoshiro256 gen(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[gen.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);  // within 10% relative
  }
}

TEST(Prng, Uniform01InRange) {
  Xoshiro256 gen(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, Mix64SeparatesStreams) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(1, 2), mix64(1, 3));
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, Quantiles) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.25), 2.0);
  EXPECT_THROW(quantile_of({}, 0.5), PreconditionError);
  EXPECT_THROW(quantile_of({1.0}, 1.5), PreconditionError);
}

}  // namespace
}  // namespace omx
