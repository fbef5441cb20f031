// The trace body encoding (trace/codec.h): the >5x compression target on
// flood-heavy traffic, block independence, and the corruption surface of
// the incremental decoder — truncated tails, flipped bytes, bad header
// fields, version-1 files and bad block markers are all CorruptInputError
// with the offending file and a byte offset, never a crash or a silently
// short read.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/check.h"
#include "trace/codec.h"
#include "trace/reader.h"
#include "trace/trace.h"

namespace omx::trace {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_codec_" + name);
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

void spit(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

/// A real trace to compress: an experiment run with the trace attached.
TraceData run_traced(const fs::path& path, harness::Algo algo,
                     harness::Attack attack, std::uint32_t n) {
  harness::ExperimentConfig cfg;
  cfg.algo = algo;
  cfg.attack = attack;
  cfg.n = n;
  cfg.t = n / 8;
  cfg.seed = 7;
  cfg.trace_path = path.string();
  (void)harness::run_experiment(cfg);
  return read_trace(path.string());
}

// ---------------------------------------------------------------------------
// Compression and block independence.

TEST(TraceCodec, FloodTrafficCompressesPastFiveX) {
  const fs::path dir = scratch("ratio");
  const TraceData packed = run_traced(dir / "p.trace", harness::Algo::FloodSet,
                                      harness::Attack::RandomOmission, 128);
  ASSERT_GT(packed.file_bytes, 0u);
  const double ratio = static_cast<double>(packed.raw_bytes()) /
                       static_cast<double>(packed.file_bytes);
  EXPECT_GT(ratio, 5.0) << "raw " << packed.raw_bytes() << " packed "
                        << packed.file_bytes;
}

TEST(TraceCodec, MultiBlockStreamsDecodeBlockIndependently) {
  // Two ring flushes -> two blocks; the second block's deltas must not
  // lean on the first (the decoder resets predecessors per block).
  const fs::path dir = scratch("blocks");
  const fs::path path = dir / "two.trace";
  std::vector<Event> events;
  {
    TraceWriter w(path.string(), 4);
    for (std::uint32_t i = 0; i < TraceWriter::kRingEvents + 100; ++i) {
      const Event e{i, kSend, 0, i % 4, (i + 1) % 4, std::uint64_t{i} * 3};
      events.push_back(e);
      w.emit(e);
    }
    w.close();
  }
  const TraceData t = read_trace(path.string());
  ASSERT_EQ(t.events.size(), events.size());
  EXPECT_EQ(0, std::memcmp(t.events.data(), events.data(),
                           events.size() * sizeof(Event)));
}

// ---------------------------------------------------------------------------
// Corruption surface. Every mutilation is CorruptInputError carrying the
// path and a byte offset (the taxonomy contract: exit 5 via guarded_main).

class PackedCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases as parallel processes,
    // and scratch() starts by wiping the directory it hands out.
    dir_ = scratch(std::string("corrupt_") +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    path_ = dir_ / "p.trace";
    (void)run_traced(path_, harness::Algo::BenOr,
                     harness::Attack::RandomOmission, 24);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), sizeof(FileHeader) + 16);
  }

  /// Expect read_trace(path) to throw with the path and a plausible
  /// offset; returns the error message.
  std::string expect_corrupt(const fs::path& p, std::uint64_t min_offset,
                             std::uint64_t max_offset) {
    try {
      (void)read_trace(p.string());
    } catch (const CorruptInputError& e) {
      EXPECT_EQ(e.path(), p.string());
      EXPECT_GE(e.byte_offset(), min_offset);
      EXPECT_LE(e.byte_offset(), max_offset);
      return e.what();
    }
    ADD_FAILURE() << "read_trace accepted " << p;
    return "";
  }

  fs::path dir_;
  fs::path path_;
  std::string bytes_;
};

TEST_F(PackedCorruption, TruncatedTail) {
  // A kill -9 mid-flush: the final block is cut short. The offset must
  // point into the torn block, not at 0.
  const fs::path torn = dir_ / "torn.trace";
  spit(torn, bytes_.substr(0, bytes_.size() - 9));
  expect_corrupt(torn, sizeof(FileHeader), bytes_.size());
}

TEST_F(PackedCorruption, BitFlippedBody) {
  // Flip one byte in the middle of the block body: the checksum (or, for
  // some flips, a column decode) must catch it.
  const fs::path flipped = dir_ / "flipped.trace";
  std::string b = bytes_;
  b[b.size() / 2] ^= 0x20;
  spit(flipped, b);
  expect_corrupt(flipped, sizeof(FileHeader), bytes_.size());
}

TEST_F(PackedCorruption, BadBlockMarker) {
  const fs::path bad = dir_ / "marker.trace";
  std::string b = bytes_;
  b[sizeof(FileHeader)] = 'X';  // first block's marker byte
  spit(bad, b);
  expect_corrupt(bad, sizeof(FileHeader), sizeof(FileHeader));
}

TEST_F(PackedCorruption, UnknownHeaderFlagBits) {
  // A flag word from the future (or a flipped bit): rejected at the header,
  // offset = the flag field itself.
  const fs::path bad = dir_ / "flags.trace";
  std::string b = bytes_;
  b[offsetof(FileHeader, flags)] |= 0x40;
  spit(bad, b);
  expect_corrupt(bad, offsetof(FileHeader, flags),
                 offsetof(FileHeader, flags));
}

TEST_F(PackedCorruption, PackedFilesCarryVersionTwo) {
  // Version 2 is what makes readers that predate the codec (which validate
  // the version but never validated the then-reserved flag word) reject
  // packed files instead of misparsing the blocks as raw 24-byte records.
  FileHeader h;
  std::memcpy(&h, bytes_.data(), sizeof h);
  EXPECT_EQ(h.version, 2u);
  EXPECT_EQ(h.flags, 1u);
}

TEST_F(PackedCorruption, VersionOneAndClearedFlagAreRefused) {
  // A version-1 header (raw records, no longer read) is refused at the
  // version field, with directions to re-trace; a version-2 header with
  // its flag bit cleared is refused at the flag word.
  const std::uint32_t v1 = 1;
  std::string downgraded = bytes_;
  downgraded.replace(offsetof(FileHeader, version), sizeof v1,
                     reinterpret_cast<const char*>(&v1), sizeof v1);
  downgraded[offsetof(FileHeader, flags)] = 0;
  const fs::path bad_version = dir_ / "downgraded.trace";
  spit(bad_version, downgraded);
  const std::string why =
      expect_corrupt(bad_version, offsetof(FileHeader, version),
                     offsetof(FileHeader, version));
  EXPECT_NE(why.find("omxsim --repro"), std::string::npos) << why;

  std::string unflagged = bytes_;
  unflagged[offsetof(FileHeader, flags)] &= ~0x01;
  const fs::path bad_flags = dir_ / "unflagged.trace";
  spit(bad_flags, unflagged);
  expect_corrupt(bad_flags, offsetof(FileHeader, flags),
                 offsetof(FileHeader, flags));
}

TEST_F(PackedCorruption, ImplausibleRecordCount) {
  // Corrupt the record-count varint to something past the ring capacity.
  const fs::path bad = dir_ / "count.trace";
  std::string b = bytes_;
  // marker | varint count … — make the count varint huge (5 x 0xff + 0x7f).
  b.replace(sizeof(FileHeader) + 1, 1, 1, '\xff');
  spit(bad, b);
  expect_corrupt(bad, sizeof(FileHeader), bytes_.size());
}

}  // namespace
}  // namespace omx::trace
