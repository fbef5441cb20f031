// The farm's wire layer: endpoint grammar, frame validation (torn/corrupt
// bytes surface as Corrupt with a byte offset, severed links as Closed),
// the flat-JSON wire codec, listeners/dialing over both AF_UNIX and TCP,
// and the deterministic FlakyConn fault-injection decorator.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "farm/transport.h"
#include "support/check.h"

namespace omx::farm {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Endpoint grammar.

TEST(Endpoint, ParsesUnixTcpAndBareHostPort) {
  const Endpoint u = Endpoint::parse("unix:/tmp/farm.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(u.path, "/tmp/farm.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/farm.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:7717");
  EXPECT_EQ(t.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7717);

  // Bare host:port means TCP — the common case for --connect.
  const Endpoint bare = Endpoint::parse("buildbox:9000");
  EXPECT_EQ(bare.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(bare.host, "buildbox");
  EXPECT_EQ(bare.port, 9000);

  EXPECT_EQ(Endpoint::parse("tcp:0.0.0.0:0").port, 0);  // kernel-assigned
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_THROW(Endpoint::parse("unix:"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("justahost"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("host:notaport"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("host:70000"), PreconditionError);
  EXPECT_THROW(Endpoint::parse(":7717"), PreconditionError);
}

// ---------------------------------------------------------------------------
// Framing over a socketpair: one end wrapped, one end raw, so tests can
// inject arbitrary bytes.

struct Pair {
  std::unique_ptr<Conn> conn;  // framed end
  int raw = -1;                // byte-level end

  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn = adopt_fd(fds[0]);
    raw = fds[1];
  }
  ~Pair() {
    if (raw >= 0) ::close(raw);
  }
  void write_raw(const std::string& bytes) {
    ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
};

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hand-rolled frame: magic "OMXF", u32 LE length, u64 LE FNV-1a, payload.
std::string make_frame(const std::string& payload,
                       std::uint32_t length_override = 0xffffffff,
                       std::uint64_t checksum_override = 0,
                       bool override_checksum = false) {
  std::string frame = "OMXF";
  const std::uint32_t length = length_override != 0xffffffff
                                   ? length_override
                                   : static_cast<std::uint32_t>(payload.size());
  const std::uint64_t checksum =
      override_checksum ? checksum_override : fnv1a(payload);
  for (int i = 0; i < 4; ++i) {
    frame += static_cast<char>((length >> (8 * i)) & 0xff);
  }
  for (int i = 0; i < 8; ++i) {
    frame += static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  return frame + payload;
}

TEST(Framing, RoundTripsPayloadsBothWays) {
  Pair pair;
  auto other = adopt_fd(::dup(pair.raw));
  ASSERT_TRUE(pair.conn->send("hello over the wire"));
  ASSERT_TRUE(pair.conn->send(""));  // empty payloads are legal frames
  std::string payload;
  ASSERT_EQ(other->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "hello over the wire");
  ASSERT_EQ(other->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "");

  ASSERT_TRUE(other->send(std::string(100000, 'x')));  // multi-read frame
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload.size(), 100000u);
}

TEST(Framing, ReassemblesFramesDeliveredByteByByte) {
  Pair pair;
  const std::string frame = make_frame("trickled");
  for (const char c : frame) {
    pair.write_raw(std::string(1, c));
  }
  std::string payload;
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "trickled");
}

TEST(Framing, TimeoutWhenNoFrameArrives) {
  Pair pair;
  std::string payload;
  EXPECT_EQ(pair.conn->recv(&payload, 20), RecvStatus::Timeout);
  // Partial header: still a timeout (bytes are kept for later), not Corrupt.
  pair.write_raw("OMX");
  EXPECT_EQ(pair.conn->recv(&payload, 20), RecvStatus::Timeout);
  pair.write_raw(make_frame("late").substr(3));
  EXPECT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "late");
}

TEST(Framing, EofMidFrameIsClosedNotCorrupt) {
  // A severed link loses the tail of a frame: that is MISSING bytes, which
  // must read as Closed (reconnect and resend), never Corrupt (refuse).
  Pair pair;
  pair.write_raw(make_frame("cut off").substr(0, 10));
  ::close(pair.raw);
  pair.raw = -1;
  std::string payload;
  EXPECT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Closed);
}

TEST(Framing, BadMagicIsCorruptAtByteOffsetZero) {
  Pair pair;
  pair.write_raw("GARBAGEGARBAGEGARBAGE");
  std::string payload;
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Corrupt);
  EXPECT_EQ(pair.conn->corrupt_offset(), 0u);
  EXPECT_NE(pair.conn->corrupt_detail().find("magic"), std::string::npos);
  // A corrupt stream has no recoverable framing: the connection is dead.
  EXPECT_EQ(pair.conn->fd(), -1);
}

TEST(Framing, CorruptOffsetCountsConsumedFrames) {
  // One good frame, then garbage: the reported offset is the byte where
  // the bad frame starts (16-byte header + payload of the good one).
  Pair pair;
  const std::string good = make_frame("first frame ok");
  pair.write_raw(good);
  pair.write_raw("XXXXGARBAGEGARBAGE");
  std::string payload;
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "first frame ok");
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Corrupt);
  EXPECT_EQ(pair.conn->corrupt_offset(), good.size());
}

TEST(Framing, ChecksumMismatchIsCorrupt) {
  Pair pair;
  pair.write_raw(make_frame("payload", 0xffffffff, 0xdeadbeef,
                            /*override_checksum=*/true));
  std::string payload;
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Corrupt);
  EXPECT_NE(pair.conn->corrupt_detail().find("checksum"), std::string::npos);
}

TEST(Framing, FlippedPayloadByteIsCorrupt) {
  Pair pair;
  std::string frame = make_frame("a byte of this will flip");
  frame[20] = static_cast<char>(frame[20] ^ 0x40);  // inside the payload
  pair.write_raw(frame);
  std::string payload;
  EXPECT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Corrupt);
}

TEST(Framing, OversizeLengthFieldIsCorruptNotAnAllocation) {
  Pair pair;
  pair.write_raw(make_frame("tiny", kMaxFramePayload + 1));
  std::string payload;
  ASSERT_EQ(pair.conn->recv(&payload, 1000), RecvStatus::Corrupt);
  EXPECT_NE(pair.conn->corrupt_detail().find("cap"), std::string::npos);
}

TEST(Framing, SendRefusesOversizePayloads) {
  Pair pair;
  EXPECT_FALSE(pair.conn->send(std::string(kMaxFramePayload + 1, 'x')));
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(WireCodec, RoundTripsFieldsWithEscapes) {
  const std::string payload = wire::encode(
      {{"type", "result"},
       {"line", "{\"key\":\"ab\",\"error\":\"tab\there\nnewline\"}"},
       {"path", "C:\\odd\\path"}});
  std::map<std::string, std::string> decoded;
  ASSERT_TRUE(wire::decode(payload, &decoded));
  EXPECT_EQ(wire::get(decoded, "type"), "result");
  EXPECT_EQ(wire::get(decoded, "line"),
            "{\"key\":\"ab\",\"error\":\"tab\there\nnewline\"}");
  EXPECT_EQ(wire::get(decoded, "path"), "C:\\odd\\path");
  EXPECT_EQ(wire::get(decoded, "absent"), "");
}

TEST(WireCodec, EveryAsciiByteRoundTrips) {
  // encode escapes with harness::json_escape (control bytes as \u00XX);
  // decode must read back every byte it can write.
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) all += static_cast<char>(c);
  const std::string payload = wire::encode({{all, all}, {"single", "\x1f"}});
  for (const char c : payload) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  EXPECT_NE(payload.find("\\u001f"), std::string::npos) << payload;
  std::map<std::string, std::string> decoded;
  ASSERT_TRUE(wire::decode(payload, &decoded)) << payload;
  EXPECT_EQ(wire::get(decoded, all), all);
  EXPECT_EQ(wire::get(decoded, "single"), "\x1f");
  EXPECT_FALSE(wire::decode("{\"a\":\"\\u00zz\"}", &decoded));
  EXPECT_FALSE(wire::decode("{\"a\":\"\\u0\"}", &decoded));
}

TEST(WireCodec, DecodeRejectsMalformedPayloads) {
  std::map<std::string, std::string> out;
  EXPECT_FALSE(wire::decode("", &out));
  EXPECT_FALSE(wire::decode("not json", &out));
  EXPECT_FALSE(wire::decode("{\"unterminated\":\"", &out));
  EXPECT_FALSE(wire::decode("{\"a\":\"b\"", &out));  // missing brace
  EXPECT_TRUE(wire::decode("{}", &out));
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Listeners and dialing, both backends.

TEST(ListenerDial, UnixEndToEnd) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "omx_transport_test.sock").string();
  Listener listener(Endpoint::parse("unix:" + path));
  auto client = dial(listener.endpoint());
  ASSERT_NE(client, nullptr);
  auto server = listener.accept(1000);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(client->send("ping"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "ping");
  ASSERT_TRUE(server->send("pong"));
  ASSERT_EQ(client->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "pong");
}

TEST(ListenerDial, TcpPortZeroReportsResolvedPort) {
  Listener listener(Endpoint::parse("tcp:127.0.0.1:0"));
  ASSERT_GT(listener.endpoint().port, 0) << "kernel should assign a port";
  auto client = dial(listener.endpoint());
  ASSERT_NE(client, nullptr);
  auto server = listener.accept(1000);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(client->send("over tcp"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 1000), RecvStatus::Ok);
  EXPECT_EQ(payload, "over tcp");
}

TEST(ListenerDial, DialingNobodyReturnsNull) {
  // Dial failure is routine (daemon not up yet) — nullptr, not a throw.
  EXPECT_EQ(dial(Endpoint::parse("tcp:127.0.0.1:1")), nullptr);
  EXPECT_EQ(dial(Endpoint::parse("unix:/nonexistent/no.sock")), nullptr);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.

TEST(ChaosSpecParse, ReadsAllKnobsAndValidates) {
  const ChaosSpec spec =
      ChaosSpec::parse("seed=7,drop=0.2,dup=0.1,delay=0.3:40,sever=0.02");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.drop, 0.2);
  EXPECT_DOUBLE_EQ(spec.dup, 0.1);
  EXPECT_DOUBLE_EQ(spec.delay, 0.3);
  EXPECT_EQ(spec.delay_ms, 40u);
  EXPECT_DOUBLE_EQ(spec.sever, 0.02);
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(ChaosSpec::parse("").any());

  EXPECT_THROW(ChaosSpec::parse("drop=1.5"), PreconditionError);
  EXPECT_THROW(ChaosSpec::parse("dropp=0.5"), PreconditionError);
  EXPECT_THROW(ChaosSpec::parse("nonsense"), PreconditionError);
}

/// Run a fixed send schedule through a FlakyConn and record which sends
/// were dropped/duplicated/severed, as seen by a well-behaved receiver.
struct ChaosTrace {
  std::vector<std::string> received;
  std::uint64_t dropped = 0, duplicated = 0, severed = 0;
};

ChaosTrace run_schedule(const std::string& spec, int sends) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FlakyConn flaky(adopt_fd(fds[0]), ChaosSpec::parse(spec));
  auto receiver = adopt_fd(fds[1]);
  ChaosTrace trace;
  for (int i = 0; i < sends; ++i) {
    (void)flaky.send("frame-" + std::to_string(i));
  }
  std::string payload;
  while (receiver->recv(&payload, 10) == RecvStatus::Ok) {
    trace.received.push_back(payload);
  }
  trace.dropped = flaky.dropped();
  trace.duplicated = flaky.duplicated();
  trace.severed = flaky.severed();
  return trace;
}

TEST(FlakyConn, SameSeedSameSchedule) {
  const std::string spec = "seed=42,drop=0.3,dup=0.2";
  const ChaosTrace a = run_schedule(spec, 50);
  const ChaosTrace b = run_schedule(spec, 50);
  EXPECT_EQ(a.received, b.received) << "chaos must replay deterministically";
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_GT(a.dropped, 0u) << "a 0.3 drop rate over 50 sends must fire";
  EXPECT_GT(a.duplicated, 0u);
  // Every received frame is intact (chaos loses or repeats frames, never
  // mangles bytes — corruption is the checksum tests' department).
  for (const auto& frame : a.received) {
    EXPECT_EQ(frame.rfind("frame-", 0), 0u);
  }
}

TEST(FlakyConn, DifferentSeedsDiverge) {
  const ChaosTrace a = run_schedule("seed=1,drop=0.4", 60);
  const ChaosTrace b = run_schedule("seed=2,drop=0.4", 60);
  EXPECT_NE(a.received, b.received);
}

TEST(FlakyConn, DupDeliversTheFrameTwice) {
  const ChaosTrace t = run_schedule("seed=3,dup=1.0", 3);
  ASSERT_EQ(t.received.size(), 6u);
  EXPECT_EQ(t.received[0], t.received[1]);
  EXPECT_EQ(t.duplicated, 3u);
}

TEST(FlakyConn, SeverClosesTheLink) {
  const ChaosTrace t = run_schedule("seed=5,sever=1.0", 3);
  EXPECT_TRUE(t.received.empty());
  EXPECT_GE(t.severed, 1u);
}

TEST(FlakyConn, RecvDropTurnsAFrameIntoSilence) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto sender = adopt_fd(fds[0]);
  FlakyConn flaky(adopt_fd(fds[1]), ChaosSpec::parse("seed=9,drop=1.0"));
  ASSERT_TRUE(sender->send("will evaporate"));
  std::string payload;
  // The inner frame arrived and validated, but chaos eats it: upstream
  // sees exactly what a lost response looks like — a timeout.
  EXPECT_EQ(flaky.recv(&payload, 200), RecvStatus::Timeout);
}

}  // namespace
}  // namespace omx::farm
