// Fault-tolerant message transport for the farm (ROADMAP item 3).
//
// The farm's wire layer is deliberately built in the spirit of the paper's
// omission model: every frame a daemon or worker sends can be lost,
// duplicated, delayed, or the connection severed underneath it — and the
// lease protocol on top (farm.h / remote_worker.h) must still converge to a
// merged results file byte-identical to a single-process sweep. This header
// supplies the three layers that make that testable:
//
//   * Endpoint — "unix:<path>" or "tcp:<host>:<port>" (bare host:port is
//     TCP), so the daemon's worker port and its <dir>/farm.sock share one
//     address grammar and the one protocol above runs unchanged on either
//     backend;
//   * framing — each frame is a 16-byte header (magic "OMXF", little-endian
//     payload length, FNV-1a checksum of the payload) followed by the
//     payload. A torn or bit-flipped frame fails the magic/length/checksum
//     validation and recv() reports Corrupt together with the byte offset
//     of the frame start on that connection — callers surface it (worker:
//     CorruptInputError → exit 5), never act on a wrong payload. A
//     connection that ends mid-frame is Closed, not Corrupt: missing bytes
//     mean a failed link (retry), bad bytes mean a broken peer (refuse);
//   * FlakyConn — a seeded, deterministic fault-injection decorator that
//     drops, duplicates, delays, or severs on a reproducible schedule
//     (xorshift64 over the spec seed), so the network-chaos matrix replays
//     the same misbehavior on every run.
//
// Framed payloads are flat string maps encoded by wire::encode (a minimal
// one-level JSON object). The protocol messages themselves are defined by
// their users: farm.h (daemon side) and remote_worker.h (worker side).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace omx::farm {

/// Monotonic milliseconds (the steady clock): the one clock behind the
/// farm's deadlines — receive timeouts here, lease and backoff deadlines
/// (the daemon's WorkQueue clock), heartbeats and reconnect windows.
std::uint64_t steady_now_ms();

// ---------------------------------------------------------------------------
// Endpoints.

struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;         // unix
  std::string host;         // tcp
  std::uint16_t port = 0;   // tcp (0 = let the kernel pick; see Listener)

  /// Parse "unix:<path>", "tcp:<host>:<port>" or bare "<host>:<port>".
  /// Throws PreconditionError on a malformed spec.
  static Endpoint parse(const std::string& spec);
  std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Frames.

enum class RecvStatus {
  Ok,       // one validated frame returned
  Timeout,  // no complete frame within the deadline (partial data is kept)
  Closed,   // orderly or abrupt EOF (possibly mid-frame: a severed link)
  Corrupt,  // a complete-looking frame failed validation; see corrupt_*()
};

/// One framed, checksummed, bidirectional connection. Concrete connections
/// own an fd (AF_UNIX and TCP share every line of the framing code).
class Conn {
 public:
  virtual ~Conn() = default;

  /// Send one frame (header + payload, single buffered write). Returns
  /// false when the connection is dead; the caller decides whether that
  /// means reconnect (worker) or drop (daemon).
  virtual bool send(std::string_view payload) = 0;

  /// Receive the next frame, waiting up to timeout_ms (0 = only what is
  /// already buffered/readable). On Corrupt, corrupt_offset() is the byte
  /// offset of the offending frame's first byte in this connection's
  /// receive stream and corrupt_detail() says what failed.
  virtual RecvStatus recv(std::string* payload, int timeout_ms) = 0;

  virtual void close() = 0;
  virtual int fd() const = 0;  // for the daemon's poll loop; -1 once closed

  virtual std::uint64_t corrupt_offset() const = 0;
  virtual const std::string& corrupt_detail() const = 0;
};

/// Frame size cap: a corrupted length field must not look like a 4 GiB
/// allocation request. Configs and result lines are tiny; 16 MiB is generous.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Wrap an already-connected fd (socketpair halves in tests, accepted
/// sockets in the daemon) in the framing layer.
std::unique_ptr<Conn> adopt_fd(int fd);

/// Connect to an endpoint. Returns nullptr on failure (connection refused,
/// no listener yet) — dialing is the one operation whose failure is routine.
std::unique_ptr<Conn> dial(const Endpoint& ep);

/// A bound, listening server socket for either endpoint kind.
class Listener {
 public:
  /// Binds and listens. Throws PreconditionError when the address is
  /// unusable. For tcp port 0 the kernel picks; endpoint() reports the
  /// resolved port so callers can publish the real address.
  explicit Listener(const Endpoint& ep);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection, waiting up to timeout_ms. nullptr on timeout.
  std::unique_ptr<Conn> accept(int timeout_ms);

  int fd() const { return fd_; }
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

// ---------------------------------------------------------------------------
// Wire codec: flat string-map payloads as one-level JSON objects.

namespace wire {

/// {"k":"v",...} with JSON string escaping (harness::json_escape);
/// preserves field order.
std::string encode(
    const std::vector<std::pair<std::string, std::string>>& fields);

/// Inverse of encode (harness::parse_flat_json). Returns false on
/// malformed input.
bool decode(const std::string& payload,
            std::map<std::string, std::string>* out);

/// Convenience: out[key] or "" when absent.
std::string get(const std::map<std::string, std::string>& msg,
                const std::string& key);

}  // namespace wire

// ---------------------------------------------------------------------------
// Deterministic fault injection.

/// Parsed from specs like "seed=7,drop=0.2,dup=0.1,delay=0.3:40,sever=0.02":
/// per-frame probabilities (drawn from a seeded xorshift64, so the schedule
/// is a pure function of the spec and the frame sequence) of dropping the
/// frame, sending it twice, sleeping delay_ms before sending, or severing
/// the connection instead of sending. Received frames can be dropped or
/// delayed too (a dropped response surfaces as a timeout upstream, exactly
/// like a lost datagram).
struct ChaosSpec {
  std::uint64_t seed = 1;
  double drop = 0.0;
  double dup = 0.0;
  double delay = 0.0;
  std::uint32_t delay_ms = 20;
  double sever = 0.0;

  bool any() const {
    return drop > 0 || dup > 0 || delay > 0 || sever > 0;
  }
  /// Throws PreconditionError on a malformed spec ("" = all-zero spec).
  static ChaosSpec parse(const std::string& spec);
};

/// The fault-injection decorator: misbehaves deterministically per the
/// spec, in draw order (one xorshift64 stream per connection, consulted
/// once per send and once per receive). Counters let tests assert the
/// schedule actually fired.
class FlakyConn : public Conn {
 public:
  FlakyConn(std::unique_ptr<Conn> inner, const ChaosSpec& spec);

  bool send(std::string_view payload) override;
  RecvStatus recv(std::string* payload, int timeout_ms) override;
  void close() override;
  int fd() const override;
  std::uint64_t corrupt_offset() const override;
  const std::string& corrupt_detail() const override;

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t delayed() const { return delayed_; }
  std::uint64_t severed() const { return severed_; }

 private:
  double next_unit();  // uniform [0,1) from the deterministic stream

  std::unique_ptr<Conn> inner_;
  ChaosSpec spec_;
  std::uint64_t state_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t severed_ = 0;
};

/// dial() + optional FlakyConn wrap when `chaos_spec` is nonempty. Each
/// dial mixes a per-process connection counter into the seed, so a redial
/// gets a fresh (still deterministic) schedule instead of replaying the
/// dead connection's misfortune prefix verbatim — chaos may starve one
/// connection, never the reconnect loop itself.
std::unique_ptr<Conn> dial_with_chaos(const Endpoint& ep,
                                      const std::string& chaos_spec);

}  // namespace omx::farm
