#include "farm/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>

#include "support/check.h"

namespace omx::farm {

namespace {

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr char kMagic[4] = {'O', 'M', 'X', 'F'};
constexpr std::size_t kHeaderSize = 16;  // magic(4) + length(4) + checksum(8)

void put_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

void put_u64(char* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

/// The one concrete connection: framing over any stream fd.
class FdConn final : public Conn {
 public:
  explicit FdConn(int fd) : fd_(fd) {}
  ~FdConn() override { close(); }

  bool send(std::string_view payload) override {
    if (fd_ < 0 || payload.size() > kMaxFramePayload) return false;
    std::string frame(kHeaderSize, '\0');
    std::memcpy(frame.data(), kMagic, sizeof kMagic);
    put_u32(frame.data() + 4, static_cast<std::uint32_t>(payload.size()));
    put_u64(frame.data() + 8, fnv1a(payload));
    frame.append(payload);
    const char* p = frame.data();
    std::size_t left = frame.size();
    while (left > 0) {
      // MSG_NOSIGNAL: a peer that died mid-conversation must surface as a
      // failed send, not a SIGPIPE that kills the daemon.
      const ssize_t wrote = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (wrote <= 0) {
        if (wrote < 0 && errno == EINTR) continue;
        return false;
      }
      p += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
    return true;
  }

  RecvStatus recv(std::string* payload, int timeout_ms) override {
    if (fd_ < 0) return RecvStatus::Closed;
    const std::uint64_t deadline = steady_now_ms() +
                                   static_cast<std::uint64_t>(
                                       timeout_ms > 0 ? timeout_ms : 0);
    for (;;) {
      const RecvStatus parsed = try_parse(payload);
      if (parsed != RecvStatus::Timeout) return parsed;

      const std::uint64_t now = steady_now_ms();
      const int wait = timeout_ms <= 0
                           ? 0
                           : static_cast<int>(deadline > now ? deadline - now
                                                             : 0);
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return RecvStatus::Timeout;

      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof chunk);
      if (got < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::Closed;
      }
      if (got == 0) return RecvStatus::Closed;  // EOF (mid-frame = severed)
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  void close() override {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const override { return fd_; }
  std::uint64_t corrupt_offset() const override { return corrupt_offset_; }
  const std::string& corrupt_detail() const override {
    return corrupt_detail_;
  }

 private:
  /// Try to lift one validated frame out of buf_. Timeout = need more
  /// bytes; Corrupt = the bytes at the head of the stream are not a frame.
  RecvStatus try_parse(std::string* payload) {
    if (buf_.size() < kHeaderSize) return RecvStatus::Timeout;
    const auto corrupt = [&](const std::string& why) {
      corrupt_offset_ = consumed_;
      corrupt_detail_ = why;
      close();  // the stream has no recoverable framing past bad bytes
      return RecvStatus::Corrupt;
    };
    if (std::memcmp(buf_.data(), kMagic, sizeof kMagic) != 0) {
      return corrupt("bad frame magic");
    }
    const std::uint32_t length = get_u32(buf_.data() + 4);
    if (length > kMaxFramePayload) {
      return corrupt("frame length " + std::to_string(length) +
                     " exceeds the " + std::to_string(kMaxFramePayload) +
                     "-byte cap");
    }
    if (buf_.size() < kHeaderSize + length) return RecvStatus::Timeout;
    const std::string_view body(buf_.data() + kHeaderSize, length);
    if (fnv1a(body) != get_u64(buf_.data() + 8)) {
      return corrupt("frame checksum mismatch");
    }
    payload->assign(body);
    buf_.erase(0, kHeaderSize + length);
    consumed_ += kHeaderSize + length;
    return RecvStatus::Ok;
  }

  int fd_;
  std::string buf_;
  std::uint64_t consumed_ = 0;  // bytes of validated frames already lifted
  std::uint64_t corrupt_offset_ = 0;
  std::string corrupt_detail_;
};

int make_unix_socket(const std::string& path, sockaddr_un* addr) {
  OMX_REQUIRE(path.size() < sizeof(addr->sun_path),
              "unix endpoint path too long: " + path);
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

int make_tcp_socket(const Endpoint& ep, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr->sin_addr) != 1) {
    // Resolve a hostname (e.g. "localhost", a peer box's name).
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(ep.host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      return -1;
    }
    addr->sin_addr =
        reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0) {
    // Lease/heartbeat frames are latency-bound, not throughput-bound.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

}  // namespace

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Endpoint.

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  std::string rest = spec;
  if (rest.rfind("unix:", 0) == 0) {
    ep.kind = Kind::Unix;
    ep.path = rest.substr(5);
    OMX_REQUIRE(!ep.path.empty(), "unix endpoint needs a path: " + spec);
    return ep;
  }
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  OMX_REQUIRE(colon != std::string::npos && colon > 0,
              "endpoint must be unix:<path> or [tcp:]<host>:<port>: " + spec);
  ep.kind = Kind::Tcp;
  ep.host = rest.substr(0, colon);
  const std::string port_text = rest.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  OMX_REQUIRE(end != nullptr && *end == '\0' && !port_text.empty() &&
                  port >= 0 && port <= 65535,
              "bad endpoint port: " + spec);
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// Connect / listen.

std::unique_ptr<Conn> adopt_fd(int fd) { return std::make_unique<FdConn>(fd); }

std::unique_ptr<Conn> dial(const Endpoint& ep) {
  int fd = -1;
  if (ep.kind == Endpoint::Kind::Unix) {
    sockaddr_un addr;
    fd = make_unix_socket(ep.path, &addr);
    if (fd < 0) return nullptr;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return nullptr;
    }
  } else {
    sockaddr_in addr;
    fd = make_tcp_socket(ep, &addr);
    if (fd < 0) return nullptr;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  return std::make_unique<FdConn>(fd);
}

Listener::Listener(const Endpoint& ep) : endpoint_(ep) {
  if (ep.kind == Endpoint::Kind::Unix) {
    sockaddr_un addr;
    fd_ = make_unix_socket(ep.path, &addr);
    OMX_REQUIRE(fd_ >= 0, "cannot create unix socket for " + ep.to_string());
    ::unlink(ep.path.c_str());
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd_, 32) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw PreconditionError("cannot listen on " + ep.to_string() + ": " +
                              err);
    }
  } else {
    sockaddr_in addr;
    fd_ = make_tcp_socket(ep, &addr);
    OMX_REQUIRE(fd_ >= 0, "cannot create tcp socket for " + ep.to_string());
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd_, 32) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw PreconditionError("cannot listen on " + ep.to_string() + ": " +
                              err);
    }
    // Port 0: report the port the kernel actually assigned.
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      endpoint_.port = ntohs(bound.sin_port);
    }
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (endpoint_.kind == Endpoint::Kind::Unix) {
    ::unlink(endpoint_.path.c_str());
  }
}

std::unique_ptr<Conn> Listener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return nullptr;
  const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (client < 0) return nullptr;
  if (endpoint_.kind == Endpoint::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return std::make_unique<FdConn>(client);
}

// ---------------------------------------------------------------------------
// Wire codec.

namespace wire {

namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        *out += c;
    }
  }
}

/// Parse a JSON string starting at text[*i] == '"'. Advances *i past the
/// closing quote.
bool parse_string(const std::string& text, std::size_t* i, std::string* out) {
  if (*i >= text.size() || text[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < text.size()) {
    const char c = text[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (c == '\\') {
      ++*i;
      if (*i >= text.size()) return false;
      switch (text[*i]) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case '/':
          *out += '/';
          break;
        default:
          return false;
      }
      ++*i;
      continue;
    }
    *out += c;
    ++*i;
  }
  return false;
}

void skip_ws(const std::string& text, std::size_t* i) {
  while (*i < text.size() &&
         (text[*i] == ' ' || text[*i] == '\t' || text[*i] == '\n' ||
          text[*i] == '\r')) {
    ++*i;
  }
}

}  // namespace

std::string encode(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(&out, k);
    out += "\":\"";
    append_escaped(&out, v);
    out += '"';
  }
  out += '}';
  return out;
}

bool decode(const std::string& payload,
            std::map<std::string, std::string>* out) {
  out->clear();
  std::size_t i = 0;
  skip_ws(payload, &i);
  if (i >= payload.size() || payload[i] != '{') return false;
  ++i;
  skip_ws(payload, &i);
  if (i < payload.size() && payload[i] == '}') return true;  // empty object
  for (;;) {
    std::string key, value;
    skip_ws(payload, &i);
    if (!parse_string(payload, &i, &key)) return false;
    skip_ws(payload, &i);
    if (i >= payload.size() || payload[i] != ':') return false;
    ++i;
    skip_ws(payload, &i);
    if (!parse_string(payload, &i, &value)) return false;
    (*out)[key] = value;
    skip_ws(payload, &i);
    if (i >= payload.size()) return false;
    if (payload[i] == ',') {
      ++i;
      continue;
    }
    if (payload[i] == '}') return true;
    return false;
  }
}

std::string get(const std::map<std::string, std::string>& msg,
                const std::string& key) {
  const auto it = msg.find(key);
  return it == msg.end() ? std::string() : it->second;
}

}  // namespace wire

// ---------------------------------------------------------------------------
// Deterministic fault injection.

ChaosSpec ChaosSpec::parse(const std::string& spec) {
  ChaosSpec out;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part.empty()) continue;
    const auto eq = part.find('=');
    OMX_REQUIRE(eq != std::string::npos,
                "chaos spec entry needs key=value: " + part);
    const std::string key = part.substr(0, eq);
    std::string value = part.substr(eq + 1);
    if (key == "seed") {
      out.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "drop") {
      out.drop = std::strtod(value.c_str(), nullptr);
    } else if (key == "dup") {
      out.dup = std::strtod(value.c_str(), nullptr);
    } else if (key == "sever") {
      out.sever = std::strtod(value.c_str(), nullptr);
    } else if (key == "delay") {
      // "delay=<prob>[:<ms>]"
      const auto colon = value.find(':');
      if (colon != std::string::npos) {
        out.delay_ms = static_cast<std::uint32_t>(
            std::strtoul(value.c_str() + colon + 1, nullptr, 10));
        value.resize(colon);
      }
      out.delay = std::strtod(value.c_str(), nullptr);
    } else {
      throw PreconditionError(
          "unknown chaos spec key '" + key +
          "' (want seed|drop|dup|delay|sever): " + spec);
    }
  }
  const auto unit = [&](double p, const char* what) {
    OMX_REQUIRE(p >= 0.0 && p <= 1.0,
                std::string("chaos ") + what + " must be in [0,1]: " + spec);
  };
  unit(out.drop, "drop");
  unit(out.dup, "dup");
  unit(out.delay, "delay");
  unit(out.sever, "sever");
  return out;
}

namespace {

/// splitmix64 finalizer: adjacent seeds must yield unrelated streams (a
/// bare add-then-or maps seed and seed+1 to the same odd state half the
/// time, which would make "different chaos seeds" silently identical).
std::uint64_t scramble_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;  // xorshift64 needs a nonzero state
}

}  // namespace

FlakyConn::FlakyConn(std::unique_ptr<Conn> inner, const ChaosSpec& spec)
    : inner_(std::move(inner)), spec_(spec), state_(scramble_seed(spec.seed)) {}

double FlakyConn::next_unit() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return static_cast<double>(state_ >> 11) /
         static_cast<double>(1ULL << 53);
}

bool FlakyConn::send(std::string_view payload) {
  const double u = next_unit();
  double edge = spec_.sever;
  if (u < edge) {
    ++severed_;
    inner_->close();
    return false;
  }
  edge += spec_.drop;
  if (u < edge) {
    ++dropped_;
    return true;  // "sent" into the void — the omission adversary's move
  }
  edge += spec_.delay;
  if (u < edge) {
    ++delayed_;
    ::usleep(spec_.delay_ms * 1000);
  }
  edge += spec_.dup;
  if (u < edge) {
    ++duplicated_;
    if (!inner_->send(payload)) return false;
  }
  return inner_->send(payload);
}

RecvStatus FlakyConn::recv(std::string* payload, int timeout_ms) {
  const RecvStatus status = inner_->recv(payload, timeout_ms);
  if (status != RecvStatus::Ok) return status;
  const double u = next_unit();
  double edge = spec_.drop;
  if (u < edge) {
    ++dropped_;
    // The frame evaporates; upstream sees silence, exactly like a lost
    // response, and its timeout/retry machinery takes over.
    return RecvStatus::Timeout;
  }
  edge += spec_.delay;
  if (u < edge) {
    ++delayed_;
    ::usleep(spec_.delay_ms * 1000);
  }
  return RecvStatus::Ok;
}

void FlakyConn::close() { inner_->close(); }
int FlakyConn::fd() const { return inner_->fd(); }
std::uint64_t FlakyConn::corrupt_offset() const {
  return inner_->corrupt_offset();
}
const std::string& FlakyConn::corrupt_detail() const {
  return inner_->corrupt_detail();
}

std::unique_ptr<Conn> dial_with_chaos(const Endpoint& ep,
                                      const std::string& chaos_spec) {
  auto conn = dial(ep);
  if (conn == nullptr || chaos_spec.empty()) return conn;
  // Each dialed connection gets its own stream: mix a per-process dial
  // counter into the seed. Reusing the spec seed verbatim would make every
  // reconnect replay the previous connection's misfortune prefix — a
  // schedule that drops the hello frame would then drop it on every redial,
  // starving the worker forever. The counter is sequential per process, so
  // a whole run is still a pure function of the spec.
  static std::atomic<std::uint64_t> dials{0};
  ChaosSpec spec = ChaosSpec::parse(chaos_spec);
  spec.seed += 0x632be59bd9b4e019ULL * dials.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<FlakyConn>(std::move(conn), spec);
}

}  // namespace omx::farm
