// Event-level execution tracing: the record format and the writer.
//
// The engine's Metrics are end-of-run aggregates; debugging a wrong scaling
// exponent or a determinism break needs the events themselves: who sent
// what, what the adversary dropped, which coins were drawn, who decided
// when. A trace is a stream of fixed-width 24-byte records, stored behind a
// 24-byte header as packed blocks (trace/codec.h), so a run's observable
// history can be diffed with cmp, replayed by omxtrace, and compared across
// thread counts byte for byte.
//
// Bit-identity invariant (the whole point of the format): the event stream
// of a run is a pure function of the ExperimentConfig — independent of the
// engine's worker-lane count. The engine guarantees this by emitting each
// round's events in a canonical order:
//
//   kRoundBegin
//   kRngDraw*    in ascending process id (per-process staging in RngTap,
//                drained after the compute phase; shard order == id order)
//   kCorrupt*    in ascending process id (processes newly corrupted by this
//                round's intervention)
//   (kSend | kDrop)*  in wire-record order — already canonical, because
//                staged shard logs are stitched onto the wire in ascending shard order
//   ...
//   kFinish      once, after the last round
//   kDecide*     in ascending process id (appended post-run; their `round`
//                field is the decision round, so they are the one place the
//                stream's round numbers are non-monotone)
//
// The header is written in host byte order (its version field makes
// cross-endian misreads fail loudly). The writer batches events in a
// fixed-capacity ring and encodes each flush as one block; its destructor
// closes the file, so a run killed by an engine exception (e.g.
// AdversaryViolation) still leaves a readable trace of everything up to the
// violation — exactly the runs worth tracing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace omx::trace {

// Event kinds and their field conventions (src / dst / payload):
//   kRoundBegin  —            /              /
//   kRngDraw     src=process  / dst=bits in the call / payload=drawn value
//   kCorrupt     src=process  / dst=corrupted total after this corruption /
//   kSend        src=sender   / dst=receiver / payload=payload bit size
//   kDrop        src=sender   / dst=receiver / payload=wire index (follows
//                the kSend it annuls)
//   kFinish      src=reason (0 finished, 1 round cap, 2 deadline) /
//                             /              payload=total rounds
//   kDecide      src=process  / dst=decided value / payload=decision round
inline constexpr std::uint16_t kRoundBegin = 1;
inline constexpr std::uint16_t kRngDraw = 2;
inline constexpr std::uint16_t kCorrupt = 3;
inline constexpr std::uint16_t kSend = 4;
inline constexpr std::uint16_t kDrop = 5;
inline constexpr std::uint16_t kFinish = 6;
inline constexpr std::uint16_t kDecide = 7;
inline constexpr std::uint16_t kMaxKind = 7;

/// One fixed-width trace record: the unit the codec's columns split up.
struct Event {
  std::uint32_t round = 0;
  std::uint16_t kind = 0;
  std::uint16_t flags = 0;  // reserved, always 0
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t payload = 0;

  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(sizeof(Event) == 24, "trace records are 24 bytes wide");
static_assert(std::is_trivially_copyable_v<Event>,
              "trace records are copied as raw bytes");

inline constexpr char kMagic[8] = {'O', 'M', 'X', 'T', 'R', 'A', 'C', 'E'};

/// The one format version. Version 1 stored naked 24-byte records and is
/// no longer read; version 2 stores the body as packed blocks (see
/// trace/codec.h). A reader that meets any other version refuses the file
/// at the version field rather than guess at its body.
inline constexpr std::uint32_t kFormatVersion = 2;

/// The one header flag word, stored in FileHeader::flags: bit 0, set since
/// version 2 marked a packed body. Any other value is an unknown format
/// extension and readers refuse it as corrupt input rather than misparse
/// the body.
inline constexpr std::uint64_t kHeaderFlags = std::uint64_t{1} << 0;

/// The 24-byte file header preceding the record stream.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t n;      // process count of the traced system
  std::uint64_t flags;  // always kHeaderFlags
};
static_assert(sizeof(FileHeader) == 24, "trace header is 24 bytes on disk");
static_assert(std::is_trivially_copyable_v<FileHeader>,
              "trace header is written/read as raw bytes");

/// Ring-buffered trace sink. Not thread-safe: the engine emits only from
/// its coordinating thread (worker-side events are staged per process and
/// drained at the shard barrier — see RngTap).
class TraceWriter {
 public:
  /// Events batched per flush, each flush one packed block (64Ki records).
  static constexpr std::size_t kRingEvents = std::size_t{1} << 16;

  /// Opens `path` for writing and emits the header. Throws
  /// PreconditionError if the file cannot be created.
  TraceWriter(std::string path, std::uint32_t n);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Append one record (the engine's hot path: one branch + one 24-byte
  /// store while the ring has room).
  void emit(const Event& e) {
    if (used_ == ring_.size()) flush_ring();
    ring_[used_++] = e;
    ++emitted_;
  }

  /// Flush the ring and close the file. Idempotent; called by the
  /// destructor, which additionally swallows I/O errors (it may run during
  /// the unwind of the engine exception that made the trace interesting).
  void close();

  std::uint64_t emitted() const { return emitted_; }
  const std::string& path() const { return path_; }

 private:
  void flush_ring();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<Event> ring_;
  std::size_t used_ = 0;
  std::uint64_t emitted_ = 0;
  std::string pack_buffer_;  // reused scratch for the encoded block
};

}  // namespace omx::trace
