// Event-level execution tracing: the binary record format and the writer.
//
// The engine's Metrics are end-of-run aggregates; debugging a wrong scaling
// exponent or a determinism break needs the events themselves: who sent
// what, what the adversary dropped, which coins were drawn, who decided
// when. A trace is a flat stream of fixed-width 24-byte records behind a
// 24-byte header, so a run's observable history can be diffed with cmp,
// replayed by omxtrace, and compared across thread counts byte for byte.
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
// Records are written in host byte order (the header's version field makes
// cross-endian misreads fail loudly). The writer batches events in a
// fixed-capacity ring that is flushed when full and on close; its
// destructor closes the file, so a run killed by an engine exception (e.g.
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

/// One fixed-width trace record. Plain old data, written to disk verbatim.
struct Event {
  std::uint32_t round = 0;
  std::uint16_t kind = 0;
  std::uint16_t flags = 0;  // reserved, always 0 in format version 1
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t payload = 0;

  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(sizeof(Event) == 24, "trace records are 24 bytes on disk");
static_assert(std::is_trivially_copyable_v<Event>,
              "trace records are written/read as raw bytes");

inline constexpr char kMagic[8] = {'O', 'M', 'X', 'T', 'R', 'A', 'C', 'E'};

/// Format versions. Version 1 is the original raw layout: the header
/// followed by naked 24-byte records. Version 2 is a *packed* body — a
/// sequence of self-contained compressed blocks (see trace/codec.h).
/// Packed files bump the version rather than only setting a flag bit
/// because version-1 readers predating the codec never validated the
/// (then-reserved) flag word: a flag-only marker would let them misparse
/// a compressed body as raw records, while an unknown version is rejected
/// by every reader ever shipped.
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kFormatVersionPacked = 2;

/// Header flag bits, stored in FileHeader::flags. Bit 0 marks a packed
/// body and is set exactly when version == kFormatVersionPacked (readers
/// reject a header where the two disagree). Any other bit set is an
/// unknown format extension and readers must refuse it as corrupt input
/// rather than misparse the body.
inline constexpr std::uint64_t kHeaderFlagPacked = std::uint64_t{1} << 0;
inline constexpr std::uint64_t kHeaderKnownFlags = kHeaderFlagPacked;

/// The 24-byte file header preceding the record stream.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t n;      // process count of the traced system
  std::uint64_t flags;  // kHeaderFlag* bits; 0 = raw fixed-width records
};
static_assert(sizeof(FileHeader) == 24, "trace header is 24 bytes on disk");
static_assert(std::is_trivially_copyable_v<FileHeader>,
              "trace header is written/read as raw bytes");

/// Ring-buffered trace sink. Not thread-safe: the engine emits only from
/// its coordinating thread (worker-side events are staged per process and
/// drained at the shard barrier — see RngTap).
class TraceWriter {
 public:
  /// Events batched between fwrite flushes (64Ki records = 1.5 MiB).
  static constexpr std::size_t kRingEvents = std::size_t{1} << 16;

  /// Opens `path` for writing and emits the header. With `packed`, the
  /// body is written as compressed blocks (one per ring flush — see
  /// trace/codec.h) and the header carries kHeaderFlagPacked; the record
  /// *stream* is identical either way, only the bytes on disk differ.
  /// Throws PreconditionError if the file cannot be created.
  TraceWriter(std::string path, std::uint32_t n, bool packed = false);
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
  bool packed() const { return packed_; }

 private:
  void flush_ring();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<Event> ring_;
  std::size_t used_ = 0;
  std::uint64_t emitted_ = 0;
  bool packed_ = false;
  std::string pack_buffer_;  // reused scratch for packed flushes
};

}  // namespace omx::trace
