// The body encoding of every trace file (format version 2 — see
// trace/trace.h): the writer encodes, the reader decodes, and nothing else
// touches the bytes.
//
// A flood-heavy trace is overwhelmingly regular: long runs of kSend records
// whose round is constant, whose src is constant per broadcast, whose dst
// ascends by one, and whose payload repeats. The packed body exploits
// exactly that shape — each ring flush becomes one independent *block*:
//
//   u8      kBlockMarker (0xB7)
//   varint  record count
//   varint  body length in bytes
//   u32     FNV-1a checksum of the body bytes (low 32 bits, little-endian)
//   body    six column segments, in record-field order:
//             kind, flags, round, src, dst, payload
//
// Each column segment is a run-length-coded delta stream: pairs of
// (zigzag-varint delta, varint run length), where the delta is against the
// previous record's value *in the same column* and a pair asserts that the
// next `run` records all share that delta. The per-column predecessor
// resets to 0 at every block boundary, so blocks decode independently — a
// torn tail or a flipped bit poisons one block, not the file, and the
// decoder can name the exact byte where things went wrong.
//
// A broadcast run of n sends therefore costs a handful of bytes (six pairs,
// most of them (0, n) or (1, n)) against 24·n raw; the incompressible
// residue is real entropy (rng draw values). Measured on the flood-heavy
// n=1024 workload the ratio clears 20x — comfortably past the >5x target.
//
// Corruption discipline: the decoder validates the marker, the checksum,
// the declared lengths and the run-length bookkeeping before handing out a
// single record, and every failure throws CorruptInputError carrying the
// file path and the byte offset of the offending block — the same contract
// .repro files and the farm's wire frames honour (exit code 5).
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace omx::trace {

/// First byte of every packed block. Not a resynchronization point (blocks
/// are length-prefixed), just a cheap "this is not record debris" tripwire.
inline constexpr std::uint8_t kBlockMarker = 0xB7;

/// Append one varint (LEB128, 7 bits per byte) to `out`.
void put_varint(std::uint64_t v, std::string* out);

/// Zigzag-map a signed delta into varint-friendly space.
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Encode `events` as one self-contained packed block appended to `out`.
/// Encoding is deterministic: the same records always yield the same bytes.
void encode_block(std::span<const Event> events, std::string* out);

/// Incremental, validating decoder for the packed body of a trace file.
/// Feed it the opened file positioned just past the FileHeader; next()
/// returns one decoded block at a time until EOF. Any malformed byte —
/// torn block, checksum mismatch, run-length overrun, trailing debris —
/// throws CorruptInputError naming `path` and the absolute byte offset of
/// the bad block, so tools report exactly where the file went wrong.
class PackedDecoder {
 public:
  /// `offset` is the absolute file position of the first block (i.e. the
  /// header size), used to report absolute offsets in errors.
  PackedDecoder(std::FILE* file, std::string path, std::uint64_t offset);

  /// Decode the next block into `events` (replacing its contents).
  /// Returns false at a clean end of file.
  bool next(std::vector<Event>* events);

  /// Total compressed body bytes consumed so far.
  std::uint64_t consumed() const { return consumed_; }

 private:
  std::FILE* file_;
  std::string path_;
  std::uint64_t offset_;    // absolute file offset of the next block
  std::uint64_t consumed_ = 0;
  std::string body_;        // scratch for the current block's body
};

/// Decode one block body (already checksum-validated) into `events`.
/// Internal helper shared with the tests; throws CorruptInputError with
/// `block_offset` on malformed content.
void decode_block_body(const std::string& body, std::uint64_t n_records,
                       const std::string& path, std::uint64_t block_offset,
                       std::vector<Event>* events);

}  // namespace omx::trace
