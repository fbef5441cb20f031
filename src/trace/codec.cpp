#include "trace/codec.h"

#include <cstring>

#include "support/check.h"

namespace omx::trace {

namespace {

/// FNV-1a over the body bytes, truncated to 32 bits. Cheap, deterministic,
/// and enough to make a flipped varint bit a loud checksum mismatch rather
/// than a silently different decode.
std::uint32_t body_checksum(const std::string& body) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : body) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Column accessors in segment order: kind, flags, round, src, dst, payload.
using ColumnGet = std::uint64_t (*)(const Event&);
using ColumnSet = void (*)(Event*, std::uint64_t);

constexpr ColumnGet kGetters[6] = {
    [](const Event& e) { return std::uint64_t{e.kind}; },
    [](const Event& e) { return std::uint64_t{e.flags}; },
    [](const Event& e) { return std::uint64_t{e.round}; },
    [](const Event& e) { return std::uint64_t{e.src}; },
    [](const Event& e) { return std::uint64_t{e.dst}; },
    [](const Event& e) { return e.payload; },
};
constexpr ColumnSet kSetters[6] = {
    [](Event* e, std::uint64_t v) { e->kind = static_cast<std::uint16_t>(v); },
    [](Event* e, std::uint64_t v) { e->flags = static_cast<std::uint16_t>(v); },
    [](Event* e, std::uint64_t v) { e->round = static_cast<std::uint32_t>(v); },
    [](Event* e, std::uint64_t v) { e->src = static_cast<std::uint32_t>(v); },
    [](Event* e, std::uint64_t v) { e->dst = static_cast<std::uint32_t>(v); },
    [](Event* e, std::uint64_t v) { e->payload = v; },
};

/// Field widths (bytes) per column, used to reject deltas that decode to a
/// value the field cannot hold — a symptom of corruption that survived the
/// checksum only if the checksum itself was also hit.
constexpr unsigned kWidths[6] = {2, 2, 4, 4, 4, 8};

/// Pull one varint out of `body` at `*pos`. Returns false on truncation or
/// a varint longer than 10 bytes (64 bits of payload).
bool get_varint(const std::string& body, std::size_t* pos, std::uint64_t* v) {
  std::uint64_t out = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (*pos >= body.size()) return false;
    const auto byte = static_cast<std::uint8_t>(body[(*pos)++]);
    out |= std::uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80u) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

}  // namespace

void put_varint(std::uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void encode_block(std::span<const Event> events, std::string* out) {
  if (events.empty()) return;
  std::string body;
  // Flood traces make each column a few long runs, so reserving one byte
  // per record is already generous.
  body.reserve(events.size() + 64);
  for (int col = 0; col < 6; ++col) {
    const ColumnGet get = kGetters[col];
    std::uint64_t prev = 0;
    std::size_t i = 0;
    while (i < events.size()) {
      const std::uint64_t value = get(events[i]);
      const std::int64_t delta =
          static_cast<std::int64_t>(value - prev);  // wrapping on purpose
      std::size_t run = 1;
      std::uint64_t run_prev = value;
      while (i + run < events.size()) {
        const std::uint64_t next = get(events[i + run]);
        if (static_cast<std::int64_t>(next - run_prev) != delta) break;
        run_prev = next;
        ++run;
      }
      put_varint(zigzag(delta), &body);
      put_varint(run, &body);
      prev = run_prev;
      i += run;
    }
  }
  out->push_back(static_cast<char>(kBlockMarker));
  put_varint(events.size(), out);
  put_varint(body.size(), out);
  const std::uint32_t sum = body_checksum(body);
  out->append(reinterpret_cast<const char*>(&sum), sizeof sum);
  out->append(body);
}

void decode_block_body(const std::string& body, std::uint64_t n_records,
                       const std::string& path, std::uint64_t block_offset,
                       std::vector<Event>* events) {
  events->assign(n_records, Event{});
  std::size_t pos = 0;
  for (int col = 0; col < 6; ++col) {
    const ColumnSet set = kSetters[col];
    const std::uint64_t max_value =
        kWidths[col] == 8 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (8 * kWidths[col])) - 1;
    std::uint64_t prev = 0;
    std::uint64_t filled = 0;
    while (filled < n_records) {
      std::uint64_t zz = 0, run = 0;
      if (!get_varint(body, &pos, &zz) || !get_varint(body, &pos, &run)) {
        throw CorruptInputError(path, block_offset,
                                "packed block body ends mid-column " +
                                    std::to_string(col));
      }
      if (run == 0 || run > n_records - filled) {
        throw CorruptInputError(
            path, block_offset,
            "packed block run length " + std::to_string(run) +
                " overruns column " + std::to_string(col) + " (" +
                std::to_string(n_records - filled) + " record(s) left)");
      }
      const std::int64_t delta = unzigzag(zz);
      for (std::uint64_t k = 0; k < run; ++k) {
        prev += static_cast<std::uint64_t>(delta);
        if (prev > max_value) {
          throw CorruptInputError(
              path, block_offset,
              "packed block value " + std::to_string(prev) +
                  " overflows column " + std::to_string(col));
        }
        set(&(*events)[filled + k], prev);
      }
      filled += run;
    }
  }
  if (pos != body.size()) {
    throw CorruptInputError(path, block_offset,
                            "packed block has " +
                                std::to_string(body.size() - pos) +
                                " trailing byte(s) after its columns");
  }
}

PackedDecoder::PackedDecoder(std::FILE* file, std::string path,
                             std::uint64_t offset)
    : file_(file), path_(std::move(path)), offset_(offset) {}

bool PackedDecoder::next(std::vector<Event>* events) {
  const std::uint64_t block_offset = offset_;
  int first = std::fgetc(file_);
  if (first == EOF) return false;  // clean end of stream
  if (static_cast<std::uint8_t>(first) != kBlockMarker) {
    throw CorruptInputError(path_, block_offset,
                            "expected packed block marker, found byte " +
                                std::to_string(first));
  }
  // The two length varints are read byte-by-byte from the file; anything
  // torn here is a truncated block header.
  auto read_varint = [&](std::uint64_t* v) {
    std::uint64_t out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const int c = std::fgetc(file_);
      if (c == EOF) return false;
      out |= std::uint64_t{static_cast<std::uint8_t>(c) & 0x7fu} << shift;
      if ((static_cast<std::uint8_t>(c) & 0x80u) == 0) {
        *v = out;
        return true;
      }
    }
    return false;
  };
  std::uint64_t n_records = 0, body_len = 0;
  if (!read_varint(&n_records) || !read_varint(&body_len)) {
    throw CorruptInputError(path_, block_offset,
                            "packed block header torn mid-varint");
  }
  // Blocks are ring flushes, so a well-formed block never exceeds the
  // writer's ring capacity — a bigger claim is corruption, not data.
  if (n_records == 0 || n_records > TraceWriter::kRingEvents) {
    throw CorruptInputError(path_, block_offset,
                            "packed block claims implausible record count " +
                                std::to_string(n_records));
  }
  // Six columns, at least one (delta, run) pair each, so 12 bytes minimum;
  // and an RLE'd body can never beat one pair per record per column by
  // being *larger* than the raw records it encodes.
  if (body_len < 12 || body_len > n_records * sizeof(Event) * 2) {
    throw CorruptInputError(path_, block_offset,
                            "packed block claims implausible body length " +
                                std::to_string(body_len));
  }
  std::uint32_t want_sum = 0;
  if (std::fread(&want_sum, sizeof want_sum, 1, file_) != 1) {
    throw CorruptInputError(path_, block_offset,
                            "packed block truncated before its checksum");
  }
  body_.resize(body_len);
  if (std::fread(body_.data(), 1, body_len, file_) != body_len) {
    throw CorruptInputError(path_, block_offset,
                            "packed block body truncated (wanted " +
                                std::to_string(body_len) + " byte(s))");
  }
  const std::uint32_t got_sum = body_checksum(body_);
  if (got_sum != want_sum) {
    throw CorruptInputError(path_, block_offset,
                            "packed block checksum mismatch (stored " +
                                std::to_string(want_sum) + ", computed " +
                                std::to_string(got_sum) + ")");
  }
  decode_block_body(body_, n_records, path_, block_offset, events);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Event& e = (*events)[i];
    if (!(e.kind >= 1 && e.kind <= kMaxKind)) {
      throw CorruptInputError(path_, block_offset,
                              "packed record " + std::to_string(i) +
                                  " in this block has unknown kind " +
                                  std::to_string(e.kind));
    }
  }
  // marker + varints + checksum + body
  std::uint64_t header_bytes = 1 + sizeof want_sum;
  for (std::uint64_t v : {n_records, body_len}) {
    do {
      ++header_bytes;
      v >>= 7;
    } while (v != 0);
  }
  offset_ += header_bytes + body_len;
  consumed_ += header_bytes + body_len;
  return true;
}

}  // namespace omx::trace
