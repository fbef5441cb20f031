// Trace-file loading: the read side of trace/trace.h's format. The packed
// blocks of the body (trace/codec.h) decode to one flat event stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace omx::trace {

/// A fully loaded trace: validated header + flat event stream.
struct TraceData {
  FileHeader header{};
  std::vector<Event> events;
  std::uint64_t file_bytes = 0;  // on-disk size, incl. header

  /// Size of the stream as fixed-width records behind the header; the pack
  /// ratio is raw_bytes() / file_bytes.
  std::uint64_t raw_bytes() const {
    return sizeof(FileHeader) + events.size() * sizeof(Event);
  }
};

/// Load `path`, validating magic, format version, header flags, block
/// checksums and event kinds. Throws CorruptInputError (exit 5 via
/// guarded_main) with the byte offset of the first bad header field or
/// block on a missing, foreign, old-format, truncated or bit-flipped file —
/// analysis code can assume a loaded trace is well-formed.
TraceData read_trace(const std::string& path);

}  // namespace omx::trace
