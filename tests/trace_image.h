// The fixed-width image of a trace, for the golden suites: the header of
// format version 1 (magic, version 1, n, flags 0) followed by the decoded
// 24-byte records. Version 1 stored exactly these bytes on disk, so hashing
// the image of a packed trace reproduces the literals pinned over the raw
// files, and the goldens keep freezing the event stream, not its encoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "trace/reader.h"
#include "trace/trace.h"

namespace omx {

/// FNV-1a over the fixed-width image of the trace at `path`.
inline std::uint64_t fnv1a_fixed_width_image(const std::string& path) {
  const trace::TraceData t = trace::read_trace(path);
  trace::FileHeader header{};
  std::memcpy(header.magic, trace::kMagic, sizeof trace::kMagic);
  header.version = 1;
  header.n = t.header.n;
  header.flags = 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  fold(&header, sizeof header);
  fold(t.events.data(), t.events.size() * sizeof(trace::Event));
  return h;
}

}  // namespace omx
