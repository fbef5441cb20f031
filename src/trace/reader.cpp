#include "trace/reader.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>

#include "support/check.h"
#include "trace/codec.h"

namespace omx::trace {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
}  // namespace

// Every validation failure throws CorruptInputError carrying the path and
// the byte offset of the bad header field or block, so `omxtrace` reports
// exactly where a file went wrong and exits with the corrupt-input code (5)
// instead of a generic failure.
TraceData read_trace(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    throw CorruptInputError(path, 0, "cannot open trace file");
  }

  TraceData data;
  if (std::fread(&data.header, sizeof data.header, 1, file.get()) != 1) {
    throw CorruptInputError(path, 0, "too short to hold a trace header");
  }
  if (std::memcmp(data.header.magic, kMagic, sizeof kMagic) != 0) {
    throw CorruptInputError(path, 0, "not a trace file (bad magic)");
  }
  if (data.header.version != kFormatVersion) {
    throw CorruptInputError(
        path, offsetof(FileHeader, version),
        "format version " + std::to_string(data.header.version) +
            ", expected " + std::to_string(kFormatVersion) +
            (data.header.version == 1
                 ? " (version 1 stored raw records, which are no longer "
                   "read; runs are deterministic, so `omxsim --repro "
                   "<capture> --trace <path>` or the original command line "
                   "writes the same events again)"
                 : " (or the file was written on a different-endian "
                   "machine)"));
  }
  if (data.header.flags != kHeaderFlags) {
    // Unknown flag bits mean an unknown body layout: reading the blocks
    // anyway would silently misparse, so fail at the flag word instead.
    char bits[64];
    std::snprintf(bits, sizeof bits, "0x%llx, expected 0x%llx",
                  static_cast<unsigned long long>(data.header.flags),
                  static_cast<unsigned long long>(kHeaderFlags));
    throw CorruptInputError(path, offsetof(FileHeader, flags),
                            std::string("header flags ") + bits);
  }

  OMX_REQUIRE(std::fseek(file.get(), 0, SEEK_END) == 0,
              "trace: cannot seek in " + path);
  const long end = std::ftell(file.get());
  OMX_REQUIRE(end >= 0, "trace: cannot tell file size of " + path);
  data.file_bytes = static_cast<std::uint64_t>(end);
  OMX_REQUIRE(std::fseek(file.get(), sizeof data.header, SEEK_SET) == 0,
              "trace: cannot seek in " + path);

  // Incremental block decode: each block is validated (marker, lengths,
  // checksum, run-length bookkeeping) before its records are kept, and
  // corruption is reported at the offending block's byte offset.
  PackedDecoder decoder(file.get(), path, sizeof data.header);
  std::vector<Event> block;
  while (decoder.next(&block)) {
    data.events.insert(data.events.end(), block.begin(), block.end());
  }
  return data;
}

}  // namespace omx::trace
