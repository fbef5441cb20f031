#include "trace/trace.h"

#include <cstring>

#include "support/check.h"
#include "trace/codec.h"

namespace omx::trace {

TraceWriter::TraceWriter(std::string path, std::uint32_t n)
    : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb");
  OMX_REQUIRE(file_ != nullptr, "trace: cannot open " + path_ + " for writing");
  ring_.resize(kRingEvents);
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kFormatVersion;
  header.n = n;
  header.flags = kHeaderFlags;
  const std::size_t wrote = std::fwrite(&header, sizeof header, 1, file_);
  OMX_CHECK(wrote == 1, "trace: short header write to " + path_);
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (...) {
    // Closing during the unwind of an engine exception: keep whatever the
    // earlier flushes persisted, never replace the real failure.
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }
}

void TraceWriter::close() {
  if (file_ == nullptr) return;
  flush_ring();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  OMX_CHECK(rc == 0, "trace: cannot close " + path_);
}

void TraceWriter::flush_ring() {
  if (used_ == 0) return;
  // One self-contained block per flush: a killed writer tears at most the
  // final block, and the decoder names its offset (see trace/codec.h).
  pack_buffer_.clear();
  encode_block({ring_.data(), used_}, &pack_buffer_);
  const std::size_t wrote =
      std::fwrite(pack_buffer_.data(), 1, pack_buffer_.size(), file_);
  OMX_CHECK(wrote == pack_buffer_.size(), "trace: short write to " + path_);
  used_ = 0;
}

}  // namespace omx::trace
