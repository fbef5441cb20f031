// The one durable-write layer: every file the program persists — sweep
// checkpoints, farm shards, the remote worker's spool, merged results,
// metadata and indexes, search state, .repro captures — is written through
// exactly one of these three helpers, so "what does a kill -9 leave
// behind?" has three answers, not one per file:
//
//   * append_line_durably — a line-oriented log grows by one line (one
//     O_APPEND write(2), then fsync). A kill mid-write can leave at most a
//     torn final line, which the log's reader drops and repair_lines
//     removes before the next append;
//   * publish_file — a whole file is replaced atomically (write
//     `<path>.tmp`, fsync, rename): a reader sees the old file or the new
//     one, never a half-written one;
//   * repair_lines — keep the lines a validator accepts and publish the
//     result, so the next append starts on a clean line boundary.
//
// Each returns false (never throws) on an I/O failure; the caller decides
// whether that voids its contract.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace omx::support {

/// Append `line` plus a newline to `path` (created if missing) and fsync:
/// the record is durable before the caller advances its state machine.
bool append_line_durably(const std::string& path, const std::string& line);

/// Replace `path` with `content` atomically and durably: write
/// `<path>.tmp`, fsync it, rename it over `path`.
bool publish_file(const std::string& path, const std::string& content);

/// Call `keep` on every line of `path` in file order (a final line without
/// its newline included) and, when it rejected any line or the file does
/// not end in a newline, publish the accepted lines, each newline-ended.
/// A missing file is empty. Sets *dropped to the number of rejected lines;
/// returns false only when the repaired file could not be published.
bool repair_lines(const std::string& path,
                  const std::function<bool(const std::string&)>& keep,
                  std::size_t* dropped);

}  // namespace omx::support
