// Error handling primitives.
//
// The simulator is a measurement instrument: a violated invariant means the
// experiment is invalid, so we fail loudly (throw) rather than continue with
// corrupt state. OMX_CHECK is used for model/protocol invariants that must
// hold in every legal execution; OMX_REQUIRE for public-API preconditions.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace omx {

/// Thrown when a public-API precondition is violated (caller bug).
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant of the simulator or a protocol breaks.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an adversary attempts an action the fault model forbids
/// (dropping a message between two non-corrupted processes, exceeding the
/// corruption budget t, dropping a self-delivery, ...).
class AdversaryViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an *input file* (a .trace, a .repro, a checkpoint handed to
/// a CLI) is unreadable or fails validation. Derives from PreconditionError
/// so existing "bad input throws" contracts keep holding, but carries the
/// path and the byte offset of the first bad record so tools can report
/// exactly where a file went wrong — and guarded_main maps it to its own
/// exit code (5) distinct from a caller-bug precondition (2).
class CorruptInputError : public PreconditionError {
 public:
  CorruptInputError(std::string path, std::uint64_t byte_offset,
                    const std::string& detail)
      : PreconditionError("corrupt input: " + path + ": " + detail +
                          " (first bad record at byte offset " +
                          std::to_string(byte_offset) + ")"),
        path_(std::move(path)),
        byte_offset_(byte_offset) {}

  const std::string& path() const { return path_; }
  std::uint64_t byte_offset() const { return byte_offset_; }

 private:
  std::string path_;
  std::uint64_t byte_offset_;
};

namespace detail {
/// A precondition failure is the caller's to read: its text is the message
/// alone (the expression only when there is no message), so CLI errors and
/// recorded trial outcomes carry no build paths or C++. An invariant
/// failure is a simulator bug: it names the expression and its location,
/// repo-relative (the build maps __FILE__'s prefix away).
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  if (std::string(kind) == "OMX_REQUIRE") {
    throw PreconditionError(msg.empty() ? std::string(expr) : msg);
  }
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}
}  // namespace detail

}  // namespace omx

#define OMX_REQUIRE(cond, msg)                                              \
  do {                                                                      \
    if (!(cond))                                                            \
      ::omx::detail::throw_check_failure("OMX_REQUIRE", #cond, __FILE__,    \
                                         __LINE__, (msg));                  \
  } while (false)

#define OMX_CHECK(cond, msg)                                                \
  do {                                                                      \
    if (!(cond))                                                            \
      ::omx::detail::throw_check_failure("OMX_CHECK", #cond, __FILE__,      \
                                         __LINE__, (msg));                  \
  } while (false)
