// Owning handle to a Linux pidfd (pidfd_open(2)): a file descriptor that
// polls readable once the process it names has exited. The farm daemon and
// the remote worker open one for every child they fork, right after fork,
// and wait for the child's exit in poll(2) beside their sockets instead of
// re-checking waitpid(WNOHANG) on a timer.
//
// pidfd_open needs Linux 5.3. Where it fails (an older kernel, EMFILE) the
// holder stays empty and cap_timeout() bounds its owner's poll so the
// owner still re-checks the child every few milliseconds: error handling,
// not a second reaping path — the child is reaped the same way either way.
#pragma once

#include <sys/types.h>

namespace omx::farm {

class PidFd {
 public:
  PidFd() = default;
  /// Opens a pidfd for `pid`; empty (fd() == -1) if pidfd_open fails.
  explicit PidFd(pid_t pid);
  ~PidFd() { reset(); }
  PidFd(PidFd&& other) noexcept;
  PidFd& operator=(PidFd&& other) noexcept;
  PidFd(const PidFd&) = delete;
  PidFd& operator=(const PidFd&) = delete;

  /// The pidfd, or -1 when empty. poll(2) ignores a negative fd, so an
  /// empty holder can sit in a pollfd array and just never fire.
  int fd() const { return fd_; }
  /// A poll(2) timeout (-1 = none) that still sees this child exit: `ms`
  /// itself while the pidfd can wake the poll, otherwise at most the
  /// fallback re-check interval.
  int cap_timeout(int ms) const;
  void reset();

 private:
  int fd_ = -1;
};

}  // namespace omx::farm
