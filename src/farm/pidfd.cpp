#include "farm/pidfd.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace omx::farm {

namespace {

/// Longest a poll may sleep while a child it waits for has no pidfd.
constexpr int kUnwatchedChildPollMs = 20;

}  // namespace

// glibc 2.36's <sys/pidfd.h> declares pidfd_open without extern "C", so
// C++ cannot link against it; the raw syscall has no such problem. The
// kernel sets close-on-exec on every pidfd.
PidFd::PidFd(pid_t pid)
    : fd_(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0))) {
  if (fd_ < 0) fd_ = -1;
}

PidFd::PidFd(PidFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

PidFd& PidFd::operator=(PidFd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

int PidFd::cap_timeout(int ms) const {
  if (fd_ >= 0) return ms;
  return ms < 0 ? kUnwatchedChildPollMs : std::min(ms, kUnwatchedChildPollMs);
}

void PidFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace omx::farm
