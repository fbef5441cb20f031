#include "support/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace omx::support {

namespace {

bool write_all(int fd, const char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t wrote = ::write(fd, p, len);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    p += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Open `path` with `flags`, write `data`, fsync, close.
bool write_durably(const std::string& path, int flags,
                   const std::string& data) {
  const int fd = ::open(path.c_str(), flags | O_WRONLY | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data.data(), data.size()) && ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

}  // namespace

bool append_line_durably(const std::string& path, const std::string& line) {
  return write_durably(path, O_APPEND, line + "\n");
}

bool publish_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (!write_durably(tmp, O_TRUNC, content) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool repair_lines(const std::string& path,
                  const std::function<bool(const std::string&)>& keep,
                  std::size_t* dropped) {
  *dropped = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return true;  // nothing written yet
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string kept;
  kept.reserve(text.size());
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (keep(line)) {
      kept += line;
      kept += '\n';
    } else {
      ++*dropped;
    }
    start = end + 1;
  }
  if (*dropped == 0 && kept.size() == text.size()) return true;
  return publish_file(path, kept);
}

}  // namespace omx::support
