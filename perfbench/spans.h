// In-memory span log for the benchmark's traced runs.
//
// A span is one call into a layer, recorded from the benchmark's own code
// around a public entry point: name ("<module>.<call>"), start, end, the
// span that caused it, and the request it belongs to. Spans stay in memory
// while the workload runs and are written once, at exit, as Chrome
// trace-event JSON (the array-of-events form `omxtrace dump --chrome`
// emits), so recording costs one vector push per call.
//
// Self time: a span's duration minus the part of it its children cover.
// Summed per module (the name's prefix before the first '.'), it says
// which layer a request's time went to, without double counting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace omx::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = a root span
  std::uint64_t request = 0;  // every span of one request shares this id
  std::int64_t start_ns = 0;  // relative to the log's origin
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Record a finished span; returns its id (0 when the log is disabled).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns) {
    if (!enabled_) return 0;
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(
        Span{std::move(name), id, parent, request, start_ns, end_ns});
    return id;
  }

  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end) {
    return add(std::move(name), parent, request, since_origin(start),
               since_origin(end));
  }

  /// Open a span whose end is not known yet (a parent recorded before its
  /// children); close it with end().
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t request, Clock::time_point start) {
    return add(std::move(name), parent, request, start, start);
  }
  void end(std::uint64_t id, Clock::time_point end) {
    if (id != 0) spans_[id - 1].end_ns = since_origin(end);
  }

  /// Self time of every span, indexed like spans().
  std::vector<std::int64_t> self_ns() const {
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t reach = s.start_ns;
        for (auto [a, b] : iv) {
          a = std::max(a, reach);
          b = std::min(b, s.end_ns);
          if (b > a) {
            covered += b - a;
            reach = b;
          }
        }
      }
      out[i] = (s.end_ns - s.start_ns) - covered;
    }
    return out;
  }

  /// Write every span as a Chrome complete event ("ph":"X", microseconds).
  /// Returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_ns();
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":0,\"tid\":%llu,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu,\"self_us\":%.3f}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), self[i] / 1e3);
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace omx::perfbench
