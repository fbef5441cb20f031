#include "trace/analysis.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace omx::trace {

const char* kind_name(std::uint16_t kind) {
  switch (kind) {
    case kRoundBegin: return "round_begin";
    case kRngDraw: return "rng_draw";
    case kCorrupt: return "corrupt";
    case kSend: return "send";
    case kDrop: return "drop";
    case kFinish: return "finish";
    case kDecide: return "decide";
  }
  return "?";
}

const char* finish_reason_name(std::uint32_t reason) {
  switch (reason) {
    case 0: return "finished";
    case 1: return "round_cap";
    case 2: return "deadline";
  }
  return "?";
}

std::string format_event(const Event& e) {
  char buf[160];
  switch (e.kind) {
    case kRoundBegin:
      std::snprintf(buf, sizeof buf, "round %u: begin", e.round);
      break;
    case kRngDraw:
      std::snprintf(buf, sizeof buf,
                    "round %u: rng_draw p%u (%u bits, value %llu)", e.round,
                    e.src, e.dst, static_cast<unsigned long long>(e.payload));
      break;
    case kCorrupt:
      std::snprintf(buf, sizeof buf,
                    "round %u: corrupt p%u (%u corrupted total)", e.round,
                    e.src, e.dst);
      break;
    case kSend:
      std::snprintf(buf, sizeof buf, "round %u: send %u -> %u (%llu bits)",
                    e.round, e.src, e.dst,
                    static_cast<unsigned long long>(e.payload));
      break;
    case kDrop:
      std::snprintf(buf, sizeof buf,
                    "round %u: drop %u -> %u (wire index %llu)", e.round,
                    e.src, e.dst, static_cast<unsigned long long>(e.payload));
      break;
    case kFinish:
      std::snprintf(buf, sizeof buf, "round %u: finish (%s, %llu rounds)",
                    e.round, finish_reason_name(e.src),
                    static_cast<unsigned long long>(e.payload));
      break;
    case kDecide:
      std::snprintf(buf, sizeof buf, "round %u: decide p%u = %u", e.round,
                    e.src, e.dst);
      break;
    default:
      std::snprintf(buf, sizeof buf, "round %u: kind %u", e.round, e.kind);
      break;
  }
  return buf;
}

std::vector<RoundEnvelope> envelopes(std::span<const Event> events) {
  std::vector<RoundEnvelope> rounds;
  for (const Event& e : events) {
    if (e.kind == kFinish || e.kind == kDecide) continue;  // post-run tail
    if (e.kind == kRoundBegin) {
      RoundEnvelope env;
      env.round = e.round;
      // Corruption is cumulative: a round without kCorrupt events inherits
      // the previous round's count.
      env.corrupted = rounds.empty() ? 0 : rounds.back().corrupted;
      rounds.push_back(env);
      continue;
    }
    if (rounds.empty() || rounds.back().round != e.round) continue;
    RoundEnvelope& env = rounds.back();
    switch (e.kind) {
      case kRngDraw:
        env.rng_calls += 1;
        env.rng_bits += e.dst;
        break;
      case kCorrupt:
        env.corrupted = std::max(env.corrupted, e.dst);
        break;
      case kSend:
        env.messages += 1;
        env.bits += e.payload;
        break;
      case kDrop:
        env.omitted += 1;
        break;
      default:
        break;
    }
  }
  return rounds;
}

TraceTotals totals(std::span<const Event> events) {
  TraceTotals t;
  for (const Event& e : events) {
    switch (e.kind) {
      case kRoundBegin: t.rounds += 1; break;
      case kRngDraw:
        t.random_calls += 1;
        t.random_bits += e.dst;
        break;
      case kCorrupt: t.corrupted += 1; break;
      case kSend:
        t.messages += 1;
        t.comm_bits += e.payload;
        break;
      case kDrop: t.omitted += 1; break;
      case kFinish:
        t.finished = true;
        t.finish_reason = e.src;
        break;
      case kDecide: t.decided += 1; break;
      default: break;
    }
  }
  return t;
}

Divergence first_divergence(const TraceData& a, const TraceData& b) {
  Divergence d;
  // Only `n` is semantic: the rest of the header is fixed by the format.
  if (a.header.n != b.header.n) {
    d.diverged = true;
    d.header_mismatch = true;
    return d;
  }
  const std::size_t common = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(a.events[i] == b.events[i])) {
      d.diverged = true;
      d.index = i;
      return d;
    }
  }
  if (a.events.size() != b.events.size()) {
    d.diverged = true;
    d.length_only = true;
    d.index = common;
  }
  return d;
}

void print_stats(const TraceData& t, std::ostream& os) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "trace: n=%u, %zu event(s)\n", t.header.n,
                t.events.size());
  os << buf;
  if (t.file_bytes > 0) {
    std::snprintf(buf, sizeof buf,
                  "packed: %llu byte(s) on disk, %llu raw — ratio %.2fx\n",
                  static_cast<unsigned long long>(t.file_bytes),
                  static_cast<unsigned long long>(t.raw_bytes()),
                  static_cast<double>(t.raw_bytes()) /
                      static_cast<double>(t.file_bytes));
    os << buf;
  }
  // Per-kind record counts: the storage-level view of the stream — what
  // the codec's column runs are actually made of.
  std::uint64_t by_kind[kMaxKind + 1] = {};
  for (const Event& e : t.events) {
    if (e.kind <= kMaxKind) by_kind[e.kind] += 1;
  }
  os << "records:";
  for (std::uint16_t k = 1; k <= kMaxKind; ++k) {
    if (by_kind[k] == 0) continue;
    std::snprintf(buf, sizeof buf, " %s=%llu", kind_name(k),
                  static_cast<unsigned long long>(by_kind[k]));
    os << buf;
  }
  os << "\n";
  std::snprintf(buf, sizeof buf, "%8s %10s %14s %8s %6s %9s %9s\n", "round",
                "messages", "bits", "omitted", "corr", "rng calls",
                "rng bits");
  os << buf;
  for (const RoundEnvelope& env : envelopes(t.events)) {
    std::snprintf(buf, sizeof buf,
                  "%8u %10llu %14llu %8llu %6u %9llu %9llu\n", env.round,
                  static_cast<unsigned long long>(env.messages),
                  static_cast<unsigned long long>(env.bits),
                  static_cast<unsigned long long>(env.omitted), env.corrupted,
                  static_cast<unsigned long long>(env.rng_calls),
                  static_cast<unsigned long long>(env.rng_bits));
    os << buf;
  }
  const TraceTotals sum = totals(t.events);
  std::snprintf(
      buf, sizeof buf,
      "totals: rounds=%llu messages=%llu comm_bits=%llu omitted=%llu "
      "corrupted=%u rng_calls=%llu rng_bits=%llu decided=%u",
      static_cast<unsigned long long>(sum.rounds),
      static_cast<unsigned long long>(sum.messages),
      static_cast<unsigned long long>(sum.comm_bits),
      static_cast<unsigned long long>(sum.omitted), sum.corrupted,
      static_cast<unsigned long long>(sum.random_calls),
      static_cast<unsigned long long>(sum.random_bits), sum.decided);
  os << buf;
  if (sum.finished) {
    os << " end=" << finish_reason_name(sum.finish_reason);
  } else {
    os << " end=interrupted";  // no kFinish marker: the run threw mid-way
  }
  os << "\n";
}

void dump_jsonl(const TraceData& t, std::ostream& os) {
  char buf[256];
  std::size_t i = 0;
  for (const Event& e : t.events) {
    std::snprintf(buf, sizeof buf,
                  "{\"i\":%zu,\"round\":%u,\"kind\":\"%s\",\"src\":%u,"
                  "\"dst\":%u,\"payload\":%llu}\n",
                  i++, e.round, kind_name(e.kind), e.src, e.dst,
                  static_cast<unsigned long long>(e.payload));
    os << buf;
  }
}

void dump_chrome(const TraceData& t, std::ostream& os) {
  char buf[512];  // the 4-counter block below runs ~340 chars
  os << "[\n";
  const char* sep = "";
  // Counter tracks, one sample per round (ts = round number).
  for (const RoundEnvelope& env : envelopes(t.events)) {
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"messages\",\"ph\":\"C\",\"ts\":%u,\"pid\":0,"
        "\"tid\":0,\"args\":{\"sent\":%llu,\"omitted\":%llu}},\n"
        "{\"name\":\"comm bits\",\"ph\":\"C\",\"ts\":%u,\"pid\":0,"
        "\"tid\":0,\"args\":{\"bits\":%llu}},\n"
        "{\"name\":\"rng bits\",\"ph\":\"C\",\"ts\":%u,\"pid\":0,"
        "\"tid\":0,\"args\":{\"bits\":%llu}},\n"
        "{\"name\":\"corrupted\",\"ph\":\"C\",\"ts\":%u,\"pid\":0,"
        "\"tid\":0,\"args\":{\"count\":%u}}",
        sep, env.round, static_cast<unsigned long long>(env.messages),
        static_cast<unsigned long long>(env.omitted), env.round,
        static_cast<unsigned long long>(env.bits), env.round,
        static_cast<unsigned long long>(env.rng_bits), env.round,
        env.corrupted);
    os << buf;
    sep = ",\n";
  }
  // Instant events for the discrete transitions.
  for (const Event& e : t.events) {
    if (e.kind == kCorrupt) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"corrupt p%u\",\"ph\":\"i\",\"ts\":%u,"
                    "\"pid\":0,\"tid\":0,\"s\":\"g\"}",
                    sep, e.src, e.round);
    } else if (e.kind == kDecide) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"decide p%u=%u\",\"ph\":\"i\",\"ts\":%u,"
                    "\"pid\":0,\"tid\":0,\"s\":\"g\"}",
                    sep, e.src, e.dst, e.round);
    } else if (e.kind == kFinish) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"finish (%s)\",\"ph\":\"i\",\"ts\":%u,"
                    "\"pid\":0,\"tid\":0,\"s\":\"g\"}",
                    sep, finish_reason_name(e.src), e.round);
    } else {
      continue;
    }
    os << buf;
    sep = ",\n";
  }
  os << "\n]\n";
}

}  // namespace omx::trace
