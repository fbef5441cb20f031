#include "harness/sweep.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rng/ledger.h"
#include "support/check.h"
#include "support/durable_file.h"
#include "support/parse_number.h"
#include "support/prng.h"
#include "trace/trace.h"

namespace omx::harness {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::RoundCap: return "round_cap";
    case Verdict::Timeout: return "timeout";
    case Verdict::Precondition: return "precondition";
    case Verdict::Invariant: return "invariant";
    case Verdict::AdversaryViolation: return "adversary_violation";
  }
  return "?";
}

namespace {

bool verdict_from_string(const std::string& s, Verdict* out) {
  for (auto v : {Verdict::Ok, Verdict::RoundCap, Verdict::Timeout,
                 Verdict::Precondition, Verdict::Invariant,
                 Verdict::AdversaryViolation}) {
    if (s == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Shortest decimal that round-trips a double (repro files and hashes must
/// agree bit-for-bit with what parse_config reads back).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>* out) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\n' || line[i] == '\r')) {
      ++i;
    }
  };
  const auto parse_string = [&](std::string* s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (i + 1 >= line.size()) return false;
        const char e = line[i + 1];
        i += 2;
        switch (e) {
          case '"': *s += '"'; break;
          case '\\': *s += '\\'; break;
          case '/': *s += '/'; break;
          case 'n': *s += '\n'; break;
          case 'r': *s += '\r'; break;
          case 't': *s += '\t'; break;
          case 'u': {
            // json_escape writes only \u00XX (bytes below 0x20).
            if (i + 4 > line.size() || line.compare(i, 2, "00") != 0 ||
                !std::isxdigit(static_cast<unsigned char>(line[i + 2])) ||
                !std::isxdigit(static_cast<unsigned char>(line[i + 3]))) {
              return false;
            }
            *s += static_cast<char>(
                std::strtoul(line.substr(i + 2, 2).c_str(), nullptr, 16));
            i += 4;
            break;
          }
          default: return false;
        }
      } else {
        *s += line[i++];
      }
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return true;
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(&key)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(&value)) return false;
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
        value.pop_back();
      if (value.empty()) return false;
    }
    (*out)[key] = value;
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == '}') return true;
    if (line[i] != ',') return false;
    ++i;
  }
}

/// One checkpoint line: the full TrialOutcome, keyed by config hash. Every
/// field a driver prints must be here, or resume would not be
/// byte-identical with the uninterrupted run.
std::string checkpoint_line(const std::string& key, const TrialOutcome& o) {
  const ExperimentResult& r = o.result;
  std::ostringstream os;
  os << "{\"key\":\"" << key << "\""
     << ",\"verdict\":\"" << to_string(o.verdict) << "\""
     << ",\"attempts\":" << o.attempts
     << ",\"seed\":" << o.seed_used
     << ",\"time_rounds\":" << r.time_rounds
     << ",\"rounds\":" << r.metrics.rounds
     << ",\"messages\":" << r.metrics.messages
     << ",\"comm_bits\":" << r.metrics.comm_bits
     << ",\"random_calls\":" << r.metrics.random_calls
     << ",\"random_bits\":" << r.metrics.random_bits
     << ",\"omitted\":" << r.metrics.omitted
     << ",\"corrupted\":" << r.corrupted
     << ",\"operative_end\":" << r.operative_end
     << ",\"decision\":" << unsigned{r.decision}
     << ",\"agreement\":" << (r.agreement ? "true" : "false")
     << ",\"validity\":" << (r.validity ? "true" : "false")
     << ",\"all_decided\":" << (r.all_nonfaulty_decided ? "true" : "false")
     << ",\"hit_round_cap\":" << (r.hit_round_cap ? "true" : "false")
     << ",\"hit_deadline\":" << (r.hit_deadline ? "true" : "false")
     << ",\"error\":\"" << json_escape(o.error) << "\""
     << ",\"repro\":\"" << json_escape(o.repro_path) << "\"}";
  return os.str();
}

bool parse_checkpoint_line(const std::string& line, std::string* key,
                           TrialOutcome* o) {
  std::map<std::string, std::string> kv;
  if (!parse_flat_json(line, &kv)) return false;
  const auto need = [&](const char* k, std::string* dst) -> bool {
    const auto it = kv.find(k);
    if (it == kv.end()) return false;
    *dst = it->second;
    return true;
  };
  // A number that does not parse whole drops the line like a torn one.
  const auto number = [&](const char* k, auto* dst) {
    const auto it = kv.find(k);
    return it != kv.end() && parse_number(it->second, dst);
  };
  std::string s;
  if (!need("key", key)) return false;
  if (!need("verdict", &s) || !verdict_from_string(s, &o->verdict))
    return false;
  ExperimentResult& r = o->result;
  if (!number("attempts", &o->attempts) || !number("seed", &o->seed_used) ||
      !number("time_rounds", &r.time_rounds) ||
      !number("rounds", &r.metrics.rounds) ||
      !number("messages", &r.metrics.messages) ||
      !number("comm_bits", &r.metrics.comm_bits) ||
      !number("random_calls", &r.metrics.random_calls) ||
      !number("random_bits", &r.metrics.random_bits) ||
      !number("omitted", &r.metrics.omitted) ||
      !number("corrupted", &r.corrupted) ||
      !number("operative_end", &r.operative_end) ||
      !number("decision", &r.decision)) {
    return false;
  }
  r.metrics.corrupted = r.corrupted;
  if (!need("agreement", &s)) return false;
  r.agreement = s == "true";
  if (!need("validity", &s)) return false;
  r.validity = s == "true";
  if (!need("all_decided", &s)) return false;
  r.all_nonfaulty_decided = s == "true";
  if (!need("hit_round_cap", &s)) return false;
  r.hit_round_cap = s == "true";
  if (!need("hit_deadline", &s)) return false;
  r.hit_deadline = s == "true";
  if (!need("error", &o->error)) return false;
  if (!need("repro", &o->repro_path)) return false;
  o->from_checkpoint = true;
  return true;
}

namespace {

bool transient(Verdict v) {
  return v == Verdict::Timeout || v == Verdict::RoundCap;
}

bool model_violation(Verdict v) {
  return v == Verdict::Precondition || v == Verdict::Invariant ||
         v == Verdict::AdversaryViolation;
}

}  // namespace

std::string serialize_config(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "algo=" << to_string(cfg.algo) << "\n";
  os << "attack=" << to_string(cfg.attack) << "\n";
  os << "n=" << cfg.n << "\n";
  os << "t=" << cfg.t << "\n";
  os << "x=" << cfg.x << "\n";
  os << "inputs=" << to_string(cfg.inputs) << "\n";
  if (!cfg.explicit_inputs.empty()) {
    os << "explicit_inputs=";
    for (const auto b : cfg.explicit_inputs) os << (b ? '1' : '0');
    os << "\n";
  }
  os << "seed=" << cfg.seed << "\n";
  os << "random_bit_budget=" << cfg.random_bit_budget << "\n";
  os << "drop_prob=" << format_double(cfg.drop_prob) << "\n";
  if (!cfg.schedule.empty()) os << "schedule=" << cfg.schedule << "\n";
  os << "max_rounds=" << cfg.max_rounds << "\n";
  os << "deadline_ms=" << cfg.deadline_ms << "\n";
  os << "threads=" << cfg.threads << "\n";
  if (!cfg.trace_path.empty()) os << "trace_path=" << cfg.trace_path << "\n";
  os << "params.delta_factor=" << format_double(cfg.params.delta_factor)
     << "\n";
  os << "params.spread_factor=" << format_double(cfg.params.spread_factor)
     << "\n";
  os << "params.epoch_factor=" << format_double(cfg.params.epoch_factor)
     << "\n";
  os << "params.gossip_factor=" << format_double(cfg.params.gossip_factor)
     << "\n";
  os << "params.min_epochs=" << cfg.params.min_epochs << "\n";
  os << "params.early_decide=" << (cfg.params.early_decide ? 1 : 0) << "\n";
  return os.str();
}

bool parse_config(const std::string& text, ExperimentConfig* out,
                  std::string* error, std::size_t* error_offset) {
  std::size_t line_offset = 0;  // byte offset of the current line in text
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    if (error_offset) *error_offset = line_offset;
    return false;
  };
  ExperimentConfig cfg;
  std::istringstream is(text);
  std::string line;
  std::size_t raw_line_size = 0;  // pre-CR-strip size, for offset tracking
  for (; std::getline(is, line);
       line_offset += raw_line_size + 1 /* the consumed newline */) {
    raw_line_size = line.size();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("bad line: " + line);
    const std::string k = line.substr(0, eq);
    const std::string v = line.substr(eq + 1);
    // Last wins for a repeated key: drivers append overrides to a text
    // that may already set them.
    bool ok = true;
    if (k == "algo") {
      if (!algo_from_string(v, &cfg.algo)) return fail("bad algo: " + v);
    } else if (k == "attack") {
      if (!attack_from_string(v, &cfg.attack))
        return fail("bad attack: " + v);
    } else if (k == "inputs") {
      if (!inputs_from_string(v, &cfg.inputs))
        return fail("bad inputs: " + v);
    } else if (k == "explicit_inputs") {
      cfg.explicit_inputs.clear();
      for (const char c : v) {
        if (c != '0' && c != '1')
          return fail("bad explicit_inputs bit: " + std::string(1, c));
        cfg.explicit_inputs.push_back(c == '1' ? 1 : 0);
      }
    } else if (k == "n") {
      ok = parse_number(v, &cfg.n);
    } else if (k == "t") {
      ok = parse_number(v, &cfg.t);
    } else if (k == "x") {
      ok = parse_number(v, &cfg.x);
    } else if (k == "seed") {
      ok = parse_number(v, &cfg.seed);
    } else if (k == "random_bit_budget") {
      ok = parse_number(v, &cfg.random_bit_budget);
    } else if (k == "drop_prob") {
      ok = parse_number(v, &cfg.drop_prob);
    } else if (k == "schedule") {
      cfg.schedule = v;
    } else if (k == "max_rounds") {
      ok = parse_number(v, &cfg.max_rounds);
    } else if (k == "deadline_ms") {
      ok = parse_number(v, &cfg.deadline_ms);
    } else if (k == "threads") {
      ok = parse_number(v, &cfg.threads);
    } else if (k == "streamed" || k == "pipeline" || k == "packed" ||
               k == "trace_packed") {
      // Retired knobs: every run streams its delivery, keeps packed flood
      // views and writes packed traces, so old .repro files and
      // checkpoints that still carry these lines parse unchanged.
    } else if (k == "trace_path") {
      cfg.trace_path = v;
    } else if (k == "params.delta_factor") {
      ok = parse_number(v, &cfg.params.delta_factor);
    } else if (k == "params.spread_factor") {
      ok = parse_number(v, &cfg.params.spread_factor);
    } else if (k == "params.epoch_factor") {
      ok = parse_number(v, &cfg.params.epoch_factor);
    } else if (k == "params.gossip_factor") {
      ok = parse_number(v, &cfg.params.gossip_factor);
    } else if (k == "params.min_epochs") {
      ok = parse_number(v, &cfg.params.min_epochs);
    } else if (k == "params.early_decide") {
      cfg.params.early_decide = v == "1" || v == "true";
    } else {
      return fail("unknown key: " + k);
    }
    if (!ok) return fail("bad number for " + k + ": " + v);
  }
  *out = cfg;
  return true;
}

std::uint64_t config_hash(const ExperimentConfig& cfg) {
  // The worker-lane count cannot change a trial's outcome (the engine is
  // bit-identical at every setting), so it must not change the key either:
  // a sweep resumed with a different --threads still matches its records.
  // Same for the trace sink (observation, not behaviour).
  ExperimentConfig canon = cfg;
  canon.threads = 1;
  canon.engine_stats = nullptr;
  canon.trace_path.clear();
  return fnv1a(serialize_config(canon));
}

std::string config_key(const ExperimentConfig& cfg) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(config_hash(cfg)));
  return buf;
}

SweepOptions SweepOptions::from_env() {
  SweepOptions o;
  if (const char* v = std::getenv("OMX_SWEEP_CHECKPOINT")) {
    o.checkpoint_path = v;
  }
  if (const char* v = std::getenv("OMX_SWEEP_REPRO_DIR")) o.repro_dir = v;
  if (const char* v = std::getenv("OMX_SWEEP_DEADLINE_MS")) {
    o.trial_deadline_ms = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = std::getenv("OMX_SWEEP_RETRIES")) {
    o.max_attempts = 1 + static_cast<std::uint32_t>(
                             std::strtoul(v, nullptr, 10));
  }
  if (std::getenv("OMX_SWEEP_NO_REPRO")) o.capture_repro = false;
  if (std::getenv("OMX_SWEEP_NO_TRACE")) o.capture_trace = false;
  return o;
}

Sweep::Sweep() : Sweep(SweepOptions::from_env()) {}

Sweep::Sweep(SweepOptions options) : options_(std::move(options)) {
  if (checkpointing()) load_checkpoint();
}

void Sweep::load_checkpoint() {
  std::size_t lineno = 0;
  std::size_t first_bad = 0;
  const auto load = [&](const std::string& line) {
    std::string key;
    TrialOutcome outcome;
    ++lineno;
    if (!parse_checkpoint_line(line, &key, &outcome)) {
      // Typically the torn final line of a killed sweep; that trial simply
      // re-runs.
      if (first_bad == 0) first_bad = lineno;
      return false;
    }
    recorded_[key] = std::move(outcome);
    return true;
  };
  // Repair before the first append: a record appended after a torn tail
  // would be glued onto the debris and lost with it on the next load.
  std::size_t dropped = 0;
  if (!support::repair_lines(options_.checkpoint_path, load, &dropped)) {
    throw std::runtime_error("sweep: cannot repair checkpoint " +
                             options_.checkpoint_path);
  }
  if (dropped > 0) {
    std::fprintf(
        stderr,
        "sweep: checkpoint %s: dropped %zu unparseable line(s), first at "
        "line %zu%s — the affected trial(s) will re-run\n",
        options_.checkpoint_path.c_str(), dropped, first_bad,
        (dropped == 1 && first_bad == lineno)
            ? " (the final line — torn by an interrupted run)"
            : "");
  }
}

void Sweep::record(const std::string& key, const TrialOutcome& outcome) {
  // One durable line per trial: a kill leaves at most a torn final line,
  // which the next load drops (that trial re-runs).
  if (!support::append_line_durably(options_.checkpoint_path,
                                    checkpoint_line(key, outcome))) {
    throw std::runtime_error("sweep: cannot append to checkpoint " +
                             options_.checkpoint_path);
  }
}

TrialOutcome Sweep::run_isolated(const ExperimentConfig& cfg) const {
  TrialOutcome out;
  out.seed_used = cfg.seed;
  try {
    out.result = run_experiment(cfg);
    out.verdict = out.result.hit_deadline ? Verdict::Timeout
                  : out.result.hit_round_cap ? Verdict::RoundCap
                                             : Verdict::Ok;
  } catch (const AdversaryViolation& e) {
    out.verdict = Verdict::AdversaryViolation;
    out.error = e.what();
  } catch (const PreconditionError& e) {
    out.verdict = Verdict::Precondition;
    out.error = e.what();
  } catch (const InvariantError& e) {
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  } catch (const rng::BudgetExhausted& e) {
    // A protocol that overdraws instead of degrading is a protocol bug —
    // the invariant "respect the metered budget" broke.
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  }
  if (!out.error.empty()) out.result = ExperimentResult{};
  return out;
}

std::string Sweep::capture_repro(const ExperimentConfig& cfg,
                                 const TrialOutcome& outcome,
                                 std::string* trace_path) const {
  std::error_code ec;
  std::filesystem::create_directories(options_.repro_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sweep: cannot create repro dir %s: %s\n",
                 options_.repro_dir.c_str(), ec.message().c_str());
    return "";
  }
  const std::string stem = options_.repro_dir + "/" + config_key(cfg);
  const std::string path = stem + ".repro";

  // Re-run the failing trial with a trace attached: the engine is
  // deterministic, so the capture is the event history of the recorded
  // failure, ending exactly where the violation threw (the writer flushes
  // through the unwind). Failures are rare; paying one extra run for a
  // debuggable artifact is the point of capturing at all.
  if (options_.capture_trace) {
    ExperimentConfig traced = cfg;
    traced.trace_path = stem + ".trace";
    const TrialOutcome replay = run_isolated(traced);
    if (replay.verdict != outcome.verdict) {
      std::fprintf(stderr,
                   "sweep: trace re-run of %s reproduced verdict %s, "
                   "original was %s — keeping the trace anyway\n",
                   path.c_str(), to_string(replay.verdict),
                   to_string(outcome.verdict));
    }
    if (std::filesystem::exists(traced.trace_path, ec)) {
      *trace_path = traced.trace_path;
    }
  }

  std::string first_line = outcome.error;
  if (const auto nl = first_line.find('\n'); nl != std::string::npos) {
    first_line.resize(nl);
  }
  std::ostringstream out;
  out << "# replay with: omxsim --repro " << path << "\n";
  out << "# verdict: " << to_string(outcome.verdict) << "\n";
  out << "# error: " << first_line << "\n";
  if (!trace_path->empty()) {
    out << "# trace: " << *trace_path << " (analyze with omxtrace)\n";
  }
  // Without the sweep's own trace sink: the capture's trace is the one
  // above, and a replay must not overwrite the original run's trace.
  ExperimentConfig replay = cfg;
  replay.trace_path.clear();
  out << serialize_config(replay);
  // Published whole: a run killed mid-capture leaves no half-written
  // .repro behind.
  if (!support::publish_file(path, out.str())) {
    std::fprintf(stderr, "sweep: cannot write repro file %s\n", path.c_str());
    return "";
  }
  return path;
}

TrialOutcome Sweep::run(ExperimentConfig cfg) {
  if (options_.trial_deadline_ms != 0) {
    cfg.deadline_ms = options_.trial_deadline_ms;
  }

  std::string key;
  if (checkpointing()) {
    key = config_key(cfg);
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = recorded_.find(key);
    if (it != recorded_.end()) {
      TrialOutcome out = it->second;
      out.from_checkpoint = true;
      ++trials_;
      ++resumed_;
      ++counts_[out.verdict];
      return out;
    }
  }

  const std::uint64_t base_seed = cfg.seed;
  TrialOutcome out;
  std::uint32_t attempt = 1;
  for (;; ++attempt) {
    // Retries perturb the seed deterministically, so "the third attempt of
    // trial (cfg)" is itself reproducible.
    cfg.seed = attempt == 1 ? base_seed : mix64(base_seed, 0x5EED00 + attempt);
    out = run_isolated(cfg);
    if (!transient(out.verdict) || attempt >= options_.max_attempts) break;
  }
  out.attempts = attempt;

  if (model_violation(out.verdict) && options_.capture_repro) {
    out.repro_path = capture_repro(cfg, out, &out.trace_path);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++trials_;
  if (attempt > 1) ++retried_;
  ++counts_[out.verdict];
  if (checkpointing()) {
    recorded_[key] = out;
    record(key, out);
  }
  return out;
}

std::uint64_t Sweep::trials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trials_;
}

std::uint64_t Sweep::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t bad = 0;
  for (const auto& [v, c] : counts_) {
    if (v != Verdict::Ok) bad += c;
  }
  return bad;
}

std::uint64_t Sweep::resumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resumed_;
}

std::map<Verdict, std::uint64_t> Sweep::verdict_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string Sweep::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "sweep: " << trials_ << " trial(s)";
  const char* sep = " — ";
  for (const auto& [v, c] : counts_) {
    os << sep << c << " " << to_string(v);
    sep = ", ";
  }
  if (resumed_ > 0) os << "; " << resumed_ << " from checkpoint";
  if (retried_ > 0) os << "; " << retried_ << " retried";
  return os.str();
}

void Sweep::print_summary(std::ostream& os) const {
  bool interesting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    interesting = resumed_ > 0 || retried_ > 0 ||
                  counts_.size() > 1 ||
                  (counts_.size() == 1 && counts_.begin()->first != Verdict::Ok);
  }
  if (interesting) os << summary() << "\n";
}

int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const AdversaryViolation& e) {
    std::fprintf(stderr, "adversary violation: %s\n", e.what());
    return 4;
  } catch (const CorruptInputError& e) {
    // Before PreconditionError: a corrupt *input file* is the operator's
    // data gone bad, not a caller bug, and scripts branch on the code.
    std::fprintf(stderr, "%s\n", e.what());
    return 5;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "precondition failed: %s\n", e.what());
    return 2;
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "invariant violated: %s\n", e.what());
    return 3;
  } catch (const rng::BudgetExhausted& e) {
    std::fprintf(stderr, "invariant violated: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}

}  // namespace omx::harness
