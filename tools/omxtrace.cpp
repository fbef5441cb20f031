// omxtrace — offline analysis of engine event traces (.trace files).
//
//   omxtrace stats run.trace                 # per-round envelopes + totals
//   omxtrace dump run.trace                  # one JSON object per event
//   omxtrace dump run.trace --chrome --out run.json   # chrome://tracing
//   omxtrace diff a.trace b.trace            # first divergent event, if any
//
// Traces are produced by `omxsim --trace <path>`, by
// harness::ExperimentConfig::trace_path, or automatically by the sweep
// runner next to every .repro capture. The engine writes them in canonical
// shard-merge order, so two runs of the same config — at any --threads
// setting — must be byte-identical; `diff` exits 0 when they are, 1 with
// the first divergent event when they are not, making it the determinism
// debugger for the parallel computation phase.
//
// A missing, foreign, old-format (version 1) or truncated trace is a
// CorruptInputError — exit 5 via guarded_main, with a message naming the
// file and the byte offset of the bad header field or block. An unknown
// subcommand prints the valid subcommand list (exit 2).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "support/check.h"
#include "trace/analysis.h"
#include "trace/reader.h"

using namespace omx;

namespace {

const char kUsage[] =
    "usage: omxtrace <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  stats <file>                    per-round envelope table, totals and\n"
    "                                  the pack ratio\n"
    "  dump <file> [--chrome] [--out <path>]\n"
    "                                  JSONL event dump (default stdout);\n"
    "                                  --chrome emits a chrome://tracing /\n"
    "                                  Perfetto-loadable JSON array\n"
    "  diff <a> <b>                    compare two traces event-by-event;\n"
    "                                  exit 0 if identical, 1 with the first\n"
    "                                  divergent event otherwise\n"
    "\n"
    "Traces come from `omxsim --trace <path>` or from the sweep runner's\n"
    "repro captures (repro/<hash>.trace). Traces of the same config are\n"
    "bit-identical at every --threads setting; `diff` verifies that.\n";

int cmd_stats(const std::vector<std::string>& args) {
  OMX_REQUIRE(args.size() == 1, "stats takes exactly one trace file");
  const trace::TraceData t = trace::read_trace(args[0]);
  trace::print_stats(t, std::cout);
  return 0;
}

int cmd_dump(const std::vector<std::string>& args) {
  bool chrome = false;
  std::string in_path;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--chrome") {
      chrome = true;
    } else if (args[i] == "--out") {
      OMX_REQUIRE(i + 1 < args.size(), "--out needs a path");
      out_path = args[++i];
    } else {
      OMX_REQUIRE(in_path.empty(), "dump takes exactly one trace file");
      in_path = args[i];
    }
  }
  OMX_REQUIRE(!in_path.empty(), "dump takes exactly one trace file");
  const trace::TraceData t = trace::read_trace(in_path);

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::binary);
    OMX_REQUIRE(file.good(), "cannot open output file " + out_path);
  }
  std::ostream& os = out_path.empty() ? std::cout : file;
  if (chrome) {
    trace::dump_chrome(t, os);
  } else {
    trace::dump_jsonl(t, os);
  }
  os.flush();
  OMX_REQUIRE(os.good(), "write failed" +
                             (out_path.empty() ? "" : ": " + out_path));
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  OMX_REQUIRE(args.size() == 2, "diff takes exactly two trace files");
  const trace::TraceData a = trace::read_trace(args[0]);
  const trace::TraceData b = trace::read_trace(args[1]);
  const trace::Divergence d = trace::first_divergence(a, b);
  if (!d.diverged) {
    std::printf("identical: %zu events\n", a.events.size());
    return 0;
  }
  if (d.header_mismatch) {
    std::printf("headers differ: n=%u vs n=%u\n", a.header.n, b.header.n);
    return 1;
  }
  if (d.length_only) {
    std::printf(
        "common prefix of %zu events matches; lengths differ (%zu vs %zu)\n",
        d.index, a.events.size(), b.events.size());
    return 1;
  }
  std::printf("first divergence at event %zu:\n  %s: %s\n  %s: %s\n", d.index,
              args[0].c_str(), trace::format_event(a.events[d.index]).c_str(),
              args[1].c_str(), trace::format_event(b.events[d.index]).c_str());
  return 1;
}

int run_main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "dump") return cmd_dump(args);
  if (cmd == "diff") return cmd_diff(args);
  std::fprintf(stderr,
               "error: unknown subcommand '%s'"
               " (valid subcommands: stats, dump, diff)\n",
               cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main([&] { return run_main(argc, argv); });
}
