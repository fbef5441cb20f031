// Environment-driven chaos hooks run by every trial process, local fork or
// remote worker alike (run_trial_process, shard.cpp), so the same test and
// CI recipes can crash or hang a trial regardless of which transport
// leased it. All hooks are inert unless their variable is set:
//
//   OMX_FARM_TEST_CRASH_KEY=<key>        SIGKILL the trial process on the
//                                        first attempt at <key>
//   OMX_FARM_TEST_HANG_KEY=<key>[:once]  hang the trial until the parent
//                                        daemon/worker dies (every attempt,
//                                        or only the first with ":once")
//   OMX_FARM_TEST_CRASH_AFTER_WRITE_KEY=<key>
//                                        remote worker only: _exit(9) after
//                                        the result line is durable in the
//                                        local spool but before it is
//                                        submitted/acked — the
//                                        duplicate-submission oracle (a
//                                        restarted worker must resubmit and
//                                        the daemon must not grow a second
//                                        row for the key)
#pragma once

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

namespace omx::farm {

/// Crash/hang hooks for a trial process. Call with the item's key and
/// 1-based attempt number before running the trial.
inline void maybe_run_trial_chaos_hooks(const std::string& key,
                                        std::uint32_t attempt) {
  if (const char* crash = std::getenv("OMX_FARM_TEST_CRASH_KEY")) {
    if (key == crash && attempt == 1) ::raise(SIGKILL);
  }
  if (const char* hang = std::getenv("OMX_FARM_TEST_HANG_KEY")) {
    std::string spec = hang;
    bool once = false;
    if (const auto colon = spec.rfind(":once"); colon != std::string::npos &&
                                                colon == spec.size() - 5) {
      once = true;
      spec.resize(colon);
    }
    if (key == spec && (!once || attempt == 1)) {
      // Hang until the parent is gone (reparenting changes getppid), then
      // exit: a SIGKILL'd daemon must not leak paused trial processes.
      const pid_t parent = ::getppid();
      while (::getppid() == parent) ::usleep(50 * 1000);
      ::_exit(9);
    }
  }
}

/// True iff the crash-after-write hook targets `key` (remote worker only;
/// the caller _exit(9)s between spool write and submission).
inline bool crash_after_write_hook_hits(const std::string& key) {
  const char* target = std::getenv("OMX_FARM_TEST_CRASH_AFTER_WRITE_KEY");
  return target != nullptr && key == target;
}

}  // namespace omx::farm
