# ctest driver for the closed-loop adversary search contract:
#   two fresh `omxadv search` runs (same seeds)  -> byte-identical state
#   seeded.trace (extraction replay)             -> byte-identical to the
#                                                   analytic baseline.trace
#   `omxadv replay`                              -> recorded score, exit 0
#   checkpoint + resume (8 then 15 iters)        -> same state as straight 15
#   discovered score                             -> >= the analytic baseline
#   torn / mangled state file                    -> exit 5 with a byte offset
# Invoked as: cmake -DOMXADV=... -DWORK_DIR=... -P this_file
foreach(var OMXADV WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(expect_same a b what)
  file(READ "${a}" ha HEX)
  file(READ "${b}" hb HEX)
  if(NOT ha STREQUAL hb)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# The arena: Ben-Or (randomized, so rand_bits is a live objective) at a
# size where 15 iterations finish in well under a second.
set(arena --algo benor --attack rand-omit --n 32 --t 3 --seed 1
    --search-seed 1 --checkpoint-every 4)

run_or_die(${OMXADV} search ${arena} --iters 15
           --state "${WORK_DIR}/a.state" --work-dir "${WORK_DIR}/a")
run_or_die(${OMXADV} search ${arena} --iters 15
           --state "${WORK_DIR}/b.state" --work-dir "${WORK_DIR}/b")
expect_same("${WORK_DIR}/a.state" "${WORK_DIR}/b.state"
            "search is not deterministic")

# Extraction fidelity: the schedule written down from the analytic run must
# regenerate the analytic trace byte for byte, not merely score-equal.
expect_same("${WORK_DIR}/a/baseline.trace" "${WORK_DIR}/a/seeded.trace"
            "extracted schedule does not replay the analytic trace")

# Replay must reproduce the recorded best score exactly (exit 1 otherwise).
run_or_die(${OMXADV} replay --state "${WORK_DIR}/a.state"
           --work-dir "${WORK_DIR}/a")

# Kill-and-resume: 8 iterations, then resume to 15 — the final state must
# equal the straight-through run's, byte for byte.
run_or_die(${OMXADV} search ${arena} --iters 8
           --state "${WORK_DIR}/c.state" --work-dir "${WORK_DIR}/c")
run_or_die(${OMXADV} search ${arena} --iters 15
           --state "${WORK_DIR}/c.state" --work-dir "${WORK_DIR}/c")
expect_same("${WORK_DIR}/a.state" "${WORK_DIR}/c.state"
            "resumed search diverged from the straight-through run")

# Discovered >= analytic, read from the state file the way an offline
# consumer would (lexicographic: rounds desc, rand_bits desc, delivered asc).
file(STRINGS "${WORK_DIR}/a.state" state_lines)
foreach(line ${state_lines})
  if(line MATCHES "^(baseline|best)_(rounds|rand_bits|delivered)=(.*)$")
    set(${CMAKE_MATCH_1}_${CMAKE_MATCH_2} "${CMAKE_MATCH_3}")
  endif()
endforeach()
if(best_rounds LESS baseline_rounds)
  message(FATAL_ERROR "discovered schedule scores below the analytic "
          "baseline: rounds ${best_rounds} < ${baseline_rounds}")
elseif(best_rounds EQUAL baseline_rounds)
  if(best_rand_bits LESS baseline_rand_bits)
    message(FATAL_ERROR "discovered schedule scores below the analytic "
            "baseline: rand_bits ${best_rand_bits} < ${baseline_rand_bits}")
  elseif(best_rand_bits EQUAL baseline_rand_bits AND
         best_delivered GREATER baseline_delivered)
    message(FATAL_ERROR "discovered schedule scores below the analytic "
            "baseline: delivered ${best_delivered} > ${baseline_delivered}")
  endif()
endif()

# A torn or mangled state file is corrupt input (exit 5, byte offset).
function(expect_corrupt)
  cmake_parse_arguments(EC "" "" "COMMAND;NEEDLES" ${ARGN})
  execute_process(COMMAND ${EC_COMMAND}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 5)
    message(FATAL_ERROR "expected exit 5, got ${rc}: ${EC_COMMAND}\n${err}")
  endif()
  foreach(needle ${EC_NEEDLES})
    if(NOT err MATCHES "${needle}")
      message(FATAL_ERROR
              "stderr missing '${needle}' for: ${EC_COMMAND}\n${err}")
    endif()
  endforeach()
endfunction()

file(READ "${WORK_DIR}/a.state" state_text)
string(FIND "${state_text}" "config:" cfg_at)
string(SUBSTRING "${state_text}" 0 ${cfg_at} torn_text)
file(WRITE "${WORK_DIR}/torn.state" "${torn_text}")
expect_corrupt(COMMAND ${OMXADV} report --state "${WORK_DIR}/torn.state"
               NEEDLES "torn.state" "byte offset" "truncated")

string(REPLACE "best=" "best=z9." mangled_text "${state_text}")
file(WRITE "${WORK_DIR}/mangled.state" "${mangled_text}")
expect_corrupt(COMMAND ${OMXADV} report --state "${WORK_DIR}/mangled.state"
               NEEDLES "mangled.state" "byte offset" "schedule")

message(STATUS "adversary search pipeline OK")
