# ctest driver for the end-to-end trace pipeline:
#   omxsim --trace at --threads 1 and --threads 8  ->  byte-identical files
#   omxtrace diff  ->  "identical", exit 0
#   omxtrace stats / dump / dump --chrome  ->  accept the file
#   omxtrace diff on traces of different seeds  ->  nonzero exit
#   omxsim --trace into a missing directory  ->  exit 2 before any trial:
#                                               nothing checkpointed or
#                                               captured
# Invoked as: cmake -DOMXSIM=... -DOMXTRACE=... -DWORK_DIR=... -P this_file
foreach(var OMXSIM OMXTRACE WORK_DIR)
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

set(common --algo optimal --attack coin-hiding --n 64)
run_or_die(${OMXSIM} ${common} --seed 7 --threads 1
           --trace "${WORK_DIR}/t1.trace")
run_or_die(${OMXSIM} ${common} --seed 7 --threads 8
           --trace "${WORK_DIR}/t8.trace")

# Byte-level identity first (the strongest claim), then the event-level
# diff (the tool the byte check certifies).
file(READ "${WORK_DIR}/t1.trace" t1 HEX)
file(READ "${WORK_DIR}/t8.trace" t8 HEX)
if(NOT t1 STREQUAL t8)
  message(FATAL_ERROR "traces differ between --threads 1 and --threads 8")
endif()
run_or_die(${OMXTRACE} diff "${WORK_DIR}/t1.trace" "${WORK_DIR}/t8.trace")

run_or_die(${OMXTRACE} stats "${WORK_DIR}/t1.trace")
run_or_die(${OMXTRACE} dump "${WORK_DIR}/t1.trace"
           --out "${WORK_DIR}/t1.jsonl")
run_or_die(${OMXTRACE} dump "${WORK_DIR}/t1.trace" --chrome
           --out "${WORK_DIR}/t1.chrome.json")

# diff must *detect* divergence, not just bless identical files: a run of
# the same config with a different seed has a different event history.
# (Synthetic mid-stream / length-only divergences are covered by the unit
# tests in tests/trace_test.cpp.)
run_or_die(${OMXSIM} ${common} --seed 0 --threads 1
           --trace "${WORK_DIR}/other.trace")
execute_process(COMMAND ${OMXTRACE} diff "${WORK_DIR}/t1.trace"
                        "${WORK_DIR}/other.trace"
                RESULT_VARIABLE diff_rc
                OUTPUT_VARIABLE diff_out
                ERROR_VARIABLE diff_err)
if(diff_rc EQUAL 0)
  message(FATAL_ERROR "diff failed to flag traces of different seeds")
endif()

# A trace path that cannot be created is a bad argument, not a trial
# verdict: a recorded failure would be replayed from the checkpoint even
# after the path is fixed.
execute_process(COMMAND ${OMXSIM} --algo floodset --n 8 --csv
                        --checkpoint "${WORK_DIR}/ck.jsonl"
                        --repro-dir "${WORK_DIR}/repro"
                        --trace "${WORK_DIR}/missing/dir/t.trace"
                RESULT_VARIABLE sink_rc
                OUTPUT_VARIABLE sink_out
                ERROR_VARIABLE sink_err)
set(ck_size 0)
if(EXISTS "${WORK_DIR}/ck.jsonl")
  file(SIZE "${WORK_DIR}/ck.jsonl" ck_size)
endif()
if(NOT sink_rc EQUAL 2 OR EXISTS "${WORK_DIR}/repro" OR ck_size GREATER 0)
  message(FATAL_ERROR "unwritable --trace path must exit 2 before any "
          "trial runs (exit ${sink_rc}, checkpoint ${ck_size} byte(s)):\n"
          "${sink_out}\n${sink_err}")
endif()
message(STATUS "trace pipeline OK")
