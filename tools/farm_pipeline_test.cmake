# ctest driver for the farm's headline contract: a multi-worker farm's
# merged.jsonl equals a single-process sweep's checkpoint (after canonical
# key sort):
#   1. omxsim --checkpoint          -> reference lines (run order)
#   2. omxfarm run, 3 workers       -> merged.jsonl (key order) — same set
#   3. omxfarm merge (offline)      -> re-merge is byte-stable
# (Worker/daemon SIGKILL chaos needs process control and lives in
# tests/farm_test.cpp and the CI farm-chaos job.)
# Invoked as: cmake -DOMXSIM=... -DOMXFARM=... -DWORK_DIR=... -P this_file
foreach(var OMXSIM OMXFARM WORK_DIR)
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

# Lines sorted lexicographically = sorted by config-hash key (every line
# starts {"key":"<16 hex>"), i.e. exactly merged.jsonl's canonical order.
function(read_sorted path out_var)
  file(STRINGS "${path}" lines)
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

function(expect_same_lines ref_path got_path what)
  read_sorted("${ref_path}" ref)
  read_sorted("${got_path}" got)
  if(NOT ref STREQUAL got)
    message(FATAL_ERROR "${what}: ${got_path} differs from ${ref_path}")
  endif()
endfunction()

# --deadline-ms is part of the grid on purpose: Sweep::run folds the trial
# deadline into the config before hashing, so the farm must key its items
# the same way or merged.jsonl diverges from the omxsim reference.
set(grid --algo optimal --attack rand-omit --n 48 --seeds 6 --seed 3
    --deadline-ms 20000)

# 1. Single-process reference sweep.
run_or_die(${OMXSIM} ${grid} --csv --checkpoint "${WORK_DIR}/ref.jsonl")

# 2. The same grid under a 3-worker farm.
run_or_die(${OMXFARM} run --dir "${WORK_DIR}/farm" --workers 3 ${grid})
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm/merged.jsonl"
                  "farm vs single-process")

# 3. Offline re-merge of the same shards is byte-stable.
run_or_die(${OMXFARM} merge --dir "${WORK_DIR}/farm")
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm/merged.jsonl"
                  "offline re-merge")

message(STATUS "farm pipeline OK")
