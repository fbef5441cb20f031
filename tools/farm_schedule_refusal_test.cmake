# ctest script: `omxfarm run` and `omxfarm serve` refuse `--attack
# schedule`. The grid flags cannot carry an op list, so every item would
# run an empty schedule and record "ok". The refusal is a precondition
# error (exit 2) that points to omxsim and omxadv, raised before any farm
# state is written.
# Invoked as: cmake -DOMXFARM=... -DWORK_DIR=... -P this_file
foreach(var OMXFARM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(grid --algo floodset --attack schedule --n 8 --seeds 2 --workers 1)
foreach(cmd run serve)
  set(dir "${WORK_DIR}/${cmd}")
  set(extra)
  if(cmd STREQUAL "serve")
    set(extra --listen "unix:${WORK_DIR}/serve.sock" --linger-ms 0)
  endif()
  execute_process(COMMAND ${OMXFARM} ${cmd} --dir "${dir}" ${grid} ${extra}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "omxfarm ${cmd} --attack schedule: exit ${rc}, want 2\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "omxsim --attack schedule --schedule" OR
     NOT err MATCHES "omxadv")
    message(FATAL_ERROR
            "omxfarm ${cmd}: refusal does not point to omxsim and omxadv:\n${err}")
  endif()
  if(EXISTS "${dir}")
    message(FATAL_ERROR "omxfarm ${cmd}: a refused grid wrote ${dir}")
  endif()
endforeach()
