# ctest driver for the corrupt-input failure class (exit code 5):
#   omxtrace stats on a non-trace file    -> exit 5, names file + offset 0
#   omxtrace stats on a version-1 trace   -> exit 5, names offset 8
#   omxtrace stats on a torn, flipped or
#     unknown-flag trace                  -> exit 5 with a byte offset
#   omxsim --repro on a mangled capture   -> exit 5, names the bad line's
#     or a malformed number                  exact byte offset
#   omxsim --repro on a missing file      -> exit 5
# The taxonomy point: corrupt *input* is distinct from a bad config
# (precondition, 2) and from an engine bug (invariant, 3) — a monitoring
# wrapper can tell "my artifact store is rotting" apart from "the model is
# wrong". Invoked as: cmake -DOMXSIM=... -DOMXTRACE=... -DWORK_DIR=... -P
foreach(var OMXSIM OMXTRACE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_corrupt(<needle...> COMMAND <cmd...>): run, demand exit 5 and that
# stderr mentions every needle.
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

# A file that is not a trace at all: bad magic, first bad record at byte 0.
file(WRITE "${WORK_DIR}/garbage.trace" "this is not a trace file at all\n")
expect_corrupt(COMMAND ${OMXTRACE} stats "${WORK_DIR}/garbage.trace"
               NEEDLES "garbage.trace" "byte offset 0")

# A mangled repro capture: two good lines (13 + 12 bytes), then debris —
# the message must name byte offset 25 exactly.
file(WRITE "${WORK_DIR}/bad.repro"
     "algo=optimal\nattack=none\nthis-line-has-no-equals\n")
expect_corrupt(COMMAND ${OMXSIM} --repro "${WORK_DIR}/bad.repro"
               NEEDLES "bad.repro" "byte offset 25")

# A malformed number is refused at its line (14 bytes in), not read as 12.
file(WRITE "${WORK_DIR}/bad_number.repro" "algo=floodset\nn=12abc\n")
expect_corrupt(COMMAND ${OMXSIM} --repro "${WORK_DIR}/bad_number.repro"
               NEEDLES "bad_number.repro" "byte offset 14" "bad number")

expect_corrupt(COMMAND ${OMXSIM} --repro "${WORK_DIR}/does-not-exist.repro"
               NEEDLES "does-not-exist.repro" "cannot open")

# --- Damaged traces. ---------------------------------------------------------
# Produce a real trace, then mutilate copies of it: a version-1 header, a
# truncated tail, a flipped byte inside the first block, and an unknown
# header flag bit must each be exit 5 with the file and a byte offset.
# (`dd` for the byte surgery: cmake cannot write binary, and CI runs this on
# Linux only.)
execute_process(COMMAND ${OMXSIM} --algo benor --attack rand-omit --n 16
                        --trace "${WORK_DIR}/p.trace"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace setup failed (${rc}):\n${out}\n${err}")
endif()
execute_process(COMMAND ${OMXTRACE} stats "${WORK_DIR}/p.trace"
                RESULT_VARIABLE rc OUTPUT_VARIABLE stats_out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT stats_out MATCHES "packed" OR
   NOT stats_out MATCHES "ratio")
  message(FATAL_ERROR
          "stats should accept the trace and report its compression "
          "ratio (${rc}):\n${stats_out}\n${err}")
endif()

# patch_byte(<file> <offset> <source>): overwrite one byte of <file> with
# the first byte of <source>.
function(patch_byte file offset source)
  execute_process(COMMAND dd if=${source} of=${file}
                          bs=1 seek=${offset} count=1 conv=notrunc
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dd failed: ${err}")
  endif()
endfunction()

# A version-1 header (raw records, no longer read): byte 8 is the low byte
# of the u32 version, byte 16 the low byte of the u64 flag word. Refused at
# offset 8, with directions to re-trace.
string(ASCII 1 one_byte)
file(WRITE "${WORK_DIR}/one.byte" "${one_byte}")
configure_file("${WORK_DIR}/p.trace" "${WORK_DIR}/p_v1.trace" COPYONLY)
patch_byte("${WORK_DIR}/p_v1.trace" 8 "${WORK_DIR}/one.byte")
patch_byte("${WORK_DIR}/p_v1.trace" 16 /dev/zero)
expect_corrupt(COMMAND ${OMXTRACE} stats "${WORK_DIR}/p_v1.trace"
               NEEDLES "p_v1.trace" "byte offset 8" "format version 1"
                       "omxsim --repro")

file(READ "${WORK_DIR}/p.trace" packed_hex HEX)
string(LENGTH "${packed_hex}" packed_hex_len)
math(EXPR packed_size "${packed_hex_len} / 2")

# Truncated tail: the offset must point into the torn block, not at 0.
math(EXPR torn_size "${packed_size} - 9")
configure_file("${WORK_DIR}/p.trace" "${WORK_DIR}/p_torn.trace" COPYONLY)
execute_process(COMMAND truncate -s ${torn_size} "${WORK_DIR}/p_torn.trace"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "truncate failed")
endif()
expect_corrupt(COMMAND ${OMXTRACE} stats "${WORK_DIR}/p_torn.trace"
               NEEDLES "p_torn.trace" "byte offset")

# One flipped byte inside the first block (offset 40 = 16 bytes past the
# header: the block's varints / checksum / body): the checksum or a column
# decode must refuse it. Pick a replacement byte that differs from the
# original so the write is a real flip.
string(SUBSTRING "${packed_hex}" 80 2 orig_byte)
if(orig_byte STREQUAL "41")
  file(WRITE "${WORK_DIR}/flip.byte" "B")
else()
  file(WRITE "${WORK_DIR}/flip.byte" "A")
endif()
configure_file("${WORK_DIR}/p.trace" "${WORK_DIR}/p_flip.trace" COPYONLY)
patch_byte("${WORK_DIR}/p_flip.trace" 40 "${WORK_DIR}/flip.byte")
expect_corrupt(COMMAND ${OMXTRACE} stats "${WORK_DIR}/p_flip.trace"
               NEEDLES "p_flip.trace" "byte offset")

# An unknown header flag bit (byte 16 is the low byte of the u64 flag word):
# refused at the header, offset 16, before any body parsing.
configure_file("${WORK_DIR}/p.trace" "${WORK_DIR}/p_flag.trace" COPYONLY)
patch_byte("${WORK_DIR}/p_flag.trace" 16 "${WORK_DIR}/flip.byte")
expect_corrupt(COMMAND ${OMXTRACE} stats "${WORK_DIR}/p_flag.trace"
               NEEDLES "p_flag.trace" "byte offset 16" "header flag")

message(STATUS "corrupt-input taxonomy OK")
