# Runs a smoke command and fails unless its exit code is 0 and its stdout
# is what the caller expects. (ctest's PASS_REGULAR_EXPRESSION alone
# ignores the exit code, which would mask e.g. sanitizer aborts after
# the expected text prints.) CMD may be a list: the binary, then its
# arguments.
#
# Marker mode: stdout must match the regex MARKER.
#   cmake -DCMD=<binary> -DMARKER=<regex> -P RunSmokeTest.cmake
#
# Golden mode: the filtered stdout must equal the file GOLDEN byte for
# byte. On a mismatch the first differing line is printed and the
# filtered output is written to ACTUAL. With -DUPDATE=ON the filtered
# output is written to GOLDEN instead, so the check and the update share
# the one filter below.
#   cmake -DCMD=<binary> -DGOLDEN=<file> -DACTUAL=<file> [-DUPDATE=ON]
#         -P RunSmokeTest.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED CMD OR (NOT DEFINED MARKER AND NOT DEFINED GOLDEN))
  message(FATAL_ERROR
    "RunSmokeTest.cmake needs -DCMD=... and -DMARKER=... or -DGOLDEN=...")
endif()
if(DEFINED GOLDEN AND NOT UPDATE AND NOT DEFINED ACTUAL)
  message(FATAL_ERROR "RunSmokeTest.cmake: -DGOLDEN=... needs -DACTUAL=...")
endif()

execute_process(
  COMMAND ${CMD}
  OUTPUT_VARIABLE smoke_out
  ERROR_VARIABLE smoke_err
  RESULT_VARIABLE smoke_rc
)
message("${smoke_out}")
if(smoke_err)
  message("${smoke_err}")
endif()

if(NOT smoke_rc EQUAL 0)
  message(FATAL_ERROR "smoke: ${CMD} exited with '${smoke_rc}'")
endif()

if(DEFINED MARKER)
  if(NOT smoke_out MATCHES "${MARKER}")
    message(FATAL_ERROR "smoke: marker '${MARKER}' not found in stdout")
  endif()
  return()
endif()

# The filter: the popcount backend is picked from the CPU at run time,
# so its name is the one field of the smoke output that may differ
# between hosts.
string(REGEX REPLACE "\\[packed\\] backend=[^ \n]*" "[packed] backend=*"
       smoke_out "${smoke_out}")

if(UPDATE)
  file(WRITE "${GOLDEN}" "${smoke_out}")
  message(STATUS "golden: wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" golden_out)
if(smoke_out STREQUAL golden_out)
  return()
endif()

# Walk both texts line by line to name the first difference. (CMake list
# splitting would mangle lines holding ';' or brackets, so cut at each
# newline by hand.)
file(WRITE "${ACTUAL}" "${smoke_out}")
set(expected "${golden_out}")
set(actual "${smoke_out}")
set(line_no 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT expected_line STREQUAL actual_line OR expected_end EQUAL -1 OR
     actual_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line_no "${line_no} + 1")
endwhile()
message(FATAL_ERROR
  "golden: stdout differs from ${GOLDEN} at line ${line_no}\n"
  "  expected: ${expected_line}\n"
  "  actual:   ${actual_line}\n"
  "The output is in ${ACTUAL}. If the change is intended, rebuild the "
  "goldens with `cmake --build <build> --target bench_update_goldens` "
  "and commit them.")
