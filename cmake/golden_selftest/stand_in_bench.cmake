# A stand-in bench for the golden gate's self-tests: prints the file TEXT
# to stdout, then exits nonzero if FAIL is set.
#
# Usage: cmake -DTEXT=<file> [-DFAIL=ON] -P stand_in_bench.cmake

execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${TEXT}")
if(FAIL)
  message(FATAL_ERROR "stand-in bench: failing on purpose")
endif()
