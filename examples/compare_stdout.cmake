# Runs PROGRAM with the space-separated ARGS and fails unless it exits 0,
# prints nothing on stderr, and its stdout equals the file GOLDEN byte for
# byte. With SKIP, lines that begin with it (a regex) are left out of both
# sides: a line of wall-clock times cannot match byte for byte. Usage:
#   cmake -DPROGRAM=<exe> [-DARGS="<args>"] [-DSKIP=<regex>] -DGOLDEN=<file>
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
if(NOT errors STREQUAL "")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} wrote to stderr:\n${errors}")
endif()
file(READ ${GOLDEN} expected)
if(NOT "${SKIP}" STREQUAL "")
  string(REGEX REPLACE "\n${SKIP}[^\n]*" "" actual "${actual}")
  string(REGEX REPLACE "\n${SKIP}[^\n]*" "" expected "${expected}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
                      "it printed:\n${actual}")
endif()
