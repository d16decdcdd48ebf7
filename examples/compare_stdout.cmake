# Runs PROGRAM with the space-separated ARGS and fails unless it exits 0,
# prints nothing on stderr, and its stdout equals the file GOLDEN byte for
# byte. Usage:
#   cmake -DPROGRAM=<exe> [-DARGS="<args>"] -DGOLDEN=<file> -P compare_stdout.cmake
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
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
                      "it printed:\n${actual}")
endif()
