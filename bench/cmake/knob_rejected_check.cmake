# A malformed environment knob must be refused up front: the binary prints
# a message and exits 2. It must neither run on with a fallback (exit 0)
# nor abort on an uncaught exception (SIGABRT).
#
# Required -D variables:
#   BIN     the binary to run (run with no arguments but --json, if a bench)
#   KNOB    one VAR=value assignment for the environment
#   EXPECT  regular expression the stderr message must match
# Optional: JSON, a result path passed as --json (bench mains).

foreach(var BIN KNOB EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "knob_rejected_check: ${var} not set")
  endif()
endforeach()

set(args)
if(DEFINED JSON)
  set(args --json ${JSON})
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SX4NCAR_BENCH_FULL= ${KNOB} ${BIN} ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${KNOB}: expected exit 2, got '${rc}'\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT}")
  message(FATAL_ERROR "${KNOB}: stderr does not match '${EXPECT}':\n${stderr}")
endif()
