# Runs the adversarial smoke campaign with --metrics-out= and fails
# unless cobalt-fuzz exits 0 (no validator-blessed miscompile) and the
# metrics file exists with a nonzero validate.pairs counter. Invoked by
# the validate_adversary_smoke ctest (see CMakeLists.txt in this
# directory).
set(METRICS ${WORK_DIR}/adversary_smoke_metrics.json)
file(REMOVE ${METRICS})
execute_process(
  COMMAND ${FUZZ_BIN} --validate --suite=buggy --seed 1 --runs 4
          --no-minimize --metrics-out=${METRICS}
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "cobalt-fuzz --validate exited with ${RC}")
endif()

if(NOT EXISTS ${METRICS})
  message(FATAL_ERROR "cobalt-fuzz --validate wrote no ${METRICS}")
endif()
file(READ ${METRICS} TEXT)
string(REGEX MATCH "\"validate\\.pairs\": ([0-9]+)" MATCHED "${TEXT}")
if(NOT MATCHED OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "${METRICS} has no nonzero validate.pairs counter")
endif()
message(STATUS "validate.pairs = ${CMAKE_MATCH_1}")
