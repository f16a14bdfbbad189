# Exit-code contract for containment degradation, driven through the real
# CLI. Runs `cobaltc check stdlib --isolate-workers` three ways and checks:
#
#   clean            -> 0  (all sound; isolation costs nothing in answers)
#   crash storm      -> 4  (containment degraded, distinct from infra's 3)
#   crash storm j1/j4-> identical verdict lines (timings normalized away)
#
# Invoke with -DCOBALTC=<path-to-cobaltc>.

set(STORM_ENV "COBALT_FAULTS=worker.crash%15" "COBALT_FAULT_SEED=7")

function(run_cobaltc out_var rc_var)
  # ARGN: [ENV var=value...] -- cobaltc arguments
  cmake_parse_arguments(RUN "" "" "ENV;ARGS" ${ARGN})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${RUN_ENV} ${COBALTC} ${RUN_ARGS}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  set(${out_var} "${OUT}" PARENT_SCOPE)
  set(${rc_var} "${RC}" PARENT_SCOPE)
endfunction()

# Verdict lines with wall-clock noise removed — the part that must be
# bit-identical across widths.
function(normalize text out_var)
  string(REGEX REPLACE "[0-9]+\\.[0-9]+ s" "<time> s" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# 1. Clean isolated run: exit 0.
run_cobaltc(OUT RC ARGS check stdlib --isolate-workers --jobs 4)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "clean isolated run exited ${RC}, want 0:\n${OUT}")
endif()

# 2. Crash storm: the run completes, degrades, and exits 4.
run_cobaltc(J4 RC4 ENV ${STORM_ENV}
            ARGS check stdlib --isolate-workers --jobs 4)
if(NOT RC4 EQUAL 4)
  message(FATAL_ERROR "crash storm at --jobs 4 exited ${RC4}, want 4:\n${J4}")
endif()
if(NOT J4 MATCHES "containment degraded")
  message(FATAL_ERROR "exit 4 without the containment summary:\n${J4}")
endif()

# 3. Same storm at --jobs 1: same exit code, same verdicts.
run_cobaltc(J1 RC1 ENV ${STORM_ENV}
            ARGS check stdlib --isolate-workers --jobs 1)
if(NOT RC1 EQUAL 4)
  message(FATAL_ERROR "crash storm at --jobs 1 exited ${RC1}, want 4:\n${J1}")
endif()
normalize("${J1}" N1)
normalize("${J4}" N4)
if(NOT N1 STREQUAL N4)
  message(FATAL_ERROR "verdicts differ across --jobs widths\n"
          "--jobs 1:\n${N1}\n--jobs 4:\n${N4}")
endif()

message(STATUS "degraded exit codes: 0 clean, 4 contained")
