# Drives the trace_lint ctest: produce real traces with cobaltc, then
# validate them (JSON well-formedness + per-lane span nesting) with
# tools/trace_lint.py. Variables COBALTC, MODULE, PROGRAM, LINT, PYTHON,
# and OUT_DIR arrive from add_test.

execute_process(
  COMMAND ${COBALTC} opt ${MODULE} ${PROGRAM} --jobs 2
          --trace-out=${OUT_DIR}/trace_lint.json
          --metrics-out=${OUT_DIR}/metrics_lint.json
  RESULT_VARIABLE RC
  OUTPUT_QUIET)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "cobaltc exited ${RC}")
endif()

execute_process(
  COMMAND ${PYTHON} ${LINT} ${OUT_DIR}/trace_lint.json
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "trace_lint.py rejected the trace (${RC})")
endif()

# The metrics file must parse as JSON too (one json.load is enough).
execute_process(
  COMMAND ${PYTHON} -c "import json,sys; json.load(open(sys.argv[1]))"
          ${OUT_DIR}/metrics_lint.json
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "metrics JSON does not parse (${RC})")
endif()

# A multi-process trace: forked prover workers ship their spans back to
# the parent, and a keyed worker.crash plan kills some of them, so the
# lint's per-pid checks (a process_name row per worker pid, nesting per
# process) run and the parent's worker/kill spans are linted too. The
# plan's decisions are keyed per obligation, so the same obligations are
# quarantined on every run: exit 4, containment degraded.
set(ENV{COBALT_FAULTS} "worker.crash%15")
set(ENV{COBALT_FAULT_SEED} "7")
execute_process(
  COMMAND ${COBALTC} check ${MODULE} --isolate-workers --jobs 2
          --trace-out=${OUT_DIR}/trace_lint_workers.json
  RESULT_VARIABLE RC
  OUTPUT_QUIET ERROR_QUIET)
unset(ENV{COBALT_FAULTS})
unset(ENV{COBALT_FAULT_SEED})
if(NOT RC EQUAL 4)
  message(FATAL_ERROR "cobaltc check under worker.crash%15 exited ${RC}, "
                      "expected 4")
endif()

execute_process(
  COMMAND ${PYTHON} ${LINT} --require worker/kill
          ${OUT_DIR}/trace_lint_workers.json
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "trace_lint.py rejected the worker trace (${RC})")
endif()
