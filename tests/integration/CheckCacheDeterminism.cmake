# `cobaltc check stdlib` writes byte-identical --cache-dir entries, rlimit
# included, at --jobs 1, at --jobs 4 and at --jobs 4 --isolate-workers.
# Each definition's obligations are proven in one Z3 world, so an
# obligation's solver history is the earlier obligations of its own set,
# whatever the width or the process (a forked prover worker, under
# --isolate-workers) that proves it.
#
# Invoke with -DCOBALTC=<path-to-cobaltc> -DWORK_DIR=<scratch directory>.

function(check_into name)
  set(DIR ${WORK_DIR}/cache_determinism_${name})
  file(REMOVE_RECURSE ${DIR})
  execute_process(
    COMMAND ${COBALTC} check stdlib --cache-dir ${DIR} ${ARGN}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "cobaltc check stdlib ${ARGN} exited ${RC}, "
            "want 0:\n${OUT}\n${ERR}")
  endif()
endfunction()

function(entries out_var name)
  file(GLOB NAMES RELATIVE ${WORK_DIR}/cache_determinism_${name}
       ${WORK_DIR}/cache_determinism_${name}/verdict-*)
  set(${out_var} "${NAMES}" PARENT_SCOPE)
endfunction()

check_into(j1 --jobs 1)
check_into(j4 --jobs 4)
check_into(j4_isolated --jobs 4 --isolate-workers)

# One entry per stdlib definition (1 analysis, 8 optimizations).
entries(WANT j1)
list(LENGTH WANT COUNT)
if(NOT COUNT EQUAL 9)
  message(FATAL_ERROR "--jobs 1 wrote ${COUNT} verdict entries, want 9: "
          "${WANT}")
endif()

foreach(OTHER j4 j4_isolated)
  entries(GOT ${OTHER})
  if(NOT GOT STREQUAL WANT)
    message(FATAL_ERROR "${OTHER} wrote entries '${GOT}', --jobs 1 wrote "
            "'${WANT}'")
  endif()
  foreach(ENTRY IN LISTS WANT)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/cache_determinism_j1/${ENTRY}
              ${WORK_DIR}/cache_determinism_${OTHER}/${ENTRY}
      RESULT_VARIABLE DIFF)
    if(NOT DIFF EQUAL 0)
      message(FATAL_ERROR "${ENTRY} differs between --jobs 1 and ${OTHER}: "
              "a proof depends on the schedule")
    endif()
  endforeach()
endforeach()
