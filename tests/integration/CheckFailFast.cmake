# `cobaltc check --fail-fast` stops at the first definition that is not
# proven sound. The fixture module holds a sound rule, an unguarded
# (rejected) rule, then a second sound rule: the text and the
# --report=json outputs must both list exactly the first two, and both
# runs must exit 1 (rejected).
#
# Invoke with -DCOBALTC=<path-to-cobaltc> -DMODULE=<fail_fast.cob>.

set(EXPECTED "const_prop_first;bad")

function(run_check out_var)
  execute_process(
    COMMAND ${COBALTC} check ${MODULE} --fail-fast ${ARGN}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "cobaltc check --fail-fast ${ARGN} exited ${RC}, "
            "want 1:\n${OUT}\n${ERR}")
  endif()
  set(${out_var} "${OUT}" PARENT_SCOPE)
endfunction()

# Text report: one "  <name>  <VERDICT>" line per checked definition.
run_check(TEXT)
string(REGEX MATCHALL "\n  [a-z_]+ +(SOUND|REJECTED|UNPROVEN)" LINES
       "${TEXT}")
set(NAMES "")
foreach(LINE IN LISTS LINES)
  string(REGEX REPLACE "\n  ([a-z_]+) .*" "\\1" NAME "${LINE}")
  list(APPEND NAMES "${NAME}")
endforeach()
if(NOT NAMES STREQUAL EXPECTED)
  message(FATAL_ERROR "text report lists '${NAMES}', want '${EXPECTED}':\n"
          "${TEXT}")
endif()

# JSON report: definition objects are the ones carrying a "verdict".
run_check(JSON --report=json)
string(REGEX MATCHALL "\\{\"name\": \"[a-z_]+\", \"verdict\"" DEFS
       "${JSON}")
set(NAMES "")
foreach(DEF IN LISTS DEFS)
  string(REGEX REPLACE "\\{\"name\": \"([a-z_]+)\".*" "\\1" NAME "${DEF}")
  list(APPEND NAMES "${NAME}")
endforeach()
if(NOT NAMES STREQUAL EXPECTED)
  message(FATAL_ERROR "JSON report lists '${NAMES}', want '${EXPECTED}':\n"
          "${JSON}")
endif()
if(NOT JSON MATCHES "\"exit\": 1")
  message(FATAL_ERROR "JSON report does not carry exit 1:\n${JSON}")
endif()

message(STATUS "--fail-fast stopped after: ${NAMES}")
