# `msampctl version` is the first thing a bug report needs: it must exit 0
# and carry every identity field, and it rejects flags like any other
# command.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_version_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

execute_process(COMMAND ${MSAMPCTL} version
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "msampctl version exited ${rc}: ${err}")
endif()

foreach(field wire-version model-version compiler optimized sanitizer)
  if(NOT out MATCHES "${field}")
    message(FATAL_ERROR "version output missing '${field}':\n${out}")
  endif()
endforeach()

# Flags are rejected like any other command's unknown flags.
execute_process(COMMAND ${MSAMPCTL} version --bogus 1
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "msampctl version --bogus: expected exit 2, got ${rc}")
endif()

file(REMOVE_RECURSE ${work})
