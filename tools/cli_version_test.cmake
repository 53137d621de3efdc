# `msampctl version` is the first thing a bug report needs: it must exit 0,
# carry every identity field, report a SIMD dispatch state consistent with
# itself, and honor (or visibly reject) an MSAMP_SIMD override.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_version_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run_version outvar)
  execute_process(COMMAND ${MSAMPCTL} version
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl version exited ${rc}: ${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

run_version(out)

foreach(field wire-version model-version compiler sanitizer
        simd-available simd-detected simd-active simd-env simd-env-honored)
  if(NOT out MATCHES "${field}")
    message(FATAL_ERROR "version output missing '${field}':\n${out}")
  endif()
endforeach()

# The scalar path is always compiled and always available.
if(NOT out MATCHES "simd-available[ ]+scalar")
  message(FATAL_ERROR "scalar path missing from simd-available:\n${out}")
endif()

# Flags are rejected like any other command's unknown flags.
execute_process(COMMAND ${MSAMPCTL} version --bogus 1
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "msampctl version --bogus: expected exit 2, got ${rc}")
endif()

# A forced scalar path must be reported as active and honored; MSAMP_SIMD is
# read once at startup, so the env var is the only way to steer a subprocess.
set(ENV{MSAMP_SIMD} scalar)
run_version(forced)
set(ENV{MSAMP_SIMD} "")
if(NOT forced MATCHES "simd-active[ ]+scalar")
  message(FATAL_ERROR "MSAMP_SIMD=scalar not honored as active:\n${forced}")
endif()
if(NOT forced MATCHES "simd-env-honored[ ]+yes")
  message(FATAL_ERROR "MSAMP_SIMD=scalar not marked honored:\n${forced}")
endif()

# An unknown value — including the retired sse4 and neon paths — falls back
# to the detected path and says so.
foreach(value avx9999 sse4 neon)
  set(ENV{MSAMP_SIMD} ${value})
  run_version(bogus)
  set(ENV{MSAMP_SIMD} "")
  if(NOT bogus MATCHES "simd-env-honored[ ]+no")
    message(FATAL_ERROR "MSAMP_SIMD=${value} not flagged as unhonored:\n${bogus}")
  endif()
  string(REGEX MATCH "simd-detected[ ]+([a-z0-9]+)" detected_row "${bogus}")
  if(NOT bogus MATCHES "simd-active[ ]+${CMAKE_MATCH_1}[ \n]")
    message(FATAL_ERROR "MSAMP_SIMD=${value} left the detected path:\n${bogus}")
  endif()
endforeach()

file(REMOVE_RECURSE ${work})
