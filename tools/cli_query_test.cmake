# Exercises `msampctl query` (the zero-copy DatasetView read path) against
# a freshly generated day, and pins the failure modes: querying a missing
# file, a malformed rack range, or an unknown --what must fail with a
# nonzero exit.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_query_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run outvar)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

function(must_fail)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} succeeded; expected failure")
  endif()
endfunction()

run(ignored fleet --racks 3 --hours 2 --samples 150 --out ds.bin)

# The default summary mentions the selection size; the filtered variants
# must select strictly fewer (or equal) windows and still exit 0.
run(summary query --dataset ds.bin)
if(NOT summary MATCHES "windows selected")
  message(FATAL_ERROR "query summary missing the selection count:\n${summary}")
endif()

run(windows query --dataset ds.bin --what windows --limit 0)
if(NOT windows MATCHES "avg contention")
  message(FATAL_ERROR "query --what windows missing its table:\n${windows}")
endif()

run(ignored query --dataset ds.bin --region A --hour 1 --what windows)
run(ignored query --dataset ds.bin --racks 0-2 --what bursts --limit 5)
run(ignored query --dataset ds.bin --class typical --what summary)

# Same query twice is byte-identical stdout (the view is read-only and the
# file is deterministic).
run(first query --dataset ds.bin --region B --what bursts --limit 0)
run(second query --dataset ds.bin --region B --what bursts --limit 0)
if(NOT first STREQUAL second)
  message(FATAL_ERROR "query output is not deterministic")
endif()

# Failure modes: missing dataset, malformed rack range, unknown table.
must_fail(query --dataset missing.bin)
must_fail(query --dataset ds.bin --racks 5-2)
must_fail(query --dataset ds.bin --what bogus)

file(REMOVE_RECURSE ${work})
