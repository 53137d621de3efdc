# Exercises msampctl's flag-parser error handling: valueless, unknown, and
# non-numeric flags must exit 2 with a usage message (never crash), and a
# well-formed invocation must still succeed.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_usage_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

# expect_usage_error(<args...>): exit code must be 2 and stderr must carry
# an "error:" line (a crash gives a signal-mangled code, not 2).
function(expect_usage_error)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "msampctl ${ARGN}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "error:")
    message(FATAL_ERROR "msampctl ${ARGN}: no usage error on stderr: ${err}")
  endif()
endfunction()

function(expect_ok)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
endfunction()

expect_usage_error(fleet --threads)                 # trailing flag, no value
expect_usage_error(fleet --racks)                   # same, different flag
expect_usage_error(fleet --bogus 3)                 # unknown flag
expect_usage_error(fleet racks 3)                   # positional token
expect_usage_error(fleet --racks two)               # non-integer value
expect_usage_error(simulate-rack --intensity high)  # non-numeric value
expect_usage_error(analyze --threads 2)             # flag from another command
expect_usage_error(fleet --shard 3)                 # shard needs I/N
expect_usage_error(fleet --shard 2/2)               # index out of range
expect_usage_error(fleet --shard a/b)               # non-numeric halves
expect_usage_error(merge)                           # no shard files given
expect_usage_error(merge --bogus x shard.bin)       # unknown flag
expect_usage_error(cluster --chunk-bytes 256)       # removed flag
expect_usage_error(worker --chunk-bytes 256)        # removed flag
expect_usage_error(sweep --chunk-bytes 256)         # removed flag
# sweep generates every cell in-process: its cluster knobs are gone.
foreach(flag workers fault-rate stall-ms max-parallel retry-max
        retry-base-ms)
  expect_usage_error(sweep --${flag} 1)
endforeach()
# Scale flags fail closed: no negative scale, and no value that would
# wrap a record's u8 hour or u16 sample count.
foreach(cmd fleet worker cluster sweep)
  expect_usage_error(${cmd} --racks -2)
  expect_usage_error(${cmd} --hours -1)
  expect_usage_error(${cmd} --samples -5)
  expect_usage_error(${cmd} --hours 257)
  expect_usage_error(${cmd} --samples 65536)
endforeach()
# --seed and --threads fail closed too: a negative seed would wrap to a
# huge u64 in-process while a cluster's workers reject it, and a negative
# thread count would quietly mean the default.  The tiny scale keeps a
# command that wrongly accepts them quick.
foreach(cmd fleet worker cluster sweep)
  expect_usage_error(${cmd} --racks 1 --hours 1 --samples 10 --seed -5)
  expect_usage_error(${cmd} --racks 1 --hours 1 --samples 10 --threads -1)
endforeach()
expect_usage_error(simulate-rack --servers 4 --samples 10 --seed -5)
# simulate-rack's scale fails closed as well: a negative server or sample
# count must not reach a container size.
expect_usage_error(simulate-rack --servers -1)
expect_usage_error(simulate-rack --samples -3)

# The happy path still works end to end.
expect_ok(simulate-rack --servers 8 --samples 60 --out t.csv)
expect_ok(analyze --trace t.csv)
file(REMOVE_RECURSE ${work})
