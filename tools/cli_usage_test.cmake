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
  set(usage_err "${err}" PARENT_SCOPE)
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

# A value out of range exits 2, naming the flag or config field, before
# any work starts.  Process counts are probed only below their range:
# above it, a broken bound would start that many workers.
function(expect_refused what)
  expect_usage_error(${ARGN})
  if(NOT usage_err MATCHES "error:[^\n]*${what}")
    message(FATAL_ERROR "msampctl ${ARGN}: error does not name ${what}")
  endif()
endfunction()
set(tiny --racks 1 --hours 1 --samples 10)
expect_refused(buffer.alpha fleet ${tiny} --alpha -1)
expect_refused(buffer.alpha fleet ${tiny} --alpha nan)
expect_refused(buffer.burst_alpha_boost fleet ${tiny} --boost inf)
expect_refused(buffer.delay.target_delay_ms
               fleet ${tiny} --policy delay --target-delay -1)
expect_refused(--shard fleet ${tiny} --shard 1/4294967298)
expect_refused(buffer.alpha sweep ${tiny} --alphas -1)
expect_refused(buffer.delay.target_delay_ms
               sweep ${tiny} --policies delay --target-delays nan)
set(rack --servers 2 --samples 10)
expect_refused(--hour simulate-rack ${rack} --hour 300)
expect_refused(--hour simulate-rack ${rack} --hour -5)
expect_refused(--intensity simulate-rack ${rack} --intensity -1)
expect_refused(--task simulate-rack ${rack} --task bogus)
expect_refused(--gbps analyze --trace t.csv --gbps 0)
expect_refused(--gbps analyze --trace t.csv --gbps -3)
expect_refused(--hour query --dataset none.bin --hour -3)
expect_refused(--limit query --dataset none.bin --limit -4)
expect_refused(--racks query --dataset none.bin --racks 4294967296)
expect_refused(--attempt worker ${tiny} --shard 0/2 --attempt -1)
expect_refused(--fault-rate worker ${tiny} --shard 0/2 --fault-rate 5)
expect_refused(--stall-ms cluster ${tiny} --stall-ms -5)
expect_refused(--workers cluster ${tiny} --workers 0)
expect_refused(--workers cluster ${tiny} --workers -1)
expect_refused(--max-parallel cluster ${tiny} --max-parallel -1)
expect_refused(--retry-max cluster ${tiny} --retry-max -2)
expect_refused(--keep-shards cluster ${tiny} --keep-shards 2)

# The happy path still works end to end.
expect_ok(simulate-rack --servers 8 --samples 60 --out t.csv)
expect_ok(analyze --trace t.csv)
file(REMOVE_RECURSE ${work})
