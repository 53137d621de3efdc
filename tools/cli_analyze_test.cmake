# `msampctl analyze` runs one analysis per trace: every row, the stall
# artifacts and the loss hotspots are read at --gbps and at the trace's own
# interval.  Three probes, each of which a second analysis at the default
# 12.5 Gb/s and 1 ms would get wrong, plus traces the reader must refuse
# with exit 1 and an `error:` line.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_analyze_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

set(columns "server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,in_ecn_bytes,connections")
set(head_1ms "# msamp-sync-trace v1 interval_ns=1000000 grid_start_ns=0\n${columns}\n")
set(failures "")

# analyze(<out> <args...>): the stdout of a run that must exit 0.
function(analyze out)
  execute_process(COMMAND ${MSAMPCTL} analyze ${ARGN}
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl analyze ${ARGN} exited ${rc}: ${err}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

# expect(<name> <text> <regex> <want>): record a failure unless `text`
# matches `regex` exactly when `want` is TRUE.
function(expect name text regex want)
  if(text MATCHES "${regex}")
    set(hit TRUE)
  else()
    set(hit FALSE)
  endif()
  if(NOT hit STREQUAL want)
    set(failures "${failures}\n${name}: expected match of '${regex}' to be ${want}:\n${text}" PARENT_SCOPE)
  endif()
endfunction()

# Probe 1: 2 MB in each of two 1 ms samples after a silent gap.  At 25 Gb/s
# that is a 64% burst, not a catch-up above line rate.
file(WRITE ${work}/p1.csv "${head_1ms}0,2,2000000,0,0,0,0,4.0\n0,3,2000000,0,0,0,0,4.0\n0,4,0,0,0,0,0,0.0\n")
analyze(out --trace p1.csv --gbps 25)
expect(probe1 "${out}" "bursts +1 " TRUE)
expect(probe1 "${out}" "kernel stalls\\) +none" TRUE)

# Probe 2: a simulated rack has lossy bursts at 12.5 Gb/s and none at
# 40 Gb/s, so at 40 Gb/s there is no loss hotspot to list.
execute_process(COMMAND ${MSAMPCTL} simulate-rack --seed 1 --out p2.csv
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "msampctl simulate-rack --seed 1 exited ${rc}")
endif()
analyze(out --trace p2.csv)
expect(probe2-default "${out}" "lossy bursts +[1-9]" TRUE)
# Four servers tie at one lossy burst each: listed by server index.
expect(probe2-default "${out}" "loss hotspots \\(servers\\): 21 61 67 89\n" TRUE)
analyze(out --trace p2.csv --gbps 40)
expect(probe2 "${out}" "lossy bursts +0 " TRUE)
expect(probe2 "${out}" "loss hotspots" FALSE)

# Probe 3: 100 us samples; after three silent samples one carries
# 468,750 B, 3x what 12.5 Gb/s delivers in 100 us: the §4.6 catch-up.  Its
# one-sample burst is 0.1 ms long.
file(WRITE ${work}/p3.csv "# msamp-sync-trace v1 interval_ns=100000 grid_start_ns=0\n${columns}\n0,0,50000,0,0,0,0,2.0\n0,1,50000,0,0,0,0,2.0\n0,5,468750,0,0,0,0,2.0\n")
analyze(out --trace p3.csv)
expect(probe3 "${out}" "kernel stalls\\) +DETECTED" TRUE)
expect(probe3 "${out}" "burst length \\(ms\\) +0\\.1 " TRUE)

# Fail closed: non-finite connections, one cell over the reader's budget
# (5 servers x 838,861 samples), two rows merged by a newline turned into
# a digit, a comma turned into a minus (in_retx_bytes -5), and two samples
# of 5e18 retransmitted bytes, whose sum would wrap int64 and hide the
# lossy burst, each exit 1 with an error line.
file(WRITE ${work}/nonfinite.csv "${head_1ms}0,0,1,0,0,0,0,nan\n0,1,1,0,0,0,0,inf\n")
set(huge 5000000000000000000)
file(WRITE ${work}/huge.csv "${head_1ms}0,0,${huge},${huge},0,0,0,4.0\n0,1,${huge},${huge},0,0,0,4.0\n")
file(WRITE ${work}/budget.csv "${head_1ms}0,0,1,0,0,0,0,1.0\n1,0,1,0,0,0,0,1.0\n2,0,1,0,0,0,0,1.0\n3,0,1,0,0,0,0,1.0\n4,838860,1,0,0,0,0,1.0\n")
set(rows_before "0,0,1000000,0,0,0,0,4.000\n")
set(rows_after "0,3,1000000,0,0,0,0,4.000\n1,1,1000000,0,0,0,0,4.000\n1,2,1000000,0,0,0,0,4.000\n1,3,0,0,0,0,0,0.000\n")
file(WRITE ${work}/merged.csv "${head_1ms}${rows_before}0,1,1000000,0,0,0,0,4.0007,2,1000000,0,0,0,0,4.000\n${rows_after}")
file(WRITE ${work}/nocomma.csv "${head_1ms}${rows_before}0,1,1000000-5,0,0,0,4.000\n0,2,1000000,0,0,0,0,4.000\n${rows_after}")
foreach(trace nonfinite budget merged nocomma huge)
  execute_process(COMMAND ${MSAMPCTL} analyze --trace ${trace}.csv
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "^error: ")
    set(failures "${failures}\n${trace}: expected exit 1 and an error line, got ${rc}: ${err}")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "cli_analyze:${failures}")
endif()
file(REMOVE_RECURSE ${work})
