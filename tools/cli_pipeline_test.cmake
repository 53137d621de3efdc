# Drives the full msampctl pipeline in a scratch directory and fails on any
# nonzero exit.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_pipeline_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
endfunction()

run(simulate-rack --servers 24 --task cache --samples 200 --out t.csv)
run(analyze --trace t.csv)
run(fleet --racks 3 --hours 2 --samples 150 --out ds.bin)
run(report --dataset ds.bin)

# Sharded generation: two shards merged back must be byte-identical to the
# single-process dataset above (the multi-process determinism contract).
run(fleet --racks 3 --hours 2 --samples 150 --shard 0/2 --out s0.bin)
run(fleet --racks 3 --hours 2 --samples 150 --shard 1/2 --out s1.bin)
run(report --dataset s0.bin)  # a partial shard is a first-class file
run(merge s0.bin s1.bin --out merged.bin)
file(SHA256 ${work}/ds.bin whole_hash)
file(SHA256 ${work}/merged.bin merged_hash)
if(NOT whole_hash STREQUAL merged_hash)
  message(FATAL_ERROR "merged shards differ from the single-process dataset")
endif()
run(report --dataset merged.bin)

# The spill sink leaves nothing behind but its output.
file(GLOB leftovers ${work}/*.spill-*)
if(leftovers)
  message(FATAL_ERROR "fleet left spill temps behind: ${leftovers}")
endif()

# A zero-window run never opens a spill file: a directory squatting on a
# spill path would fail the open.
foreach(cmd fleet worker)
  file(MAKE_DIRECTORY ${work}/z-${cmd}.bin.spill-servers-c0)
  run(${cmd} --racks 3 --hours 0 --out z-${cmd}.bin)
endforeach()
file(MAKE_DIRECTORY ${work}/zs/dt-a1.bin.spill-bursts-c0)
run(sweep --racks 3 --hours 0 --policies dt --alphas 1 --out-dir zs)

# This day's server runs overflow the default spill chunk, so the squatting
# directory fails the open: `fleet` must exit 1 with an `error:` line, not
# abort, and leave neither an output nor a spill temp behind.
file(MAKE_DIRECTORY ${work}/sq.bin.spill-servers-c0)
execute_process(COMMAND ${MSAMPCTL} fleet --racks 16 --hours 8 --samples 20
                        --out sq.bin
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "^error: ")
  message(FATAL_ERROR "fleet with an unopenable spill file exited ${rc}: "
                      "${err}")
endif()
file(GLOB leftovers ${work}/sq.bin*)
if(leftovers)
  message(FATAL_ERROR "failed fleet left files behind: ${leftovers}")
endif()

# A rack table class past the last class fails the open: `report` must exit
# 1 with an `error:` line naming the rack, not count that rack's bursts
# into a per-class array it indexes past.  On this day (4 racks) the
# rack_class column starts at byte 57344; the guard below fails loudly if
# the layout moves it.
run(fleet --racks 2 --hours 8 --samples 100 --out cls.bin)
# flags.bin: an unpatched copy for the burst-flag probe below.
execute_process(COMMAND ${CMAKE_COMMAND} -E copy cls.bin flags.bin
                WORKING_DIRECTORY ${work})
file(READ ${work}/cls.bin classes OFFSET 57344 LIMIT 4 HEX)
if(NOT classes MATCHES "^0[01]0[01]0202$")
  message(FATAL_ERROR "rack_class column not at byte 57344: ${classes}")
endif()
string(ASCII 200 bad_class)
file(WRITE ${work}/class.byte "${bad_class}")
execute_process(COMMAND dd if=class.byte of=cls.bin bs=1 seek=57344
                        conv=notrunc
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc ERROR_QUIET)
file(READ ${work}/cls.bin classes OFFSET 57344 LIMIT 4 HEX)
if(NOT rc EQUAL 0 OR NOT classes MATCHES "^c8")
  message(FATAL_ERROR "could not patch the rack class: ${rc} ${classes}")
endif()
execute_process(COMMAND ${MSAMPCTL} report --dataset cls.bin
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR
   NOT err MATCHES "^error: [^\n]*class 200 out of range at rack 0")
  message(FATAL_ERROR "report on a rack class of 200 exited ${rc}: ${err}")
endif()

# A burst flag is set when its byte is nonzero: `report` must count a
# `contended` byte of 200 as one contended burst, as it counts 1, not add
# 200 to the tally.  On the same day burst 0's contended byte is byte
# 245760 and holds 1; the guard fails loudly if the layout moves it: the
# byte must read 1, and clearing it must move the report.
function(report_of file out)
  execute_process(COMMAND ${MSAMPCTL} report --dataset ${file}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report on ${file} exited ${rc}: ${err}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()
file(READ ${work}/flags.bin flag OFFSET 245760 LIMIT 1 HEX)
if(NOT flag STREQUAL "01")
  message(FATAL_ERROR "burst 0's contended flag not at byte 245760: ${flag}")
endif()
report_of(flags.bin unpatched)
foreach(patch zero wide)
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy flags.bin ${patch}.bin
                  WORKING_DIRECTORY ${work})
endforeach()
execute_process(COMMAND dd if=/dev/zero of=zero.bin bs=1 seek=245760 count=1
                        conv=notrunc
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc ERROR_QUIET)
execute_process(COMMAND dd if=class.byte of=wide.bin bs=1 seek=245760  # 200
                        conv=notrunc
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc2 ERROR_QUIET)
file(READ ${work}/zero.bin zero_flag OFFSET 245760 LIMIT 1 HEX)
file(READ ${work}/wide.bin wide_flag OFFSET 245760 LIMIT 1 HEX)
if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT zero_flag STREQUAL "00" OR
   NOT wide_flag STREQUAL "c8")
  message(FATAL_ERROR "could not patch the contended flag: ${rc} ${rc2} "
                      "${zero_flag} ${wide_flag}")
endif()
report_of(zero.bin cleared)
if(cleared STREQUAL unpatched)
  message(FATAL_ERROR "byte 245760 is not a contended flag `report` reads")
endif()
report_of(wide.bin wide)
if(NOT wide STREQUAL unpatched)
  message(FATAL_ERROR "report on a contended flag of 200 differs:\n${wide}\n"
                      "unpatched:\n${unpatched}")
endif()

# Mixing shards of different configs must fail loudly, not merge.
run(fleet --racks 3 --hours 2 --samples 150 --seed 7 --shard 1/2 --out w1.bin)
execute_process(COMMAND ${MSAMPCTL} merge s0.bin w1.bin --out bad.bin
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "merge accepted shards with mismatched fingerprints")
endif()
# --alpha 1.0009 hashes like --alpha 1: only the config bytes differ.
run(fleet --racks 3 --hours 2 --samples 150 --alpha 1.0009 --shard 1/2
    --out a1.bin)
execute_process(COMMAND ${MSAMPCTL} merge s0.bin a1.bin --out bad.bin
                WORKING_DIRECTORY ${work} RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "^error: [^\n]*buffer\\.alpha")
  message(FATAL_ERROR "merge of --alpha 1 and 1.0009 shards exited ${rc}: "
                      "${err}")
endif()
file(REMOVE_RECURSE ${work})
