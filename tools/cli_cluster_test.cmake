# Multi-process determinism: `msampctl cluster` must produce bytes
# identical to a single-process `msampctl fleet` run — including under
# injected worker kills, and when the shard split is wider than the day
# (empty trailing shards).
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_cluster_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
endfunction()

set(scale --racks 3 --hours 2 --samples 150 --threads 2)

run(fleet ${scale} --out ds.bin)

# Fault-free cluster run.
run(cluster ${scale} --workers 3 --out c0.bin)
file(SHA256 ${work}/ds.bin whole_hash)
file(SHA256 ${work}/c0.bin c0_hash)
if(NOT whole_hash STREQUAL c0_hash)
  message(FATAL_ERROR "cluster output differs from single-process fleet run")
endif()

# Injected worker kills: retries must reproduce the identical bytes.  The
# fast retry clock keeps the test quick.
run(cluster ${scale} --workers 3 --fault-rate 0.5 --retry-base-ms 10
    --out c1.bin)
file(SHA256 ${work}/c1.bin c1_hash)
if(NOT whole_hash STREQUAL c1_hash)
  message(FATAL_ERROR "cluster output changed under fault injection")
endif()

# More workers than windows: trailing shards are empty but still tiled,
# and --keep-shards leaves the shard files for inspection.
run(cluster ${scale} --workers 16 --keep-shards 1 --shard-dir shards16
    --out c2.bin)
file(SHA256 ${work}/c2.bin c2_hash)
if(NOT whole_hash STREQUAL c2_hash)
  message(FATAL_ERROR "wide cluster split differs from single-process run")
endif()
if(NOT EXISTS ${work}/shards16/shard-15.bin)
  message(FATAL_ERROR "--keep-shards did not leave the shard files behind")
endif()
# The kept shards merge back to the same bytes through `msampctl merge`.
file(GLOB kept ${work}/shards16/shard-*.bin)
run(merge ${kept} --out m16.bin)
file(SHA256 ${work}/m16.bin m16_hash)
if(NOT whole_hash STREQUAL m16_hash)
  message(FATAL_ERROR "kept cluster shards merged to different bytes")
endif()

file(REMOVE_RECURSE ${work})
