# Sweep-grid determinism: `msampctl sweep` must emit byte-identical
# summary CSVs on re-runs, and a kept cell dataset must equal the bytes of
# a direct `msampctl fleet` run at the same policy parameters.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_sweep_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
endfunction()

set(scale --racks 2 --hours 2 --samples 120 --threads 2)
set(grid --policies dt,static,delay --alphas 0.25,1,4 --target-delays 0.5)

# The same grid twice: identical CSV bytes.
run(sweep ${scale} ${grid} --out-dir s1)
run(sweep ${scale} ${grid} --out-dir s2)
foreach(csv sweep_summary.csv sweep_contention_cdf.csv)
  file(SHA256 ${work}/s1/${csv} a)
  file(SHA256 ${work}/s2/${csv} b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "sweep re-run changed ${csv}")
  endif()
endforeach()

# A kept cell dataset is just a fleet run at that cell's config: the
# DT alpha=1 cell must be byte-identical to `msampctl fleet` with the
# default policy flags (the pre-sweep path).
run(sweep ${scale} --policies dt --alphas 1 --keep-datasets 1 --out-dir kept)
run(fleet ${scale} --out plain.bin)
file(SHA256 ${work}/kept/dt-a1.bin kept_hash)
file(SHA256 ${work}/plain.bin plain_hash)
if(NOT kept_hash STREQUAL plain_hash)
  message(FATAL_ERROR "kept sweep cell differs from a direct fleet run")
endif()

file(REMOVE_RECURSE ${work})
