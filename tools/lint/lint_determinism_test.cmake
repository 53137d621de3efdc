# ctest LintParallelDeterminism: `msamp_lint --format=json` must emit
# byte-identical reports for any file-argument order, and refuses the
# retired `--jobs` flag.  Driven as a cmake -P script
# (tools/cli_usage_test.cmake idiom):
#
#   cmake -DMSAMP_LINT=<binary> -DROOT=<source tree> -DWORK=<scratch dir>
#         -P lint_determinism_test.cmake
#
# The exit status must match across runs too — a finding that appears
# under one order but not another is exactly the bug this guards.
if(NOT MSAMP_LINT OR NOT ROOT OR NOT WORK)
  message(FATAL_ERROR "need -DMSAMP_LINT, -DROOT, -DWORK")
endif()
file(MAKE_DIRECTORY "${WORK}")

function(run_lint out_file result_var)
  execute_process(
    COMMAND ${MSAMP_LINT} --root ${ROOT} --format=json ${ARGN}
    OUTPUT_FILE "${out_file}"
    ERROR_VARIABLE err
    RESULT_VARIABLE res)
  if(res GREATER 1)
    message(FATAL_ERROR "msamp_lint ${ARGN} failed (${res}): ${err}")
  endif()
  set(${result_var} ${res} PARENT_SCOPE)
endfunction()

function(expect_same a b label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ")
  endif()
endfunction()

# File-scoped scan: argument order must not matter.  The files span
# layers so the cross-file index is genuinely exercised.
set(fwd src/util/stats.h src/net/shared_buffer.cc src/fleet/dataset.cc
        tools/lint/rules.cc)
set(rev tools/lint/rules.cc src/fleet/dataset.cc src/net/shared_buffer.cc
        src/util/stats.h)
run_lint("${WORK}/files_fwd.json" files_fwd ${fwd})
run_lint("${WORK}/files_rev.json" files_rev ${rev})
expect_same("${WORK}/files_fwd.json" "${WORK}/files_rev.json"
            "file-scoped report depends on argument order")
if(NOT files_fwd EQUAL files_rev)
  message(FATAL_ERROR
          "exit status depends on argument order: ${files_fwd} vs ${files_rev}")
endif()

# The linter is serial: `--jobs` is an unknown flag, a usage error.
execute_process(
  COMMAND ${MSAMP_LINT} --root ${ROOT} --jobs 2
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE jobs_rc)
if(NOT jobs_rc EQUAL 2)
  message(FATAL_ERROR "msamp_lint --jobs 2 exited ${jobs_rc}, want 2")
endif()

message(STATUS "lint determinism ok")
