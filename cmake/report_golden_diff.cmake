# Runs a document producer and byte-compares its output against a committed
# golden document. The documents pinned this way are integer-only by design
# (the RunReport, see docs/observability.md; the E14 BENCH_admission.json,
# see docs/control_plane.md; the E13 BENCH_faults.json, see
# docs/robustness.md), so byte-exactness is the determinism contract
# rendered as a test. Invoked from ctest:
#   cmake "-DCOMMAND=<producer> <args that write OUT>" -DGOLDEN=... -DOUT=...
#         -DWORKDIR=... -P report_golden_diff.cmake
# COMMAND is one string, split like a POSIX shell command line; it runs in
# WORKDIR (producers that write side files, such as the decoder's WAV, keep
# them inside the build tree rather than wherever ctest happens to run).
foreach(var COMMAND GOLDEN OUT WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_golden_diff.cmake: missing -D${var}=")
  endif()
endforeach()

separate_arguments(producer UNIX_COMMAND "${COMMAND}")
file(MAKE_DIRECTORY ${WORKDIR})
file(REMOVE ${OUT})
execute_process(
  COMMAND ${producer}
  WORKING_DIRECTORY ${WORKDIR}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${COMMAND}' failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${OUT})
  string(REPLACE "${OUT}" "${GOLDEN}" regenerate "${COMMAND}")
  message(FATAL_ERROR
    "${OUT} diverged from golden ${GOLDEN}; if the change is intentional, "
    "regenerate the golden with '${regenerate}'")
endif()
