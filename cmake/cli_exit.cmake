# Runs a command line and fails unless it exits with the expected status and
# its output (stdout and stderr together) matches a regular expression. The
# acc-lint and acc-verify CLIs document three statuses: 0 for clean configs,
# 1 for usage errors, unreadable files and invalid JSON, 2 for error-tier
# findings; a WILL_FAIL test cannot tell 1 from 2. Invoked from ctest:
#   cmake "-DCOMMAND=<program> <args>" -DEXIT=<status> "-DMATCH=<regex>"
#         -P cli_exit.cmake
# COMMAND is one string, split like a POSIX shell command line.
foreach(var COMMAND EXIT MATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_exit.cmake: missing -D${var}=")
  endif()
endforeach()

separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(
  COMMAND ${command}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT "${rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "'${COMMAND}' exited with ${rc}, expected ${EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output of '${COMMAND}' does not match '${MATCH}':\n${out}")
endif()
