# Runs the command after `--` and fails unless it exits with status
# EXPECT_EXIT exactly (an abort or a crash must not pass for a rejection),
# and, when EXPECT_STDERR is set, unless its stderr contains that text.
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_STDERR=--sites] -P expect_exit.cmake -- <program> <args>...
set(command)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
string(JOIN " " command ${command})
if(NOT status STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${command}\nexited with '${status}', expected ${EXPECT_EXIT}\n${stderr}")
endif()
if(DEFINED EXPECT_STDERR)
  string(FIND "${stderr}" "${EXPECT_STDERR}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${command}\nstderr lacks '${EXPECT_STDERR}':\n${stderr}")
  endif()
endif()
