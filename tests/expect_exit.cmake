# Runs a command and requires both its exit code and a regex match on
# its output (stdout and stderr together). ctest's PASS_REGULAR_EXPRESSION
# alone ignores the exit status; this checks both.
#
#   cmake -P expect_exit.cmake -- <exit-code> <regex> <command> [args...]
set(sep -1)
foreach(i RANGE ${CMAKE_ARGC})
  if(CMAKE_ARGV${i} STREQUAL "--")
    set(sep ${i})
    break()
  endif()
endforeach()
math(EXPR code_at "${sep} + 1")
math(EXPR regex_at "${sep} + 2")
math(EXPR cmd_at "${sep} + 3")
math(EXPR last "${CMAKE_ARGC} - 1")
if(sep LESS 0 OR cmd_at GREATER last)
  message(FATAL_ERROR "usage: cmake -P expect_exit.cmake -- <exit-code> <regex> <command> [args...]")
endif()
set(expected_code "${CMAKE_ARGV${code_at}}")
set(expected_regex "${CMAKE_ARGV${regex_at}}")
set(cmd)
foreach(i RANGE ${cmd_at} ${last})
  list(APPEND cmd "${CMAKE_ARGV${i}}")
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT code STREQUAL expected_code)
  message(FATAL_ERROR "exit code ${code}, expected ${expected_code}")
endif()
if(NOT out MATCHES "${expected_regex}")
  message(FATAL_ERROR "output does not match: ${expected_regex}")
endif()
