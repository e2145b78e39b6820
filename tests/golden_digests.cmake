# Runs one h3cdn_study command with --out and --obs into WORK_DIR and compares
# the SHA-256 of its report and of every --obs artifact except profile.json
# (host wall-clock timings) with RUN's lines in DIGESTS. The report is written
# to a file named "stdout": it is what the command prints without --out.
#
#   cmake -DRUN=<id> -DDIGESTS=<digests.txt> -DWORK_DIR=<dir> -DTOOLCHAIN=<text>
#         [-DUPDATE=ON] -P golden_digests.cmake -- <h3cdn_study> <args>...
#
# DIGESTS starts with a "# toolchain <TOOLCHAIN>" line, then holds one
# "<run> <artifact> <sha256>" line per artifact. A build from another
# toolchain skips the comparison (tests/golden/README says why). UPDATE=ON, or
# GOLDEN_UPDATE=ON in the environment, rewrites RUN's lines instead.
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
if(NOT command OR NOT RUN OR NOT DIGESTS OR NOT WORK_DIR OR NOT TOOLCHAIN)
  message(FATAL_ERROR "golden_digests.cmake: needs -DRUN, -DDIGESTS, -DWORK_DIR, "
                      "-DTOOLCHAIN and a command after --")
endif()
if(NOT DEFINED UPDATE)
  set(UPDATE "$ENV{GOLDEN_UPDATE}")
endif()

# Pinned digests: "<artifact> <sha256>" entries of RUN, every other run's lines.
set(pinned_toolchain)
set(expected)
set(other_lines)
if(EXISTS "${DIGESTS}")
  file(STRINGS "${DIGESTS}" lines)
  foreach(line IN LISTS lines)
    if(line MATCHES "^# toolchain (.*)$")
      set(pinned_toolchain "${CMAKE_MATCH_1}")
    elseif(line MATCHES "^${RUN} ([^ ]+) ([0-9a-f]+)$")
      list(APPEND expected "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
    elseif(NOT line MATCHES "^#" AND NOT line STREQUAL "")
      list(APPEND other_lines "${line}")
    endif()
  endforeach()
endif()

if(UPDATE)
  if(other_lines AND NOT pinned_toolchain STREQUAL TOOLCHAIN)
    message(FATAL_ERROR "${DIGESTS} is pinned for '${pinned_toolchain}', this build is "
                        "'${TOOLCHAIN}': regenerate every run on one toolchain")
  endif()
elseif(NOT pinned_toolchain STREQUAL TOOLCHAIN)
  message("golden digests skipped: pinned for '${pinned_toolchain}', this build is "
          "'${TOOLCHAIN}'")
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.29)
    cmake_language(EXIT 77)
  endif()
  return()
elseif(NOT expected)
  message(FATAL_ERROR "no digests for run '${RUN}' in ${DIGESTS}; generate them with -DUPDATE=ON")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND ${command} --out "${WORK_DIR}/stdout" --obs "${WORK_DIR}/obs"
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
string(JOIN " " command_text ${command})
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${command_text}\nexited with '${status}'\n${stderr}")
endif()

set(actual)
file(SHA256 "${WORK_DIR}/stdout" digest)
list(APPEND actual "stdout ${digest}")
file(GLOB artifacts RELATIVE "${WORK_DIR}/obs" "${WORK_DIR}/obs/*")
list(SORT artifacts)
foreach(name IN LISTS artifacts)
  if(NOT name STREQUAL "profile.json")
    file(SHA256 "${WORK_DIR}/obs/${name}" digest)
    list(APPEND actual "${name} ${digest}")
  endif()
endforeach()

if(UPDATE)
  set(new_lines ${other_lines})
  foreach(entry IN LISTS actual)
    list(APPEND new_lines "${RUN} ${entry}")
  endforeach()
  list(SORT new_lines)
  string(JOIN "\n" body ${new_lines})
  file(WRITE "${DIGESTS}" "# toolchain ${TOOLCHAIN}\n${body}\n")
  list(LENGTH actual count)
  message("${RUN}: wrote ${count} digests to ${DIGESTS}")
  return()
endif()

# Every pinned artifact in pinned order, then any the run produced beyond them.
foreach(entry IN LISTS expected)
  string(REPLACE " " ";" fields "${entry}")
  list(GET fields 0 name)
  list(GET fields 1 want)
  set(got "(missing)")
  foreach(a IN LISTS actual)
    string(FIND "${a}" "${name} " at)
    if(at EQUAL 0)
      string(REPLACE "${name} " "" got "${a}")
    endif()
  endforeach()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${command_text}\n${RUN}: artifact '${name}' differs\n"
                        "  pinned ${want}\n  actual ${got}")
  endif()
endforeach()
foreach(a IN LISTS actual)
  string(REPLACE " " ";" fields "${a}")
  list(GET fields 0 name)
  list(FIND expected "${a}" index)
  if(index EQUAL -1)
    message(FATAL_ERROR "${command_text}\n${RUN}: artifact '${name}' has no pinned digest")
  endif()
endforeach()
list(LENGTH actual count)
message("${RUN}: ${count} artifacts match")
