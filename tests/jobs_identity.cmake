# Runs one h3cdn_study command at --jobs 1 and at --jobs 4, each with --out
# and --obs under WORK_DIR, and fails unless
#   - the two reports and every --obs artifact except profile.json (host
#     wall-clock timings) are byte-identical,
#   - `h3cdn_obs_report <dir> --check` passes on the --jobs 1 artifacts, and
#   - when OBJECTIVE is set, the SLO objective it names evaluated real data
#     (no_data false). A run too small to feed any objective leaves it unset.
#
#   cmake -DWORK_DIR=<dir> -DOBS_REPORT=<h3cdn_obs_report> [-DOBJECTIVE=<name>]
#         -P jobs_identity.cmake -- <h3cdn_study> <args>...
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
if(NOT command OR NOT WORK_DIR OR NOT OBS_REPORT)
  message(FATAL_ERROR "jobs_identity.cmake: needs -DWORK_DIR, -DOBS_REPORT "
                      "and a command after --")
endif()
string(JOIN " " command_text ${command})

file(REMOVE_RECURSE "${WORK_DIR}")
foreach(jobs 1 4)
  set(dir "${WORK_DIR}/j${jobs}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND ${command} --jobs ${jobs} --out "${dir}/report" --obs "${dir}/obs"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${command_text} --jobs ${jobs}\nexited with '${status}'\n${stderr}")
  endif()
endforeach()

file(GLOB_RECURSE outputs RELATIVE "${WORK_DIR}/j1" "${WORK_DIR}/j1/*")
file(GLOB_RECURSE outputs_j4 RELATIVE "${WORK_DIR}/j4" "${WORK_DIR}/j4/*")
list(SORT outputs)
list(SORT outputs_j4)
if(NOT outputs STREQUAL outputs_j4)
  message(FATAL_ERROR "${command_text}\n--jobs 1 wrote '${outputs}'\n--jobs 4 wrote '${outputs_j4}'")
endif()
list(REMOVE_ITEM outputs "obs/profile.json")
foreach(path IN LISTS outputs)
  file(SHA256 "${WORK_DIR}/j1/${path}" j1)
  file(SHA256 "${WORK_DIR}/j4/${path}" j4)
  if(NOT j1 STREQUAL j4)
    message(FATAL_ERROR "${command_text}\n'${path}' differs between --jobs 1 and --jobs 4")
  endif()
endforeach()
list(LENGTH outputs compared)

execute_process(COMMAND "${OBS_REPORT}" "${WORK_DIR}/j1/obs" --check
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "h3cdn_obs_report --check failed with '${status}'\n${out}${err}")
endif()

if(NOT OBJECTIVE)
  message("${compared} outputs identical at --jobs 1 and 4; --check passed")
  return()
endif()

file(READ "${WORK_DIR}/j1/obs/slo.json" slo)
string(JSON count LENGTH "${slo}" objectives)
set(no_data "")
if(count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${slo}" objectives ${i} name)
    if(name STREQUAL OBJECTIVE)
      string(JSON no_data GET "${slo}" objectives ${i} no_data)
    endif()
  endforeach()
endif()
if(no_data STREQUAL "")
  message(FATAL_ERROR "slo.json has no objective '${OBJECTIVE}'")
elseif(no_data)
  message(FATAL_ERROR "objective '${OBJECTIVE}' evaluated no data")
endif()
message("${compared} outputs identical at --jobs 1 and 4; --check passed; "
        "'${OBJECTIVE}' has data")
