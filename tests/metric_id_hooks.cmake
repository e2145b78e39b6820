# Fails when a file under SOURCE_DIR passes a string literal to an obs hook
# (obs::count/observe/observe_ms/sample or a ProfileScope). Hooks take an
# obs::MetricId declared at namespace scope (docs/OBSERVABILITY.md, "Adding a
# metric"). A bare string does not compile; this also catches an id built
# inline from a literal, which would re-intern on every call.
#
#   cmake -DSOURCE_DIR=<dir> -P metric_id_hooks.cmake
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "metric_id_hooks.cmake: needs -DSOURCE_DIR")
endif()

# A hook call, then a double quote before the statement's first ';'.
set(hook_with_literal
    [[(obs::(count|observe|observe_ms|sample)|ProfileScope( +[A-Za-z_]+)?)\([^;]*"]])
file(GLOB_RECURSE sources "${SOURCE_DIR}/*")
list(LENGTH sources scanned)
if(scanned EQUAL 0)
  message(FATAL_ERROR "metric_id_hooks.cmake: no files under ${SOURCE_DIR}")
endif()
set(hits "")
foreach(path IN LISTS sources)
  file(STRINGS "${path}" lines REGEX "${hook_with_literal}" ENCODING UTF-8)
  foreach(line IN LISTS lines)
    string(APPEND hits "\n${path}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "pass a MetricId declared at namespace scope, not a string literal:${hits}")
endif()
message("${scanned} files under ${SOURCE_DIR}: every obs hook takes a MetricId")
