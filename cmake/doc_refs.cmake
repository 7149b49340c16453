# Fails when a document names a source file that does not exist. Every
# backticked token made only of path characters and ending in .hpp, .cpp,
# .cmake, .py or .json must name an existing file, found relative to the
# document's directory, the repo root, src/ or tests/. A bare file name
# (no '/') may also live anywhere under src/, tests/, bench/, examples/,
# cmake/, docs/ or perfbench/. Brace lists expand (`dataflow/{a,b}.hpp`);
# generated BENCH_*.json documents are exempt. Invoked from ctest, once per
# document:
#   cmake -DROOT=<repo root> -DDOC=<markdown file> -P doc_refs.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var ROOT DOC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "doc_refs.cmake: missing -D${var}=")
  endif()
endforeach()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)
get_filename_component(doc_dir "${DOC}" DIRECTORY)

# ';' and '[' ']' would split or glue CMake list elements; none of them can
# appear in a token this gate checks.
file(READ "${DOC}" text)
string(REGEX REPLACE "[][;]" " " text "${text}")
string(REGEX MATCHALL "`[^`\n]+`" spans "${text}")

set(missing)
foreach(span IN LISTS spans)
  string(REGEX REPLACE "^`(.*)`$" "\\1" token "${span}")
  if(NOT token MATCHES "^[A-Za-z0-9_./{},+-]+\\.(hpp|cpp|cmake|py|json)$")
    continue()
  endif()
  # Expand brace lists, innermost first, until nothing changes.
  set(names "${token}")
  while(TRUE)
    set(expanded)
    foreach(name IN LISTS names)
      if(name MATCHES "^(.*){([^{}]*)}(.*)$")
        set(head "${CMAKE_MATCH_1}")
        set(tail "${CMAKE_MATCH_3}")
        string(REPLACE "," ";" alts "${CMAKE_MATCH_2}")
        foreach(alt IN LISTS alts)
          list(APPEND expanded "${head}${alt}${tail}")
        endforeach()
      else()
        list(APPEND expanded "${name}")
      endif()
    endforeach()
    if(expanded STREQUAL names)
      break()
    endif()
    set(names "${expanded}")
  endwhile()

  foreach(name IN LISTS names)
    get_filename_component(base "${name}" NAME)
    if(base MATCHES "^BENCH_.*\\.json$")
      continue()
    endif()
    set(found FALSE)
    foreach(dir "${doc_dir}" "${ROOT}" "${ROOT}/src" "${ROOT}/tests")
      if(EXISTS "${dir}/${name}" AND NOT IS_DIRECTORY "${dir}/${name}")
        set(found TRUE)
        break()
      endif()
    endforeach()
    if(NOT found AND NOT name MATCHES "/")
      foreach(dir src tests bench examples cmake docs perfbench)
        file(GLOB_RECURSE hits LIST_DIRECTORIES false "${ROOT}/${dir}/${name}")
        if(hits)
          set(found TRUE)
          break()
        endif()
      endforeach()
    endif()
    if(NOT found)
      list(APPEND missing "${name}")
    endif()
  endforeach()
endforeach()

if(missing)
  list(REMOVE_DUPLICATES missing)
  list(JOIN missing "\n  " listing)
  message(FATAL_ERROR
    "${DOC} names files that do not exist:\n  ${listing}\n"
    "Fix the reference or drop it.")
endif()
