# Fails when a library header under src/<LIB>/ has no production caller:
# every src/<LIB>/*.hpp must be #included by some file under src/, bench/,
# examples/ or perfbench/ other than its own .cpp. A module that only its
# tests include is wired into a real consumer or removed (see ROADMAP.md).
# Invoked from ctest, once per library:
#   cmake -DROOT=<repo root> -DLIB=<library directory> -P no_orphans.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var ROOT LIB)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "no_orphans.cmake: missing -D${var}=")
  endif()
endforeach()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)

file(GLOB headers LIST_DIRECTORIES false "${ROOT}/src/${LIB}/*.hpp")
if(NOT headers)
  message(FATAL_ERROR "no_orphans.cmake: no headers under ${ROOT}/src/${LIB}")
endif()

set(consumers)
foreach(dir src bench examples perfbench)
  file(GLOB_RECURSE found LIST_DIRECTORIES false
       "${ROOT}/${dir}/*.hpp" "${ROOT}/${dir}/*.cpp")
  list(APPEND consumers ${found})
endforeach()

# Every header some file includes, unless that file is the header's own
# .cpp. Quoted includes resolve against src/ or the including directory.
set(used)
foreach(file IN LISTS consumers)
  get_filename_component(file_dir "${file}" DIRECTORY)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*$" "\\1"
           inc "${line}")
    foreach(base "${ROOT}/src" "${file_dir}")
      get_filename_component(header "${inc}" ABSOLUTE BASE_DIR "${base}")
      string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${header}")
      if(EXISTS "${header}" AND NOT file STREQUAL own_cpp)
        list(APPEND used "${header}")
      endif()
    endforeach()
  endforeach()
endforeach()

set(orphans)
foreach(header IN LISTS headers)
  get_filename_component(header "${header}" ABSOLUTE)
  if(NOT header IN_LIST used)
    file(RELATIVE_PATH rel "${ROOT}" "${header}")
    list(APPEND orphans "${rel}")
  endif()
endforeach()
if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
    "src/${LIB}/ headers that only their own .cpp (or tests) include:\n"
    "  ${listing}\n"
    "Include each from src/, bench/, examples/ or perfbench/, or delete it.")
endif()
