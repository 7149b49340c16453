# Fails when a namespace-scope acc:: function of a src/ library has no
# caller: every such function the library archives define (nm type T) must
# be named in some file under src/, bench/, examples/ or perfbench/ beyond
# its own declaration and definition. The symbol-level companion of
# no_orphans.cmake, which looks at whole headers: a function that only tests
# call is wired into a real consumer or removed (see ROADMAP.md). Member
# functions are out of scope. The archives are read rather than
# CMakeFiles/*.o, where object files of deleted sources stay behind.
# Invoked from ctest:
#   cmake -DNM=<nm> -DROOT=<repo root> -DARCHIVES=<lib.a|lib.a|...>
#         -P no_orphan_symbols.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var NM ROOT ARCHIVES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "no_orphan_symbols.cmake: missing -D${var}=")
  endif()
endforeach()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)
string(REPLACE "|" ";" archives "${ARCHIVES}")

set(text "")
foreach(dir src bench examples perfbench)
  file(GLOB_RECURSE found LIST_DIRECTORIES false
       "${ROOT}/${dir}/*.hpp" "${ROOT}/${dir}/*.cpp")
  foreach(file IN LISTS found)
    file(READ "${file}" content)
    string(APPEND text "\n${content}")
  endforeach()
endforeach()

# Namespaces are whatever `namespace a::b {` declares; a scope that is not
# one is a class, so a function in it is a member.
string(REGEX MATCHALL "namespace[ \t]+[A-Za-z_][A-Za-z0-9_:]*[ \t\r\n]*{"
       decls "${text}")
set(namespaces)
foreach(decl IN LISTS decls)
  string(REGEX REPLACE "^namespace[ \t]+([A-Za-z0-9_:]*).*$" "\\1" decl
         "${decl}")
  string(REPLACE "::" ";" parts "${decl}")
  list(APPEND namespaces ${parts})
endforeach()
list(REMOVE_DUPLICATES namespaces)

# Every identifier of the source text as <name>, so that counting "<f>"
# counts whole identifiers only.
string(REGEX REPLACE "[^A-Za-z0-9_]+" "><" tokens "<${text}>")
string(LENGTH "${tokens}" tokens_length)

# Namespace-scope functions, one entry per overload.
set(functions)
foreach(archive IN LISTS archives)
  execute_process(COMMAND "${NM}" -C --defined-only "${archive}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "no_orphan_symbols.cmake: ${NM} failed on ${archive}")
  endif()
  string(REPLACE "[abi:cxx11]" "" symbols "${symbols}")
  string(REGEX MATCHALL " T acc::[A-Za-z0-9_:]+\\(" defined "${symbols}")
  foreach(symbol IN LISTS defined)
    string(REGEX REPLACE "^ T (.*)\\($" "\\1" qualified "${symbol}")
    string(REPLACE "::" ";" scopes "${qualified}")
    list(POP_BACK scopes)
    list(REMOVE_ITEM scopes ${namespaces})
    if(NOT scopes)
      list(APPEND functions "${qualified}")
    endif()
  endforeach()
endforeach()
if(NOT functions)
  message(FATAL_ERROR "no_orphan_symbols.cmake: no acc:: functions in ${ARCHIVES}")
endif()

# A name that k overloads share is declared and defined 2k times; any
# further mention is a use.
set(orphans)
set(unique ${functions})
list(REMOVE_DUPLICATES unique)
foreach(qualified IN LISTS unique)
  string(REGEX REPLACE "^.*::" "" name "${qualified}")
  set(overloads ${functions})
  list(FILTER overloads INCLUDE REGEX "::${name}$")
  list(LENGTH overloads count)
  string(REPLACE "<${name}>" "" rest "${tokens}")
  string(LENGTH "${rest}" rest_length)
  string(LENGTH "<${name}>" token_length)
  math(EXPR mentions "(${tokens_length} - ${rest_length}) / ${token_length}")
  math(EXPR own "2 * ${count}")
  if(mentions LESS_EQUAL own)
    list(APPEND orphans "${qualified}")
  endif()
endforeach()
if(orphans)
  list(SORT orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
    "acc:: functions named only by their own declaration and definition:\n"
    "  ${listing}\n"
    "Call each from src/, bench/, examples/ or perfbench/, or delete it.")
endif()
