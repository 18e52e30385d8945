# Pins the quick-mode stdout of every deterministic scenario by SHA-256 and
# byte length (tests/scenario_digests.txt, one "<name> <sha256> <bytes>" line
# per scenario).  Each digest is taken over
#
#   ragnar run <name> --jobs 1        (default seed, quick mode)
#
# Check one scenario (what each `digest.<name>` ctest runs):
#   cmake -DRAGNAR=build/bench/ragnar -DDIGESTS=tests/scenario_digests.txt \
#         -DOUT_DIR=build/tests/scenario_digests -DSCENARIO=fig05_uli_inter_mr \
#         -P tests/scenario_digest.cmake
#
# Re-bless (rewrite every line of the digest file from the current binary;
# `cmake --build build --target bless_scenario_digests` does the same):
#   cmake -DRAGNAR=build/bench/ragnar -DDIGESTS=tests/scenario_digests.txt \
#         -DOUT_DIR=build/tests/scenario_digests -DBLESS=ON \
#         -P tests/scenario_digest.cmake
#
# A new scenario is pinned by appending a line holding just its name and
# re-blessing.  Every re-bless is a deliberate output change: record the
# scenarios it touched and why in CHANGES.md.
cmake_minimum_required(VERSION 3.16)

foreach(_var RAGNAR DIGESTS OUT_DIR)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "scenario_digest.cmake: -D${_var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs one scenario and sets <name>_sha / <name>_size in the caller.
function(digest_scenario name)
  set(out "${OUT_DIR}/${name}.stdout")
  execute_process(COMMAND "${RAGNAR}" run "${name}" --jobs 1
                  OUTPUT_FILE "${out}"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ragnar run ${name} exited with ${rc}:\n${err}")
  endif()
  file(SHA256 "${out}" sha)
  file(SIZE "${out}" size)
  set(${name}_sha "${sha}" PARENT_SCOPE)
  set(${name}_size "${size}" PARENT_SCOPE)
endfunction()

file(STRINGS "${DIGESTS}" _lines)
set(_header "")
set(_names "")
foreach(_line IN LISTS _lines)
  if(_line MATCHES "^#" OR _line STREQUAL "")
    string(APPEND _header "${_line}\n")
  elseif(_line MATCHES "^([A-Za-z0-9_]+)( +([0-9a-f]+) +([0-9]+))?$")
    set(_name "${CMAKE_MATCH_1}")
    list(APPEND _names "${_name}")
    set(_want_sha_${_name} "${CMAKE_MATCH_3}")
    set(_want_size_${_name} "${CMAKE_MATCH_4}")
  else()
    message(FATAL_ERROR "${DIGESTS}: malformed line '${_line}'")
  endif()
endforeach()

if(BLESS)
  set(_body "")
  list(SORT _names)
  foreach(_name IN LISTS _names)
    message(STATUS "blessing ${_name}")
    digest_scenario(${_name})
    string(APPEND _body "${_name} ${${_name}_sha} ${${_name}_size}\n")
  endforeach()
  file(WRITE "${DIGESTS}" "${_header}${_body}")
  return()
endif()

if(NOT DEFINED SCENARIO)
  message(FATAL_ERROR
          "scenario_digest.cmake: pass -DSCENARIO=<name> or -DBLESS=ON")
endif()
if(NOT SCENARIO IN_LIST _names)
  message(FATAL_ERROR "${SCENARIO} has no line in ${DIGESTS}")
endif()
digest_scenario(${SCENARIO})
set(_got "sha256=${${SCENARIO}_sha} bytes=${${SCENARIO}_size}")
set(_want "sha256=${_want_sha_${SCENARIO}} bytes=${_want_size_${SCENARIO}}")
if(NOT _got STREQUAL _want)
  message(FATAL_ERROR
          "${SCENARIO}: stdout changed\n  pinned: ${_want}\n  got:    ${_got}\n"
          "  output: ${OUT_DIR}/${SCENARIO}.stdout\n"
          "If the change is intended, re-bless and say why in CHANGES.md.")
endif()
message(STATUS "${SCENARIO}: ${_got}")
