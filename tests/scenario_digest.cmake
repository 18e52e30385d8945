# Pins deterministic scenario output by SHA-256 and byte length.  Two digest
# files share this script, one "<entry> <sha256> <bytes>" line per pin:
#
#   tests/scenario_digests.txt       quick-mode stdout of every deterministic
#                                    scenario:  ragnar run <name> --jobs 1
#   tests/scenario_json_digests.txt  (-DJSON=ON) the --json trial report,
#                                    metric columns included:
#                                      ragnar run <name> --jobs 1 --json F
#                                    An entry spelled <name>@trace adds
#                                    --trace, which arms a hub on every trial
#                                    so the registry snapshots reach F.
#                                    "wall_ms" values (host time) are set
#                                    to 0 before hashing.
#
# All runs use the default seed in quick mode.
#
# Check one entry (what each `digest.<entry>` / `json_digest.<entry>` ctest
# runs):
#   cmake -DRAGNAR=build/bench/ragnar -DDIGESTS=tests/scenario_digests.txt \
#         -DOUT_DIR=build/tests/scenario_digests -DSCENARIO=fig05_uli_inter_mr \
#         -P tests/scenario_digest.cmake
#   cmake -DRAGNAR=build/bench/ragnar -DDIGESTS=tests/scenario_json_digests.txt \
#         -DJSON=ON -DOUT_DIR=build/tests/scenario_digests \
#         -DSCENARIO=fig04_priority_matrix@trace -P tests/scenario_digest.cmake
#
# Re-bless (rewrite every line of a digest file from the current binary;
# `cmake --build build --target bless_scenario_digests` re-blesses both):
#   cmake -DRAGNAR=build/bench/ragnar -DDIGESTS=tests/scenario_digests.txt \
#         -DOUT_DIR=build/tests/scenario_digests -DBLESS=ON \
#         -P tests/scenario_digest.cmake
#
# A new pin is added by appending a line holding just its entry name and
# re-blessing.  Every re-bless is a deliberate output change: record the
# scenarios it touched and why in CHANGES.md.
cmake_minimum_required(VERSION 3.16)

foreach(_var RAGNAR DIGESTS OUT_DIR)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "scenario_digest.cmake: -D${_var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs one entry and sets <entry>_sha / <entry>_size / <entry>_out in the
# caller.
function(digest_entry entry)
  string(REPLACE "@" ";" _parts "${entry}")
  list(GET _parts 0 name)
  if(JSON)
    string(REPLACE "@" "." _stem "${entry}")
    set(out "${OUT_DIR}/${_stem}.json")
    set(args --json "${out}")
    if(entry MATCHES "@trace$")
      list(APPEND args --trace "${OUT_DIR}/${_stem}.trace.json")
    endif()
    set(stdout_file "${OUT_DIR}/${_stem}.json.stdout")
  else()
    set(out "${OUT_DIR}/${name}.stdout")
    set(args "")
    set(stdout_file "${out}")
  endif()
  file(REMOVE "${out}")
  execute_process(COMMAND "${RAGNAR}" run "${name}" --jobs 1 ${args}
                  OUTPUT_FILE "${stdout_file}"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ragnar run ${name} ${args} exited with ${rc}:\n${err}")
  endif()
  if(JSON)
    if(NOT EXISTS "${out}")
      message(FATAL_ERROR "ragnar run ${name} ${args} wrote no JSON")
    endif()
    file(READ "${out}" _json)
    string(REGEX REPLACE "\"wall_ms\": [0-9.]+" "\"wall_ms\": 0" _json
           "${_json}")
    file(WRITE "${out}" "${_json}")
  endif()
  file(SHA256 "${out}" sha)
  file(SIZE "${out}" size)
  set(${entry}_sha "${sha}" PARENT_SCOPE)
  set(${entry}_size "${size}" PARENT_SCOPE)
  set(${entry}_out "${out}" PARENT_SCOPE)
endfunction()

file(STRINGS "${DIGESTS}" _lines)
set(_header "")
set(_entries "")
foreach(_line IN LISTS _lines)
  if(_line MATCHES "^#" OR _line STREQUAL "")
    string(APPEND _header "${_line}\n")
  elseif(_line MATCHES "^([A-Za-z0-9_]+(@trace)?)( +([0-9a-f]+) +([0-9]+))?$")
    set(_entry "${CMAKE_MATCH_1}")
    list(APPEND _entries "${_entry}")
    set(_want_sha_${_entry} "${CMAKE_MATCH_4}")
    set(_want_size_${_entry} "${CMAKE_MATCH_5}")
  else()
    message(FATAL_ERROR "${DIGESTS}: malformed line '${_line}'")
  endif()
endforeach()

if(BLESS)
  set(_body "")
  list(SORT _entries)
  foreach(_entry IN LISTS _entries)
    message(STATUS "blessing ${_entry}")
    digest_entry(${_entry})
    string(APPEND _body "${_entry} ${${_entry}_sha} ${${_entry}_size}\n")
  endforeach()
  file(WRITE "${DIGESTS}" "${_header}${_body}")
  return()
endif()

if(NOT DEFINED SCENARIO)
  message(FATAL_ERROR
          "scenario_digest.cmake: pass -DSCENARIO=<entry> or -DBLESS=ON")
endif()
if(NOT SCENARIO IN_LIST _entries)
  message(FATAL_ERROR "${SCENARIO} has no line in ${DIGESTS}")
endif()
digest_entry(${SCENARIO})
set(_got "sha256=${${SCENARIO}_sha} bytes=${${SCENARIO}_size}")
set(_want "sha256=${_want_sha_${SCENARIO}} bytes=${_want_size_${SCENARIO}}")
if(NOT _got STREQUAL _want)
  message(FATAL_ERROR
          "${SCENARIO}: output changed\n  pinned: ${_want}\n  got:    ${_got}\n"
          "  output: ${${SCENARIO}_out}\n"
          "If the change is intended, re-bless and say why in CHANGES.md.")
endif()
message(STATUS "${SCENARIO}: ${_got}")
