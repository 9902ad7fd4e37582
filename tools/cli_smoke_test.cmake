# End-to-end smoke test of the simrank_cli surface, driven by ctest.
# Usage: cmake -DCLI=<binary> -DWORK_DIR=<dir> -P cli_smoke_test.cmake

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
  set(LAST_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

# The ranking table's rows (header included) of a query's output.
function(ranking_table output var)
  string(REGEX MATCHALL "\\|[^\n]*\n" rows "${output}")
  list(JOIN rows "" table)
  set(${var} "${table}" PARENT_SCOPE)
endfunction()

set(graph ${WORK_DIR}/cli_smoke_graph.bin)
set(index ${WORK_DIR}/cli_smoke.idx)

run_checked(${CLI} generate --family=collab --n=2000 --m=8000 --seed=3
            --out=${graph})
run_checked(${CLI} stats ${graph})
if(NOT LAST_OUTPUT MATCHES "n=2,000")
  message(FATAL_ERROR "stats did not report vertex count: ${LAST_OUTPUT}")
endif()
run_checked(${CLI} preprocess ${graph} --index=${index})
run_checked(${CLI} query ${graph} --index=${index} --vertex=5 --k=5)
if(NOT LAST_OUTPUT MATCHES "rank")
  message(FATAL_ERROR "query did not print a ranking: ${LAST_OUTPUT}")
endif()
ranking_table("${LAST_OUTPUT}" loaded_ranking)
run_checked(${CLI} query ${graph} --vertex=5 --k=5)
ranking_table("${LAST_OUTPUT}" built_ranking)
# A loaded index answers exactly like a fresh in-process build.
if(NOT loaded_ranking STREQUAL built_ranking)
  message(FATAL_ERROR "query --index ranked differently from the in-process"
          " query:\n${loaded_ranking}\nvs\n${built_ranking}")
endif()
run_checked(${CLI} pair ${graph} --u=5 --v=6)
if(NOT LAST_OUTPUT MATCHES "deterministic")
  message(FATAL_ERROR "pair did not print estimators: ${LAST_OUTPUT}")
endif()
run_checked(${CLI} exact ${graph} --vertex=5 --k=5)

# --- pluggable backends -------------------------------------------------

run_checked(${CLI} query ${graph} --vertex=5 --k=5 --backend=exact)
if(NOT LAST_OUTPUT MATCHES "backend=exact")
  message(FATAL_ERROR "query did not report the exact backend:"
          " ${LAST_OUTPUT}")
endif()
# 2,000 vertices + 8,000 edges is below the 65,536 exact/mc crossover, so
# auto must pick exact.
run_checked(${CLI} query ${graph} --vertex=5 --k=5 --backend=auto)
if(NOT LAST_OUTPUT MATCHES "backend=exact")
  message(FATAL_ERROR "auto selection did not pick exact: ${LAST_OUTPUT}")
endif()

set(shard ${WORK_DIR}/cli_smoke_shard.tsv)
run_checked(${CLI} allpairs ${graph} --out=${shard} --partition=0
            --partitions=8 --threads=2 --index=${index})
if(NOT EXISTS ${shard})
  message(FATAL_ERROR "allpairs did not write ${shard}")
endif()
file(REMOVE ${shard})

# --- exit-code contract (documented in simrank_cli.cc's header) ---------

function(expect_code expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "expected exit ${expected}, got ${code}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT code EQUAL 0 AND NOT err MATCHES "error:")
    message(FATAL_ERROR "failure did not report to stderr: ${ARGN}\n${err}")
  endif()
  set(LAST_ERROR "${err}" PARENT_SCOPE)
endfunction()

# Usage errors -> 2.
expect_code(2 ${CLI} frobnicate)
expect_code(2 ${CLI} allpairs ${graph})
expect_code(2 ${CLI} generate --family=nosuch --out=${WORK_DIR}/x.bin)
expect_code(2 ${CLI} query ${graph} --vertex=5 --backend=nosuch)
expect_code(2 ${CLI} query ${graph} --vertex=5 --backend=auto
            --index=${index})
expect_code(2 ${CLI} query ${graph} --vertex=5 --backend=exact
            --index=${index})
expect_code(2 ${CLI} allpairs ${graph} --out=${WORK_DIR}/x.tsv
            --backend=exact)
# A malformed number or a flag the tool does not define is refused, naming
# the flag, before the command does any work.
foreach(bad --k=3x --threshold=O.5 --thresold=0.5 --resume=no
            --estimate-diagonal=yes)
  expect_code(2 ${CLI} query ${graph} --vertex=1 ${bad})
  string(REGEX REPLACE "=.*" "" name "${bad}")
  if(NOT LAST_ERROR MATCHES "error: .*${name}")
    message(FATAL_ERROR "${bad}: the error does not name ${name}")
  endif()
endforeach()

# IO errors -> 3.
expect_code(3 ${CLI} stats ${WORK_DIR}/does_not_exist.bin)
expect_code(3 ${CLI} allpairs ${graph} --index=${index}
            --out=${WORK_DIR}/nosuchdir/shard.tsv)
# Resuming with no checkpoint on disk is an IO error, not a fresh start.
expect_code(3 ${CLI} allpairs ${graph} --index=${index}
            --out=${WORK_DIR}/cli_smoke_fresh.tsv --resume)

# Corrupted input -> 4.
file(WRITE ${WORK_DIR}/cli_smoke_garbage.bin "this is not a graph file")
expect_code(4 ${CLI} stats ${WORK_DIR}/cli_smoke_garbage.bin)
file(REMOVE ${WORK_DIR}/cli_smoke_garbage.bin)

file(REMOVE ${graph} ${index})
message(STATUS "cli smoke test passed")
