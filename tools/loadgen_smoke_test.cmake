# Loadgen smoke test (docs/SERVING.md): a short bounded open-loop run
# against a small synthetic graph, asserting
#   1. the run exits 0 and writes a "simrank-serving-v1" document,
#   2. admitted QPS is nonzero (the engine actually served traffic),
#   3. both priority classes appear in the report,
#   4. the arrival schedule is deterministic under --seed (two runs,
#      same seed, same arrival count — the replayability contract the
#      simrank_lint R2 rule defends),
#   5. the report carries the --slo objectives set on the rolling window,
#   6. a malformed number or an undefined flag exits 2.
#
# Usage: cmake -DLOADGEN=<binary> -DWORK_DIR=<dir> -P loadgen_smoke_test.cmake

set(bench ${WORK_DIR}/BENCH_serving_smoke.json)
file(REMOVE ${bench})

set(loadgen_args
    --family=web --n=600 --m=3000 --graph-seed=11
    --qps=60 --duration=3 --threads=2 --seed=3
    --prewarm=32 --client-rate=50 --client-burst=25
    --interactive-queue=128 --batch-queue=32 --degrade-watermark=8
    --slo=p99:1.0,shed_rate:0.95)

execute_process(
  COMMAND ${LOADGEN} ${loadgen_args} --out=${bench}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "loadgen smoke run failed (${code}):\n${out}\n${err}")
endif()
if(NOT EXISTS ${bench})
  message(FATAL_ERROR "loadgen wrote no BENCH_serving document")
endif()

file(READ ${bench} bench_json)
if(NOT bench_json MATCHES "\"schema\":\"simrank-serving-v1\"")
  message(FATAL_ERROR "BENCH_serving is not simrank-serving-v1:\n${bench_json}")
endif()
foreach(key "achieved_qps" "interactive" "batch" "slos_ok" "shed_rate"
            "latency_p99")
  if(NOT bench_json MATCHES "\"${key}\"")
    message(FATAL_ERROR "BENCH_serving lacks \"${key}\":\n${bench_json}")
  endif()
endforeach()
string(REGEX MATCH "\"achieved_qps\":([0-9.eE+-]+)" _ "${bench_json}")
if(NOT CMAKE_MATCH_1 GREATER 0)
  message(FATAL_ERROR "admitted QPS is zero:\n${bench_json}")
endif()
string(REGEX MATCH "\"arrivals\":([0-9]+)" _ "${bench_json}")
set(first_arrivals ${CMAKE_MATCH_1})
if(NOT first_arrivals GREATER 0)
  message(FATAL_ERROR "no arrivals were scheduled:\n${bench_json}")
endif()

# Determinism: rerun with the same --seed; the schedule (arrival count)
# must be identical even though wall-clock latencies differ.
set(bench2 ${WORK_DIR}/BENCH_serving_smoke2.json)
file(REMOVE ${bench2})
execute_process(
  COMMAND ${LOADGEN} ${loadgen_args} --out=${bench2}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "loadgen replay run failed (${code}):\n${out}\n${err}")
endif()
file(READ ${bench2} bench2_json)
string(REGEX MATCH "\"arrivals\":([0-9]+)" _ "${bench2_json}")
if(NOT CMAKE_MATCH_1 EQUAL first_arrivals)
  message(FATAL_ERROR "seeded replay diverged: ${first_arrivals} vs "
                      "${CMAKE_MATCH_1} arrivals")
endif()

foreach(bad --qps=6O --qsp=60 --burst=0.1:0.2:2x --mix=1:0:0:0junk
            --find-max=no)
  execute_process(COMMAND ${LOADGEN} ${bad} RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX REPLACE "=.*" "" name "${bad}")
  if(NOT code EQUAL 2 OR NOT err MATCHES "error: .*${name}")
    message(FATAL_ERROR "${bad}: expected exit 2 naming ${name}: ${err}")
  endif()
endforeach()

file(REMOVE ${bench} ${bench2})
message(STATUS "loadgen smoke test passed")
