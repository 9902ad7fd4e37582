# Chaos test of the crash-safe all-pairs runner (docs/ROBUSTNESS.md).
#
# Plan: compute a small shard once uninterrupted as the golden file, then
# for each of several injected fault points
#   1. start a fresh run that hard-aborts (exit 77, no cleanup) at the
#      fault point,
#   2. resume it (possibly hitting a *second* abort later in the run),
#   3. require the resumed output to be byte-identical to the golden file
#      and the checkpoint directory to be gone.
# Also exercises soft (Status-returning) injected errors: transient write
# failures must be absorbed by the retry layer, and the obs JSON must
# prove the faults actually fired (faults.injected > 0).
#
# Usage: cmake -DCLI=<binary> -DWORK_DIR=<dir> -P chaos_test.cmake
# Requires the CLI built with SIMRANK_FAULT_INJECTION (the default).

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(graph ${WORK_DIR}/chaos_graph.bin)
set(index ${WORK_DIR}/chaos.idx)
set(golden ${WORK_DIR}/chaos_golden.tsv)

run_checked(${CLI} generate --family=web --n=600 --m=3000 --seed=11
            --out=${graph})
run_checked(${CLI} preprocess ${graph} --index=${index})

# A malformed seed aborts like a malformed SIMRANK_FAULTS: a chaos run
# must not quietly run with another seed than the one it names.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SIMRANK_FAULT_SEED=7x ${CLI} stats ${graph}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(code EQUAL 0 OR NOT err MATCHES "SIMRANK_FAULT_SEED")
  message(FATAL_ERROR "SIMRANK_FAULT_SEED=7x was not refused (${code})\n${err}")
endif()

# Small checkpoint interval so every run spans many chunks; single
# partition covering all 600 vertices.
set(allpairs_args ${graph} --index=${index} --threads=2
    --checkpoint-interval=64)

run_checked(${CLI} allpairs ${allpairs_args} --out=${golden})
if(NOT EXISTS ${golden})
  message(FATAL_ERROR "golden allpairs run wrote nothing")
endif()

# One entry per scenario: "<name>;<SIMRANK_FAULTS spec for the first run>".
# All triggers are deterministic on-Nth-hit (never probabilistic) so CI
# results are reproducible. The hit counts are chosen to land mid-run:
# with 600 queries and 64-query chunks there are 10 chunk writes, each
# costing one manifest write and a handful of io.atomic.* hits.
set(scenarios
    "abort-chunk-write|ckpt.chunk.write=abort@4"
    "abort-manifest|ckpt.manifest.write=abort@6"
    "abort-rename|io.atomic.rename=abort@9"
    "abort-finalize|ckpt.finalize=abort@1"
)

foreach(scenario ${scenarios})
  string(REPLACE "|" ";" parts ${scenario})
  list(GET parts 0 name)
  list(GET parts 1 spec)
  set(out ${WORK_DIR}/chaos_${name}.tsv)
  file(REMOVE ${out})
  file(REMOVE_RECURSE ${out}.ckpt)

  # First run: must die with the fault injector's abort exit code (77).
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SIMRANK_FAULTS=${spec}
            ${CLI} allpairs ${allpairs_args} --out=${out}
    RESULT_VARIABLE code OUTPUT_VARIABLE run_out ERROR_VARIABLE run_err)
  if(NOT code EQUAL 77)
    message(FATAL_ERROR "${name}: expected abort exit 77, got ${code}\n"
                        "${run_out}\n${run_err}")
  endif()
  if(EXISTS ${out} AND NOT name STREQUAL "abort-finalize")
    message(FATAL_ERROR "${name}: output appeared despite mid-run abort")
  endif()

  # Resume: picks up from the last durable chunk and completes.
  run_checked(${CLI} allpairs ${allpairs_args} --out=${out} --resume)

  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${golden} ${out} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${name}: resumed output differs from golden run")
  endif()
  if(EXISTS ${out}.ckpt)
    message(FATAL_ERROR "${name}: checkpoint not removed after success")
  endif()
  file(REMOVE ${out})
  message(STATUS "chaos scenario ${name} passed")
endforeach()

# Double-kill: abort an already-resumed run at a later point, resume
# again. Exercises resume-of-a-resume.
set(out ${WORK_DIR}/chaos_double.tsv)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SIMRANK_FAULTS=ckpt.chunk.write=abort@3
          ${CLI} allpairs ${allpairs_args} --out=${out}
  RESULT_VARIABLE code OUTPUT_VARIABLE o ERROR_VARIABLE e)
if(NOT code EQUAL 77)
  message(FATAL_ERROR "double-kill first run: expected 77, got ${code}\n${e}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SIMRANK_FAULTS=ckpt.manifest.write=abort@4
          ${CLI} allpairs ${allpairs_args} --out=${out} --resume
  RESULT_VARIABLE code OUTPUT_VARIABLE o ERROR_VARIABLE e)
if(NOT code EQUAL 77)
  message(FATAL_ERROR "double-kill second run: expected 77, got ${code}\n${e}")
endif()
run_checked(${CLI} allpairs ${allpairs_args} --out=${out} --resume)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${golden} ${out} RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "double-kill: resumed output differs from golden run")
endif()
file(REMOVE ${out})
message(STATUS "chaos scenario double-kill passed")

# Soft faults: transient injected write errors must be retried away — the
# run succeeds end to end — and the obs snapshot must record the firings.
set(out ${WORK_DIR}/chaos_soft.tsv)
set(obs ${WORK_DIR}/chaos_soft_obs.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "SIMRANK_FAULTS=io.atomic.write=error@2,io.atomic.sync=error@5"
          ${CLI} allpairs ${allpairs_args} --out=${out} --obs-json=${obs}
  RESULT_VARIABLE code OUTPUT_VARIABLE o ERROR_VARIABLE e)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "soft-fault run should retry to success, got ${code}\n"
                      "${o}\n${e}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${golden} ${out} RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "soft-fault: output differs from golden run")
endif()
file(READ ${obs} obs_json)
if(NOT obs_json MATCHES "faults\\.injected")
  message(FATAL_ERROR "obs snapshot has no faults.injected counter:\n"
                      "${obs_json}")
endif()
string(REGEX MATCH "\"faults\\.injected\": *0[^0-9]" zero_injected
       "${obs_json}")
if(zero_injected)
  message(FATAL_ERROR "soft faults never fired:\n${obs_json}")
endif()
file(REMOVE ${out} ${obs})

# Postmortem dump: inject a SIMRANK_CHECK failure mid-query-stream with
# crash dumps armed. The process must die abnormally (CHECK -> abort) but
# leave a parseable "simrank-events-v2" document behind, stamped with the
# phase the failing thread was in (the fault point sits in the engine
# stage, named engine_query).
set(pm ${WORK_DIR}/chaos_postmortem.json)
file(REMOVE ${pm})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SIMRANK_FAULTS=service.query.exec=check@40
          ${CLI} query ${graph} --index=${index} --vertex=0 --repeat=50
          --slow-log=1e-6 --postmortem=${pm}
  RESULT_VARIABLE code OUTPUT_VARIABLE o ERROR_VARIABLE e)
if(code EQUAL 0)
  message(FATAL_ERROR "postmortem: injected CHECK failure did not kill the "
                      "run\n${o}\n${e}")
endif()
if(NOT EXISTS ${pm})
  message(FATAL_ERROR "postmortem: no dump at ${pm}\n${o}\n${e}")
endif()
file(READ ${pm} pm_json)
if(NOT pm_json MATCHES "simrank-events-v2")
  message(FATAL_ERROR "postmortem dump is not a simrank-events-v2 document:\n"
                      "${pm_json}")
endif()
if(NOT pm_json MATCHES "\"postmortem\"")
  message(FATAL_ERROR "postmortem dump lacks the crash context:\n${pm_json}")
endif()
if(NOT pm_json MATCHES "engine_query")
  message(FATAL_ERROR "postmortem dump lacks the failing phase:\n"
                      "${pm_json}")
endif()
file(REMOVE ${pm})
message(STATUS "chaos scenario postmortem passed")

# Chaos under load: drive the engine at roughly 2x its sustainable rate
# while backend faults fire probabilistically. The acceptance contract
# (docs/SERVING.md): the process stays up and exits 0, admission control
# sheds/degrades rather than collapsing, faults demonstrably fired, and
# the serving report is still a well-formed simrank-serving-v1 document.
if(LOADGEN)
  set(bench ${WORK_DIR}/chaos_serving.json)
  set(lobs ${WORK_DIR}/chaos_serving_obs.json)
  file(REMOVE ${bench} ${lobs})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            "SIMRANK_FAULTS=service.query.exec=error@p0.05"
            "SIMRANK_FAULT_SEED=7"
            ${LOADGEN} --family=web --n=600 --m=3000 --graph-seed=11
            --qps=500 --duration=3 --threads=2 --seed=5
            --walks-refine=2000
            --interactive-queue=16 --batch-queue=4 --degrade-watermark=4
            --client-rate=200 --target-p99=0.002
            --breach-steps=1 --recover-steps=3
            --slo=p99:0.5,shed_rate:0.95
            --out=${bench} --obs-json=${lobs}
    RESULT_VARIABLE code OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "chaos-under-load: engine fell over under overload "
                        "with faults armed (exit ${code})\n${o}\n${e}")
  endif()
  file(READ ${bench} bench_json)
  if(NOT bench_json MATCHES "\"schema\":\"simrank-serving-v1\"")
    message(FATAL_ERROR "chaos-under-load: bad serving report:\n"
                        "${bench_json}")
  endif()
  string(REGEX MATCH "\"achieved_qps\":([0-9.eE+-]+)" _ "${bench_json}")
  if(NOT CMAKE_MATCH_1 GREATER 0)
    message(FATAL_ERROR "chaos-under-load: nothing was served:\n"
                        "${bench_json}")
  endif()
  # Overload must be absorbed by the controller, not ignored: some
  # traffic was degraded or shed.
  string(REGEX MATCH "\"degraded_rate\":([0-9.eE+-]+)" _ "${bench_json}")
  set(degraded_rate ${CMAKE_MATCH_1})
  string(REGEX MATCH "\"shed_rate\":([0-9.eE+-]+)" _ "${bench_json}")
  set(shed_rate ${CMAKE_MATCH_1})
  if(NOT degraded_rate GREATER 0 AND NOT shed_rate GREATER 0)
    message(FATAL_ERROR "chaos-under-load: 2x overload produced neither "
                        "degradation nor shedding:\n${bench_json}")
  endif()
  file(READ ${lobs} lobs_json)
  if(NOT lobs_json MATCHES "faults\\.injected")
    message(FATAL_ERROR "chaos-under-load: obs snapshot has no "
                        "faults.injected counter:\n${lobs_json}")
  endif()
  string(REGEX MATCH "\"faults\\.injected\": *0[^0-9]" zero_injected
         "${lobs_json}")
  if(zero_injected)
    message(FATAL_ERROR "chaos-under-load: faults never fired:\n"
                        "${lobs_json}")
  endif()
  file(REMOVE ${bench} ${lobs})
  message(STATUS "chaos scenario under-load passed")
endif()

file(REMOVE ${golden} ${graph} ${index})
message(STATUS "chaos test passed")
