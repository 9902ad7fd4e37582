# Build file of the repository benchmark (see README.md). It is injected
# into the library's own CMake project, so the library builds exactly as
# its build files say:
#
#   cmake -S . -B <dir> -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/perfbench.cmake \
#         -DSIMRANK_BUILD_TESTS=OFF -DSIMRANK_BUILD_BENCHMARKS=OFF \
#         -DSIMRANK_BUILD_EXAMPLES=OFF -DSIMRANK_BUILD_FUZZERS=OFF \
#         -DSIMRANK_FAULT_INJECTION=OFF
#   cmake --build <dir> --target perfbench_run
#
# run.py does this. Library targets are referenced by name; CMake
# resolves them after the whole project has been read.
include_guard(GLOBAL)

set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

add_library(perfbench_harness STATIC EXCLUDE_FROM_ALL
  ${PERFBENCH_DIR}/harness/replay.cc
  ${PERFBENCH_DIR}/harness/trace.cc
)
target_include_directories(perfbench_harness PUBLIC ${PERFBENCH_DIR})
# This file is read before the root project sets CMAKE_CXX_STANDARD.
target_compile_features(perfbench_harness PUBLIC cxx_std_20)
target_link_libraries(perfbench_harness
  PUBLIC simrank_core simrank_graph simrank_util
  PRIVATE simrank_warnings)

add_executable(perfbench_run EXCLUDE_FROM_ALL ${PERFBENCH_DIR}/harness/main.cc)
target_link_libraries(perfbench_run
  PRIVATE perfbench_harness simrank_eval simrank_loadgen_lib simrank_service
          simrank_warnings)

# Unit tests of the harness itself (perfbench/tests/test_perfbench.py
# builds and runs them).
find_package(GTest QUIET)
if(GTest_FOUND)
  add_executable(perfbench_tests EXCLUDE_FROM_ALL
    ${PERFBENCH_DIR}/tests/harness_test.cc)
  target_link_libraries(perfbench_tests
    PRIVATE perfbench_harness GTest::gtest GTest::gtest_main simrank_warnings)
endif()
