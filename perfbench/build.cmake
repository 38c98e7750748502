# The benchmark's build file. run.py passes it to the ccperf project as
# CMAKE_PROJECT_ccperf_INCLUDE, so the benchmark compiles against the library
# targets with the repository's own flags and build type. The target is
# defined by a deferred call, once the top-level CMakeLists.txt has created
# every library target.
set(CCPERF_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
function(ccperf_add_perfbench)
  set(dir "${CCPERF_PERFBENCH_DIR}")
  add_executable(ccperf_perfbench
    ${dir}/src/main.cpp
    ${dir}/src/harness.cpp
    ${dir}/src/infer.cpp
    ${dir}/src/plan.cpp
    ${dir}/src/serve.cpp
  )
  target_link_libraries(ccperf_perfbench PRIVATE ccperf_core ccperf_warnings)
  set_target_properties(ccperf_perfbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
endfunction()
cmake_language(DEFER CALL ccperf_add_perfbench)
