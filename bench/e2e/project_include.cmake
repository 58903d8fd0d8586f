# Adds the fademl_e2e benchmark program to the repository's top-level CMake
# project without an edit to any build file outside this directory, so the
# program links the same `fademl` target, built with the same flags, as
# every other binary. run.py configures the repository root with
#
#   -DCMAKE_PROJECT_fademl_INCLUDE=<checkout>/bench/e2e/project_include.cmake
#
# CMake includes this file right after `project(fademl)`. At that point
# neither the library target nor the top level's compile flags exist yet,
# so the target is defined by a call deferred to the end of the top-level
# CMakeLists.txt (where CMake allows no add_subdirectory).
set(FADEML_E2E_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(fademl_add_e2e)
  set(dir "${FADEML_E2E_SOURCE_DIR}")
  add_executable(fademl_e2e
    ${dir}/main.cpp
    ${dir}/attack.cpp
    ${dir}/sweep.cpp
    ${dir}/serve.cpp
    ${dir}/common.cpp)
  target_link_libraries(fademl_e2e PRIVATE fademl)
endfunction()

cmake_language(DEFER CALL fademl_add_e2e)
