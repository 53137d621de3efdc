# perfbench/run.sh configures the repository's own root CMakeLists.txt with
# -DCMAKE_PROJECT_INCLUDE=<this file>, so the programs the benchmark times
# are built exactly as a user builds them.  Once the root has defined every
# target, perfbench/CMakeLists.txt adds msamp_bench to the same build.
cmake_minimum_required(VERSION 3.19)  # cmake_language(DEFER)
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
