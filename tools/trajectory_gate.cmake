# Exact gate for one suite entry of tools/bench_trajectory: re-runs the
# entry's bench into a work directory of its own, under the directory the
# script runs in, and compares the fresh record with the committed
# BENCH_<SUITE>.json, which must exist. Invoked as
#   cmake -DTRAJECTORY=... -DBENCH_DIR=... -DSOURCE_DIR=... -DSUITE=...
#         -P trajectory_gate.cmake
set(baseline "${SOURCE_DIR}/BENCH_${SUITE}.json")
if(NOT EXISTS "${baseline}")
  message(FATAL_ERROR "no committed record ${baseline}")
endif()

set(work_dir "${CMAKE_CURRENT_BINARY_DIR}/trajectory_gate/${SUITE}")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

execute_process(
  COMMAND "${TRAJECTORY}" run "--bin-dir=${BENCH_DIR}" "--out-dir=${work_dir}"
          "--suite=${SUITE}"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "bench_trajectory run --suite=${SUITE} failed "
                      "(rc=${run_rc})")
endif()

execute_process(
  COMMAND "${TRAJECTORY}" compare "--baseline=${baseline}"
          "--current=${work_dir}/BENCH_${SUITE}.json"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "BENCH_${SUITE}.json differs from a fresh run (rc=${compare_rc}). "
          "A change that moves these values refreshes the record with "
          "`bench_trajectory run --bin-dir=${BENCH_DIR} --suite=${SUITE}` "
          "from the repository root and says why in CHANGES.md.")
endif()
