# Script mode (cmake -P): configure a thread-sanitized build of the obs
# test suite in BUILD_DIR, build just that target, and run it. Invoked as a
# ctest from the normal (unsanitized) build so the obs concurrency tests
# always also run under TSan; the obs suite links only iotdb_obs +
# iotdb_common, which keeps the nested build small enough for single-core
# builders.
if(NOT SOURCE_DIR OR NOT BUILD_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -DBUILD_DIR=... -P "
                      "obs_tsan_tier.cmake")
endif()

message(STATUS "obs_tsan tier: configuring ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DIOTDB_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR "obs_tsan tier: configure failed (${rc})")
endif()

message(STATUS "obs_tsan tier: building obs_tests + obs_cluster_tests")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
          --target obs_tests obs_cluster_tests
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR "obs_tsan tier: build failed (${rc})")
endif()

message(STATUS "obs_tsan tier: running obs_tests under TSan")
execute_process(
  COMMAND ${BUILD_DIR}/tests/obs_tests
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR "obs_tsan tier: obs_tests failed under TSan (${rc})")
endif()

# The cross-layer causal-tracing tests drive a real replicated cluster
# (driver thread -> group commit -> channel mailbox -> replica
# apply), exactly the cross-thread interplay TSan exists to check.
message(STATUS "obs_tsan tier: running obs_cluster_tests under TSan")
execute_process(
  COMMAND ${BUILD_DIR}/tests/obs_cluster_tests
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR
          "obs_tsan tier: obs_cluster_tests failed under TSan (${rc})")
endif()
