# Script mode (cmake -P): configure a sanitized build in BUILD_DIR, build
# the test targets named in TARGETS (comma-separated), and run each one as
# ${BUILD_DIR}/tests/<target>. Invoked as a ctest from the normal
# (unsanitized) build so the concurrency- and lifetime-sensitive suites
# always also run under a sanitizer; those suites link only part of the
# stack, which keeps the nested builds small enough for single-core
# builders.
#
#   cmake -DSOURCE_DIR=<src> -DBUILD_DIR=<dir> -DSANITIZER=thread \
#         -DTARGETS=obs_tests,obs_cluster_tests -P sanitizer_tier.cmake
if(NOT SOURCE_DIR OR NOT BUILD_DIR OR NOT SANITIZER OR NOT TARGETS)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -DBUILD_DIR=... "
                      "-DSANITIZER=... -DTARGETS=a,b -P sanitizer_tier.cmake")
endif()
string(REPLACE "," ";" targets "${TARGETS}")

message(STATUS "${SANITIZER} tier: configuring ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DIOTDB_SANITIZE=${SANITIZER} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR "${SANITIZER} tier: configure failed (${rc})")
endif()

message(STATUS "${SANITIZER} tier: building ${TARGETS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${targets}
          --parallel 2
  RESULT_VARIABLE rc)
if(rc)
  message(FATAL_ERROR "${SANITIZER} tier: build failed (${rc})")
endif()

foreach(target IN LISTS targets)
  message(STATUS "${SANITIZER} tier: running ${target}")
  execute_process(COMMAND ${BUILD_DIR}/tests/${target} RESULT_VARIABLE rc)
  if(rc)
    message(FATAL_ERROR
            "${SANITIZER} tier: ${target} failed under ${SANITIZER} (${rc})")
  endif()
endforeach()
