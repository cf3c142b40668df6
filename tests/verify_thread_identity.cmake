# Scans src/ and tests/verify_fixtures with analock_verify at
# ANALOCK_THREADS=1 and =4 and fails unless the two SARIF logs are
# byte-identical: the parse fans out over the thread pool, and nothing
# after it may depend on the worker count.
#
#   cmake -DVERIFY=<analock_verify> -DSOURCE_DIR=<repo root>
#         -DOUT_DIR=<scratch dir> -P tests/verify_thread_identity.cmake
foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ANALOCK_THREADS=${threads}
            ${VERIFY} --root ${SOURCE_DIR}/src
                      --root ${SOURCE_DIR}/tests/verify_fixtures
                      --sarif ${OUT_DIR}/thread_identity_t${threads}.sarif
                      --exit-zero
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
      "analock_verify failed at ANALOCK_THREADS=${threads} (exit ${status})")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/thread_identity_t1.sarif
          ${OUT_DIR}/thread_identity_t4.sarif
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "SARIF differs between ANALOCK_THREADS=1 and ANALOCK_THREADS=4")
endif()
message(STATUS "SARIF identical at ANALOCK_THREADS=1 and 4")
