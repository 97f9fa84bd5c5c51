# Runs CMD and fails unless its stdout equals the GOLDEN file byte for
# byte. On a mismatch the actual output is written to <golden>.actual in
# the working directory for diffing.
#
#   cmake -DCMD=<program> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CMD} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR "stdout of ${CMD} differs from ${GOLDEN}; "
                        "actual output written to ${name}.actual")
endif()
