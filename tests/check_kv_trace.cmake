# Runs `kv_server <TRACE>` and cross-checks its Chrome trace against the
# telemetry stage table it prints: the file must parse as JSON, hold one
# complete ("ph":"X") quantum event per quantum the table counts, and
# the table must report no dropped trace events.
#
#   cmake -DCMD=<kv_server> -DTRACE=<file> -P check_kv_trace.cmake
file(REMOVE ${TRACE})
execute_process(COMMAND ${CMD} ${TRACE} OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CMD} exited with ${rc}:\n${out}")
endif()
if(NOT out MATCHES "\nquanta: ([0-9]+) ")
    message(FATAL_ERROR "no quanta count in the stage table:\n${out}")
endif()
set(quanta ${CMAKE_MATCH_1})
if(NOT out MATCHES "\ntrace events dropped: 0\n")
    message(FATAL_ERROR "the trace dropped events:\n${out}")
endif()

file(READ ${TRACE} json)
string(JSON nevents ERROR_VARIABLE err LENGTH "${json}" traceEvents)
if(err)
    message(FATAL_ERROR "${TRACE} is not a Chrome trace: ${err}")
endif()
set(nslices 0)
if(nevents GREATER 0)
    math(EXPR last "${nevents} - 1")
    foreach(i RANGE ${last})
        string(JSON event GET "${json}" traceEvents ${i})
        string(JSON name GET "${event}" name)
        string(JSON ph GET "${event}" ph)
        if(name STREQUAL "quantum" AND ph STREQUAL "X")
            math(EXPR nslices "${nslices} + 1")
        endif()
    endforeach()
endif()
if(NOT nslices EQUAL quanta)
    message(FATAL_ERROR "${TRACE} holds ${nslices} quantum events; the "
                        "stage table counts ${quanta} quanta")
endif()
