# Runs one command twice, with ARGS_A and then ARGS_B appended, and fails
# unless both runs print the same stdout and exit with the same code. The
# three variables are '|'-separated argument lists:
#
#   cmake -DCMD="exe|arg|..." -DARGS_A="--jobs|1" -DARGS_B="--jobs|4" \
#         -P same_output.cmake
string(REPLACE "|" " " label_a "${ARGS_A}")
string(REPLACE "|" " " label_b "${ARGS_B}")
foreach(var CMD ARGS_A ARGS_B)
  string(REPLACE "|" ";" ${var} "${${var}}")
endforeach()
execute_process(COMMAND ${CMD} ${ARGS_A} OUTPUT_VARIABLE out_a
                RESULT_VARIABLE rc_a)
execute_process(COMMAND ${CMD} ${ARGS_B} OUTPUT_VARIABLE out_b
                RESULT_VARIABLE rc_b)
if(NOT rc_a STREQUAL rc_b)
  message(FATAL_ERROR "exit codes differ: ${rc_a} with '${label_a}', "
                      "${rc_b} with '${label_b}'")
endif()
if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "outputs differ.\n--- with '${label_a}':\n${out_a}"
                      "--- with '${label_b}':\n${out_b}")
endif()
message(STATUS "identical output:\n${out_a}")
