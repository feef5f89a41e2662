# Runs imc_cli once and checks its exit code and one output stream for a
# substring. One row of the `cli` table in tests/CMakeLists.txt:
#   cmake -DCLI=path/to/imc_cli -DARGV="solve|--k|abc" -DEXIT=2
#         -DSTREAM=stderr -DEXPECT="--k expects" -P run_cli_case.cmake
# ARGV separates the arguments with '|' so they survive add_test intact.
string(REPLACE "|" ";" argv "${ARGV}")
execute_process(COMMAND "${CLI}" ${argv}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(STREAM STREQUAL "stdout")
  set(text "${out}")
else()
  set(text "${err}")
endif()
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "imc_cli ${argv}: exit ${code}, expected ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${text}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "imc_cli ${argv}: ${STREAM} lacks \"${EXPECT}\"\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
