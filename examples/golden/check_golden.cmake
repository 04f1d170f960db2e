# Runs one example and compares its stdout with its golden file. The data
# directory's absolute path prints as <data>, so golden files hold no
# checkout path. Registered per example by examples/CMakeLists.txt:
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -DDATA_DIR=<dir> \
#         [-DARGS=<arg;arg...>] [-DINPUT=<stdin file>] -P check_golden.cmake
set(stdin_option)
if(DEFINED INPUT)
  set(stdin_option INPUT_FILE "${INPUT}")
endif()
execute_process(COMMAND "${EXAMPLE}" ${ARGS} ${stdin_option}
                OUTPUT_VARIABLE actual RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
string(REPLACE "${DATA_DIR}" "<data>" actual "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${EXAMPLE}: stdout differs from ${GOLDEN}\n"
                      "--- actual ---\n${actual}")
endif()
