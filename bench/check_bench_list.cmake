# Checks `p3gm bench --smoke --list`: the smoke suite must name the gemm
# thread sweep at both smoke pool widths and the decode.reference.*
# micro.
#
#   cmake -DP3GM=path/to/p3gm -P check_bench_list.cmake
execute_process(COMMAND ${P3GM} bench --smoke --list
                OUTPUT_VARIABLE names
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "p3gm bench --smoke --list exited ${rc}")
endif()
foreach(pattern "\ngemm\\.128\\.t1\n" "\ngemm\\.128\\.t2\n"
                "\ndecode\\.reference\\.[0-9]+x[0-9]+\n")
  if(NOT "\n${names}" MATCHES "${pattern}")
    message(FATAL_ERROR "missing benchmark matching ${pattern} in:\n${names}")
  endif()
endforeach()
