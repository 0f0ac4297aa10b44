# --metrics needs no tracing: runs xct_recon (-DRECON) twice on the tools
# fixture stack (-DINPUT), once with --metrics alone and once with
# --trace --metrics, writing into -DOUT, and requires both CSVs to carry
# the same pipeline.stage.* rows, covering all six stages, and the run's
# own memory rows (process.minor_faults, process.peak_rss_mib) with
# positive values.
cmake_minimum_required(VERSION 3.16)
foreach(var RECON INPUT OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stage_metrics.cmake: -D${var}=<path> is required")
  endif()
endforeach()
file(MAKE_DIRECTORY ${OUT})

function(stage_rows name out_var)
  execute_process(COMMAND ${RECON} --input ${INPUT} --output ${OUT}/${name}.xvol
                          --groups 2 --ranks 2 --metrics ${OUT}/${name}.csv ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "xct_recon ${ARGN} --metrics failed: ${rc}")
  endif()
  file(STRINGS ${OUT}/${name}.csv lines REGEX "^pipeline\\.stage\\.")
  list(TRANSFORM lines REPLACE ",.*" "")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

stage_rows(alone alone)
stage_rows(traced traced --trace ${OUT}/traced.json)
if(NOT alone STREQUAL traced)
  message(FATAL_ERROR "--metrics alone wrote [${alone}], --trace --metrics wrote [${traced}]")
endif()
foreach(stage load filter prefetch bp mpi store)
  foreach(unit seconds spans)
    if(NOT "pipeline.stage.${stage}.${unit}" IN_LIST alone)
      message(FATAL_ERROR "--metrics alone: missing pipeline.stage.${stage}.${unit}")
    endif()
  endforeach()
endforeach()
foreach(row process.minor_faults process.peak_rss_mib)
  file(STRINGS ${OUT}/alone.csv line REGEX "^${row},")
  if(NOT line MATCHES "^[^,]+,[a-z]+,([0-9.]+)$")
    message(FATAL_ERROR "--metrics alone: missing ${row}")
  endif()
  if(NOT CMAKE_MATCH_1 GREATER 0)
    message(FATAL_ERROR "--metrics alone: ${row} is ${CMAKE_MATCH_1}, not positive")
  endif()
endforeach()
message(STATUS "--metrics alone and --trace --metrics write the same stage rows")
