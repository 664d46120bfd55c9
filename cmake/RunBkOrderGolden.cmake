# Bron–Kerbosch's root order against a committed table: `gsb cliques
# --engine bk` writes cliques in the order of the degeneracy peel's roots,
# so its lines on a 600-vertex module graph, read from the DIMACS file at
# one thread and from the .gsbg container at four, must equal the table
# byte for byte.
# Invoked by CTest:
#   cmake -DGSB=<gsb> -DGOLDEN=<table> -DWORK=<scratch dir> -P RunBkOrderGolden.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_gsb out)
  execute_process(COMMAND ${GSB} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_FILE ${out} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gsb ${ARGN} exited with ${rc}: ${err}")
  endif()
endfunction()

function(expect_same_file actual expected)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${expected}
    RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

run_gsb(${WORK}/generate.out generate --kind modules --n 600 --edges 3000
        --seed 7 --out ${WORK}/mod600.clq)
run_gsb(${WORK}/convert.out convert ${WORK}/mod600.clq ${WORK}/mod600.gsbg)
run_gsb(${WORK}/clq_t1.txt cliques ${WORK}/mod600.clq --engine bk --min 2
        --threads 1)
run_gsb(${WORK}/gsbg_t4.txt cliques ${WORK}/mod600.gsbg --engine bk --min 2
        --threads 4)
expect_same_file(${WORK}/clq_t1.txt ${GOLDEN})
expect_same_file(${WORK}/gsbg_t4.txt ${GOLDEN})
