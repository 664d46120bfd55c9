# Deep paraclique extraction against a committed table: every round of
# `gsb pipeline --glom 0 --min-paraclique 2` on a 600-vertex module graph,
# read from its DIMACS file and from its .gsbg container, and again traced.
# The traced run must write the same tables, hold one `paraclique-round`
# span per round and label every job (BK's root ranges as `bk-roots`).
# Invoked by CTest:
#   cmake -DGSB=<gsb> -DGOLDEN=<table> -DWORK=<scratch dir> -P RunParacliqueGolden.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_gsb)
  execute_process(COMMAND ${GSB} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
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

run_gsb(generate --kind modules --n 600 --edges 3000 --seed 7
        --out ${WORK}/mod600.clq)
run_gsb(convert ${WORK}/mod600.clq ${WORK}/mod600.gsbg)
set(flags --glom 0 --min-paraclique 2 --threads 2)
run_gsb(pipeline --graph-file ${WORK}/mod600.clq ${flags} --csv ${WORK}/clq)
run_gsb(pipeline --graph-file ${WORK}/mod600.gsbg ${flags} --csv ${WORK}/gsbg)
run_gsb(pipeline --graph-file ${WORK}/mod600.gsbg ${flags} --csv ${WORK}/traced
        --trace-out ${WORK}/trace.json)
expect_same_file(${WORK}/clq_paracliques.csv ${GOLDEN})
expect_same_file(${WORK}/gsbg_paracliques.csv ${GOLDEN})
foreach(table paracliques cliques hubs)
  expect_same_file(${WORK}/traced_${table}.csv ${WORK}/gsbg_${table}.csv)
endforeach()

# At min size 2 every round extracts a paraclique (a residue with an edge
# holds a 2-clique), so the rounds are the table's rows.
file(STRINGS ${GOLDEN} rows)
list(LENGTH rows lines)
math(EXPR rounds "${lines} - 1")
file(READ ${WORK}/trace.json trace)
string(FIND "${trace}" "\"dropped\":0}" complete)
if(complete EQUAL -1)
  message(FATAL_ERROR "the trace dropped events")
endif()
string(REGEX MATCHALL "\"name\":\"paraclique-round\"" spans "${trace}")
list(LENGTH spans round_spans)
if(NOT round_spans EQUAL rounds)
  message(FATAL_ERROR "${round_spans} paraclique-round spans for ${rounds} rounds")
endif()
string(REGEX MATCHALL "\"name\":\"bk-roots\"" bk_jobs "${trace}")
if(NOT bk_jobs)
  message(FATAL_ERROR "no bk-roots job in the trace")
endif()
string(FIND "${trace}" "\"cat\":\"job\",\"name\":\"job\"" unlabelled)
if(NOT unlabelled EQUAL -1)
  message(FATAL_ERROR "the trace holds an unlabelled job")
endif()
