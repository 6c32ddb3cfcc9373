#!/usr/bin/env bash
# Run a fixed matrix of cbelab command lines against the package under SRC and
# keep each one's output files, stdout, stderr and exit code under OUT.  Every run
# writes to a path relative to OUT, so two trees give the same results when
#
#     diff -r OUT_A OUT_B
#
# reports nothing but the wall_time_s lines of run.json and alpha.json.
#
# usage: tools/cli_matrix.sh SRC OUT    (SRC is the directory holding cbelab/)
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2

# run NAME ARGS...: outputs in NAME/, stdout in NAME.stdout, stderr in
# NAME.stderr, exit code in NAME.exit
run() {
    local name=$1
    shift
    PYTHONPATH="$src" python3 -m cbelab.cli "$@" --out "$name" >"$name.stdout" 2>"$name.stderr"
    echo $? >"$name.exit"
}

run reproduce-40 reproduce all --cells 40
run reproduce-300 reproduce all --cells 300
# a figure grid equal to a table-1 grid: table 1 reads the horizon alone, fig2 all 11 times
run reproduce-60 reproduce all --cells 60
# too few cells: exit code 2 before any file is written
run reproduce-all-cells1 reproduce all --cells 1
run reproduce-table1-cells1 reproduce table1 --cells 1
for case in ex1 ex2 ex3; do
    for method in fvm ahpm; do
        run "solve-$case-$method-uniform" solve --case "$case" --method "$method" --cells 120
        run "solve-$case-$method-geometric" solve --case "$case" --method "$method" --cells 120 \
            --grid-scheme geometric --eps-min 1e-3
    done
    run "solve-$case-ham-auto" solve --case "$case" --method ham --alpha auto --cells 200
done
# ex2's alpha* is the most sensitive reading of the alpha objective's last bits
run solve-ex2-ham-auto-geometric solve --case ex2 --method ham --alpha auto --cells 200 \
    --grid-scheme geometric --eps-min 1e-3
run solve-ex1-fvm-4000 solve --case ex1 --method fvm --cells 4000
# the same run at one and at two OpenBLAS threads, above the size where OpenBLAS
# splits a dot product: the .cmp file holds cmp's exit code, 0 for identical files
for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads run "solve-ex2-fvm-20000-threads$threads" \
        solve --case ex2 --method fvm --cells 20000
done
cmp -s solve-ex2-fvm-20000-threads1/concentration.csv solve-ex2-fvm-20000-threads2/concentration.csv
echo $? >solve-ex2-fvm-20000-threads.cmp
run solve-ex1-ham-fixed solve --case ex1 --method ham --alpha -0.8 --times 0,0.25,0.5,1 --cells 120
# a single output time: the projection alone, no step taken
run solve-ex1-fvm-t0 solve --case ex1 --method fvm --times 0
run solve-ex1-ahpm-t0 solve --case ex1 --method ahpm --times 0
# a horizon of 1e-13: one stage, still far above ten ulps of t
run solve-ex1-fvm-tend1e-13 solve --case ex1 --method fvm --cells 50 --tend 1e-13
# the smallest grid, where the Taylor tables have two cells: ex3 finishes, and ex1's
# stage length falls to 0 at t=0.159 (exit code 3 and one "numerical failure:" line)
run solve-ex3-fvm-cells2 solve --case ex3 --method fvm --cells 2
run solve-ex1-fvm-cells2 solve --case ex1 --method fvm --cells 2
# output times that fall inside a Taylor stage, evaluated by its polynomial
run solve-ex3-fvm-times solve --case ex3 --method fvm --cells 300 --times 0.05,0.5
run eoc-ex1-fvm eoc --case ex1 --method fvm
run eoc-ex1-fvm-cells eoc --case ex1 --method fvm --cell-list 60,120,240
run eoc-ex1-ahpm eoc --case ex1 --method ahpm
run eoc-ex1-ham eoc --case ex1 --method ham --alpha -0.8
run optimize-alpha-ex1 optimize-alpha --case ex1
run optimize-alpha-ex2 optimize-alpha --case ex2 --order 5 --cells 200
# ex2 at order 7: the minimum sits at the round-off floor, so alpha* is poorly
# determined and moves with any change to how the alpha objective rounds
run optimize-alpha-ex2-order7 optimize-alpha --case ex2 --order 7 --cells 300
# alpha-objective edge grids: every cell read, two cells, and an order-7 geometric grid
run optimize-alpha-ex3-order7-cells7 optimize-alpha --case ex3 --order 7 --cells 7
run optimize-alpha-ex1-order1-cells2 optimize-alpha --case ex1 --order 1 --cells 2
# alpha search on a geometric grid where the interpolated rule's sites pass R
run optimize-alpha-ex3-geometric optimize-alpha --case ex3 --order 5 --cells 60 --grid-scheme geometric \
    --eps-min 1e-3
# interpolated-sampler edges: the sites m/0.4 and m/0.6 fall both inside and past R
run solve-ex3-ahpm-order3-cells2 solve --case ex3 --method ahpm --order 3 --cells 2
run solve-ex3-ahpm-order3-cells3 solve --case ex3 --method ahpm --order 3 --cells 3
run solve-ex1-ham-auto-order7-geometric solve --case ex1 --method ham --alpha auto --order 7 \
    --cells 60 --grid-scheme geometric --eps-min 1e-3
# deep AHPM runs that finish: ragged terms summed up to degree 127
run solve-ex3-ahpm-order7 solve --case ex3 --method ahpm --order 7 --cells 60
run solve-ex2-ahpm-order7 solve --case ex2 --method ahpm --order 7 --cells 60
# order 0: each series sum holds a single array
run solve-ex1-ham-order0 solve --case ex1 --method ham --order 0 --alpha -0.5 --cells 40
run solve-ex1-ahpm-order0 solve --case ex1 --method ahpm --order 0 --cells 40
run validate validate
# series overflow: exit code 3 and a stderr of one "numerical failure:" line
run solve-ex1-ahpm-tend1e40 solve --case ex1 --method ahpm --order 7 --cells 40 --tend 1e40
run solve-ex1-ahpm-rmax200 solve --case ex1 --method ahpm --order 9 --cells 20 --rmax 200
# an unknown case: exit code 2 and a stderr of one "error:" line
run solve-ex9 solve --case ex9
# a grid too large to allocate: exit code 2 and one "error:" line, failing before
# any memory is taken
run solve-ex1-fvm-cells1e18 solve --case ex1 --method fvm --cells 1000000000000000000
# help texts, and an unknown command: exit code 2 and argparse's usage error
run help --help
for command in solve eoc reproduce optimize-alpha validate; do
    run "help-$command" "$command" --help
done
run unknown-command frobnicate
