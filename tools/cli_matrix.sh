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
for case in ex1 ex2 ex3; do
    for method in fvm ahpm; do
        run "solve-$case-$method-uniform" solve --case "$case" --method "$method" --cells 120
        run "solve-$case-$method-geometric" solve --case "$case" --method "$method" --cells 120 \
            --grid-scheme geometric --eps-min 1e-3
    done
    run "solve-$case-ham-auto" solve --case "$case" --method ham --alpha auto --cells 200
done
run solve-ex1-fvm-4000 solve --case ex1 --method fvm --cells 4000
run solve-ex1-ham-fixed solve --case ex1 --method ham --alpha -0.8 --times 0,0.25,0.5,1 --cells 120
run eoc-ex1-fvm eoc --case ex1 --method fvm
run eoc-ex1-ahpm eoc --case ex1 --method ahpm
run optimize-alpha-ex2 optimize-alpha --case ex2 --order 5 --cells 200
run validate validate
# series overflow: exit code 3 and a stderr of one "numerical failure:" line
run solve-ex1-ahpm-tend1e40 solve --case ex1 --method ahpm --order 7 --cells 40 --tend 1e40
run solve-ex1-ahpm-rmax200 solve --case ex1 --method ahpm --order 9 --cells 20 --rmax 200
