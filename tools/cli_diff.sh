#!/usr/bin/env bash
# Compare two output trees of tools/cli_matrix.sh.  Prints what differs and
# exits non-zero on any difference except the "wall_time_s" lines of run.json
# and alpha.json, which hold measured times and are never reproducible.
#
# usage: tools/cli_diff.sh A B
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 A B" >&2
    exit 2
fi
[ -d "$1" ] && [ -d "$2" ] || { echo "$0: both arguments must be directories" >&2; exit 2; }

# everything but the timed files, including which files exist in each tree
diff -r -x run.json -x alpha.json "$1" "$2"
status=$?
# the timed files of both trees, each compared without its wall_time_s line
timed() { (cd "$1" && find . -name run.json -o -name alpha.json); }
for rel in $( (timed "$1"; timed "$2") | sort -u); do
    if [ ! -f "$1/$rel" ] || [ ! -f "$2/$rel" ]; then
        echo "Only in one tree: $rel"
        status=1
    elif ! diff -I '^ *"wall_time_s": ' "$1/$rel" "$2/$rel"; then
        echo "in $rel"
        status=1
    fi
done
exit "$status"
