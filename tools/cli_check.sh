#!/usr/bin/env bash
# Check that the working tree gives the command-line results of the commit REF:
# unpack `git archive REF` into a temporary directory, run tools/cli_matrix.sh on
# that tree's src/ and on the working tree's src/, and compare the two output
# trees with tools/cli_diff.sh.  Exits with cli_diff.sh's code (0: only the
# wall_time_s lines differ) and removes the temporary trees.
#
# usage: tools/cli_check.sh REF    (REF is any commit git names, e.g. HEAD~1)
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
tools=$(cd "$(dirname "$0")" && pwd) || exit 2
root=$(dirname "$tools")
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref" || exit 2
git -C "$root" archive -o "$tmp/ref.tar" "$1" && tar -xf "$tmp/ref.tar" -C "$tmp/ref" || exit 2
[ -d "$tmp/ref/src/cbelab" ] || { echo "$0: $1 has no src/cbelab" >&2; exit 2; }

"$tools/cli_matrix.sh" "$tmp/ref/src" "$tmp/ref.out" || exit 2
"$tools/cli_matrix.sh" "$root/src" "$tmp/work.out" || exit 2
"$tools/cli_diff.sh" "$tmp/ref.out" "$tmp/work.out"
status=$?
if [ "$status" -eq 0 ]; then
    echo "$0: $1 and the working tree give identical results"
fi
exit "$status"
