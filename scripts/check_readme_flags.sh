#!/usr/bin/env sh
# check_readme_flags.sh fails the build when the flags `loggrepd -h` prints
# and the flags README.md's "HTTP API" section tabulates differ in either
# direction: a flag nobody documented, or a documented flag that is gone.
# A table row counts when its first cell is a backticked flag (| `-name` |).
set -eu

bin=$(go run ./cmd/loggrepd -h 2>&1 | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u)
doc=$(awk '/^## /{on = ($0 == "## HTTP API")} on' README.md |
    sed -n 's/^| `-\([a-z0-9-]*\)` |.*/\1/p' | sort -u)
if [ -z "$bin" ] || [ -z "$doc" ]; then
    echo "check_readme_flags: empty flag set (loggrepd -h or the README section did not parse)" >&2
    exit 1
fi

fail=0
for f in $bin; do
    echo "$doc" | grep -qx -- "$f" || { echo "-$f: in loggrepd -h, not in README.md" >&2; fail=1; }
done
for f in $doc; do
    echo "$bin" | grep -qx -- "$f" || { echo "-$f: in README.md, not in loggrepd -h" >&2; fail=1; }
done
exit "$fail"
