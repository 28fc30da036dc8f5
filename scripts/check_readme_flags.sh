#!/usr/bin/env sh
# check_readme_flags.sh fails the build when the docs and the binaries
# disagree about flags:
#
#   - the flags `loggrepd -h` prints and the flags README.md's "HTTP API"
#     section tabulates differ in either direction: a flag nobody
#     documented, or a documented flag that is gone. A table row counts
#     when its first cell is a backticked flag (| `-name` |);
#   - a command line written in README.md, OPERATIONS.md or INGEST.md
#     names a flag the command does not have: every `-flag` after
#     `loggrepd`, or after `loggrep <subcommand>`, up to the end of its
#     code span, pipe, `;`, `&` or `#` comment on that line, must appear in
#     `loggrepd -h` or `loggrep help <subcommand>`.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/loggrep ./cmd/loggrepd

# flagsOf prints the flag names a help listing holds, one a line.
flagsOf() { "$@" 2>&1 | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u; }

bin=$(flagsOf "$tmp/loggrepd" -h)
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

# Every subcommand's flags, as "<subcommand> <flag>" lines; loggrepd's
# under the name "loggrepd".
subs=$("$tmp/loggrep" help | sed -n 's/^  \([a-z]*\)  .*/\1/p' | grep -vx help)
known=$(
    for f in $bin h help; do echo "loggrepd $f"; done
    for s in $subs; do
        for f in $(flagsOf "$tmp/loggrep" help "$s") h help; do echo "$s $f"; done
    done
)

# used prints "<file>:<line> <subcommand> <flag>" for every flag the docs
# write after a loggrepd or loggrep <subcommand> invocation.
used=$(awk -v subs="$subs" '
BEGIN { n = split(subs, s, "\n"); for (i = 1; i <= n; i++) issub[s[i]] = 1 }
{
    nseg = split($0, seg, /[`|;&#]/)
    for (i = 1; i <= nseg; i++) {
        nt = split(seg[i], tok, /[ \t]+/)
        cmd = ""
        for (j = 1; j <= nt; j++) {
            t = tok[j]
            if (t ~ /(^|\/)loggrepd$/) { cmd = "loggrepd"; continue }
            if (t ~ /(^|\/)loggrep$/ && (tok[j+1] in issub)) { cmd = tok[j+1]; j++; continue }
            if (cmd != "" && t ~ /^-[a-z][a-z0-9-]*/) {
                sub(/[^a-z0-9-].*/, "", t)
                print FILENAME ":" FNR " " cmd " " substr(t, 2)
            }
        }
    }
}' README.md OPERATIONS.md INGEST.md)

stale=$(echo "$used" | while read -r where cmd f; do
    [ -n "$where" ] || continue
    echo "$known" | grep -qx -- "$cmd $f" && continue
    if [ "$cmd" = loggrepd ]; then
        echo "$where: loggrepd -$f: not in loggrepd -h"
    else
        echo "$where: loggrep $cmd -$f: not in loggrep help $cmd"
    fi
done)
if [ -n "$stale" ]; then
    echo "$stale" >&2
    fail=1
fi
exit "$fail"
