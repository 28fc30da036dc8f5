#!/usr/bin/env sh
# check_query_surface.sh fails the build when a query can be spelled any way
# but one, or metered anywhere but on its one meter. The exported methods
# named Query*, Count* or Search* on the three source types must be exactly
# Search on each, plus the two shims bench/ still calls on Archive (ROADMAP
# item 1 deletes them; delete their line here in the same change). And the
# engine must not depend on the live operations plane: internal/liveops
# reads core.BudgetState, so neither internal/core nor internal/archive may
# import it, directly or through anything else.
#
# The meter is also the one ledger of engine work. Its span attribute names
# are written on one line of internal/core (core.Ledger.attrs) and named
# nowhere else in the program, so no reader can go back to summing spans by
# name: JSON struct tags are field names, not attribute keys, and
# "decompressions", which is also a metric name, counts only as an attribute
# (Attr or a case label). And internal/archive records no trace of its own
# outside the QueryTraced shim: a block's work reaches its span through the
# block's meter.
#
# A query fans out one way: archive blocks and stream segments both run on
# core.FanOut, so neither internal/archive/reader.go nor
# internal/ingest/query.go starts a goroutine of its own.
set -eu

want='archive.Archive.Query
archive.Archive.QueryTraced
archive.Archive.Search
core.Store.Search
ingest.Stream.Search'

got=$(for t in core.Store archive.Archive ingest.Stream; do
    go doc "./internal/${t%.*}" "${t#*.}" |
        grep -E '^func \([a-z]+ \*[A-Za-z]+\) (Query|Count|Search)' |
        sed 's/^func ([^)]*) \([A-Za-z]*\)(.*/'"$t"'.\1/'
done | sort)

if [ "$got" != "$want" ]; then
    echo "check_query_surface: the query entry points are not the expected set" >&2
    echo "want:" >&2; echo "$want" >&2
    echo "got:" >&2; echo "$got" >&2
    exit 1
fi

if go list -deps ./internal/core ./internal/archive | grep -qx 'loggrep/internal/liveops'; then
    echo "check_query_surface: internal/core or internal/archive depends on internal/liveops" >&2
    exit 1
fi

keys='stamp_admits|stamp_skips|capsule_scans|scan_cache_hits|bytes_scanned|line_maps'
hits=$(grep -rnE --include='*.go' "[^:]\"($keys)\"|(Attr\\(|case )\"decompressions\"" internal cmd ./*.go |
    grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$hits" | grep -c .)" != 1 ] || ! printf '%s\n' "$hits" | grep -q '^internal/core/'; then
    echo "check_query_surface: the ledger's span keys must be named on one line of internal/core; found:" >&2
    echo "$hits" >&2
    exit 1
fi

traces=$(for f in internal/archive/*.go; do
    case $f in *_test.go) continue ;; esac
    awk '/^func /{fn=$0} /NewTrace\(/ && fn !~ /\) QueryTraced\(/ {print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$traces" ]; then
    echo "check_query_surface: internal/archive creates a trace outside the QueryTraced shim:" >&2
    echo "$traces" >&2
    exit 1
fi

fanouts=$(grep -nE '^[[:space:]]*go ' internal/archive/reader.go internal/ingest/query.go || true)
if [ -n "$fanouts" ]; then
    echo "check_query_surface: a query fans out on core.FanOut only; found a go statement:" >&2
    echo "$fanouts" >&2
    exit 1
fi
