#!/usr/bin/env sh
# check_query_surface.sh fails the build when a query can be spelled any way
# but one, or metered anywhere but on its one meter. The exported methods
# named Query*, Count* or Search* on the three source types must be exactly
# Search on each, plus the two shims bench/ still calls on Archive (ROADMAP
# item 1 deletes them; delete their line here in the same change). And the
# engine must not depend on the live operations plane: internal/liveops
# reads core.BudgetState, so neither internal/core nor internal/archive may
# import it, directly or through anything else.
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
