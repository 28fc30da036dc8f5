#!/usr/bin/env sh
# check_settings.sh fails the build when a daemon setting has no production
# caller. Every exported field of the five settings structs below must be
# set by non-test code outside the package that declares it — as `Field:`
# at the top level of a `pkg.Type{...}` literal, or as `.Field =` in a file
# that imports the package. A value that only tests vary is an unexported
# field of its package; a value nothing varies is a constant.
#
# Exempt: each Registry (tests inject a private metric registry so planes,
# recorders and exporters do not share gauges) and Server.Liveops, which
# server.New builds.
set -eu

structs='flightrec.Config otlp.Config liveops.Config ingest.Config server.Server'
exempt='flightrec.Config.Registry otlp.Config.Registry liveops.Config.Registry server.Server.Liveops'

# fields prints the exported field names of pkg.Type, one a line.
fields() {
    go doc "./internal/$1" "$2" |
        awk '/^type [A-Za-z]+ struct \{/ { in_struct = 1; next } in_struct && /^}/ { exit } in_struct' |
        sed -n 's/^[[:space:]]*\([A-Z][A-Za-z0-9_]*\)[[:space:],].*/\1/p'
}

# setters prints every field name that non-test code outside internal/pkg
# sets, in a pkg.Type literal or by assignment in a file importing pkg.
setters() {
    files=$(grep -rl --include='*.go' "\"loggrep/internal/$1\"" . |
        grep -v -e '_test\.go$' -e "^\./internal/$1/" || true)
    [ -n "$files" ] || return 0
    # shellcheck disable=SC2086 # one argument per file
    awk -v lit="$1.$2{" '
        function indent(s) { match(s, /^\t*/); return RLENGTH }
        FNR == 1 { depth = -1 }
        depth >= 0 && indent($0) == depth && /^\t*}/ { depth = -1 }
        depth >= 0 && indent($0) == depth + 1 && match($0, /^\t*[A-Z][A-Za-z0-9_]*:/) {
            k = substr($0, RSTART, RLENGTH - 1); gsub(/\t/, "", k); print k
        }
        (i = index($0, lit)) > 0 {
            rest = substr($0, i + length(lit))
            if (rest == "") { depth = indent($0); next }
            rest = "{" rest
            while (match(rest, /[{,] *[A-Z][A-Za-z0-9_]*:/)) {
                k = substr(rest, RSTART + 1, RLENGTH - 2); gsub(/ /, "", k); print k
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        {
            rest = $0
            while (match(rest, /\.[A-Z][A-Za-z0-9_]* =[^=]/)) {
                print substr(rest, RSTART + 1, RLENGTH - 4)
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
    ' $files | sort -u
}

missing=''
for st in $structs; do
    pkg=${st%.*} typ=${st#*.}
    set_fields=$(setters "$pkg" "$typ")
    for f in $(fields "$pkg" "$typ"); do
        case " $exempt " in *" $st.$f "*) continue ;; esac
        if ! printf '%s\n' "$set_fields" | grep -qx "$f"; then
            missing="$missing$st.$f
"
        fi
    done
done

if [ -n "$missing" ]; then
    echo "check_settings: exported settings that no non-test code outside their package sets" >&2
    echo "(make each a constant, or an unexported field if its package's tests vary it):" >&2
    printf '%s' "$missing" >&2
    exit 1
fi
