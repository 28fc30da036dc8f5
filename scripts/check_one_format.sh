#!/usr/bin/env sh
# check_one_format.sh fails the build when a retired on-disk format creeps
# back onto the live path. The readers every query, ingest and server path
# runs know one box revision and one frame format; the retired ones are
# decoded by internal/legacy alone, which only `loggrep upgrade` links. So
# neither internal/legacy nor internal/lzma (LZMA-lite, which only retired
# boxes hold) may be a dependency of the archive reader, ingest, the server
# or loggrepd, and internal/capsule's non-test code may not name the
# LZMA-lite codec.
set -eu

deps=$(go list -deps ./internal/archive ./internal/ingest ./internal/server ./cmd/loggrepd |
    grep -xE 'loggrep/internal/(lzma|legacy)' || true)
if [ -n "$deps" ]; then
    echo "check_one_format: the live path depends on a retired format's decoder:" >&2
    echo "$deps" >&2
    exit 1
fi

hits=$(grep -n 'CodecLZMA' $(ls internal/capsule/*.go | grep -v '_test\.go$') || true)
if [ -n "$hits" ]; then
    echo "check_one_format: internal/capsule's non-test code names CodecLZMA:" >&2
    echo "$hits" >&2
    exit 1
fi
