#!/bin/sh
# Run the given command against a fresh, throwaway artifact store, so
# golden outputs never depend on what an earlier run cached.
store=$(mktemp -d)
GPCC_CACHE_DIR=$store "$@"
status=$?
rm -rf "$store"
exit $status
