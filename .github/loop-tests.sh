#!/usr/bin/env bash
# Runs `cargo test <cargo args> -- <test args>` RUNS times, stopping at the
# first failure. It first lists what each name filter selects and fails
# when any filter selects no test: `cargo test` exits 0 when a filter
# matches nothing, so a renamed or moved test would otherwise leave the
# loop passing on empty runs (or, with several filters, passing on the
# tests the other filters still select). Without a filter, the whole
# selection must be non-empty. A failed build fails the script itself.
#
# Usage: .github/loop-tests.sh RUNS <cargo test args> [-- <test args>]
set -euo pipefail
shopt -s inherit_errexit

runs=$1
shift
cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    cargo_args+=("$1")
    shift
done
[ $# -gt 0 ] && shift
test_args=("$@")

options=()
filters=()
for arg in "${test_args[@]}"; do
    case "$arg" in
        -*) options+=("$arg") ;;
        *) filters+=("$arg") ;;
    esac
done

# Counts the tests `cargo test -- --list` selects with the given test args.
count() {
    local listed
    listed=$(cargo test "${cargo_args[@]}" -- --list "${options[@]}" "$@")
    grep -c ': test$' <<<"$listed" || true
}

if [ ${#filters[@]} -eq 0 ]; then
    selections=("")
else
    selections=("${filters[@]}")
fi
for filter in "${selections[@]}"; do
    if [ -n "$filter" ]; then
        selected=$(count "$filter")
    else
        selected=$(count)
    fi
    echo "selected $selected tests: ${cargo_args[*]} -- ${options[*]} $filter"
    if [ "$selected" -eq 0 ]; then
        echo "no test matches ${filter:-these arguments}" >&2
        exit 1
    fi
done
for _ in $(seq "$runs"); do
    cargo test "${cargo_args[@]}" -- "${test_args[@]}"
done
