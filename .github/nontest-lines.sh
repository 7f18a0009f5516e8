#!/usr/bin/env bash
# Prints the non-test Rust line count of each part of the repository: each
# crate under `crates/` (every `.rs` file in it except its `tests/`
# directory), the root package's `src`, and `examples`. A file's non-test
# lines are the lines before its first `#[cfg(test)]` in column 0 — the
# start of its test module; an indented `#[cfg(test)]` on a test-hook field
# or statement does not end the count. A file without one counts whole.
#
# Given BASE (any commit git can resolve), it also prints BASE's counts and
# the delta. The working tree is counted as it stands, untracked files that
# `.gitignore` does not name included. A BASE that does not resolve (a
# shallow clone) prints a note and the counts alone.
#
# Usage: .github/nontest-lines.sh [BASE]
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base=${1:-}
if [ -n "$base" ] && ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
    echo "base $base does not resolve here; counts only" >&2
    base=
fi

# The part a path belongs to, or nothing when it is not counted.
part() {
    if [[ $1 == *.rs && ! $1 =~ ^crates/[^/]+/tests/ && $1 =~ ^(crates/[^/]+|src|examples)/ ]]; then
        echo "${BASH_REMATCH[1]}"
    fi
}

# Non-test lines of the file on standard input. It reads to the end, so a
# writer piping into it never sees a broken pipe.
nontest() {
    awk '/^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

declare -A now was parts
while IFS= read -r path; do
    p=$(part "$path")
    [ -n "$p" ] && [ -f "$path" ] || continue
    now[$p]=$((${now[$p]:-0} + $(nontest <"$path")))
    parts[$p]=1
done < <(git ls-files --cached --others --exclude-standard)

if [ -n "$base" ]; then
    while IFS= read -r path; do
        p=$(part "$path")
        [ -n "$p" ] || continue
        was[$p]=$((${was[$p]:-0} + $(git show "$base:$path" | nontest)))
        parts[$p]=1
    done < <(git ls-tree -r --name-only "$base")
fi

total_now=0
total_was=0
for p in $(printf '%s\n' "${!parts[@]}" | sort); do
    n=${now[$p]:-0}
    total_now=$((total_now + n))
    if [ -n "$base" ]; then
        t=${was[$p]:-0}
        total_was=$((total_was + t))
        printf '%-20s %7d %7d %+7d\n' "$p" "$n" "$t" $((n - t))
    else
        printf '%-20s %7d\n' "$p" "$n"
    fi
done
if [ -n "$base" ]; then
    printf '%-20s %7d %7d %+7d\n' total "$total_now" "$total_was" $((total_now - total_was))
    echo "(columns: part, lines now, lines at $base, delta)"
else
    printf '%-20s %7d\n' total "$total_now"
fi
