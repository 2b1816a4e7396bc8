#!/bin/sh
# Prints the non-test Rust line count that ROADMAP.md tracks: every
# `.rs` file under `crates/` and `src/`, leaving out `crates/compat`
# and every `tests/` and `benches/` directory, each file cut at its
# first top-level `#[cfg(test)]`.
#
# Usage: scripts/nontest-lines.sh [REPO_ROOT]
# REPO_ROOT defaults to the checkout this script lies in.
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates src -name '*.rs' \
    -not -path 'crates/compat/*' -not -path '*/tests/*' -not -path '*/benches/*' \
    -exec awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { lines++ }
        END { print lines + 0 }
    ' {} + |
    awk '{ total += $1 } END { print total + 0 }'
