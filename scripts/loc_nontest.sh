#!/usr/bin/env bash
# Non-test Rust line counts per crate, for reporting how much code a
# change adds or removes.
#
#   scripts/loc_nontest.sh [ROOT]
#
# ROOT defaults to this checkout. For each crate directory (and the root
# `src/` and `examples/`), prints three counts over its `.rs` files:
# raw lines, non-blank lines, and code lines (non-blank and not starting
# with `//`). `tests/` directories and `#[cfg(test)]` modules are left
# out; `benches/`, `src/bin/` and other `#[cfg(test)]` items count.
# Compare two trees with
#
#   diff <(scripts/loc_nontest.sh path/to/other/checkout) <(scripts/loc_nontest.sh)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -not -path '*/target/*' -not -path '*/tests/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { skip = 0; attr = 0 }
            attr {
                attr = 0
                if ($0 ~ /^[ \t]*(pub(\(crate\))? )?mod /) { skip = 1; depth = 0; seen = 0 }
                else { raw++; nonblank++; code++ }
            }
            !skip && /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { attr = 1; next }
            skip {
                line = $0
                gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
                sub(/\/\/.*/, "", line)
                opened = gsub(/\{/, "{", line)
                closed = gsub(/\}/, "}", line)
                depth += opened - closed
                if (opened > 0) seen = 1
                if ((seen && depth == 0) || (!seen && line ~ /;[ \t]*$/)) skip = 0
                next
            }
            { raw++; if ($0 ~ /[^ \t]/) { nonblank++; if ($0 !~ /^[ \t]*\/\//) code++ } }
            END { printf "%d %d %d\n", raw, nonblank, code }'
}

printf '%-20s %8s %10s %8s\n' dir raw non-blank code
for dir in "$root"/crates/* "$root/src" "$root/examples"; do
    [ -d "$dir" ] || continue
    read -r raw nonblank code < <(count "$dir")
    printf '%-20s %8d %10d %8d\n' "${dir#"$root"/}" "$raw" "$nonblank" "$code"
done
