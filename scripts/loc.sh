#!/usr/bin/env bash
# Prints the workspace's non-test Rust size: lines per crate and in total,
# then the number of `pub fn`s in those lines.
#
# A non-test line is a line of a `.rs` file under crates/ or src/ that comes
# before the file's first `#[cfg(test)]`. crates/shims (offline stand-ins for
# crates.io dependencies) is excluded. Run from anywhere:
#
#     bash scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

find crates src -path crates/shims -prune -o -name target -prune -o -name '*.rs' -print |
    sort |
    xargs awk '
        FNR == 1 {
            in_tests = 0
            split(FILENAME, parts, "/")
            unit = parts[1] == "src" ? "src" : parts[1] "/" parts[2]
        }
        in_tests { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1; next }
        {
            lines[unit]++
            total++
        }
        /(^|[^A-Za-z0-9_])pub fn / { pub_fns++ }
        END {
            for (unit in lines) printf "%7d  %s\n", lines[unit], unit | "sort -k2"
            close("sort -k2")
            printf "%7d  total non-test lines\n", total
            printf "%7d  pub fn\n", pub_fns
        }
    '
