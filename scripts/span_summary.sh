#!/usr/bin/env bash
# Summarises specbench span logs per span name: how many spans, their total
# host microseconds, what one call cost (µs, allocations, bytes), and the
# allocations and bytes per request, where the number of requests is the
# number of `submit` spans in the log.
#
# A traced run (`--trace 1`) writes its log to
# `$CARGO_TARGET_DIR/specbench/spans-<workload>-<seed>.jsonl`. Run:
#
#     bash scripts/span_summary.sh target/specbench/spans-open-fleet-1.jsonl
#
# Several logs print one table each.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 SPANS.jsonl..." >&2
    exit 2
fi

for log in "$@"; do
    awk '
        # The value of `"key":` on this line, quotes stripped.
        function field(key,    value) {
            if (!match($0, "\"" key "\":[^,}]*")) {
                return ""
            }
            value = substr($0, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
            gsub(/"/, "", value)
            return value
        }
        {
            name = field("name")
            if (!(name in count)) {
                order[++names] = name
            }
            count[name]++
            micros[name] += (field("end_ns") - field("start_ns")) / 1000
            allocs[name] += field("allocs")
            bytes[name] += field("alloc_bytes")
        }
        END {
            requests = count["submit"] + 0
            printf "%s: %d requests (submit spans)\n", FILENAME, requests
            printf "%-24s %8s %12s %10s %12s %12s %11s %11s\n", "span", "count", "total_us", \
                "us/call", "allocs/call", "bytes/call", "allocs/req", "bytes/req"
            for (i = 1; i <= names; i++) {
                name = order[i]
                n = count[name]
                if (requests > 0) {
                    per_request = sprintf("%11.3f %11.1f", allocs[name] / requests, bytes[name] / requests)
                } else {
                    per_request = sprintf("%11s %11s", "-", "-")
                }
                printf "%-24s %8d %12.1f %10.2f %12.2f %12.1f %s\n", name, n, micros[name], \
                    micros[name] / n, allocs[name] / n, bytes[name] / n, per_request
            }
        }
    ' "$log"
done
