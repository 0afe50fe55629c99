#!/usr/bin/env bash
# Checks that README.md and docs/*.md point only at things that exist:
#
# 1. Every relative markdown link names an existing file. External
#    (http/https/mailto) links and pure in-page anchors are skipped; a link's
#    #anchor suffix is stripped before the existence check.
# 2. Every Rust path named in backticks that starts with a type name
#    (`Type`, `Type::member`, `Enum::Variant`: an upper-case letter followed
#    by a lower-case one) names code that exists: each of its `::` segments
#    must appear in some .rs file under crates/, src/, tests/, examples/ or
#    specbench/.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for file in README.md docs/*.md; do
    [ -f "$file" ] || continue
    dir=$(dirname "$file")
    # Inline markdown links: [text](target)
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        path=${target%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ]; then
            echo "broken link in $file: ($target)" >&2
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$file" | sed -E 's/^\]\(//; s/\)$//')
done

names=$(mktemp)
trap 'rm -f "$names"' EXIT
find crates src tests examples specbench -name target -prune -o -name '*.rs' -print0 |
    xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$names"
unknown=$(
    for file in README.md docs/*.md; do
        [ -f "$file" ] || continue
        grep -oE '`[^`]+`' "$file" |
            sed -nE "s|^\`([A-Z][a-z][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*).*|$file \\1|p"
    done | sort -u | awk '
        NR == FNR { known[$0] = 1; next }
        {
            count = split($2, segments, "::")
            for (i = 1; i <= count; i++) {
                if (!(segments[i] in known)) {
                    printf "unknown Rust name in %s: `%s`\n", $1, $2
                    break
                }
            }
        }' "$names" -
)
if [ -n "$unknown" ]; then
    echo "$unknown" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "check_doc_links: FAILED" >&2
else
    echo "check_doc_links: all relative links resolve and every named Rust path exists"
fi
exit "$status"
