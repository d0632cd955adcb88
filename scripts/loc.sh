#!/bin/sh
# loc.sh — the size ledger ROADMAP aim 2 reports, one command per commit:
#
#   - lines of non-test Go source outside the separate bench/ module,
#     per package directory and total. Blank and comment lines count (a
#     line removed by deleting a comment is not a reduction, so the
#     metric must not reward it more than wc does);
#   - lines of test Go source (same exclusions), so code moved into
#     tests shows up;
#   - flag definitions under cmd/ (flag.Int, flag.Var, ...), the
#     operator-visible option count;
#   - exported metric families, as scripts/check_metrics.sh counts them
#     ("?" when that lint fails).
#
# Run from the repository root, or pass a checkout to measure:
#
#   sh scripts/loc.sh [dir]
set -eu

here=$(cd "$(dirname "$0")" && pwd)
cd "${1:-.}"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print \
	| sort \
	| xargs wc -l \
	| awk '
		$2 == "total" { next }
		{
			dir = $2
			sub(/\/[^\/]*$/, "", dir)
			per[dir] += $1
			total += $1
		}
		END {
			for (d in per) printf "%7d %s\n", per[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d total\n", total
		}'
find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + \
	| wc -l | awk '{ printf "%7d test\n", $1 }'
grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var)\(' --include='*.go' cmd \
	| wc -l | awk '{ printf "%7d flags under cmd/\n", $1 }'
families=$(sh "$here/check_metrics.sh" 2>/dev/null | sed -n 's/^check_metrics: \([0-9]*\) families.*/\1/p')
printf '%7s metric families\n' "${families:-?}"
