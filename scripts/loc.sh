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
#     ("?" when that lint fails);
#   - exported fields of the option structs (every non-test struct type
#     named Options or ...Options, same exclusions), each name of a list
#     like `A, B int` counted separately: the library-visible option
#     count.
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
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print \
	| sort \
	| xargs awk '
		/^type [A-Za-z0-9_]*Options struct \{/ { inside = 1; next }
		inside && /^\}/ { inside = 0; next }
		inside && /^\t[A-Za-z_]/ {
			# A field line: names separated by ", ", then the type.
			line = substr($0, 2)
			while (match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) {
				if (substr(line, 1, 1) ~ /[A-Z]/) n++
				line = substr(line, RLENGTH + 1)
				if (line !~ /^, /) break
				line = substr(line, 3)
			}
		}
		END { printf "%7d option fields\n", n }'
