#!/bin/sh
# loc.sh — the size metric ROADMAP aim 2 reports: lines of non-test Go
# source outside the separate bench/ module, total and per package
# directory. Blank and comment lines count (a line removed by deleting a
# comment is not a reduction, so the metric must not reward it more than
# wc does). Run from the repository root, or pass a checkout to measure:
#
#   sh scripts/loc.sh [dir]
set -eu

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
