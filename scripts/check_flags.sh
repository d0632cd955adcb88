#!/bin/sh
# check_flags.sh — docs lint: every -flag that a shell block (a ```sh or
# ```bash fence) of README.md or docs/*.md passes to one of the cmd/
# commands must be defined in that command's main.go. A flag deleted
# from a command but left in a documented invocation fails here instead
# of in an operator's terminal.
#
# A command counts in command position only: the first word of a
# pipeline segment (after any VAR=value assignments), or the package
# after `go run`. It matches by basename, so s3serve, ./cmd/s3serve and
# /tmp/bin/s3serve are all s3serve. Backslash-continued lines are joined,
# and text after a " #" is a comment.
#
# Run from the repository root (make vet does).
set -eu

defs=$(mktemp)
trap 'rm -f "$defs"' EXIT
# One "<command> <flag>" line per defined flag, plus the flag package's
# own -h and -help.
for main in cmd/*/main.go; do
	c=$(basename "$(dirname "$main")")
	printf '%s h\n%s help\n' "$c" "$c"
	grep -ohE 'flag\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?"[^"]+"' "$main" \
		| sed -E "s/.*\"([^\"]+)\"\$/$c \\1/"
done > "$defs"

awk -v defs="$defs" '
	BEGIN {
		while ((getline line < defs) > 0) {
			split(line, p, " ")
			iscmd[p[1]] = 1
			has[line] = 1
		}
	}
	FNR == 1 { inblock = 0; buf = "" }
	/^```(sh|bash)[ \t]*$/ { inblock = 1; next }
	/^```/ { inblock = 0; next }
	!inblock { next }
	{
		line = $0
		sub(/(^|[ \t])#.*/, "", line)
		if (line ~ /\\[ \t]*$/) {
			sub(/\\[ \t]*$/, "", line)
			buf = buf line " "
			next
		}
		check(FILENAME, buf line)
		buf = ""
	}
	function check(file, s,    segs, nseg, i, raw, w, nraw, nw, k, j, c, f) {
		gsub(/&&|\|\||[|;&]/, "\n", s)
		nseg = split(s, segs, "\n")
		for (i = 1; i <= nseg; i++) {
			nraw = split(segs[i], raw, /[ \t]+/)
			nw = 0
			for (k = 1; k <= nraw; k++)
				if (raw[k] != "")
					w[++nw] = raw[k]
			j = 1
			while (j <= nw && w[j] ~ /^[A-Za-z_][A-Za-z0-9_]*=/)
				j++
			if (w[j] == "go" && w[j + 1] == "run") {
				j += 2
				while (j <= nw && w[j] ~ /^-/)
					j++
			}
			if (j > nw)
				continue
			c = w[j]
			sub(/\/+$/, "", c)
			sub(/.*\//, "", c)
			if (!(c in iscmd))
				continue
			for (k = j + 1; k <= nw; k++) {
				if (w[k] !~ /^--?[A-Za-z][A-Za-z0-9_-]*(=.*)?$/)
					continue
				f = w[k]
				sub(/^--?/, "", f)
				sub(/=.*/, "", f)
				if (!((c " " f) in has)) {
					printf "%s: %s has no flag -%s\n", file, c, f
					bad = 1
				}
			}
		}
	}
	END { exit bad }
' README.md docs/*.md >&2 || {
	echo "check_flags: documented flags missing from cmd/*/main.go (above)" >&2
	exit 1
}
echo "check_flags: every documented command-line flag is defined"
