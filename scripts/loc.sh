#!/usr/bin/env bash
# Non-test Go lines per package, by `wc -l`: comments and blank lines
# count; *_test.go files, testdata/ and bench/ (the benchmark, not the
# program) do not. This is the convention behind every size figure in ROADMAP.md and
# CHANGES.md ("internal/webapi 5 052 → 5 061"); test lines are printed in
# their own column and never count toward a claimed reduction.
#
# Counts the tree it is run in (`make loc` runs it at the root; run it in
# a checkout of the parent commit for the "before" figures):
#
#   scripts/loc.sh            # every package, the total, then the counters
#   scripts/loc.sh internal/webapi
#
# The whole-tree run also prints the flag definitions of each command —
# flag.X( calls and the .X( calls of a flag.NewFlagSet, the form l2qstore's
# subcommands use — beside them the exported fields of core.Config and
# l2q.SystemOptions (the library's settable knobs), and the three counters ROADMAP tracks:
# //l2qvet:ignore directives outside internal/lint and testdata,
# time.Sleep( calls in internal/**/*_test.go, the fuzz targets beside
# how many of them `make fuzz-smoke` runs, and DESIGN.md's line count.
set -euo pipefail

count() { # count <dir> <find predicate...>: summed lines of the matching files directly in dir
	find "$1" -maxdepth 1 -name '*.go' "${@:2}" -exec cat {} + | wc -l
}

dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
	mapfile -t dirs < <(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path '*/testdata/*' -printf '%h\n' | sort -u | sed 's|^\./||')
fi

printf '%-28s %9s %9s\n' package non-test test
total=0 total_test=0
for d in "${dirs[@]}"; do
	d=${d%/}
	n=$(count "$d" -not -name '*_test.go')
	t=$(count "$d" -name '*_test.go')
	printf '%-28s %9d %9d\n' "$d" "$n" "$t"
	total=$((total + n)) total_test=$((total_test + t))
done
printf '%-28s %9d %9d\n' total "$total" "$total_test"

[ $# -eq 0 ] || exit 0
flags() { # flags <file...>: flag definitions, on the flag package and on every FlagSet the files make
	local recv
	recv=$( { echo flag; grep -hoE '\b[A-Za-z_][A-Za-z0-9_]* :?= flag\.NewFlagSet' "$@" | cut -d' ' -f1; } | sort -u | paste -sd'|')
	grep -hoE "\b($recv)\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|BoolFunc|Func|TextVar|Var)\(" "$@" | wc -l
}
echo
printf '%-28s %9s\n' command flags
for d in cmd/*/; do
	d=${d%/}
	mapfile -t files < <(find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go')
	printf '%-28s %9d\n' "$d" "$(flags "${files[@]}")"
done
fields() { # fields <file> <type>: the exported fields of a struct type
	awk -v open="type $2 struct {" '$0 == open { body = 1; next } body && /^\}/ { exit }
		body && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { n += split(substr($0, 2, RLENGTH - 1), names, ",") }
		END { print n + 0 }' "$1"
}
printf '%-28s %9d\n' 'core.Config (fields)' "$(fields internal/core/core.go Config)"
printf '%-28s %9d\n' 'l2q.SystemOptions (fields)' "$(fields l2q.go SystemOptions)"
gofiles() { # gofiles <find predicate...>: the tree's Go files, bench/ excluded
	find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' "$@"
}
ignores=$(gofiles -not -path './internal/lint/*' -not -path '*/testdata/*' -exec cat {} + | grep -cE '^[[:space:]]*//l2qvet:ignore ' || true)
sleeps=$(find internal -name '*_test.go' -exec cat {} + | grep -o 'time\.Sleep(' | wc -l)
fuzz=$(gofiles -name '*_test.go' -exec cat {} + | grep -cE '^func Fuzz[A-Za-z0-9_]*\(' || true)
smoke=$(sed -n '/^fuzz-smoke:/,/^$/p' Makefile | grep -c -- '-fuzz ' || true)
echo
printf '%-44s %5d\n' 'l2qvet:ignore lines (outside internal/lint)' "$ignores"
printf '%-44s %5d\n' 'time.Sleep( calls in internal/*_test.go' "$sleeps"
printf '%-44s %5d (%d in make fuzz-smoke)\n' 'fuzz targets' "$fuzz" "$smoke"
printf '%-44s %5d\n' 'DESIGN.md lines' "$(wc -l <DESIGN.md)"
