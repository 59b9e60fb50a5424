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
#   scripts/loc.sh            # every package, then the total
#   scripts/loc.sh internal/webapi
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
