#!/usr/bin/env bash
# Paired A/B of two trees on layerbench, the repository's end-to-end
# benchmark. Run from anywhere inside the repository:
#
#   scripts/paired.sh [-n RUNS] [-e SEED] [-w WORKLOADS] [-o DIR] BASE CHANGE
#
#   scripts/paired.sh HEAD~1 HEAD                  # the last commit against its parent
#   scripts/paired.sh -n 5 -w fig1-large main .    # main against the working tree
#
# BASE and CHANGE are git revisions, or directories holding a tree
# ("." is the working tree as it stands). A revision is exported with
# git archive into DIR/base or DIR/change, so the repository itself is
# left as it is. A directory is run where it is, and that alone can
# move setup_s, so give revisions when the numbers decide anything
# (`git stash create` makes one of uncommitted changes). For each
# workload (default: every one BENCHMARK.json lists), round i runs
# `bash layerbench/run.sh` once in each tree for BENCHMARK.json's
# run_seconds, the base first in odd rounds and the change first in
# even ones, so drift on the host lands on both sides alike. Each
# run's result line is kept in DIR/results.
#
# The table has one row per end-to-end metric of BENCHMARK.json: each
# side's median with the interquartile range in parentheses, the change
# of the medians, and in how many rounds the change side was better.
# Needs git, jq and awk.
set -euo pipefail

usage() {
	sed -n '2,25p' "$0" >&2
	exit 2
}
runs=10 seed=2005 workloads="" out=""
while getopts n:e:w:o: opt; do
	case $opt in
	n) runs=$OPTARG ;;
	e) seed=$OPTARG ;;
	w) workloads=$OPTARG ;;
	o) out=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage

repo=$(git rev-parse --show-toplevel)
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")}
mkdir -p "$out/results"
out=$(cd "$out" && pwd)

# tree SIDE REF prints the directory holding REF's tree.
tree() {
	if [ -d "$2" ]; then
		(cd "$2" && pwd)
		return
	fi
	rm -rf "${out:?}/$1"
	mkdir -p "$out/$1"
	git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$2^{commit}")" | tar -x -C "$out/$1"
	echo "$out/$1"
}
base=$(tree base "$1")
change=$(tree change "$2")
spec="$change/BENCHMARK.json"
seconds=$(jq -r .run_seconds "$spec")
[ -n "$workloads" ] || workloads=$(jq -r '.workloads[].name' "$spec")
echo "base $1 ($base), change $2 ($change); $runs rounds of ${seconds} s, seed $seed; results in $out/results" >&2

# run SIDE DIR WORKLOAD ROUND keeps one run's result line.
run() {
	local res="$out/results/$3.$4.$1.json"
	(cd "$2" && bash layerbench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0) \
		2>"$out/results/$3.$4.$1.log" | tail -n 1 >"$res"
	if [ "$(jq -r '.correct' "$res")" != true ]; then
		echo "warning: $1 $3 round $4 is not correct: $res" >&2
	fi
}
for w in $workloads; do
	for i in $(seq 1 "$runs"); do
		echo "$w round $i/$runs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base" "$w" "$i"
			run change "$change" "$w" "$i"
		else
			run change "$change" "$w" "$i"
			run base "$base" "$w" "$i"
		fi
	done
done

echo "| workload | metric | base median (IQR) | change median (IQR) | change | won |"
echo "|---|---|---:|---:|---:|---:|"
for w in $workloads; do
	first=1
	jq -r '.end_to_end[] | "\(.name) \(.better)"' "$spec" | while read -r metric better; do
		for i in $(seq 1 "$runs"); do
			b=$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$out/results/$w.$i.base.json")
			c=$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$out/results/$w.$i.change.json")
			echo "$b $c"
		done | awk -v w="$w" -v m="$metric" -v better="$better" -v first="$first" '
			# q returns the p-quantile of the sorted a[1..n], interpolated.
			function q(a, n, p,   h, lo) {
				h = (n - 1) * p + 1
				lo = int(h)
				return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
			}
			function sort(a, n,   i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
						t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
					}
			}
			{
				n++; b[n] = $1; c[n] = $2
				if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) won++
			}
			END {
				sort(b, n); sort(c, n)
				mb = q(b, n, 0.5); mc = q(c, n, 0.5)
				d = mb == 0 ? "" : sprintf("%+.1f%%", 100 * (mc - mb) / mb)
				printf "| %s | `%s` | %.4g (%.4g) | %.4g (%.4g) | %s | %d/%d |\n",
					first ? w " (" n " pairs)" : "", m,
					mb, q(b, n, 0.75) - q(b, n, 0.25), mc, q(c, n, 0.75) - q(c, n, 0.25), d, won, n
			}'
		first=0
	done
done
