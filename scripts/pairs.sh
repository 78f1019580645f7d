#!/usr/bin/env bash
# Paired benchmark runs: a base revision against this checkout's working tree.
#
#   scripts/pairs.sh REV [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS]
#
# REV's committed files are extracted (git archive) into a temporary
# directory that is removed on exit. Each pair runs
#   bash bench/run.sh --workload W --seed S --seconds T --trace 0
# unchanged in both trees, the order alternating every pair (base first in
# odd pairs). The report gives, per end-to-end metric in BENCHMARK.json, the
# medians [quartiles] of both sides, the change in percent and the pairs the
# working tree won, as one markdown table row; then every run's
# correct/failed, round_ms pair by pair, and the net non-test Go + assembly
# line change outside bench/ between the trees. Defaults: 10 pairs of
# ingest_small, seed 1, 20 s.
set -euo pipefail

usage() {
	echo "usage: $0 REV [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 workload=ingest_small seed=1 seconds=20
while getopts n:w:s:t: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) seconds=$OPTARG ;;
	*) usage ;;
	esac
done

change=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
base=$tmp/base
mkdir "$base"
git -C "$change" archive "$rev" | tar -x -C "$base"

# run TREE SIDE PAIR: one untraced run; its JSON result line is kept.
run() {
	local out=$tmp/$2.$3.json
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
		tail -n 1 >"$out" || true
	jq -e .metrics "$out" >/dev/null 2>&1 || echo '{"correct":false,"failed":-1,"metrics":{}}' >"$out"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$base" base "$i"
		run "$change" change "$i"
	else
		run "$change" change "$i"
		run "$base" base "$i"
	fi
	echo "pair $i/$pairs done" >&2
done

# value SIDE METRIC: the metric's value in every run of SIDE, one a line.
value() {
	for ((i = 1; i <= pairs; i++)); do
		jq -r --arg m "$2" '.metrics[$m].value // "nan"' "$tmp/$1.$i.json"
	done
}

# quartiles: "median q1 q3" of the numbers on stdin, with bench's
# interpolation (bench/main.go quartiles).
quartiles() {
	sort -g | awk '
		{ s[++m] = $1 }
		function q(i,   j, d) {
			if (m < 2) return s[1]
			j = int(i * (m + 1) / 4)
			if (j < 1) j = 1
			if (j > m - 1) j = m - 1
			d = i * (m + 1) - 4 * j
			return (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		END { print q(2), q(1), q(3) }'
}

header="| workload | pairs |"
rule="|---|---|"
row="| \`$workload\` s$seed | $pairs |"
while read -r metric better; do
	header+=" \`$metric\` |"
	rule+="---|"
	b=$(value base "$metric")
	c=$(value change "$metric")
	cell=$(
		{
			quartiles <<<"$b"
			quartiles <<<"$c"
			paste <(echo "$b") <(echo "$c")
		} | awk -v better="$better" -v n="$pairs" '
			function f(x) { return sprintf(x >= 1000 || x <= -1000 ? "%.1f" : "%.4g", x) }
			NR == 1 { mb = $1; bq = f($1) " [" f($2) ", " f($3) "]"; next }
			NR == 2 { mc = $1; cq = f($1) " [" f($2) ", " f($3) "]"; next }
			$2 == $1 { eq++; next }
			(better == "lower") == ($2 < $1) { won++ }
			END {
				printf "%s → %s, %+.1f %%, %d/%d", bq, cq, mb ? 100 * (mc - mb) / mb : 0, won, n
				if (eq) printf ", %d equal", eq
			}'
	)
	row+=" $cell |"
done < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$change/BENCHMARK.json")

echo
echo "Medians [quartiles], base $rev → working tree, change in the median, pairs the working tree won:"
echo
echo "$header"
echo "$rule"
echo "$row"
echo
for side in base change; do
	for ((i = 1; i <= pairs; i++)); do
		jq -r --arg s "$side" --arg i "$i" '"\($s) run \($i): correct:\(.correct) failed:\(.failed)"' "$tmp/$side.$i.json"
	done
done
echo
echo "round_ms pair by pair (base / working tree): $(paste <(value base round_ms) <(value change round_ms) |
	awk '{ printf "%s%.2f / %.2f", (NR > 1 ? "; " : ""), $1, $2 }')"

# lines TREE: non-test Go + assembly lines outside bench/.
lines() {
	(cd "$1" && find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-type f \( -name '*.s' -o -name '*.go' ! -name '*_test.go' \) -print0 | xargs -0 cat | wc -l)
}
lb=$(lines "$base")
lc=$(lines "$change")
echo "non-test Go + assembly outside bench/: $lb → $lc ($((lc - lb)))"
