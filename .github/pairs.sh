#!/usr/bin/env bash
# Alternating paired runs of the end-to-end benchmark: a parent commit
# against the working tree, on one workload. The box a benchmark runs
# on drifts by tens of percent from one hour to the next, so two trees
# are only compared run beside run: pair i runs the parent first when i
# is odd and the working tree first when it is even.
#
#   bash .github/pairs.sh PARENT WORKLOAD N [SEED]
#
# The parent is built from `git archive PARENT` in a temporary
# directory, the working tree where it is; each side runs
# benchmark/run.sh --workload WORKLOAD --seed SEED (default 7)
# --seconds 20, the run length BENCHMARK.json declares. The script
# prints, for every end-to-end metric of BENCHMARK.json, both medians,
# their change, the parent's interquartile range and the number of
# pairs the working tree won (strictly better in the metric's
# direction), then `failed` and `correct` for both sides. Each run's
# JSON line and log are kept in .bench_build/pairs-WORKLOAD/.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 PARENT WORKLOAD N [SEED]" >&2; exit 2; }
parent=$1 workload=$2 pairs=$3 seed=${4:-7}

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
out="$root/.bench_build/pairs-$workload"
rm -rf "$out"
mkdir -p "$out"
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tree"

# run SIDE DIR PAIR runs one benchmark in checkout DIR.
run() {
	echo "pair $3: $1" >&2
	if ! bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 20 \
		>"$out/$1-$3.json" 2>"$out/$1-$3.log"; then
		echo "pair $3: the $1 run failed; its log:" >&2
		tail -20 "$out/$1-$3.log" >&2
		exit 1
	fi
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) = 1 ]; then
		run parent "$tree" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tree" "$i"
	fi
done

echo "$workload, seed $seed, $pairs pairs: parent $(git -C "$root" rev-parse --short "$rev") against the working tree"
python3 - "$root/BENCHMARK.json" "$out" "$pairs" <<'EOF'
import json, statistics, sys

spec, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
metrics = json.load(open(spec))["end_to_end"]

def last_json(path):
    lines = [l for l in open(path).read().splitlines() if l.startswith("{")]
    return json.loads(lines[-1])

runs = {side: [last_json(f"{out}/{side}-{i}.json") for i in range(1, pairs + 1)]
        for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print("| metric | parent median | change median | change | parent IQR | pairs won |")
print("|---|---|---|---|---|---|")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    delta = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "n/a"
    print(f"| `{name}` | {pm:.4g} | {cm:.4g} | {delta} | {q3 - q1:.3g} | {won}/{pairs} |")
for side in ("parent", "change"):
    rs = runs[side]
    print(f"{side}: failed {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)} operations, "
          f"correct {all(r['correct'] for r in rs)}")
EOF
