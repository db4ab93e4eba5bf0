#!/usr/bin/env bash
# Line ledger: non-test Go lines per package directory, outside
# benchmark/, for the working tree. Given a commit (CI passes the pull
# request's merge-base), it also prints each package's change against
# that commit's tree; with no commit, or one git cannot resolve, it
# prints the table alone.
#
#   bash .github/ledger.sh [BASE]
set -euo pipefail

# count DIR prints "lines package" for every package directory under DIR.
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
		xargs -0 wc -l |
		awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 } END { for (d in n) print n[d], d }')
}

root=$(git rev-parse --show-toplevel)
base=${1:-}
if [ -n "$base" ] && ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
	echo "no commit $base to compare against; table only"
	base=
fi
if [ -z "$base" ]; then
	count "$root" | sort -k2 |
		awk '{ printf "%7d  %s\n", $1, $2; all += $1 } END { printf "%7d  total\n", all }'
	exit 0
fi

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base" | tar -x -C "$tree"
echo "change against $(git rev-parse --short "$base")"
{
	count "$tree" | sed 's/^/base /'
	count "$root" | sed 's/^/head /'
} | awk '
	{ n[$1, $3] = $2; pkg[$3] = 1 }
	END {
		for (p in pkg) printf "%7d  %+7d  %s\n", n["head", p], n["head", p] - n["base", p], p | "sort -k3"
		close("sort -k3")
		for (p in pkg) { h += n["head", p]; b += n["base", p] }
		printf "%7d  %+7d  total\n", h, h - b
	}'
