#!/usr/bin/env bash
# Profiles the measured phase of one benchmark workload: CPU, mutex
# contention and the heap at its end. The benchmark is built with `go
# build -overlay` from a copy of benchmark/run.go whose call of the
# measured phase is wrapped in the profiles, so benchmark/ itself is
# never written. The copy is a text edit keyed on one line of run.go;
# if that line is not there exactly once, the script stops with an
# error instead of profiling something else.
#
#   bash .github/profile.sh WORKLOAD [SECONDS]
#
# SECONDS is the length of the measured phase (default 15). The
# profiles land in .bench_build/profile-WORKLOAD/ (cpu.pprof,
# mutex.pprof, heap.pprof, next to the binary they were taken from);
# the script prints the top of the CPU profile. Read them with
# `go tool pprof -top -cum BINARY cpu.pprof`. Beside them it writes
# digest.json, the cumulative CPU share of each fixed stage of a search
# (.github/digest.py holds the stage list), and fails if a stage names
# functions the binary does not hold.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 WORKLOAD [SECONDS]" >&2; exit 2; }
workload=$1
seconds=${2:-15}

root=$(git rev-parse --show-toplevel)
build="$root/.bench_build"
dir="$build/profile-$workload"
mkdir -p "$dir" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

line='	timed, wall := phase(ctx, workers, limit, deadline, nil)'
src="$root/benchmark/run.go"
if [ "$(grep -cxF "$line" "$src")" != 1 ]; then
	echo "profile.sh: benchmark/run.go no longer holds the line it wraps:" >&2
	echo "$line" >&2
	exit 1
fi

# The patched copy: the measured phase between startProfiles and the
# function it returns, which is appended, with imports of its own.
patched="$dir/run.go.patched"
{
	awk -v line="$line" -v out="$dir" '
		$0 == line { print "\tstopProfiles := startProfiles(\"" out "\")"; print; print "\tstopProfiles()"; next }
		{ print }' "$src" |
		sed '0,/^import (/s//import (\n\tprofOS "os"\n\tprofRuntime "runtime"\n\tprofPprof "runtime\/pprof"\n/'
	cat <<'GO'

func startProfiles(dir string) func() {
	create := func(name string) *profOS.File {
		f, err := profOS.Create(dir + "/" + name)
		if err != nil {
			panic(err)
		}
		return f
	}
	profRuntime.SetMutexProfileFraction(5)
	cpu := create("cpu.pprof")
	if err := profPprof.StartCPUProfile(cpu); err != nil {
		panic(err)
	}
	return func() {
		profPprof.StopCPUProfile()
		cpu.Close()
		profRuntime.GC()
		for _, p := range []string{"mutex", "heap"} {
			f := create(p + ".pprof")
			if err := profPprof.Lookup(p).WriteTo(f, 0); err != nil {
				panic(err)
			}
			f.Close()
		}
	}
}
GO
} >"$patched"
printf '{"Replace": {"%s": "%s"}}\n' "$src" "$patched" >"$dir/overlay.json"

bin="$dir/zerber-benchmark"
(cd "$root/benchmark" && go build -overlay "$dir/overlay.json" -o "$bin" .)
"$bin" --workload "$workload" --seed 7 --seconds "$seconds" >"$dir/result.json"
cat "$dir/result.json"

if [ ! -s "$dir/cpu.pprof" ]; then
	echo "profile.sh: no CPU profile was written to $dir/cpu.pprof" >&2
	exit 1
fi
go tool pprof -top -nodecount=25 "$bin" "$dir/cpu.pprof" 2>/dev/null
python3 "$root/.github/digest.py" "$bin" "$dir" "$workload"
echo "profiles in $dir: cpu.pprof mutex.pprof heap.pprof digest.json (binary: $bin)"
