#!/usr/bin/env python3
"""The layer digest of a CPU profile: per fixed stage of a search, the
share of CPU samples whose stack holds one of the stage's functions
(cumulative, so a stage counts everything it calls, and stages may
overlap). profile.sh writes it beside the profile it was computed from.

    python3 .github/digest.py BINARY PROFILE_DIR WORKLOAD
        reads PROFILE_DIR/cpu.pprof, writes PROFILE_DIR/digest.json:
        one {"name": "profile/WORKLOAD/STAGE", "cum_pct": ...} row per
        stage, in STAGES order — the rows a BENCH_<PR>.json carries.
    python3 .github/digest.py --check DIGEST
        exits non-zero unless DIGEST names every stage of STAGES.

A stage whose functions are not in the binary fails loudly: a rename
must update STAGES, or the stage would read 0 % without saying why. A
function in the binary that the profile never sampled reads 0 %, which
is what a workload that does not run the stage shows (no proofs on
`head`).
"""
import json
import re
import subprocess
import sys

P = "zerberr/internal/"

# (stage, functions counted, functions excluded): a sample counts for a
# stage when a frame of its stack matches the first pattern and none
# matches the second. Patterns match whole function names.
STAGES = [
    ("store.merge", P + r"store\.\(\*mergedList\)\.queryCursorsLocked", P + r"store\.\(\*mergedList\)\.skipMerged"),
    ("store.skip", P + r"store\.\(\*mergedList\)\.skipMerged", None),
    ("store.query_proved", P + r"store\.\(\*Memory\)\.QueryProved", None),
    ("store.range_proof", P + r"proof\.\(\*Tree\)\.RangeProof", None),
    ("store.audit", P + r"store\.\(\*mergedList\)\.groupRootLocked", None),
    ("server.decode", P + r"server\.DecodeQueryRequest", None),
    ("server.encode", P + r"server\.AppendQueryResponse", None),
    ("server.token_acl_admission", P + r"server\.\(\*Server\)\.(allowedGroups|admit)", None),
    ("client.decode", P + r"server\.DecodeQueryResponse", None),
    ("client.peek", P + r"client\.\(\*elementReader\)\.peek", None),
    ("client.open", P + r"client\.\(\*elementReader\)\.open", None),
    ("client.verify", P + r"client\.\(\*proofState\)\.verify", None),
    ("client.rank", P + r"client\.(snapshot|\(\*termScan\)\.results)", None),
    ("syscall", r"(syscall|internal/runtime/syscall)\.\w+", None),
    ("runtime.malloc", r"runtime\.mallocgc", None),
    ("runtime.gc", r"runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge)", None),
]

UNITS = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}
VALUE = re.compile(r"^\s*([0-9.]+)(ns|us|µs|ms|s|m|h)?\s+(\S.*)$")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def symbols(binary):
    """Names of the functions the binary holds."""
    names = set()
    for line in run("go", "tool", "nm", binary).splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in ("T", "t"):
            names.add(parts[2])
    return names


def traces(binary, profile):
    """Yield (seconds, frames) per distinct stack of the profile."""
    value, frames = None, []
    for line in run("go", "tool", "pprof", "-traces", binary, profile).splitlines():
        if line.startswith("-----------+"):
            if value is not None:
                yield value, frames
            value, frames = None, []
            continue
        if value is None:
            m = VALUE.match(line)
            if m:
                value = float(m.group(1)) * UNITS[m.group(2) or "s"]
                frames.append(m.group(3))
            continue
        if line.strip():
            frames.append(line.strip())
    if value is not None:
        yield value, frames


def digest(binary, directory, workload):
    names = symbols(binary)
    compiled = []
    missing = []
    for stage, include, exclude in STAGES:
        inc = re.compile(include + r"$")
        exc = re.compile(exclude + r"$") if exclude else None
        if not any(inc.match(n) for n in names):
            missing.append(f"{stage} ({include})")
        compiled.append((stage, inc, exc))
    if missing:
        sys.exit("digest.py: no function of the binary matches the stage(s):\n  " + "\n  ".join(missing))
    total = 0.0
    cum = {stage: 0.0 for stage, _, _ in STAGES}
    for seconds, frames in traces(binary, f"{directory}/cpu.pprof"):
        frames = [f.removesuffix(" (inline)") for f in frames]
        total += seconds
        for stage, inc, exc in compiled:
            if any(inc.match(f) for f in frames) and not (exc and any(exc.match(f) for f in frames)):
                cum[stage] += seconds
    if total == 0:
        sys.exit("digest.py: the CPU profile holds no samples")
    rows = [{"name": f"profile/{workload}/{stage}", "cum_pct": round(100 * cum[stage] / total, 2)} for stage, _, _ in STAGES]
    with open(f"{directory}/digest.json", "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")
    for r in rows:
        print(f"{r['cum_pct']:6.2f}%  {r['name']}")


def check(path):
    rows = json.load(open(path))
    named = {r["name"].rsplit("/", 1)[-1] for r in rows}
    missing = [stage for stage, _, _ in STAGES if stage not in named]
    if missing or len(rows) != len(STAGES):
        sys.exit(f"digest.py: {path} holds {len(rows)} rows; stages not named: {missing}")
    print(f"{path}: all {len(STAGES)} stages named")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--check":
        check(sys.argv[2])
    elif len(sys.argv) == 4:
        digest(*sys.argv[1:])
    else:
        sys.exit(__doc__)
