#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs one
workload of BENCHMARK.json.

    python3 perfbench/run.py --wire-rate R \\
        --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The binary prints one record line (host fingerprint, thread counts, every
end-to-end and per-layer metric with its unit, the self-time table).  This
script echoes it, checks it against BENCHMARK.json and prints, as the last
line, {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).

Exit status: 0 when every output check passed, 1 otherwise (build failure,
failed check, record that does not match BENCHMARK.json).  Everything it
builds or writes stays under <checkout>/.bench_build (or $CARGO_TARGET_DIR).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    bdir = build_root() / "perfbench"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr)
    return bdir


def source_digest():
    """sha256 over the library sources and build file: names the code
    measured even when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in [ROOT / "CMakeLists.txt", *files]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def select_metrics(spec, record, trace):
    """The metrics BENCHMARK.json names for this mode, or an error string
    when the record lacks one or reports it in another unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = record.get("metrics", {})
    out = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got.get("value") is None:
            return None, f"record lacks metric {m['name']}"
        if got.get("unit") != m["unit"]:
            return None, (f"metric {m['name']} in {got.get('unit')}, "
                          f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, None


def selftest():
    bdir = build(["perfbench_test"])
    return subprocess.run([str(bdir / "perfbench_test")]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wire-rate", type=float)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("no BENCHMARK.json next to perfbench/")
        return 1
    spec = json.loads(spec_path.read_text())
    if args.selftest:
        return selftest()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 1
    if args.wire_rate is None:
        log("--wire-rate is required")
        return 1

    try:
        bdir = build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    trace_dir = build_root() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--trace-dir", str(trace_dir),
           "--wire-rate", repr(args.wire_rate),
           "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with {proc.returncode} and no record")
        return 1
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench printed no record line")
        return 1
    print(lines[-1])

    metrics, err = select_metrics(spec, record, args.trace)
    correct = bool(record.get("correct")) and err is None
    if err is not None:
        log(err)
    final = {
        "correct": correct,
        "attempted": int(record.get("attempted", 0)),
        "failed": int(record.get("failed", 0)),
        "metrics": metrics or {},
    }
    print(json.dumps(final), flush=True)
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
