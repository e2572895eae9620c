#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the sec library it links
are built (incrementally) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The result is the last line of
standard output: one JSON object with the keys correct, attempted, failed
and metrics. BENCHMARK.json alone decides the metric set and its order:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The perfbench binary reports what it measured; an end-to-end metric it did
not measure, or measured as 0, is an error, while a per-layer metric of a
layer the workload does not exercise reads 0. A traced run also writes its
spans to <build dir>/traces/. Any failed build, output check or metric
check exits nonzero without printing a result. Every accepted run is also
appended, with everything it measured and its provenance line (nproc,
topology, pinning, host steal time, git sha, compiler, flags, seed), to
<build dir>/results.jsonl.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; stdout stays for results."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(out):
    src = ROOT / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_quiet(["cmake", "-S", str(src), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen],
                     BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed (is this a full checkout?)")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", str(out), "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("run from the root of a checkout (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"{args.workload} exited with {proc.returncode}")

    measured = json.loads(lines[-1])
    if not measured["correct"] or measured["attempted"] < 1:
        fail("result is not a correct, non-empty run")
    metrics = {}
    for m in expected:
        got = measured["metrics"].get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        if args.trace:
            got = got or {"value": 0, "unit": m["unit"]}
        elif got is None or not got["value"] > 0:
            fail(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = got
    result = {"correct": True, "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    meta = [json.loads(l[len("# meta "):]) for l in lines
            if l.startswith("# meta ")]
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps({"meta": meta[0] if meta else None,
                            "measured": measured}) + "\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
