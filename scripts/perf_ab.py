#!/usr/bin/env python3
"""Same-host A/B of this checkout against BASE over perfbench.

    scripts/perf_ab.py BASE

BASE is any git revision. It is checked out into a temporary git worktree.
For each workload in BENCHMARK.json, PAIRS pairs of
`python3 perfbench/run.py --trace 0` run for RUN_SECONDS each: one run on
BASE and one on this checkout (the change, uncommitted edits included),
each from its own tree root with its own CARGO_TARGET_DIR. Both runs of a
pair get the same fresh seed, and the side that runs first alternates from
pair to pair (Kalibera & Jones, "Rigorous benchmarking in reasonable
time", ISMM 2013). Numbers taken this way compare; numbers from another
host or another hour do not.

Each end-to-end metric gets one verdict from its `bound` and `better` in
BENCHMARK.json:

  slower     the change loses at least WIN_PAIRS pairs and its median is
             worse than BASE's by more than the bound, or the change fails
             a larger share of ops;
  faster     the change wins at least WIN_PAIRS pairs and its median is
             better than BASE's by more than BASE's interquartile range;
  no change  otherwise.

The script prints one table and writes every run and verdict to
perf_ab.json at the root of this checkout. It exits 1 on any `slower` or
any failed run (and names the side that failed), 2 on bad usage, else 0.
"""
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "perf_ab.json"
PAIRS = 10
WIN_PAIRS = 9
RUN_SECONDS = 2


def judge(base, change, better, bound, base_failed=0.0, change_failed=0.0):
    """The verdict on one metric. base[i] and change[i] ran as pair i;
    *_failed are each side's shares of failed ops."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    if change_failed > base_failed or (
            losses >= WIN_PAIRS
            and sign * (base_med - change_med) > bound * base_med):
        verdict = "slower"
    elif wins >= WIN_PAIRS and sign * (change_med - base_med) > q3 - q1:
        verdict = "faster"
    else:
        verdict = "no change"
    return {"base_median": base_med, "change_median": change_med,
            "base_iqr": q3 - q1, "wins": wins, "losses": losses,
            "verdict": verdict}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, target_dir, workload, seed, metrics):
    """One perfbench run: (result, None) or (None, why it failed). A failed
    run's last output lines (perfbench prints its VIOLATION lines on stdout)
    go to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines() or ["no output"]
        print("\n".join(lines[-10:] + err[-10:]), file=sys.stderr)
        return None, f"exit {proc.returncode}: {err[-1]}"
    result = json.loads(lines[-1])
    missing = [m for m in metrics if m not in result["metrics"]]
    if missing:
        return None, f"did not report {', '.join(missing)}"
    return result, None


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


class RunFailed(Exception):
    pass


def ab_workload(sides, workload, names, runs):
    """PAIRS interleaved pairs on one workload; every run goes to `runs`."""
    results = {"base": [], "change": []}
    for pair in range(PAIRS):
        seed = random.randrange(1, 2**31)
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result, why = run_once(*sides[side], workload, seed, names)
            runs.append({"workload": workload, "pair": pair, "seed": seed,
                         "side": side, "first": side == order[0],
                         "result": result, "error": why})
            if why is not None:
                raise RunFailed(f"{workload} pair {pair + 1} seed {seed}: "
                                f"the {side} run failed: {why}")
            results[side].append(result)
        print(f"# {workload} pair {pair + 1}/{PAIRS} seed {seed}: " + ", ".join(
            f"{s} {results[s][-1]['metrics'][names[0]]['value']:.4g}"
            for s in order), file=sys.stderr, flush=True)
    return results


def verdicts(workload, metrics, results):
    shares = {s: failed_share(r) for s, r in results.items()}
    out = []
    for m in metrics:
        base, change = ([r["metrics"][m["name"]]["value"] for r in results[s]]
                        for s in ("base", "change"))
        out.append({"workload": workload, "metric": m["name"],
                    "unit": m["unit"], "better": m["better"],
                    "bound": m["bound"], "base_failed": shares["base"],
                    "change_failed": shares["change"],
                    **judge(base, change, m["better"], m["bound"],
                            shares["base"], shares["change"])})
    return out


def print_table(rows):
    header = ("workload", "metric", "base", "change", "delta", "won/lost",
              "base IQR", "verdict")
    lines = [header] + [
        (v["workload"], v["metric"], f"{v['base_median']:.4g}",
         f"{v['change_median']:.4g}",
         f"{(v['change_median'] / v['base_median'] - 1) * 100:+.1f}%",
         f"{v['wins']}/{v['losses']}", f"{v['base_iqr']:.3g}", v["verdict"])
        for v in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(c.ljust(n) for c, n in zip(line, widths)).rstrip())


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    try:
        base_sha = git("rev-parse", "--verify", sys.argv[1] + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"perf_ab: {sys.argv[1]!r} is not a commit", file=sys.stderr)
        return 2
    record = {"base": {"rev": sys.argv[1], "sha": base_sha},
              "change": {"sha": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain"))},
              "pairs": PAIRS, "win_pairs": WIN_PAIRS,
              "run_seconds": RUN_SECONDS, "runs": [], "verdicts": [],
              "failure": None}
    with tempfile.TemporaryDirectory(prefix="perf_ab.") as tmp:
        tmp = pathlib.Path(tmp)
        git("worktree", "add", "--detach", str(tmp / "base"), base_sha)
        sides = {"base": (tmp / "base", tmp / "base-build"),
                 "change": (ROOT, tmp / "change-build")}
        try:
            for w in spec["workloads"]:
                results = ab_workload(sides, w["name"], names, record["runs"])
                record["verdicts"] += verdicts(w["name"], metrics, results)
        except RunFailed as e:
            record["failure"] = str(e)
        finally:
            git("worktree", "remove", "--force", str(tmp / "base"))

    print_table(record["verdicts"])
    slower = sum(v["verdict"] == "slower" for v in record["verdicts"])
    record["wall_s"] = round(time.monotonic() - started, 1)
    record["exit"] = 1 if record["failure"] or slower else 0
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perf_ab: {base_sha[:12]} vs this checkout: {len(record['runs'])} "
          f"runs in {record['wall_s']:.0f} s, {slower} slower; record in "
          f"{RECORD.name}")
    if record["failure"]:
        print(f"perf_ab: {record['failure']}", file=sys.stderr)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
