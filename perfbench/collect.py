"""Run every workload over ten seeds, twice, and record the baseline.

Usage (from the checkout root):

    python3 perfbench/collect.py

Two sets run one after the other.  In each set every workload runs once per
seed 1-10 with tracing off, for BENCHMARK.json's `run_seconds`.  Then every
workload runs once with tracing on.  Prints every end-to-end metric per set
and workload as median [first quartile, third quartile] with its unit and
the quartile spread as a share of the median, then how much worse the
second set's median is than the first's, against the metric's bound, then
the traced per-layer table.  Writes both sets, their median drift, the
per-layer figures, the git SHA and `nproc` to perfbench/baseline.json.
Exits 1 if any run reports a wrong output.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values), "values": values}


def span_seconds(trace_path: Path, label: str, name: str) -> float:
    """Summed duration of the outermost `name` spans in job `label`, first traced pass."""
    passes = json.loads(trace_path.read_text())
    job = next(j for j in passes[0] if j["label"] == label)
    by_id = {s["id"]: s for s in job["spans"]}
    total = 0.0
    for s in job["spans"]:
        parent, nested = s["parent"], False
        while parent is not None:
            nested = nested or by_id[parent]["name"] == name
            parent = by_id[parent]["parent"]
        if s["name"] == name and not nested:
            total += s["end"] - s["start"]
    return total


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    wrong = False
    result = {"git_sha": git_sha(), "nproc": os.cpu_count(), "run_seconds": seconds,
              "seeds": list(SEEDS), "sets": []}
    for set_no in range(1, SETS + 1):
        figures = {}
        for name in names:
            runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
            wrong |= not all(r["correct"] for r in runs)
            figures[name] = {
                # totals over all passes of each run; every pass fails the same operations
                "failed_share": [r["failed"] / r["attempted"] for r in runs],
                "end_to_end": {
                    m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in runs]), unit=m["unit"])
                    for m in bench["end_to_end"]
                },
            }
            print(f"set {set_no} {name}: {len(SEEDS)} seeds, failed_share {figures[name]['failed_share'][0]:.4f}")
            for metric, s in figures[name]["end_to_end"].items():
                print(f"  {metric:<14} {s['median']:.6g} {s['unit']} [{s['q1']:.6g}, {s['q3']:.6g}] "
                      f"spread {s['spread']:.3f}")
        result["sets"].append(figures)

    result["drift"] = {}
    print("second set median against first, worse by (bound):")
    for name in names:
        first, second = (figures[name]["end_to_end"] for figures in result["sets"])
        result["drift"][name] = {}
        for m in bench["end_to_end"]:
            metric = m["name"]
            worse = worse_by(first[metric]["median"], second[metric]["median"], m["better"])
            result["drift"][name][metric] = {"worse_by": worse, "bound": m["bound"],
                                             "within_bound": worse <= m["bound"]}
            flag = "" if worse <= m["bound"] else "  EXCEEDS BOUND"
            print(f"  {name:<13} {metric:<14} {worse:+.4f} ({m['bound']}){flag}")

    result["per_layer"] = {}
    for name in names:
        traced = run_once(name, 0, seconds, 1)
        wrong |= not traced["correct"]
        result["per_layer"][name] = traced["metrics"]

    out_dir = HERE / "out"
    group_layers = result["per_layer"]["verify_group"]
    result["roadmap_check"] = {
        "verify_u3_f3_wall_s": {
            "value": group_layers["cli.job.verify_u3_f3.wall_s"]["value"],
            "how": "untraced job wall time, spawn to exit, at the reference core speed; the ROADMAP range is reconcile(3, 3) in-process",
            "roadmap": [3.0, 4.5],
        },
        "enumerate_u_irreducibles_q3_d6_s": {
            "value": span_seconds(out_dir / "trace-enumerate-seed0.json", "count_q3_n6", "upoly.enumerate_u_irreducibles"),
            "how": "traced spans of upoly.enumerate_u_irreducibles in count --q 3 --n-max 6, as the clock read them",
            "roadmap": [0.8, 1.6],
        },
    }
    print("traced per-layer metrics (nonzero):")
    for name, layers in result["per_layer"].items():
        for metric, m in layers.items():
            if m["value"]:
                print(f"  {name:<13} {metric:<52} {m['value']:.6g} {m['unit']}")
    for key, check in result["roadmap_check"].items():
        lo, hi = check["roadmap"]
        print(f"ROADMAP check {key}: {check['value']:.3f} s (ROADMAP {lo}-{hi} s; {check['how']})")
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    if wrong:
        print("WRONG: a run reported a wrong output", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
