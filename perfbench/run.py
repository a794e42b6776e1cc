"""strongreal benchmark: fixed CLI jobs, each in a fresh interpreter.

Usage (from the checkout root):

    python3 perfbench/run.py --workload verify_group --seed 1 --seconds 30 --trace 0

A pass runs every job of the workload once, one at a time (one closed-loop
client, no parallelism), in an order shuffled by `--seed`.  Passes repeat
until the next one would end after `--seconds`, but at least two run.
Every job's stdout is checked against pinned answers (see jobs.py).

With `--trace 0` the last stdout line is the end-to-end metrics, built
from per-job medians over the passes.  Times are rescaled to a reference
core speed with the probe each job runs in its own process (probe.py): the
host's shared cores change speed by up to ~2x within seconds, which raw
wall time cannot tell from a change to the program.  The traced run reports
the raw wall time and the probe's speed too.  With `--trace 1` each
untraced pass is followed by a traced pass of the same order, and the last
line is the per-layer metrics.
A human-readable summary goes to stderr; the per-pass record, and with
tracing the spans and aggregates of every traced job, go to perfbench/out/.

Exit status: 0 when every output is correct, 1 on a wrong output, 2 when
the checkout holds no strongreal source.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
from tracer import target_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
# The driver allows 180 s per run; stop starting jobs well before that.
HARD_LIMIT_S = 165.0
# Two passes keep the slowest workloads within `--seconds`; rescaled job
# times vary by a few percent, so a median of two suffices.  Traced runs
# take one pair.
MIN_PASSES = 2


@dataclass
class JobRun:
    label: str
    rc: int
    stdout: bytes
    wall_s: float  # spawn to exit, at the reference core speed
    setup_s: float  # spawn until strongreal.cli is imported, at the reference core speed
    rss_mb: float  # max resident set size of the child
    trace: dict | None
    outcome: jobs.Outcome | None = None
    raw_wall_s: float = 0.0  # spawn to exit as the clock read it
    speed: float = 1.0  # share of the reference core speed the job got


def run_job(job: dict, trace: bool, limit_s: float) -> JobRun:
    """Spawn one job, wait for it, and read its stdout, rusage and sidecar."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{job['label']}.{os.getpid()}"
    stdout_path, sidecar = stem.with_suffix(".stdout"), stem.with_suffix(".json")
    sidecar.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(ROOT), str(sidecar), "1" if trace else "0", *job["argv"]]
    env = {k: v for k, v in os.environ.items() if k != "STRONGREAL_BUDGET"}
    with open(stdout_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=env)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = stdout_path.read_bytes()
    stdout_path.unlink()
    try:
        record = json.loads(sidecar.read_text())
        sidecar.unlink()
    except FileNotFoundError:  # killed; the run is rejected anyway
        record = {"imported_at": end}
    speed = record.get("speed") or 1.0
    return JobRun(
        job["label"],
        proc.returncode,
        stdout,
        (end - start) * speed,
        (record["imported_at"] - start) * (record.get("setup_speed") or speed),
        usage.ru_maxrss / 1024.0,
        record.get("trace"),
        raw_wall_s=end - start,
        speed=speed,
    )


def run_pass(order: list[dict], pins: dict, trace: bool, deadline: float) -> list[JobRun]:
    runs = []
    for job in order:
        run = run_job(job, trace, deadline - time.monotonic())
        run.outcome = jobs.check(job, pins, run.rc, run.stdout)
        if trace and run.trace is None and run.outcome.error is None:
            run.outcome = jobs.Outcome(run.outcome.attempted, 0, 0, "traced job wrote no trace")
        runs.append(run)
    return runs


def per_job_median(passes: list[list[JobRun]], attr: str) -> dict[str, float]:
    """label -> median of one JobRun field over the passes."""
    values: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            values.setdefault(r.label, []).append(getattr(r, attr))
    return {label: statistics.median(v) for label, v in values.items()}


def end_to_end(passes: list[list[JobRun]]) -> dict:
    """A pass's figures as the sum (or max) over jobs of per-job medians, so
    one slow job in one pass does not move the result."""
    wall = sum(per_job_median(passes, "wall_s").values())
    classes = statistics.median([sum(r.outcome.classes for r in p) for p in passes])
    attempted = sum(r.outcome.attempted for p in passes for r in p)
    failed = sum(r.outcome.failed for p in passes for r in p)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "classes_per_s": {"value": classes / wall, "unit": "1/s"},
        "setup_s": {"value": sum(per_job_median(passes, "setup_s").values()), "unit": "s"},
        "peak_rss_mb": {"value": max(per_job_median(passes, "rss_mb").values()), "unit": "MB"},
        "ok_share": {"value": (attempted - failed) / attempted, "unit": "1"},
    }


def per_layer(spec: dict, untraced: list[list[JobRun]], traced: list[list[JobRun]]) -> dict:
    metrics = {}
    names = target_names(spec["layers"])
    per_pass = []
    for p in traced:
        totals = {name: [0, 0.0] for name in names}
        products = elements = 0
        for run in p:
            if run.trace is None:  # already reported as an error
                continue
            for agg in run.trace["aggregates"]:
                row = totals[agg["name"]]
                row[0] += agg["calls"]
                row[1] += agg["self_s"] * run.speed
            products += run.trace["group_products"]
            elements += run.trace["group_elements"]
        per_pass.append((totals, products / elements if elements else 0.0))
    for name in names:
        metrics[f"{name}.calls"] = {"value": statistics.median(t[name][0] for t, _ in per_pass), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": statistics.median(t[name][1] for t, _ in per_pass), "unit": "s"}
    metrics["oracle.enumerate_group.products_per_element"] = {
        "value": statistics.median(ratio for _, ratio in per_pass),
        "unit": "1",
    }
    walls = per_job_median(untraced, "wall_s")
    for workload in spec["workloads"].values():
        for job in workload["jobs"]:
            metrics[f"cli.job.{job['label']}.wall_s"] = {"value": walls.get(job["label"], 0.0), "unit": "s"}
    overhead = sum(per_job_median(traced, "wall_s").values()) - sum(walls.values())
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["raw_wall_s"] = {"value": sum(per_job_median(untraced, "raw_wall_s").values()), "unit": "s"}
    metrics["host_speed"] = {
        "value": statistics.median(r.speed for p in untraced for r in p),
        "unit": "1",
    }
    return metrics


def summary(workload: str, passes: list[list[JobRun]], metrics: dict) -> str:
    per_pass_attempted = sum(r.outcome.attempted for r in passes[0])
    per_pass_failed = sum(r.outcome.failed for r in passes[0])
    lines = [f"workload {workload}: {len(passes)} untraced passes"]
    for i, p in enumerate(passes):
        lines.append(f"  pass {i} order: {' '.join(r.label for r in p)}")
    lines.append(
        f"  failed_share {per_pass_failed}/{per_pass_attempted} = "
        f"{per_pass_failed / per_pass_attempted:.4f} per pass"
    )
    for name, m in metrics.items():
        lines.append(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    raw = sum(per_job_median(passes, "raw_wall_s").values())
    speed = statistics.median(r.speed for p in passes for r in p)
    lines.append(f"  {'raw wall_s, as the clock read it':<52} {raw:.6g} s (median core speed {speed:.3f} of reference)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "strongreal" / "cli.py").is_file():
        print(f"no strongreal source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec, pins = jobs.load_spec(), jobs.load_pins()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(spec['workloads'])}")
    job_list = spec["workloads"][args.workload]["jobs"]
    rng = random.Random(args.seed)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    untraced, traced = [], []
    while True:
        order = rng.sample(job_list, len(job_list))
        untraced.append(run_pass(order, pins, False, deadline))
        if args.trace:
            traced.append(run_pass(order, pins, True, deadline))
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
        if (enough and elapsed + elapsed / len(untraced) > args.seconds) or elapsed > HARD_LIMIT_S:
            break

    errors = [
        f"{r.label}: {r.outcome.error}" for p in untraced + traced for r in p if r.outcome.error
    ]
    for plain, with_trace in zip(untraced, traced):
        for a, b in zip(plain, with_trace):
            if a.stdout != b.stdout:
                errors.append(f"{a.label}: traced stdout differs from untraced stdout")

    metrics = per_layer(spec, untraced, traced) if args.trace else end_to_end(untraced)
    print(summary(args.workload, untraced, end_to_end(untraced) if args.trace else metrics), file=sys.stderr)
    for err in errors:
        print(f"WRONG {err}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        # passes in run order, jobs in the order they ran
        "passes": [
            [
                {"label": r.label, "rc": r.rc, "wall_s": r.wall_s, "setup_s": r.setup_s, "rss_mb": r.rss_mb,
                 "raw_wall_s": r.raw_wall_s, "speed": r.speed,
                 "attempted": r.outcome.attempted, "failed": r.outcome.failed, "classes": r.outcome.classes}
                for r in p
            ]
            for p in untraced
        ],
        "metrics": metrics,
        "errors": errors,
    }
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"run-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        traces = [[{"label": r.label, **(r.trace or {})} for r in p] for p in traced]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(traces))

    runs = untraced + traced
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r.outcome.attempted for p in runs for r in p),
                "failed": sum(r.outcome.failed for p in runs for r in p),
                "metrics": metrics,
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
