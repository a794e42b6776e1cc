"""Write perfbench/expected.json, the pinned answers the benchmark checks.

Usage (from the checkout root): python3 perfbench/pin.py

Verify jobs pin strategy, group order, class count and each decided
class's (is_real, is_strongly_real); count/list/series jobs pin a SHA-256 of
stdout.  The probes pin answers computed independently of the enumeration
they exercise: the K/R/T table from the generating series, and K_7(3).
Re-pin only when a change to the answers is intended, and say so.
"""

from __future__ import annotations

import json
import sys

import jobs
from run import ROOT, run_job

PROBE_PINS = {
    # count --q 5 --n-max 5: the series coefficients K_n, R_n, T_n for n <= 5
    "probe_count_q5_n5": ("count", 5, 5),
    # list --q 3 --n 7: K_7(3) distinct data with n = 7
    "probe_list_q3_n7": ("list", 3, 7),
}


def probe_pin(verb: str, q: int, n: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from strongreal.counting import series_K, series_R, series_T
    from strongreal.fields import prime_power

    pp = prime_power(q)
    if verb == "count":
        series = [s(pp, n) for s in (series_K, series_R, series_T)]
        return {"table": {str(i): [s.coefficient(i) for s in series] for i in range(n + 1)}}
    return {"lines": series_K(pp, n).coefficient(n), "n": n}


def main() -> int:
    spec = jobs.load_spec()
    pins = {}
    for workload in spec["workloads"].values():
        for job in workload["jobs"]:
            label = job["label"]
            if job["kind"] == "probe":
                pins[label] = probe_pin(*PROBE_PINS[label])
                continue
            run = run_job(job, False, 600.0)
            if job["kind"] == "text":
                if run.rc != 0:
                    raise SystemExit(f"{label} exited {run.rc}; cannot pin it")
                pins[label] = {"sha256": jobs.digest(run.stdout)}
                continue
            report = json.loads(run.stdout)
            pins[label] = {
                "strategy": report["strategy"],
                "group_order": report["group_order"],
                "class_count": report["class_count"],
                "records": {
                    jobs.datum_key(r["datum"]): [r["is_real"], r["is_strongly_real"]]
                    for r in report["records"]
                },
            }
            if report["disagreements"]:
                raise SystemExit(f"{label} has disagreements; cannot pin it")
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())]
    jobs.PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {jobs.PINS_PATH} ({len(pins)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
