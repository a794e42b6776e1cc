"""Workload definitions and the output checks for each kind of job.

A job's outcome is counted in operations.  For verify an operation is a
class, and it fails when the oracle leaves it undecided.  For count, list
and series an operation is the job, and it fails when the job exits 3, the
CLI's code for an exhausted budget or enumeration bound.  A wrong answer is
not a failure: `check` returns it as an error and the run is rejected.  Any
other exit is an error too, because the CLI exits 1 on a wrong answer it
catches itself (a series-vs-direct count mismatch) and a crashed or killed
job proves nothing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE / "workloads.json"
PINS_PATH = HERE / "expected.json"
# CLI exit code for BudgetExceededError and EnumerationBoundError
BOUND_EXIT = 3


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    classes: int  # class records, list lines or count-table K totals printed
    error: str | None = None  # set when the output is wrong


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def datum_key(datum) -> str:
    """Short stable key of a class datum's canonical JSON."""
    text = json.dumps(datum, sort_keys=True, separators=(",", ":"))
    return digest(text.encode())[:16]


def count_table(stdout: bytes) -> dict[int, list[int]] | None:
    """n -> [K, R, T] from `count` CSV output, or None if it has no table."""
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != "n,K,R,T":
        return None
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4 or not all(c.isdigit() for c in cells):
            break
        rows[int(cells[0])] = [int(c) for c in cells[1:]]
    return rows


def _classes_printed(argv, stdout: bytes) -> int:
    verb = argv[0]
    if verb == "list":
        return len(stdout.splitlines())
    if verb == "count":
        table = count_table(stdout) or {}
        return sum(k for k, _r, _t in table.values())
    return 0


def check_verify(pin: dict, rc: int, stdout: bytes) -> Outcome:
    attempted = pin["class_count"]
    if rc not in (0, BOUND_EXIT):
        return Outcome(attempted, 0, 0, f"verify exited {rc}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return Outcome(attempted, 0, 0, "verify printed no JSON report")
    for key in ("strategy", "group_order", "class_count"):
        if report.get(key) != pin[key]:
            return Outcome(attempted, 0, 0, f"{key} {report.get(key)!r} != pinned {pin[key]!r}")
    if report.get("disagreements") != 0:
        return Outcome(attempted, 0, 0, f"{report.get('disagreements')} disagreements")
    seen = {}
    for rec in report["records"]:
        seen[datum_key(rec["datum"])] = (rec["is_real"], rec["is_strongly_real"])
    if sorted(seen) != sorted(pin["records"]) or len(report["records"]) != attempted:
        return Outcome(attempted, 0, 0, "class data differ from the pinned set")
    undecided = 0
    for key, got in seen.items():
        if None in got:
            undecided += 1
        for value, pinned in zip(got, pin["records"][key]):
            if value is not None and pinned is not None and value != pinned:
                return Outcome(attempted, 0, 0, f"verdict {got} != pinned {pin['records'][key]} for datum {key}")
    if report.get("undecided") != undecided or (rc == BOUND_EXIT) != (undecided > 0):
        return Outcome(attempted, 0, 0, "undecided count and exit code disagree")
    return Outcome(attempted, undecided, attempted)


def check_text(pin: dict, argv, rc: int, stdout: bytes) -> Outcome:
    if rc == BOUND_EXIT:
        return Outcome(1, 1, 0)
    if rc != 0:
        return Outcome(1, 0, 0, f"{argv[0]} exited {rc}")
    if digest(stdout) != pin["sha256"]:
        return Outcome(1, 0, 0, "stdout differs from the pinned digest")
    return Outcome(1, 0, _classes_printed(argv, stdout))


def check_probe(pin: dict, argv, rc: int, stdout: bytes) -> Outcome:
    """A probe may fail (exit 3); when it succeeds it must be right."""
    if rc == BOUND_EXIT:
        return Outcome(1, 1, 0)
    if rc != 0:
        return Outcome(1, 0, 0, f"{argv[0]} exited {rc}")
    if argv[0] == "count":
        table = count_table(stdout)
        expected = {int(n): row for n, row in pin["table"].items()}
        if table != expected:
            return Outcome(1, 0, 0, "count table differs from the series coefficients")
    else:
        lines = stdout.splitlines()
        if len(lines) != pin["lines"] or len(set(lines)) != len(lines):
            return Outcome(1, 0, 0, f"list printed {len(lines)} lines, want {pin['lines']} distinct")
        for line in lines:
            if json.loads(line).get("n") != pin["n"]:
                return Outcome(1, 0, 0, "list printed a datum of the wrong size")
    return Outcome(1, 0, _classes_printed(argv, stdout))


def check(job: dict, pins: dict, rc: int, stdout: bytes) -> Outcome:
    pin = pins[job["label"]]
    if job["kind"] == "verify":
        return check_verify(pin, rc, stdout)
    if job["kind"] == "text":
        return check_text(pin, job["argv"], rc, stdout)
    if job["kind"] == "probe":
        return check_probe(pin, job["argv"], rc, stdout)
    raise ValueError(f"unknown job kind {job['kind']!r}")
