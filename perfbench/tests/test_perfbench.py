"""Tests of the benchmark itself: failure accounting, tracing, declared metrics.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

import json

import signal
import time

import jobs
import probe
import run
import tracer
from jobs import Outcome, check_probe, check_text, check_verify, datum_key

D1 = {"blocks": [{"partition": [1], "poly": [[1]]}], "n": 1, "q": {"e": 1, "p": 3}}
D2 = {"blocks": [{"partition": [1], "poly": [[2]]}], "n": 1, "q": {"e": 1, "p": 3}}
VERIFY_PIN = {
    "strategy": "representatives",
    "group_order": None,
    "class_count": 2,
    "records": {datum_key(D1): [True, True], datum_key(D2): [False, None]},
}


def _report(r1, r2, undecided):
    records = [
        {"datum": D1, "is_real": r1[0], "is_strongly_real": r1[1], "agree": True},
        {"datum": D2, "is_real": r2[0], "is_strongly_real": r2[1], "agree": True},
    ]
    return json.dumps(
        {
            "strategy": "representatives",
            "group_order": None,
            "class_count": 2,
            "disagreements": 0,
            "undecided": undecided,
            "records": records,
        }
    ).encode()


def test_undecided_class_is_a_failure_not_an_error():
    out = check_verify(VERIFY_PIN, 3, _report((True, True), (False, None), 1))
    assert out == Outcome(2, 1, 2)


def test_newly_decided_class_is_accepted():
    out = check_verify(VERIFY_PIN, 0, _report((True, True), (False, False), 0))
    assert out == Outcome(2, 0, 2)


def test_flipped_verdict_is_an_error():
    out = check_verify(VERIFY_PIN, 0, _report((True, False), (False, False), 0))
    assert out.error and "verdict" in out.error


def test_verify_structure_checks():
    assert check_verify(VERIFY_PIN, 2, b"").error == "verify exited 2"
    assert "strategy" in check_verify(dict(VERIFY_PIN, strategy="closure"), 0, _report((True, True), (False, False), 0)).error
    # exit code must agree with the undecided count
    assert check_verify(VERIFY_PIN, 0, _report((True, True), (False, None), 1)).error


def test_text_job_accounting():
    pin = {"sha256": jobs.digest(b"n,K,R,T\n0,1,1,1\n1,4,2,2\n")}
    assert check_text(pin, ["count"], 0, b"n,K,R,T\n0,1,1,1\n1,4,2,2\n") == Outcome(1, 0, 5)
    assert check_text(pin, ["count"], 3, b"") == Outcome(1, 1, 0)
    assert check_text(pin, ["count"], 0, b"n,K,R,T\n0,1,1,1\n").error


def test_probe_exit_3_is_a_failure():
    pins = jobs.load_pins()
    for label, argv in (("probe_count_q5_n5", ["count"]), ("probe_list_q3_n7", ["list"])):
        assert check_probe(pins[label], argv, 3, b"") == Outcome(1, 1, 0)


def test_other_nonzero_exits_are_errors():
    # exit 1 is how the CLI reports a series-vs-direct count mismatch; -9 is a kill at the deadline
    pins = jobs.load_pins()
    for rc in (1, 2, -9):
        assert check_text(pins["count_q3_n6"], ["count"], rc, b"").error == f"count exited {rc}"
        assert check_probe(pins["probe_count_q5_n5"], ["count"], rc, b"").error == f"count exited {rc}"
        assert check_probe(pins["probe_list_q3_n7"], ["list"], rc, b"").error == f"list exited {rc}"


def test_probe_success_must_be_correct():
    pin = jobs.load_pins()["probe_count_q5_n5"]
    rows = "".join(f"{n},{k},{r},{t}\n" for n, (k, r, t) in sorted(pin["table"].items()))
    good = ("n,K,R,T\n" + rows + "series-vs-direct agreement: ok\n").encode()
    assert check_probe(pin, ["count"], 0, good) == Outcome(1, 0, sum(k for k, _, _ in pin["table"].values()))
    assert check_probe(pin, ["count"], 0, good.replace(b"5,5088", b"5,5087")).error
    list_pin = {"lines": 2, "n": 1}
    assert check_probe(list_pin, ["list"], 0, b'{"n": 1, "a": 1}\n{"n": 1, "a": 2}\n') == Outcome(1, 0, 2)
    assert check_probe(list_pin, ["list"], 0, b'{"n": 1}\n{"n": 1}\n').error


def test_pins_reproduce_the_seed_failures():
    spec, pins = jobs.load_spec(), jobs.load_pins()
    want = {"verify_group": (205, 0), "verify_reps": (440, 62)}
    for workload, (classes, undecided) in want.items():
        got = [pins[j["label"]] for j in spec["workloads"][workload]["jobs"]]
        assert sum(p["class_count"] for p in got) == classes
        assert sum(None in v for p in got for v in p["records"].values()) == undecided


def _snapshot():
    import sys

    import strongreal.fields
    import strongreal.oracle

    names = {}
    for key, mod in sys.modules.items():
        if key == "strongreal" or key.startswith("strongreal."):
            names[key] = dict(vars(mod))
    for cls in (strongreal.fields.FieldCtx, strongreal.oracle.GroupEnumeration):
        names[cls.__qualname__] = dict(vars(cls))
    return names


def test_wrap_and_unwrap_leave_strongreal_unchanged():
    import strongreal.cli
    from strongreal import linalg, oracle
    from strongreal.counting import enumerate_class_data
    from strongreal.fields import prime_power

    before = _snapshot()
    plain = oracle.reconcile(2, prime_power(3)).to_json(include_timing=False)
    t = tracer.Tracer(jobs.load_spec()["layers"])
    t.install()
    try:
        assert linalg.mat_mul is not before["strongreal.linalg"]["mat_mul"]
        assert oracle.mat_mul is linalg.mat_mul  # every namespace is patched
        traced = oracle.reconcile(2, prime_power(3)).to_json(include_timing=False)
        data = enumerate_class_data(2, prime_power(3))
    finally:
        t.uninstall()
    assert _snapshot() == before
    assert traced == plain
    calls = {}
    for (name, _caller), (n, _total, _self) in t.recorder.aggregates.items():
        calls[name] = calls.get(name, 0) + n
    assert calls["oracle.reconcile"] == 1
    assert calls["linalg.mat_mul"] > 0
    # a generator is timed per next(): every datum plus the final StopIteration
    assert calls["counting.iter_class_data"] == len(data) + 1
    assert t.recorder.group_elements == 96  # |U(2, F_3)|
    assert strongreal.cli.main is before["strongreal.cli"]["main"]


def test_self_time_excludes_wrapped_callees():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    rec.enter("oracle.reconcile")
    rec.enter("linalg.mat_mul")
    rec.exit()
    rec.exit()
    assert rec.aggregates[("oracle.reconcile", None)] == [1, 10.0, 8.0]
    assert rec.aggregates[("linalg.mat_mul", "oracle.reconcile")] == [1, 2.0, 2.0]
    assert rec.spans == [(0, "oracle.reconcile", 0.0, 10.0, None)]  # mat_mul is aggregated only


def test_declared_metrics_match_what_the_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = jobs.load_spec()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    fake = run.JobRun("x", 0, b"", 2.0, 0.5, 10.0, None, Outcome(4, 1, 4))
    e2e = run.end_to_end([[fake]])
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    names = tracer.target_names(spec["layers"])
    trace = {
        "aggregates": [{"name": n, "caller": None, "calls": 1, "total_s": 0.1, "self_s": 0.1} for n in names],
        "group_products": 0,
        "group_elements": 0,
    }
    layer = run.per_layer(spec, [[fake]], [[run.JobRun("x", 0, b"", 3.0, 0.5, 10.0, trace)]])
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in bench["per_layer"])


def test_traced_job_prints_the_same_stdout():
    job = next(j for j in jobs.load_spec()["workloads"]["verify_group"]["jobs"] if j["label"] == "verify_u2_f4")
    pins = jobs.load_pins()
    plain = run.run_job(job, False, 60.0)
    traced = run.run_job(job, True, 60.0)
    assert plain.stdout == traced.stdout
    assert plain.trace is None and traced.trace["aggregates"]
    assert jobs.check(job, pins, traced.rc, traced.stdout) == Outcome(25, 0, 25)
    assert 0 < plain.setup_s < plain.wall_s
    assert plain.wall_s == plain.raw_wall_s * plain.speed and 0 < plain.speed


def test_probe_speed_is_the_mean_share_of_reference_speed():
    assert probe.speed([]) is None
    assert probe.speed([probe.REF_S] * 3) == 1.0
    # half the time at full speed, half at half speed: the job got 3/4 of it
    assert abs(probe.speed([probe.REF_S, 2 * probe.REF_S]) - 0.75) < 1e-12


def test_probe_samples_while_started_and_leaves_no_timer():
    probe.start()
    try:
        end = time.monotonic() + 0.1
        while time.monotonic() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5 and all(d > 0 for d in probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
