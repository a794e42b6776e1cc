"""Command line interface: verbs, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongreal
from strongreal.cli import main
from strongreal.counting import series_R, series_T
from strongreal.fields import prime_power


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(strongreal.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_classify_unipotent_odd_q(capsys):
    code, out, _ = run(capsys, "classify", "--q", "3", "--unipotent", "2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "NotStronglyReal"
    assert payload["rule"] == "MainThm"
    assert payload["witness"]["even_part"] == 2
    assert payload["witness"]["multiplicity"] == 1


def test_classify_unipotent_even_q(capsys):
    code, out, _ = run(capsys, "classify", "--q", "2", "--unipotent", "3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "StronglyReal" and payload["rule"] == "Real2"
    code, out, _ = run(capsys, "classify", "--q", "2", "--unipotent", "5,3")
    assert json.loads(out)["status"] == "Unknown"


def test_classify_plain_format(capsys):
    code, out, _ = run(
        capsys, "classify", "--q", "3", "--unipotent", "3,1", "--format", "plain"
    )
    assert code == 0
    assert out.strip() == "StronglyReal (rule MainThm)"


def test_classify_datum_file(tmp_path, capsys):
    code, out, _ = run(capsys, "list", "--q", "3", "--n", "2", "--filter", "real")
    lines = out.strip().splitlines()
    path = tmp_path / "datum.json"
    path.write_text(lines[0])
    code, out, _ = run(capsys, "classify", "--q", "3", "--datum", str(path))
    assert code == 0
    assert json.loads(out)["status"] in ("StronglyReal", "NotStronglyReal")


def test_classify_sp(capsys):
    code, out, _ = run(capsys, "classify", "--q", "3", "--sp", "--unipotent", "2+")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "NotStronglyReal" and payload["rule"] == "SpCor"
    code, out, _ = run(
        capsys, "classify", "--q", "3", "--sp", "--unipotent", "2+,2+,1,1"
    )
    assert json.loads(out)["status"] == "Unknown"


SP_DATUM = {"q": {"p": 3, "e": 1}, "t_minus_1": {"partition": [2], "signs": {"2": "+"}}}


def test_classify_sp_datum_file_checks_q(tmp_path, capsys):
    # the symplectic branch reads --datum like the unitary one: a file for
    # another q is a usage error, not a verdict for that q
    path = tmp_path / "sp_datum.json"
    path.write_text(json.dumps(SP_DATUM))
    code, out, _ = run(capsys, "classify", "--q", "3", "--sp", "--datum", str(path))
    assert code == 0
    assert json.loads(out)["rule"] == "SpCor"
    code, out, err = run(capsys, "classify", "--q", "5", "--sp", "--datum", str(path))
    assert code == 1
    assert out == ""
    assert "datum file is for a different q" in err


def unitary_datum_with_poly(poly):
    """The datum of the scalar class t + 1 of U(1, F_3), with its poly replaced."""
    return {"blocks": [{"partition": [1], "poly": poly}], "n": 1, "q": {"e": 1, "p": 3}}


@pytest.mark.parametrize(
    "content",
    [
        {"q": 3},
        [1, 2],
        SP_DATUM,
        unitary_datum_with_poly([[4, 0]]),
        unitary_datum_with_poly([[-2, 0]]),
        unitary_datum_with_poly([[1.0, 0]]),
        unitary_datum_with_poly([[True, 0]]),
        unitary_datum_with_poly([[1]]),
        unitary_datum_with_poly([[1, 0, 0]]),
    ],
    ids=[
        "bare-q",
        "list",
        "symplectic",
        "coordinate-p-plus-1",
        "negative-coordinate",
        "float-coordinate",
        "bool-coordinate",
        "short-vector",
        "long-vector",
    ],
)
def test_malformed_datum_file_is_a_usage_error(tmp_path, capsys, content):
    # JSON that is not a unitary datum is a usage error, not a traceback; a
    # coordinate outside [0, p) is not reduced mod p into another datum
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(content))
    for verb in ("classify", "realize"):
        code, out, err = run(capsys, verb, "--q", "3", "--datum", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: malformed datum file")


def test_classify_sp_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--q", "3", "--sp", "--unipotent", "2")
    assert code == 1 and "suffix" in err
    code, _, err = run(capsys, "classify", "--q", "2", "--sp", "--unipotent", "2+")
    assert code == 1


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,K,R,T"
    assert lines[2] == "1,4,2,2"
    assert any("z^1" in line for line in lines)


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n-max", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["agreement"] is True
    row = payload["rows"][2]
    assert (row["n"], row["K"], row["R"], row["T"]) == (2, 16, 6, 4)
    assert (row["direct_K"], row["direct_R"], row["direct_T"]) == (16, 6, 4)


def test_count_rejects_even_q(capsys):
    code, _, err = run(capsys, "count", "--q", "2", "--n-max", "2")
    assert code == 1 and "odd q" in err


def test_list_stream(capsys):
    code, out, _ = run(capsys, "list", "--q", "3", "--n", "1", "--filter", "strongly_real")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        datum = json.loads(line)
        assert datum["n"] == 1


# SHA-256 of the stdout of `list --q Q --n N --filter F` for N = 0, 1, 2, 3
# in turn, from the enumeration that filtered inside iter_class_data
LIST_SHA256 = {
    ("all", 2): "39a3978f661c2b084a4257e48424b03546b5f496b43d64fec0ace0c14c2a6b26",
    ("all", 3): "d9e9967c06a4c3fff6bb42bfeeb9ec0523ed82c46cf7dbacea891e7631860165",
    ("all", 4): "e738434ca58ba980867b38ab22dd70149857b24e968a169779a80851966d696e",
    ("all", 5): "e07fb9f36a1275466427d8f05c680f338259671521fca137cfbbfac4544964fd",
    ("real", 2): "2c7a7b3cd14eea162aa1815c71de944c18c9987af51f572a3a55821bd7fdcedf",
    ("real", 3): "318761acfaf96895723f49c71c5a22b1a0adfd78e1352174f18911a9d968b727",
    ("real", 4): "9512692526dce8208053755cfea1b759087d93e525336fe7e462390538bb8a6d",
    ("real", 5): "a2143f844324c563645eea65f0d5415e893236f109d2120401e9915c1aa96cf5",
    ("strongly_real", 2): "6589a24321178ea1e41f4f780c9634274f3f984d185043ce7fa44126f74aa465",
    ("strongly_real", 3): "6da5c0340954ec72b138402f73e13a000a5ce1d3efc7297611555930b0dd9041",
    ("strongly_real", 4): "191b0c4a9f53c607e35d6845953903575b57e69097471f3dc6a804ab33cadff3",
    ("strongly_real", 5): "8309d9d9e19120c57710421e2f2cf260d94629059e20dfd51fea87b3f8daf686",
}


@pytest.mark.parametrize("which,q", sorted(LIST_SHA256))
def test_list_filter_output_is_pinned(capsys, which, q):
    outs = []
    for n in range(4):
        code, out, _ = run(capsys, "list", "--q", str(q), "--n", str(n), "--filter", which)
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == LIST_SHA256[which, q]
    if q % 2 and which != "all":
        series = (series_R if which == "real" else series_T)(prime_power(q), 3)
        assert [len(out.splitlines()) for out in outs] == list(series.coeffs)


def test_list_unknown_filter_is_a_usage_error(capsys):
    code, out, err = run(capsys, "list", "--q", "3", "--n", "2", "--filter", "bogus")
    assert code == 1 and out == ""
    assert "usage error" in err and "bogus" in err


def test_list_into_a_closed_pipe_exits_one_without_traceback():
    # list --q 3 --n 5 prints ~85 kB, more than a pipe holds, so the
    # writes after the reader closes its end fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "strongreal", "list", "--q", "3", "--n", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=src_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert json.loads(first)["n"] == 5
    assert b"Traceback" not in err, err.decode()


def test_list_runs_without_numpy():
    # GF(4^10), the host field of the degree-5 scan, needs no numpy
    script = (
        "import sys; sys.modules['numpy'] = None; "
        "from strongreal.cli import main; "
        "sys.exit(main(['list', '--q', '4', '--n', '5']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1935


def test_python_m_strongreal_runs_the_cli(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "strongreal", "list", "--q", "3", "--n", "2"],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    code, out, _ = run(capsys, "list", "--q", "3", "--n", "2")
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert len(out.splitlines()) == 16


def test_series(capsys):
    code, out, _ = run(capsys, "series", "--q", "3", "--order", "4", "--which", "T")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 2, 4, 8, 19]
    code, out, _ = run(
        capsys, "series", "--q", "3", "--order", "3", "--which", "K", "--format", "plain"
    )
    assert out.strip() == "1 4 16 56"
    code, _, _ = run(capsys, "series", "--q", "3", "--order", "3", "--which", "X")
    assert code == 1


def test_realize(tmp_path, capsys):
    code, out, _ = run(capsys, "list", "--q", "3", "--n", "2")
    path = tmp_path / "datum.json"
    path.write_text(out.strip().splitlines()[0])
    code, out, _ = run(capsys, "realize", "--q", "3", "--datum", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["matrix"]) == 2
    assert payload["form"]["gram"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == 0
    assert "elapsed_ms" not in payload


def test_verify_timing_flag(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "1", "--timing")
    assert "elapsed_ms" in json.loads(out)


def test_verify_plain(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--format", "plain")
    assert code == 0
    assert "0 disagreements" in out


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--q", "3", "--n", "2")
    _, second, _ = run(capsys, "verify", "--q", "3", "--n", "2")
    assert first == second


def test_usage_errors_exit_one(capsys):
    code, _, _ = run(capsys, "classify", "--q", "3")
    assert code == 1
    code, _, _ = run(capsys, "classify", "--q", "12", "--unipotent", "1")
    assert code == 1
    code, _, _ = run(capsys, "realize", "--q", "3", "--datum", "/nonexistent.json")
    assert code == 1


def test_verify_disagreement_exit_two(monkeypatch, capsys):
    # a contradiction between a decided verdict and the oracle must exit 2;
    # only reachable by tampering with a record, since the real runs agree
    import dataclasses

    import strongreal.cli as cli

    true_reconcile = cli.reconcile

    def tampered(n, q, budgets=None):
        report = true_reconcile(n, q, budgets)
        records = list(report.records)
        for i, rec in enumerate(records):
            if rec.verdict.decided and rec.oracle_strongly_real is not None:
                records[i] = dataclasses.replace(
                    rec, oracle_strongly_real=not rec.oracle_strongly_real
                )
                break
        return dataclasses.replace(report, records=tuple(records))

    monkeypatch.setattr(cli, "reconcile", tampered)
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "1")
    assert code == 2
    assert json.loads(out)["disagreements"] == 1


def test_budget_exhaustion_exit_three(capsys):
    # a tiny budget forces the representative path and starves the scans
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--budget", "10")
    assert code == 3
    payload = json.loads(out)
    assert payload["undecided"] > 0
    assert payload["disagreements"] == 0


def test_closure_within_the_order_budget(capsys):
    # |U(4, F_2)| = 77760 fits the order budget, the only cap on the closure
    # strategy, so verify materializes the group
    code, out, _ = run(
        capsys, "verify", "--q", "2", "--n", "4", "--budget", "100000", "--format", "plain"
    )
    assert code == 0
    assert out == "U(4, F_2): 60 classes, 0 disagreements, 0 undecided (closure)\n"


# one below and exactly at each guard: q^(2n^2) against the entry-scan
# budget for entrywise, |U(n, F_q)| against the group budget for closure
@pytest.mark.parametrize(
    "q,n,guard,label,classes",
    [
        (5, 2, 5**8, "entrywise", 36),
        (2, 3, 2**18, "entrywise", 24),
        (3, 3, 24192, "closure", 56),
    ],
)
def test_group_label_at_the_budget_guards(capsys, q, n, guard, label, classes):
    for budget, chosen in ((guard - 1, "representatives"), (guard, label)):
        code, out, _ = run(
            capsys, "verify", "--q", str(q), "--n", str(n), "--budget", str(budget),
            "--format", "plain",
        )
        assert code == 0
        assert out == f"U({n}, F_{q}): {classes} classes, 0 disagreements, 0 undecided ({chosen})\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_below_one_is_a_usage_error(capsys, value):
    # a zero budget used to fall back to the defaults silently, and a
    # negative one starved every search
    for verb in (["verify", "--n", "1"], ["realize", "--datum", "unused.json"]):
        code, out, err = run(capsys, *verb, "--q", "3", "--budget", value)
        assert code == 1
        assert out == ""
        assert "--budget" in err


@pytest.mark.parametrize(
    "verb,option",
    [("verify", "--n"), ("list", "--n"), ("count", "--n-max"), ("series", "--order")],
)
def test_negative_size_is_a_usage_error(capsys, verb, option):
    extra = ["--which", "T"] if verb == "series" else []
    code, out, err = run(capsys, verb, "--q", "3", option, "-1", *extra)
    assert code == 1
    assert out == ""
    assert f"argument {option}: must be at least 0, got -1" in err


@pytest.mark.parametrize("q,strategy", [(3, "closure"), (2, "entrywise")])
def test_verify_output_does_not_depend_on_the_hash_seed(capsys, q, strategy):
    argv = ["verify", "--q", str(q), "--n", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["strategy"] == strategy
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "strongreal", *argv],
            capture_output=True, text=True, env=dict(src_env(), PYTHONHASHSEED=seed), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out


@pytest.mark.parametrize("n", [1, 2])
def test_environment_does_not_set_budgets(monkeypatch, capsys, n):
    # budgets come from --budget or the defaults, never from the environment
    monkeypatch.setenv("STRONGREAL_BUDGET", "10")
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", str(n))
    assert code == 0
    payload = json.loads(out)
    assert payload["undecided"] == 0
    assert all(
        r["is_real"] is not None and r["is_strongly_real"] is not None
        for r in payload["records"]
    )
