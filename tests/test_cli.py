"""Command line interface: verbs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongreal
from strongreal.cli import main


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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_below_one_is_a_usage_error(capsys, value):
    # a zero budget used to fall back to the defaults silently, and a
    # negative one starved every search
    for verb in (["verify", "--n", "1"], ["realize", "--datum", "unused.json"]):
        code, out, err = run(capsys, *verb, "--q", "3", "--budget", value)
        assert code == 1
        assert out == ""
        assert "--budget" in err


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
