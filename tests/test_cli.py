"""Command line interface: verbs, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import strongreal
from strongreal.classdata import enumerate_signed_partitions, partitions_of, sp_datum_from_json
from strongreal.cli import main
from strongreal.counting import series_R, series_T
from strongreal.fields import make_context, prime_power, table_for


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


@pytest.mark.parametrize("sp", [False, True], ids=["unitary", "sp"])
def test_classify_empty_unipotent_type(tmp_path, capsys, sp):
    # "" names the empty type (n = 0) as " " and "," do, not a missing flag
    flags = ["--sp"] if sp else []
    if sp:
        expected = '{"rule": null, "status": "Unknown", "witness": null}\n'
    else:
        # what --datum prints for the n = 0 datum that list prints
        _, listed, _ = run(capsys, "list", "--q", "3", "--n", "0")
        path = tmp_path / "empty.json"
        path.write_text(listed)
        _, expected, _ = run(capsys, "classify", "--q", "3", "--datum", str(path))
        assert expected == '{"rule": "MainThm", "status": "StronglyReal", "witness": null}\n'
    for text in ("", " ", ","):
        argv = ["classify", "--q", "3", *flags, "--unipotent", text]
        assert run(capsys, *argv) == (0, expected, "")


def test_classify_empty_datum_path_is_read_as_a_path(capsys):
    # as realize --datum "" does: the flag was given, so the file is missing
    code, out, err = run(capsys, "classify", "--q", "3", "--datum", "")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: [Errno 2] No such file or directory")


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


@pytest.mark.parametrize(
    "verb,parts",
    [
        (["classify"], [1.9, 1]),
        (["classify"], [True, 1]),
        (["classify"], ["2"]),
        (["realize"], [1.9, 1]),
        (["classify", "--sp"], [2.7, 2]),
    ],
    ids=["float", "bool", "string", "realize-float", "sp-float"],
)
def test_non_int_partition_part_is_a_usage_error(tmp_path, capsys, verb, parts):
    # a part at t - 1 is not truncated or parsed into an int: [1.9, 1] is not (1, 1)
    q = {"e": 1, "p": 3}
    if "--sp" in verb:
        content = {"q": q, "t_minus_1": {"partition": parts, "signs": {"2": "+"}}}
    else:
        content = {"q": q, "blocks": [{"partition": parts, "poly": [[2, 0]]}]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *verb, "--q", "3", "--datum", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: malformed datum file")


@pytest.mark.parametrize("sign", ["x", 1], ids=["letter", "int"])
def test_sp_datum_sign_other_than_plus_or_minus_is_a_usage_error(tmp_path, capsys, sign):
    # a sign is "+" or "-"; anything else is refused, not read as -1
    path = tmp_path / "sp.json"
    argv = ("classify", "--q", "3", "--sp", "--datum", str(path))
    for good in ("+", "-"):
        path.write_text(json.dumps(dict(SP_DATUM, t_minus_1={"partition": [2], "signs": {"2": good}})))
        assert run(capsys, *argv)[0] == 0
    path.write_text(json.dumps(dict(SP_DATUM, t_minus_1={"partition": [2], "signs": {"2": sign}})))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: malformed datum file")


@pytest.mark.parametrize(
    "keys",
    [{"x": "+"}, {"02": "+"}, {" 2": "+"}, {"2": "+", "02": "-"}],
    ids=["letter", "leading-zero", "leading-space", "two-keys-one-part"],
)
def test_sp_datum_sign_key_other_than_str_of_part_is_a_usage_error(tmp_path, capsys, keys):
    # a sign key is written as to_json writes it, str(part); int() would read
    # "02" and " 2" as 2, and two keys for one part would drop a sign
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(dict(SP_DATUM, t_minus_1={"partition": [2], "signs": keys})))
    code, out, err = run(capsys, "classify", "--q", "3", "--sp", "--datum", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: malformed datum file")


Q3 = {"p": 3, "e": 1}


@pytest.mark.parametrize(
    "key,good,bad,field",
    [
        ("n", 1, "1", "n"),
        ("n", 1, True, "n"),
        ("n", 1, 1.0, "n"),
        ("n2", 2, "2", "n2"),
        ("n2", 2, True, "n2"),
        ("n", 1, None, "n"),
        ("n2", 2, None, "n2"),
        ("t_plus_1", {"partition": [1, 1]}, None, None),
        ("q", Q3, {"p": 3, "e": True}, "q.e"),
        ("q", Q3, {"p": 3.0}, "q.p"),
        ("q", Q3, {"p": 3, "e": 1.0}, "q.e"),
        ("q", Q3, {"p": "3"}, "q.p"),
        ("q", Q3, {"p": 3, "e": None}, "q.e"),
    ],
    ids=[
        "n-string", "n-bool", "n-float", "n2-string", "n2-bool", "n-null", "n2-null",
        "t_plus_1-null", "e-bool", "p-float", "e-float", "p-string", "e-null",
    ],
)
def test_non_int_degree_in_a_datum_file_is_a_usage_error(tmp_path, capsys, key, good, bad, field):
    # n, n2 and q's p and e are ints as parts are: "1", true and 1.0 are not
    # read as 1, and a present null is malformed, never read as absent
    if key in ("n", "q"):
        content, verb = unitary_datum_with_poly([[2, 0]]), ("classify",)
    else:
        content, verb = SP_DATUM, ("classify", "--sp")
    path = tmp_path / "datum.json"
    argv = (*verb, "--q", "3", "--datum", str(path))
    path.write_text(json.dumps(dict(content, **{key: good})))
    assert run(capsys, *argv)[0] == 0
    path.write_text(json.dumps(dict(content, **{key: bad})))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: malformed datum file")
    if field:
        assert f"{field} must be an int" in err


def test_unreadable_datum_path_is_a_usage_error(tmp_path, capsys):
    # a directory opens with IsADirectoryError, an OSError like a missing file
    for verb in ("classify", "realize"):
        code, out, err = run(capsys, verb, "--q", "3", "--datum", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: [Errno 21] Is a directory")


def test_classify_sp_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--q", "3", "--sp", "--unipotent", "2")
    assert code == 1 and "suffix" in err
    code, _, err = run(capsys, "classify", "--q", "2", "--sp", "--unipotent", "2+")
    assert code == 1


@pytest.mark.parametrize("q", [10**9 + 7, (10**9 + 7) ** 2])
def test_large_q_is_a_quick_usage_error(capsys, q):
    # trial division of q stops at 2^16, the cap on p
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--q", str(q), "--unipotent", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


def unipotent_text(sp):
    """The --sp --unipotent spelling of a signed partition, e.g. '4-,2+,1,1'."""
    signs = dict(sp.signs)
    return ",".join(str(p) + ("" if p % 2 else "+-"[signs[p] < 0]) for p in sp.base.parts)


# SHA-256 of the stdout of `classify --q Q --unipotent MU --format F` over every
# partition MU of 1..6 in partitions_of order; the verdicts depend on q only
# through its parity
CLASSIFY_SHA256 = {
    ("json", 0): "09c4612c694bd76606c26ecd9a39ee10d9996cf0de8e010e9dc81176cafbeba5",
    ("plain", 0): "a56ac65c2f9f0a5601a9701f73be3f7963602b056561a6536188127b8b851ec7",
    ("json", 1): "3255fddbcd7df289aa57bdae661fcbee0be409f4df43a0da6182f0d0c16f95c9",
    ("plain", 1): "74490a051467fa28c60333041759531b804efb7ce6c491e44ebe2846bbcad264",
}

# the same with --sp over every signed partition of weight 1..8 in
# enumerate_signed_partitions order, for any odd q
CLASSIFY_SP_SHA256 = {
    "json": "171a105297e3d3fdebd84034f0740c7339d4064c6d90225121e873f79db4825a",
    "plain": "e9b82a62cf7c705d97e0578a4264b387d000a8206e2eb9ecf259312f6c8ba68a",
}


def classify_stdout(capsys, *argv):
    code, out, err = run(capsys, "classify", *argv)
    assert (code, err) == (0, ""), argv
    return out


@pytest.mark.parametrize("fmt", ["json", "plain"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_classify_unipotent_output_is_pinned(capsys, fmt, q):
    text = "".join(
        classify_stdout(capsys, "--q", str(q), "--unipotent", ",".join(map(str, mu)), "--format", fmt)
        for n in range(1, 7)
        for mu in partitions_of(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SHA256[fmt, q % 2]


@pytest.mark.parametrize("fmt", ["json", "plain"])
@pytest.mark.parametrize("q", [3, 5, 9])
def test_classify_sp_unipotent_output_is_pinned(capsys, fmt, q):
    text = "".join(
        classify_stdout(capsys, "--q", str(q), "--sp", "--unipotent", unipotent_text(sp), "--format", fmt)
        for weight in range(1, 9)
        for sp in enumerate_signed_partitions(weight)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SP_SHA256[fmt]


# t - [[0, 1]] and t - [[0, 2]] are a tilde pair of degree-1 U-irreducibles over F_3
SP_PAIR = [{"partition": [1], "poly": [[0, 1]]}, {"partition": [1], "poly": [[0, 2]]}]
SP_PAIR_DATUM = {
    "blocks": SP_PAIR,
    "n2": 14,
    "q": {"e": 1, "p": 3},
    "t_minus_1": {"partition": [2, 1, 1], "signs": {"2": "-"}},
    "t_plus_1": {"partition": [4, 4], "signs": {"4": "+"}},
}


@pytest.mark.parametrize(
    "content,code,json_out,plain_out,err",
    [
        (
            SP_PAIR_DATUM, 0,
            {"rule": "SpCor", "status": "NotStronglyReal",
             "witness": {"even_part": 2, "multiplicity": 1, "poly": "t-1"}},
            "NotStronglyReal (rule SpCor)\n", "",
        ),
        ({"blocks": SP_PAIR, "q": {"e": 1, "p": 3}}, 0,
         {"rule": None, "status": "Unknown", "witness": None}, "Unknown\n", ""),
        ({"blocks": SP_PAIR[:1], "q": {"e": 1, "p": 3}}, 1, None, "",
         "error: blocks must satisfy mu(f) = mu(tilde f)\n"),
        ({"blocks": [SP_PAIR[0], {"partition": [2], "poly": [[0, 2]]}], "q": {"e": 1, "p": 3}}, 1,
         None, "", "error: blocks must satisfy mu(f) = mu(tilde f)\n"),
    ],
    ids=["pair-and-signed", "pair-only", "unpaired", "unequal-partitions"],
)
def test_classify_sp_datum_with_blocks_off_plus_minus_one(
    tmp_path, capsys, content, code, json_out, plain_out, err
):
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(content))
    got = run(capsys, "classify", "--q", "3", "--sp", "--datum", str(path))
    assert (got[0], got[2]) == (code, err)
    assert (json.loads(got[1]) if got[1] else None) == json_out
    assert run(capsys, "classify", "--q", "3", "--sp", "--datum", str(path), "--format", "plain") == (
        code, plain_out, err
    )


def test_sp_datum_with_blocks_round_trips():
    assert sp_datum_from_json(SP_PAIR_DATUM).to_json() == SP_PAIR_DATUM


def test_sp_datum_file_with_a_wrong_n2_is_a_degree_mismatch(tmp_path, capsys):
    # n2 is checked as the unitary reader checks n, instead of being ignored
    path = tmp_path / "sp.json"
    content = {"q": {"p": 3, "e": 1}, "t_minus_1": {"partition": [1, 1]}, "n2": 7}
    path.write_text(json.dumps(content))
    argv = ("classify", "--q", "3", "--sp", "--datum", str(path))
    assert run(capsys, *argv) == (1, "", "error: degree mismatch: datum has n2=2, expected 7\n")
    path.write_text(json.dumps(dict(content, n2=2)))
    code, out, _ = run(capsys, *argv, "--format", "plain")
    assert (code, out) == (0, "Unknown\n")


def test_unitary_datum_file_with_signed_components_is_refused(tmp_path, capsys):
    # a file with t_minus_1 or t_plus_1 is symplectic: without --sp it is a
    # usage error, not the U(2) class of its blocks with the rest dropped
    path = tmp_path / "sp.json"
    message = (
        "usage error: malformed datum file: t_minus_1/t_plus_1 belong to a symplectic "
        "datum (classify --sp)\n"
    )
    for key in ("t_minus_1", "t_plus_1"):
        content = {"q": {"p": 3, "e": 1}, "blocks": SP_PAIR, key: {"partition": [1]}}
        path.write_text(json.dumps(content))
        for verb in ("classify", "realize"):
            assert run(capsys, verb, "--q", "3", "--datum", str(path)) == (1, "", message)
    path.write_text(json.dumps({"q": {"p": 3, "e": 1}, "blocks": SP_PAIR}))
    code, out, _ = run(capsys, "classify", "--q", "3", "--datum", str(path), "--format", "plain")
    assert (code, out) == (0, "StronglyReal (rule MainThm)\n")


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


# SHA-256 of the stdout of each job below, one of each verb but classify,
# whose stdout CLASSIFY_SHA256 and CLASSIFY_SP_SHA256 pin
STDOUT_SHA256 = {
    "count --q 3 --n-max 4": "6311963928cbcb92448bdfc47d6139d5cc3b5504941e9a52518e878535b6f405",
    "list --q 4 --n 3": "21d59060083e85b61efdf072cea5b48049833d77efcd806a8b7ecf41ea23dfd6",
    "series --q 3 --order 60 --which T": "f45c72d3c2cf0400537d4338ea2d66d52841d229570b851e137ec038cb4e4aa8",
    "verify --q 3 --n 2": "8c5eeff3506b3af4db6549e8a5a5da2226781137c443551adee4b049c730a3bc",
    "realize 3 (2,1)": "1d859a454acc964229dc70d16b5f1a09d49a39c02e4024785afd7e00ba451d87",
    "realize 2 (3)": "eaa0ac727da6dbbdb21f9cea37554e7ebb52f11126cb4857ce02485aba6ec005",
    "realize 3 (1)+(2)": "aa45aa0f1cbca84bb0400c5ce05b0d0463751dcaee1a2f08aced77ee511740b1",
}

# the realize jobs' data: unipotent (2,1) at q = 3, unipotent (3) at q = 2, and
# (1) at t - 1 plus (2) at a degree-1 U-irreducible other than t +- 1, q = 3
REALIZE_DATA = {
    "realize 3 (2,1)": {"q": {"p": 3, "e": 1}, "blocks": [{"poly": [[2, 0]], "partition": [2, 1]}]},
    "realize 2 (3)": {"q": {"p": 2, "e": 1}, "blocks": [{"poly": [[1, 0]], "partition": [3]}]},
    "realize 3 (1)+(2)": {
        "q": {"p": 3, "e": 1},
        "blocks": [{"poly": [[2, 0]], "partition": [1]}, {"poly": [[0, 1]], "partition": [2]}],
    },
}


def test_cli_stdout_is_pinned(capsys, tmp_path):
    def stdout(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        return out

    outs = {}
    for job in ("count --q 3 --n-max 4", "list --q 4 --n 3", "series --q 3 --order 60 --which T",
                "verify --q 3 --n 2"):
        outs[job] = stdout(*job.split())
    for job, datum in REALIZE_DATA.items():
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        outs[job] = stdout("realize", "--q", job.split()[1], "--datum", str(path))
    digests = {job: hashlib.sha256(out.encode()).hexdigest() for job, out in outs.items()}
    assert digests == STDOUT_SHA256


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


IMPORT_GRAPH = """
import contextlib, io, json, sys
from strongreal.cli import main

loaded = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv.split())
    layers = [m for m in ("strongreal.counting", "strongreal.oracle", "strongreal.linalg") if m in sys.modules]
    loaded.append([argv, code, layers])
loaded.append(sorted({"dataclasses", "inspect"} & set(sys.modules)))
print(json.dumps(loaded))
"""


def test_only_verify_imports_the_oracle():
    # the verbs without matrices load neither oracle nor linalg, and classify
    # loads no counting either, in one process; no verb loads dataclasses or
    # inspect, whose import every process would pay for
    verbs = [
        "classify --q 3 --unipotent 2,2",
        "count --q 3 --n-max 2",
        "list --q 3 --n 2",
        "series --q 3 --order 5 --which T",
        "verify --q 2 --n 1",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, *verbs],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded[0] == [verbs[0], 0, []]
    assert loaded[1:4] == [[argv, 0, ["strongreal.counting"]] for argv in verbs[1:4]]
    assert loaded[4] == [
        verbs[4], 0, ["strongreal.counting", "strongreal.oracle", "strongreal.linalg"]
    ]
    assert loaded[5] == []


def test_submodule_resolves_after_a_bare_import():
    script = (
        "import sys, strongreal; "
        "assert 'strongreal.oracle' not in sys.modules; "
        "assert strongreal.oracle is sys.modules['strongreal.oracle']; "
        "assert strongreal.reconcile is strongreal.oracle.reconcile"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr


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


def test_realize_empty_datum(tmp_path, capsys):
    # the datum list prints for n = 0 realizes as the 0 x 0 matrix
    code, out, _ = run(capsys, "list", "--q", "3", "--n", "0")
    assert code == 0
    path = tmp_path / "empty.json"
    path.write_text(out)
    for budget in ([], ["--budget", "1"]):
        code, out, err = run(capsys, "realize", "--q", "3", *budget, "--datum", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"form": {"gram": [], "q": {"e": 1, "p": 3}}, "matrix": []}


def test_realize_falls_back_to_a_block_sum(tmp_path, capsys):
    # the scalar class at t - 1 in U(4, F_3): the whole-datum form scan
    # needs 20,412 candidates, each 1 x 1 block needs one
    from strongreal.classdata import datum_from_json
    from strongreal.linalg import identity, is_unitary
    from strongreal.oracle import extract_class_datum

    q = prime_power(3)
    text = json.dumps({"blocks": [{"partition": [1, 1, 1, 1], "poly": [[2, 0]]}], "q": {"e": 1, "p": 3}})
    path = tmp_path / "scalar.json"
    path.write_text(text)
    code, out, _ = run(capsys, "realize", "--q", "3", "--budget", "20000", "--datum", str(path))
    assert code == 0
    ctx = make_context(q, 2)
    g = tuple(tuple(ctx.from_coords(a) for a in row) for row in json.loads(out)["matrix"])
    assert is_unitary(table_for(q), g, identity(4))
    assert extract_class_datum(g, q) == datum_from_json(json.loads(text))


def test_realize_out_of_form_budget_exits_three(tmp_path, capsys):
    # one form candidate is too few for (3) at t + 1 over F_2, as a whole
    # datum and as its one block: running out is budget exhaustion
    path = tmp_path / "jordan3.json"
    path.write_text(json.dumps({"blocks": [{"partition": [3], "poly": [[1, 0]]}], "q": {"e": 1, "p": 2}}))
    code, out, err = run(capsys, "realize", "--q", "2", "--budget", "1", "--datum", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("budget exhausted: no nondegenerate invariant form within 1 candidates")


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
    import strongreal.oracle as oracle

    true_reconcile = oracle.reconcile

    def tampered(n, q, budgets=None):
        r = true_reconcile(n, q, budgets)
        records = list(r.records)
        for i, rec in enumerate(records):
            if rec.verdict.decided and rec.oracle_strongly_real is not None:
                records[i] = oracle.ClassRecord(
                    rec.datum, rec.oracle_real, not rec.oracle_strongly_real, rec.verdict
                )
                break
        return oracle.OracleReport(
            r.n, r.q, r.strategy, r.group_order, tuple(records), r.budgets
        )

    monkeypatch.setattr(oracle, "reconcile", tampered)
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


@pytest.mark.parametrize("verb", ["realize", "verify"])
def test_budget_help_says_it_sets_every_budget(capsys, verb):
    # Budgets.uniform(N) sets every budget to N, so N can raise a budget
    # above its default as well as lower it
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--budget N set every search budget to N (>= 1)" in help_text


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
