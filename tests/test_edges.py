"""Cross-cutting edge cases: non-prime q, isotropic forms, rare block shapes."""

import json

import pytest

from strongreal.classdata import (
    class_datum,
    partition,
    star_decompose,
    symplectic_datum,
    signed_partition,
)
from strongreal.classify import strongly_real
from strongreal.cli import main
from strongreal.counting import enumerate_class_data, series_K
from strongreal.fields import PrimePower, make_context, prime_power, table_for
from strongreal.linalg import identity, is_unitary
from strongreal.oracle import (
    anti_diagonal,
    enumerate_group,
    congruence_to_identity,
    conj_transpose,
    mat_mul,
    reconcile,
    HermitianForm,
)
from strongreal.upoly import enumerate_u_irreducibles, tilde

from field_helpers import norm_one

PP4 = PrimePower(2, 2)
PP5 = PrimePower(5)


def test_prime_power_q4_fields():
    assert prime_power(4) == PP4
    ctx = make_context(PP4, 2)  # GF(16) as the square of GF(4)
    assert ctx.deg == 4
    F = table_for(PP4)
    assert F.size == 16
    assert len(norm_one(F)) == 5  # q + 1
    assert len(F.base_elems) == 4
    for a in range(16):
        assert F.conj[F.conj[a]] == a


def test_u1_q4_group_and_counts():
    grp = enumerate_group(1, PP4)
    assert grp.order == 5
    assert series_K(PP4, 1).coefficient(1) == 5
    assert len(enumerate_class_data(1, PP4)) == 5
    report = reconcile(1, PP4)
    assert not report.disagreements and not report.undecided


def test_u2_q4_reconcile():
    report = reconcile(2, PP4)
    assert len(report.records) == series_K(PP4, 2).coefficient(2)
    assert not report.disagreements and not report.undecided


def test_self_conjugate_even_degree_block_q5():
    # q = 5 has a tilde-fixed U-irreducible of degree 2 (roots {a, 1/a},
    # a in GF(5), a != +-1); a class supported there alone is real
    fixed = [
        u
        for u in enumerate_u_irreducibles(PP5, 2)
        if u.degree == 2 and tilde(u) == u
    ]
    assert len(fixed) == 1
    f = fixed[0]
    d = class_datum(PP5, {f: partition([1])})
    assert strongly_real(d).status == "StronglyReal"
    pieces = star_decompose(d)
    assert pieces == [d]


def test_congruence_to_identity_char2_isotropic_form():
    # the antidiagonal form over GF(4) has isotropic standard vectors,
    # exercising the basis-repair branch
    F = table_for(PrimePower(2))
    for n in (2, 3, 4):
        J = anti_diagonal(n)
        r = congruence_to_identity(F, J)
        assert mat_mul(F, mat_mul(F, conj_transpose(F, r), J), r) == identity(n)


def test_group_transport_char2():
    form = HermitianForm(PrimePower(2), anti_diagonal(2))
    grp = enumerate_group(2, PrimePower(2), form)
    assert grp.order == 18
    F = table_for(PrimePower(2))
    for g in grp.elements:
        assert is_unitary(F, g, form.gram)


def test_cli_sp_datum_file(tmp_path, capsys):
    datum = symplectic_datum(
        PrimePower(3),
        {},
        signed_plus=signed_partition([2, 1, 1], {2: -1}),
        signed_minus=signed_partition([4, 4], {4: 1}),
    )
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(datum.to_json()))
    code = main(["classify", "--q", "3", "--sp", "--datum", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "NotStronglyReal"
    assert payload["witness"]["even_part"] == 2


def test_hermitian_form_validation():
    with pytest.raises(ValueError):
        HermitianForm(PrimePower(3), ((0, 0), (0, 0)))  # singular
    with pytest.raises(ValueError):
        HermitianForm(PrimePower(3), ((0, 3), (1, 0)))  # not Hermitian
