"""Brute-force oracle: groups, realization, searches, reconciliation."""

import hashlib
import json
import random

import pytest

from strongreal import oracle
from strongreal.classdata import centralizer_order, commutant_dim, partition, unipotent_datum
from strongreal.classify import NOT_STRONGLY_REAL, STRONGLY_REAL
from strongreal.counting import enumerate_class_data, series_K
from strongreal.errors import (
    BudgetExceededError,
    CountMismatchError,
    GroupClosureError,
    RealizationError,
)
from strongreal.fields import PrimePower, prime_power, table_for
from strongreal.linalg import identity, is_unitary, mat_inv, mat_mul
from strongreal.oracle import (
    Budgets,
    _conjugation_orbits,
    _representative_records,
    _representative_verdicts,
    _sign_inverse_images,
    _unitary_members,
    anti_diagonal,
    enumerate_group,
    extract_class_datum,
    identity_form,
    is_real_oracle,
    is_strongly_real_oracle,
    three_one_involution,
    explicit_representative,
    realize_class,
    reconcile,
    reversing_space,
    standard_forms,
    strong_reality_witnesses,
    unitary_order,
)

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def test_unitary_order_formula():
    assert unitary_order(1, 3) == 4
    assert unitary_order(2, 2) == 18
    assert unitary_order(2, 3) == 96
    assert unitary_order(2, 5) == 720
    assert unitary_order(3, 3) == 24192
    assert unitary_order(3, 2) == 648
    assert unitary_order(4, 2) == 77760


def test_standard_forms():
    f1 = standard_forms(1, PP3)
    assert [f.gram for f in f1] == [identity(1)]
    f4 = standard_forms(4, PP2)
    grams = {f.gram for f in f4}
    from strongreal.oracle import _block_diag

    assert _block_diag(anti_diagonal(3), identity(1)) in grams
    assert anti_diagonal(4) in grams
    f5 = standard_forms(5, PP2)
    assert _block_diag(anti_diagonal(3), anti_diagonal(2)) in {f.gram for f in f5}
    for form in f4 + f5:
        assert form.n in (4, 5)


def test_enumerate_group_orders_and_unitarity():
    for n, pp, order in ((1, PP3, 4), (2, PP2, 18), (2, PP3, 96)):
        grp = enumerate_group(n, pp)
        assert grp.order == order
        F = table_for(pp)
        J = identity(n)
        for g in grp.elements:
            assert is_unitary(F, g, J)


def test_closure_repair_for_q2():
    # U(2, F_2) is monomial (every nonzero norm is 1), so a closure of
    # embedded 2x2 blocks would stop at the monomial subgroup of U(3, F_2);
    # the generators from the unitary search must reach the whole group
    assert enumerate_group(3, PP2).order == 648


# SHA-256 of the sorted-key JSON, without timing, that reconcile gave at the
# default budgets while the group was still re-sorted into matrix order
RECONCILE_SHA256 = {
    (3, 3): "01f1f78642cd930c68c0eb33d3ae1d4c72641d867ee78cab88dcf6a2b2ead13d",
    (2, 7): "86a6fd74c3abdb1062499e5aecb307c66bfeaaa7e6053b4da1a0373aece218ef",
}


@pytest.mark.parametrize("n,q", sorted(RECONCILE_SHA256))
def test_reconcile_decodes_only_representatives(monkeypatch, n, q):
    def refuse(group):
        raise AssertionError("reconcile decoded every element of the group")

    monkeypatch.setattr(oracle.GroupEnumeration, "elements", property(refuse))
    report = reconcile(n, q)
    assert report.strategy == "closure"
    payload = json.dumps(report.to_json(include_timing=False), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == RECONCILE_SHA256[(n, q)]


# the labels perfbench/expected.json pins for the verify_group jobs, plus
# the full-group U(4, F_2)
@pytest.mark.parametrize(
    "n,q,strategy",
    [
        (2, 4, "entrywise"),
        (2, 5, "entrywise"),
        (3, 2, "entrywise"),
        (2, 7, "closure"),
        (3, 3, "closure"),
        (4, 2, "closure"),
    ],
)
def test_auto_strategy(n, q, strategy):
    grp = enumerate_group(n, q)
    assert (grp.strategy, grp.order) == (strategy, unitary_order(n, q))


# the search walks each column's coefficients nonzero first, so the closure
# adopts dense members, a few of which generate U(n, F_q)
@pytest.mark.parametrize(
    "n,q,most",
    [(3, 3, 2), (3, 2, 2), (2, 4, 3), (2, 5, 4), (2, 7, 5), (4, 2, 4), (3, 4, 2)],
)
def test_dense_first_generator_counts(n, q, most):
    grp = enumerate_group(n, q)
    assert grp.order == unitary_order(n, q)
    assert len(grp.generators) <= most


@pytest.mark.parametrize("q", [3, 7], ids=["entrywise", "closure"])
def test_wrong_order_formula_is_a_closure_error(q, monkeypatch):
    true_order = unitary_order(2, q)
    monkeypatch.setattr(oracle, "unitary_order", lambda n, q: true_order + 1)
    with pytest.raises(GroupClosureError):
        enumerate_group(2, q)


def test_search_short_of_the_formula_is_a_closure_error(monkeypatch):
    # the drained search must find every member: the closure of the members
    # it did find can still reach the whole group
    search = oracle._entrywise_members
    monkeypatch.setattr(oracle, "_entrywise_members", lambda *args: list(search(*args))[:-1])
    with pytest.raises(GroupClosureError, match="found 95 members, expected 96"):
        enumerate_group(2, PP3)


@pytest.mark.parametrize("q", [3, 7], ids=["entrywise", "closure"])
def test_non_unitary_generator_is_a_closure_error(q, monkeypatch):
    # a search that yields U(2, F_q) conjugated by a non-unitary p finds a
    # group of the right order, so only the unitarity check can catch it
    F = table_for(prime_power(q))
    p = ((1, 1), (0, 1))
    pinv = mat_inv(F, p)
    search = oracle._entrywise_members
    monkeypatch.setattr(
        oracle,
        "_entrywise_members",
        lambda *args: (mat_mul(F, mat_mul(F, p, g), pinv) for g in search(*args)),
    )
    with pytest.raises(GroupClosureError, match="unitarity check"):
        enumerate_group(2, q)


def test_closure_u33_order():
    grp = enumerate_group(3, PP3)
    assert grp.order == 24192
    F = table_for(PP3)
    rng = random.Random(0)
    for g in rng.sample(grp.elements, 50):
        assert is_unitary(F, g, identity(3))


def test_group_closed_under_product_and_inverse_sample():
    grp = enumerate_group(2, PP3)
    F = table_for(PP3)
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.choice(grp.elements), rng.choice(grp.elements)
        assert mat_mul(F, a, b) in grp
        assert mat_inv(F, a) in grp


def test_group_transport_to_other_form():
    form = standard_forms(2, PP3)[1]  # the antidiagonal N_2
    grp = enumerate_group(2, PP3, form)
    assert grp.order == 96
    F = table_for(PP3)
    for g in grp.elements[:20]:
        assert is_unitary(F, g, form.gram)


def test_budget_rejects_large_groups():
    with pytest.raises(BudgetExceededError):
        enumerate_group(5, PP2)


def test_closure_degenerate_n1():
    grp = enumerate_group(1, PP3)
    assert grp.order == 4
    F = table_for(PP3)
    assert set(grp.elements) == {((a,),) for a in F.norm_one}


def test_extract_identity_and_minus_identity():
    d = extract_class_datum(identity(3), PP3)
    assert len(d.blocks) == 1
    f, mu = d.blocks[0]
    assert f.poly.coeffs == (table_for(PP3).neg[1],) and mu.parts == (1, 1, 1)
    F = table_for(PP3)
    neg_eye = tuple(tuple(F.neg[x] for x in row) for row in identity(2))
    d2 = extract_class_datum(neg_eye, PP3)
    assert d2.blocks[0][0].poly.coeffs == (1,) and d2.blocks[0][1].parts == (1, 1)


def test_extract_is_conjugation_invariant():
    # 200 random conjugations leave the datum unchanged
    grp = enumerate_group(2, PP3)
    F = table_for(PP3)
    rng = random.Random(2)
    for _ in range(200):
        g = rng.choice(grp.elements)
        h = rng.choice(grp.elements)
        conj = mat_mul(F, mat_mul(F, h, g), mat_inv(F, h))
        assert extract_class_datum(conj, PP3) == extract_class_datum(g, PP3)


@pytest.mark.parametrize("pp", [PP2, PP3])
def test_realize_roundtrip(pp):
    # every datum through n = 4 realizes and extracts back to itself
    for n in range(1, 5):
        F = table_for(pp)
        for d in enumerate_class_data(n, pp):
            g = realize_class(d)
            assert is_unitary(F, g, identity(n))
            assert extract_class_datum(g, pp) == d


def test_realize_on_standard_forms():
    d = unipotent_datum(PP3, [2])
    for form in standard_forms(2, PP3):
        g = realize_class(d, form)
        assert is_unitary(table_for(PP3), g, form.gram)
        assert extract_class_datum(g, PP3) == d


def test_realize_rejects_empty():
    from strongreal.classdata import ClassDatum

    with pytest.raises(RealizationError):
        realize_class(ClassDatum(PP3, ()))


def test_explicit_representative_types_and_forms():
    F3, F2 = table_for(PP3), table_for(PP2)
    g, form = explicit_representative("two_one", PP3, r=1, m=0)
    assert extract_class_datum(g, PP3).blocks[0][1].parts == (2,)
    assert is_unitary(F3, g, form.gram)
    g, form = explicit_representative("two_one", PP3, r=1, m=1)
    assert extract_class_datum(g, PP3).blocks[0][1].parts == (2, 1)
    g, form = explicit_representative("three_one", PP2)
    assert extract_class_datum(g, PP2).blocks[0][1].parts == (3, 1)
    assert is_unitary(F2, g, form.gram)
    g, form = explicit_representative("three_two", PP2)
    assert extract_class_datum(g, PP2).blocks[0][1].parts == (3, 2)
    g, form = explicit_representative("three_r", PP2, r=3)
    assert extract_class_datum(g, PP2).blocks[0][1].parts == (3, 3, 3)
    with pytest.raises(ValueError):
        explicit_representative("two_one", PP2)
    with pytest.raises(ValueError):
        explicit_representative("three_one", PP3)
    with pytest.raises(ValueError):
        explicit_representative("three_r", PP2, r=2)


def test_two_one_rejects_negative_m():
    # m is the size of the identity block next to the antidiagonal one
    with pytest.raises(ValueError, match="m >= 0"):
        explicit_representative("two_one", PP3, r=1, m=-1)


def test_reversing_space_dimension_formula():
    # single eigenvalue family: dimension equals the commutant dimension
    for pp in (PP2, PP3):
        F = table_for(pp)
        for mu in ([2], [2, 1], [3, 1], [1, 1]):
            d = unipotent_datum(pp, mu)
            g = realize_class(d)
            assert len(reversing_space(F, g)) == commutant_dim(partition(mu))


def test_reversing_space_members_reverse():
    F = table_for(PP3)
    g, _ = explicit_representative("two_one", PP3, r=1, m=1)
    ginv = mat_inv(F, g)
    for h in reversing_space(F, g):
        assert mat_mul(F, h, g) == mat_mul(F, ginv, h)


def test_two_one_not_strongly_real_by_scan():
    g, form = explicit_representative("two_one", PP3, r=1, m=0)
    assert is_strongly_real_oracle(g, form) is False
    assert is_real_oracle(g, form) is True  # unipotent classes are real


def test_three_one_strongly_real_and_witnesses():
    g, form = explicit_representative("three_one", PP2)
    assert is_strongly_real_oracle(g, form) is True
    witnesses = strong_reality_witnesses(g, form)
    assert witnesses
    F = table_for(PP2)
    ginv = mat_inv(F, g)
    for s in witnesses:
        assert mat_mul(F, s, s) == identity(4)
        assert mat_mul(F, mat_mul(F, s, g), s) == ginv
        assert is_unitary(F, s, form.gram)
    s = three_one_involution(PP2)
    assert s in witnesses


def test_group_strategy_strong_reality():
    grp = enumerate_group(2, PP3)
    form = identity_form(2, PP3)
    d = unipotent_datum(PP3, [2])
    g = realize_class(d, form)
    assert g in grp
    assert is_strongly_real_oracle(g, form, group=grp) is False
    assert is_strongly_real_oracle(identity(2), form, group=grp) is True


def test_group_and_scan_searches_agree_u23():
    # every class of U(2, F_3): filtering the materialized group and scanning
    # the reversing space must give the same verdicts and the same witnesses
    grp = enumerate_group(2, PP3)
    form = identity_form(2, PP3)
    data = enumerate_class_data(2, PP3)
    assert len(data) == 16
    for d in data:
        g = realize_class(d, form)
        assert is_real_oracle(g, form, group=grp) == is_real_oracle(g, form)
        assert is_strongly_real_oracle(g, form, group=grp) == is_strongly_real_oracle(
            g, form
        )
        by_group = strong_reality_witnesses(g, form, group=grp)
        assert sorted(by_group) == sorted(strong_reality_witnesses(g, form))


def test_budget_error_is_not_a_verdict():
    g, form = explicit_representative("two_one", PP3, r=1, m=1)
    with pytest.raises(BudgetExceededError):
        is_strongly_real_oracle(g, form, budgets=Budgets(reversing_scan=10))


def test_strong_reality_implies_reality_in_reports():
    for n, q in ((1, 3), (2, 3), (2, 2), (3, 2)):
        report = reconcile(n, q)
        for rec in report.records:
            if rec.oracle_strongly_real:
                assert rec.oracle_real


@pytest.mark.parametrize("n,q,classes", [(1, 3, 4), (2, 3, 16), (2, 2, 9), (1, 5, 6)])
def test_reconcile_small_groups(n, q, classes):
    report = reconcile(n, q)
    assert len(report.records) == classes
    assert not report.disagreements
    assert not report.undecided
    assert len(report.records) == series_K(PrimePower(*_factor(q)), n).coefficient(n)


def _factor(q):
    p = 2
    while q % p:
        p += 1
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


def test_reconcile_u32_regular_unipotent():
    report = reconcile(3, 2)
    assert not report.disagreements
    reg = [
        r
        for r in report.records
        if len(r.datum.blocks) == 1
        and r.datum.blocks[0][0].poly.coeffs == (1,)
        and r.datum.blocks[0][1].parts == (3,)
    ]
    assert len(reg) == 1
    assert reg[0].oracle_strongly_real is False
    assert reg[0].verdict.status == NOT_STRONGLY_REAL


def test_spot_checks_beyond_group_scale():
    # classes whose groups are too big to materialize, decided by the
    # reversing-space scan on a realized representative
    cases = [
        (PP2, [5], False),     # regular unipotent, odd dimension, even q
        (PP2, [4, 1], True),   # part 1 present, no odd part >= 5
        (PP3, [4], False),     # even part of odd multiplicity, odd q
        (PP3, [3, 1], True),   # no even parts at all
    ]
    from strongreal.classdata import unipotent_datum
    from strongreal.classify import unipotent_strongly_real

    for pp, mu, expected in cases:
        n = sum(mu)
        form = identity_form(n, pp)
        g = realize_class(unipotent_datum(pp, mu), form)
        assert is_strongly_real_oracle(g, form) is expected
        verdict = unipotent_strongly_real(pp, mu)
        assert (verdict.status == STRONGLY_REAL) is expected
        assert verdict.status != "Unknown"


def test_reconcile_representative_path_u35():
    # group materialization is blocked, forcing realize + reversing scans;
    # classes whose scans fit the capped budget must all agree, the rest
    # are recorded as undecided rather than guessed
    budgets = Budgets(
        entry_scan=10, group_order=10, reversing_scan=20000, realize_scan=200000
    )
    report = reconcile(3, 5, budgets)
    assert report.strategy == "representatives"
    assert len(report.records) == 192
    assert not report.disagreements
    decided = [r for r in report.records if not r.undecided]
    assert len(decided) > 150
    assert report.undecided  # the big commutants are honestly out of budget


def test_reconcile_default_budgets_decide_u35():
    # at the default budgets the column search decides every class of
    # U(3, F_5), whose group is too big to materialize
    report = reconcile(3, 5)
    assert report.strategy == "representatives"
    assert len(report.records) == 192
    assert not report.disagreements
    assert not report.undecided


def test_reality_disagreement_is_reported_not_raised(monkeypatch):
    # the walk's own reality verdict is independent of the classifier: a
    # wrong classifier answer must surface as disagreements in the report
    from strongreal.classdata import is_real

    monkeypatch.setattr(oracle, "datum_is_real", lambda d: not is_real(d))
    report = reconcile(2, 3, Budgets(entry_scan=10, group_order=10))
    assert report.strategy == "representatives"
    assert not report.undecided
    assert len(report.disagreements) == len(report.records) == 16
    assert not any(r.real_agree for r in report.records)


def test_search_nodes_are_candidates_tested():
    # U(1, F_3) as the unitary members of M_1: q^2 = 9 candidates, 4 members
    F = table_for(PP3)
    basis = [((1,),)]
    assert len(list(_unitary_members(F, basis, identity(1), 9))) == 4
    with pytest.raises(BudgetExceededError):
        list(_unitary_members(F, basis, identity(1), 8))


def test_centralizer_orders_match_orbit_sizes_u33():
    grp = enumerate_group(3, PP3)
    sizes: dict = {}
    for i, oid in enumerate(_conjugation_orbits(grp)):
        sizes.setdefault(oid, [i, 0])[1] += 1
    assert len(sizes) == 56
    for i, size in sizes.values():
        datum = extract_class_datum(grp.elements[i], PP3)
        assert size * centralizer_order(datum) == grp.order


def test_exhausted_walk_checks_the_centralizer_order(monkeypatch):
    # a walk that finds no involution sees every unitary reverser, and their
    # number must be |C(g)|: a wrong order is a mismatch, not a verdict
    form = identity_form(3, PP3)
    datum = unipotent_datum(PP3, [2, 1])
    g = realize_class(datum, form)
    assert _representative_verdicts(g, datum, form, Budgets()) == (True, False)
    monkeypatch.setattr(oracle, "centralizer_order", lambda d: centralizer_order(d) + 1)
    with pytest.raises(CountMismatchError):
        _representative_verdicts(g, datum, form, Budgets())


def reference_representative_records(data, form, budgets):
    """The representatives path before orbit sharing: realize and walk every
    class on its own.  The reference for _representative_records."""
    out = []
    for datum in data:
        try:
            g = realize_class(datum, form, budgets)
        except RealizationError:
            out.append((datum, None, None))
            continue
        out.append((datum, *_representative_verdicts(g, datum, form, budgets)))
    return out


SHARING_CASES = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (2, 3), (4, 2), (2, 4)]


@pytest.mark.parametrize("budgets", [Budgets(), Budgets.uniform(20000)], ids=["default", "20000"])
@pytest.mark.parametrize("q,n", SHARING_CASES)
def test_shared_records_match_reference(q, n, budgets):
    # one walk per orbit of g -> +-g^(+-1) gives the record of every class,
    # undecided ones included, exactly as walking each class on its own
    pp = prime_power(q)
    form = identity_form(n, pp)
    data = enumerate_class_data(n, pp, max_n=n, max_q=q)
    assert _representative_records(data, form, budgets) == reference_representative_records(
        data, form, budgets
    )


@pytest.mark.parametrize("q,n", SHARING_CASES)
def test_images_have_the_same_reversing_space(q, n):
    # the walk on an image would be the walk on g: the same basis, in order
    pp = prime_power(q)
    F = table_for(pp)
    for datum in enumerate_class_data(n, pp, max_n=n, max_q=q):
        g = realize_class(datum)
        images = _sign_inverse_images(F, g)
        assert len(images) == (1 if pp.p == 2 else 3)
        space = reversing_space(F, g)
        for h in images:
            assert reversing_space(F, h) == space


# budgets too small to materialize any group, so reconcile takes the
# representatives path
NO_GROUP = Budgets(entry_scan=10, group_order=10)


def test_image_with_another_centralizer_order_raises(monkeypatch):
    # I and -I are one orbit; a centralizer order that tells them apart
    # contradicts Wall's formula and must not be shared
    minus_one = extract_class_datum(((2, 0), (0, 2)), PP3)  # 2 = -1 in GF(9)
    assert reconcile(2, 3, NO_GROUP).strategy == "representatives"
    monkeypatch.setattr(
        oracle, "centralizer_order", lambda d: centralizer_order(d) + (d == minus_one)
    )
    with pytest.raises(CountMismatchError, match=r"has \|C\|"):
        reconcile(2, 3, NO_GROUP)


def test_image_outside_the_enumeration_raises(monkeypatch):
    # an image that enumeration never yields is not a class of U(n, F_q)
    minus_one = extract_class_datum(((2, 0), (0, 2)), PP3)
    enumerated = oracle.enumerate_class_data
    monkeypatch.setattr(
        oracle,
        "enumerate_class_data",
        lambda n, pp, **kw: [d for d in enumerated(n, pp, **kw) if d != minus_one],
    )
    with pytest.raises(CountMismatchError, match="not among the class data"):
        reconcile(2, 3, NO_GROUP)


def test_representatives_path_enumerates_past_q5():
    # the class enumeration is bounded to the group's own (n, q), as on the
    # group path, not to the default q <= 5
    report = reconcile(2, 7, NO_GROUP)
    assert report.strategy == "representatives"
    assert len(report.records) == 64


def test_one_realization_per_orbit_u35(monkeypatch):
    # 192 classes of U(3, F_5), realized once per orbit of g -> +-g^(+-1)
    calls = []
    realize = oracle.realize_class

    def counted(*args):
        calls.append(args[0])
        return realize(*args)

    monkeypatch.setattr(oracle, "realize_class", counted)
    report = reconcile(3, 5, Budgets.uniform(20000))
    assert report.strategy == "representatives"
    assert len(report.records) == 192
    assert len(calls) <= 52


def test_witnesses_give_involution_factorizations():
    # s g is itself an involution whenever s reverses g and s^2 = 1,
    # exhibiting g as a product of two involutions
    g, form = explicit_representative("three_one", PP2)
    F = table_for(PP2)
    for s in strong_reality_witnesses(g, form):
        sg = mat_mul(F, s, g)
        assert mat_mul(F, sg, sg) == identity(4)
        assert mat_mul(F, s, sg) == g


@pytest.mark.stretch
def test_reconcile_u42_full_group():
    # every partition of 4 is decided by the even-q rules, so this is a
    # complete brute-force audit of the three-valued classifier at n = 4
    report = reconcile(4, 2)
    assert len(report.records) == 60
    assert not report.disagreements
    assert not report.undecided
    assert all(r.verdict.status != "Unknown" for r in report.records)


def test_reconcile_u13_real_and_strong_counts():
    report = reconcile(1, 3)
    real = [r for r in report.records if r.oracle_real]
    strong = [r for r in report.records if r.oracle_strongly_real]
    assert len(real) == 2 and len(strong) == 2  # only +-1


def test_report_json_shapes():
    report = reconcile(1, 3)
    out = report.to_json()
    assert out["class_count"] == 4
    assert "elapsed_ms" in out
    out2 = report.to_json(include_timing=False)
    assert "elapsed_ms" not in out2
    assert out["records"][0]["verdict"]["status"] in (
        STRONGLY_REAL,
        NOT_STRONGLY_REAL,
        "Unknown",
    )
