"""Classification verdicts: complete for odd q, three-valued for even q."""

import pytest

from strongreal.classdata import (
    class_datum,
    negate,
    partition,
    partitions_of,
    signed_partition,
    symplectic_datum,
    t_minus_one,
    t_plus_one,
    unipotent_datum,
)
from strongreal.classify import (
    NOT_STRONGLY_REAL,
    RULE_MAIN,
    RULE_NS2_1,
    RULE_NS2_2,
    RULE_REAL2,
    RULE_REALITY,
    RULE_SPCOR,
    STRONGLY_REAL,
    UNKNOWN,
    Verdict,
    orthogonal_embeddable,
    reduce_sharp,
    sp_strongly_real,
    strongly_real,
    symplectic_embeddable_even_q,
    unipotent_strongly_real,
)
from strongreal.counting import enumerate_class_data
from strongreal.upoly import enumerate_u_irreducibles, tilde
from strongreal.classdata import u_sequence
from strongreal.fields import PrimePower

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict("Maybe")
    with pytest.raises(ValueError):
        Verdict(STRONGLY_REAL)  # missing rule
    assert Verdict(UNKNOWN).decided is False


def test_orthogonal_embeddable_examples():
    assert orthogonal_embeddable(unipotent_datum(PP3, [2, 2]))
    assert not orthogonal_embeddable(unipotent_datum(PP3, [2]))
    assert orthogonal_embeddable(unipotent_datum(PP3, [3, 1]))
    with pytest.raises(ValueError):
        orthogonal_embeddable(unipotent_datum(PP2, [2, 2]))


def test_reality_is_necessary():
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    v = strongly_real(class_datum(PP3, {f: partition([1])}))
    assert v.status == NOT_STRONGLY_REAL and v.rule == RULE_REALITY


def test_odd_q_two_one_family_not_strongly_real():
    for m2, m1 in ((1, 0), (1, 2), (3, 0), (3, 4), (5, 1)):
        v = unipotent_strongly_real(PP3, [2] * m2 + [1] * m1)
        assert v.status == NOT_STRONGLY_REAL and v.rule == RULE_MAIN


def test_odd_q_witness_hint():
    v = unipotent_strongly_real(PP3, [2, 1, 1])
    assert v.witness_hint == {"poly": "t-1", "even_part": 2, "multiplicity": 1}
    v2 = strongly_real(
        class_datum(
            PP3,
            {t_minus_one(PP3): partition([4, 4]), t_plus_one(PP3): partition([2])},
        )
    )
    assert v2.status == NOT_STRONGLY_REAL
    assert v2.witness_hint == {"poly": "t+1", "even_part": 2, "multiplicity": 1}


def test_even_q_examples():
    assert unipotent_strongly_real(PP2, [3, 1]) == Verdict(
        STRONGLY_REAL, RULE_REAL2, {"branch": 2}
    )
    v32 = unipotent_strongly_real(PP2, [3, 2])
    assert v32.status == NOT_STRONGLY_REAL and v32.rule == RULE_NS2_2
    v333 = unipotent_strongly_real(PP2, [3, 3, 3])
    assert v333.status == NOT_STRONGLY_REAL and v333.rule == RULE_NS2_1
    assert unipotent_strongly_real(PP2, [5, 3]).status == UNKNOWN
    assert unipotent_strongly_real(PP2, [3]).rule == RULE_NS2_1
    assert unipotent_strongly_real(PP2, [2, 2]).status == STRONGLY_REAL
    assert unipotent_strongly_real(PP2, [1]).status == STRONGLY_REAL


def test_even_q_real_class_without_unipotent_block():
    f = next(u for u in enumerate_u_irreducibles(PP2, 1) if tilde(u) != u)
    d = class_datum(PP2, {f: partition([1]), tilde(f): partition([1])})
    v = strongly_real(d)
    assert v.status == STRONGLY_REAL and v.rule == RULE_REAL2


def test_symplectic_embeddable_even_q():
    assert symplectic_embeddable_even_q(unipotent_datum(PP2, [2, 2]))
    assert symplectic_embeddable_even_q(unipotent_datum(PP2, [3, 3]))
    # the converse counterexample: (3,1) fails the embedding test yet is
    # strongly real by the explicit construction
    assert not symplectic_embeddable_even_q(unipotent_datum(PP2, [3, 1]))
    assert unipotent_strongly_real(PP2, [3, 1]).status == STRONGLY_REAL
    with pytest.raises(ValueError):
        symplectic_embeddable_even_q(unipotent_datum(PP3, [2, 2]))
    with pytest.raises(ValueError):
        symplectic_embeddable_even_q(unipotent_datum(PP2, [2, 1]))


def test_oneway_guard_odd_q():
    # orthogonally embeddable implies strongly real, regression guard
    for n in range(1, 7):
        for d in enumerate_class_data(n, PP3):
            if orthogonal_embeddable(d):
                assert strongly_real(d).status == STRONGLY_REAL


def test_reduce_sharp_worked_examples():
    mu = partition([8] * 5 + [6] * 4 + [5] * 2 + [4] + [3] * 2 + [2] * 8 + [1] * 3)
    assert reduce_sharp(mu, 2) == partition([6] * 5 + [4] * 4 + [3] * 2 + [2] + [1] * 5)
    assert reduce_sharp(mu, 4) == partition([6] * 5 + [4] * 4 + [3] * 4 + [2] * 9 + [1] * 3)
    assert reduce_sharp(partition([2]), 2) == partition([])
    with pytest.raises(ValueError):
        reduce_sharp(partition([3, 1]), 2)
    with pytest.raises(ValueError):
        reduce_sharp(partition([3, 2]), 1)


def _sharp_by_case_formulas(mu, l):
    """The three displayed case formulas, as written."""
    m = {i: mu.mult(i) for i in range(1, mu.max_part + 3)}
    k = mu.max_part
    new_mult = {}
    if l == k:
        new_mult[k - 1] = m.get(k - 1, 0)
        new_mult[k - 2] = m.get(k - 2, 0) + m.get(k, 0)
        for j in range(1, k - 2):
            new_mult[j] = m.get(j, 0)
    elif l == 2:
        for j in range(2, k - 1):
            new_mult[j] = m.get(j + 2, 0)
        new_mult[1] = m.get(1, 0) + m.get(3, 0)
    else:
        for j in range(l, k - 1):
            new_mult[j] = m.get(j + 2, 0)
        new_mult[l - 1] = m.get(l - 1, 0) + m.get(l + 1, 0)
        new_mult[l - 2] = m.get(l - 2, 0) + m.get(l, 0)
        for j in range(1, l - 2):
            new_mult[j] = m.get(j, 0)
    parts = []
    for j, cnt in new_mult.items():
        if j >= 1:
            parts.extend([j] * cnt)
    return partition(parts)


def test_reduce_sharp_matches_case_formulas():
    for n in range(2, 11):
        for mu in partitions_of(n):
            for l in range(2, mu.max_part + 1):
                if mu.mult(l) == 0:
                    continue
                assert reduce_sharp(mu, l) == _sharp_by_case_formulas(mu, l)


def test_reduce_sharp_size_identity():
    for n in range(2, 11):
        for mu in partitions_of(n):
            for l in range(2, mu.max_part + 1):
                if mu.mult(l) == 0:
                    continue
                drop = 2 * sum(mu.mult(j) for j in range(l, mu.max_part + 1))
                assert reduce_sharp(mu, l).size == n - drop


@pytest.mark.parametrize("pp", [PP3, PP2])
def test_strong_reality_descends_along_sharp(pp):
    for n in range(2, 13):
        for mu in partitions_of(n):
            if unipotent_strongly_real(pp, mu).status != STRONGLY_REAL:
                continue
            for l in range(2, mu.max_part + 1):
                if mu.mult(l) == 0:
                    continue
                assert (
                    unipotent_strongly_real(pp, reduce_sharp(mu, l)).status
                    == STRONGLY_REAL
                )


def test_even_q_rules_mutually_exclusive():
    from strongreal.classify import _notstrong2_applies, _real2_applies

    for n in range(0, 15):
        for mu in partitions_of(n):
            assert not (_real2_applies(mu) and _notstrong2_applies(mu))


def test_verdict_invariant_under_negation():
    for n in range(1, 6):
        for d in enumerate_class_data(n, PP3):
            assert strongly_real(d).status == strongly_real(negate(d)).status


def test_u_sequence_rephrasing_agrees():
    # strongly real iff every u_i is self-conjugate over GF(q) and the even-
    # indexed ones have even degree and constant term 1 (odd q)
    for n in range(1, 6):
        for d in enumerate_class_data(n, PP3):
            seq = u_sequence(d)
            ok = True
            for i, u in enumerate(seq, start=1):
                if u.degree == 0:
                    continue
                if not u.is_over_base() or tilde(u) != u:
                    ok = False
                    break
                if i % 2 == 0 and (u.degree % 2 or u.constant != 1):
                    ok = False
                    break
            assert ok == (strongly_real(d).status == STRONGLY_REAL)


def test_sp_strongly_real_examples():
    v = sp_strongly_real(
        symplectic_datum(PP3, {}, signed_plus=signed_partition([2], {2: 1}))
    )
    assert v.status == NOT_STRONGLY_REAL and v.rule == RULE_SPCOR
    v2 = sp_strongly_real(
        symplectic_datum(
            PP3,
            {},
            signed_plus=signed_partition([2, 2], {2: 1}),
            signed_minus=signed_partition([1, 1]),
        )
    )
    assert v2.status == UNKNOWN
    v3 = sp_strongly_real(
        symplectic_datum(PP3, {}, signed_minus=signed_partition([4, 4, 4], {4: -1}))
    )
    assert v3.status == NOT_STRONGLY_REAL
    assert v3.witness_hint["even_part"] == 4 and v3.witness_hint["multiplicity"] == 3


def test_sp_never_positively_decided():
    from strongreal.classdata import enumerate_signed_partitions

    for w in range(0, 7, 2):
        for sp in enumerate_signed_partitions(w):
            v = sp_strongly_real(symplectic_datum(PP3, {}, signed_plus=sp))
            assert v.status in (NOT_STRONGLY_REAL, UNKNOWN)
