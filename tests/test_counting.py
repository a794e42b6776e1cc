"""Series arithmetic and count cross-checks."""

import pytest

from strongreal import counting
from strongreal.classdata import is_real
from strongreal.classify import STRONGLY_REAL, strongly_real
from strongreal.counting import (
    CountRow,
    Series,
    cross_check_counts,
    displayed_series_R,
    displayed_series_T,
    enumerate_class_data,
    series_K,
    series_R,
    series_T,
)
from strongreal.errors import EnumerationBoundError
from strongreal.fields import PrimePower, prime_power
from strongreal.upoly import count_self_conjugate

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def test_series_arithmetic():
    a = Series(4, (1, 2, 3, 0, 0))
    b = Series(4, (0, 1, 0, 0, 0))
    assert (a * b).coeffs == (0, 1, 2, 3, 0)
    c = Series(4, (2, 0, 5, 0, 0))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    with pytest.raises(ValueError):
        Series(3, (1, 2))


# The constructors the five series were built from before they became one
# product over k: the named reference of test_series_match_reference.


def reference_one(order):
    return Series(order, (1,) + (0,) * order)


def reference_geometric(order, c, k):
    """1 / (1 - c z^k) truncated: sum over j of c^j z^(kj)."""
    out = [0] * (order + 1)
    j = 0
    while k * j <= order:
        out[k * j] = c**j
        j += 1
    return Series(order, tuple(out))


def reference_binomial(order, c, k):
    """1 + c z^k truncated."""
    out = [0] * (order + 1)
    out[0] = 1
    if k <= order:
        out[k] = c
    return Series(order, tuple(out))


def reference_from_counts(q, order, k, constant_one):
    out = [0] * (order + 1)
    j = 0
    while k * j <= order:
        out[k * j] = count_self_conjugate(j, q, constant_one)
        j += 1
    return Series(order, tuple(out))


def reference_K(q, order):
    out = reference_one(order)
    for k in range(1, order + 1):
        out = out * reference_binomial(order, 1, k) * reference_geometric(order, q.q, k)
    return out


def reference_R(q, order):
    out = reference_one(order)
    for k in range(1, order + 1):
        out = out * reference_from_counts(q, order, k, constant_one=False)
    return out


def reference_T(q, order):
    out = reference_one(order)
    for k in range(1, order + 1):
        out = out * reference_from_counts(q, order, k, constant_one=(k % 2 == 0))
    return out


def reference_displayed_T(q, order):
    out = reference_one(order)
    k = 1
    while 2 * k - 1 <= order:
        lin = reference_binomial(order, q.q, 2 * k - 1)
        out = out * lin * lin
        if 2 * k <= order:
            out = out * reference_geometric(order, q.q, 2 * k)
        k += 1
    return out


def reference_displayed_R(q, order):
    out = reference_one(order)
    for k in range(1, order + 1):
        lin = reference_binomial(order, q.q, k)
        out = out * lin * lin
        if 2 * k <= order:
            out = out * reference_geometric(order, q.q, 2 * k)
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 11, 60])
def test_series_match_reference(q, order):
    pp = prime_power(q)
    for series, reference in (
        (series_K, reference_K),
        (series_R, reference_R),
        (series_T, reference_T),
        (displayed_series_T, reference_displayed_T),
        (displayed_series_R, reference_displayed_R),
    ):
        assert series(pp, order) == reference(pp, order), series.__name__


def test_series_K_small_values():
    k3 = series_K(PP3, 6)
    assert k3.coefficient(0) == 1
    assert k3.coefficient(1) == 4  # abelian U(1, F_3) has q+1 singleton classes
    assert k3.coeffs == (1, 4, 16, 56, 188, 600, 1888)
    assert series_K(PP5, 4).coeffs == (1, 6, 36, 192, 1002)
    assert series_K(PP2, 4).coeffs == (1, 3, 9, 24, 60)


@pytest.mark.parametrize("pp", [PP3, PP5])
def test_series_K_z1_is_q_plus_one(pp):
    assert series_K(pp, 1).coefficient(1) == pp.q + 1


def test_series_T_R_values():
    assert series_T(PP3, 6).coeffs == (1, 2, 4, 8, 19, 34, 68)
    assert series_R(PP3, 6).coeffs == (1, 2, 6, 12, 30, 56, 124)
    assert series_T(PP5, 4).coeffs == (1, 2, 6, 12, 39)
    assert series_R(PP5, 4).coeffs == (1, 2, 8, 16, 54)


def test_series_T_R_reject_even_q():
    with pytest.raises(ValueError):
        series_T(PP2, 3)
    with pytest.raises(ValueError):
        series_R(PP2, 3)


def test_monotonicity_T_R_K():
    t, r, k = series_T(PP3, 6), series_R(PP3, 6), series_K(PP3, 6)
    for n in range(7):
        assert t.coefficient(n) <= r.coefficient(n) <= k.coefficient(n)


def test_displayed_closed_forms_differ_at_z1():
    # the closed-form variants give 2q at z^1, the coefficient path gives 2
    for pp in (PP3, PP5):
        assert displayed_series_T(pp, 2).coefficient(1) == 2 * pp.q
        assert displayed_series_R(pp, 2).coefficient(1) == 2 * pp.q
        assert series_T(pp, 2).coefficient(1) == 2
        assert series_R(pp, 2).coefficient(1) == 2


def test_enumerate_class_data_counts():
    def strong(d):
        return strongly_real(d).status == STRONGLY_REAL

    assert len(enumerate_class_data(0, PP3)) == 1
    assert len(enumerate_class_data(1, PP3)) == 4
    assert sum(map(strong, enumerate_class_data(1, PP3))) == 2
    assert sum(map(is_real, enumerate_class_data(1, PP3))) == 2
    assert sum(map(strong, enumerate_class_data(2, PP3))) == 4
    assert len(enumerate_class_data(2, PP2)) == 9


def test_enumerate_class_data_deterministic_and_valid():
    a = enumerate_class_data(3, PP3)
    b = enumerate_class_data(3, PP3)
    assert a == b
    assert all(d.n == 3 for d in a)
    assert len(set(a)) == len(a)


def test_enumerate_class_data_bounds():
    with pytest.raises(EnumerationBoundError):
        enumerate_class_data(9, PP3)
    with pytest.raises(EnumerationBoundError):
        enumerate_class_data(2, PrimePower(7))


def test_enumeration_guard_holds_at_q5_n5():
    # raises CountMismatchError on any K, R or T disagreement up to n = 5
    cross_check_counts(5, PP5)


def test_enumeration_guard_holds_at_q3_n7():
    assert len(enumerate_class_data(7, PP3)) == series_K(PP3, 7).coefficient(7)


def test_datum_count_equals_series_coefficient():
    # the set of valid class data of weight n is counted by the K series
    for n in range(0, 5):
        assert len(enumerate_class_data(n, PP3)) == series_K(PP3, n).coefficient(n)


def test_cross_check_small():
    table = cross_check_counts(3, PP3)
    assert [r.direct_all for r in table.rows] == [1, 4, 16, 56]
    assert [r.direct_real for r in table.rows] == [1, 2, 6, 12]
    assert [r.direct_strongly_real for r in table.rows] == [1, 2, 4, 8]
    assert table.notes and "z^1" in table.notes[0]
    text = table.format_table()
    assert text.splitlines()[0] == "n,K,R,T"
    assert text.splitlines()[2] == "1,4,2,2"


@pytest.mark.parametrize("pp", [PP3, PP2])
def test_cross_check_enumerates_each_n_once(pp, monkeypatch):
    seen = []
    iterate = counting.iter_class_data

    def counted(n, *args, **kwargs):
        seen.append(n)
        return iterate(n, *args, **kwargs)

    monkeypatch.setattr(counting, "iter_class_data", counted)
    cross_check_counts(4, pp)
    assert seen == [0, 1, 2, 3, 4]


def test_cross_check_even_q_k_only():
    table = cross_check_counts(3, PP2)
    assert [r.direct_all for r in table.rows] == [1, 3, 9, 24]
    assert all(r.direct_strongly_real is None for r in table.rows)


def test_count_row_json_carries_both_sides():
    row = CountRow(1, 4, 2, 2)
    assert row.to_json() == {
        "n": 1,
        "K": 4,
        "R": 2,
        "T": 2,
        "direct_K": 4,
        "direct_R": 2,
        "direct_T": 2,
    }
    assert (row.direct_all, row.direct_real, row.direct_strongly_real) == (4, 2, 2)
    # for even q only K is checked against a series
    assert CountRow(1, 3, 3, None).to_json() == {
        "n": 1,
        "K": 3,
        "R": None,
        "T": None,
        "direct_K": 3,
        "direct_R": 3,
        "direct_T": None,
    }


def test_iter_class_data_streams_lazily():
    from strongreal.counting import iter_class_data

    it = iter_class_data(3, PP3)
    first = next(it)
    assert first.n == 3
    assert list(it) == enumerate_class_data(3, PP3)[1:]


@pytest.mark.stretch
def test_cross_check_stretch_q3_n6():
    table = cross_check_counts(6, PP3)
    assert [r.direct_all for r in table.rows] == [1, 4, 16, 56, 188, 600, 1888]
    assert [r.direct_strongly_real for r in table.rows] == [1, 2, 4, 8, 19, 34, 68]
    assert [r.direct_real for r in table.rows] == [1, 2, 6, 12, 30, 56, 124]
