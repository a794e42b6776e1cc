"""Series arithmetic and count cross-checks."""

import pytest

from strongreal.counting import (
    CountRow,
    Series,
    cross_check_counts,
    displayed_series_R,
    displayed_series_T,
    enumerate_class_data,
    geometric,
    series_from,
    series_K,
    series_one,
    series_R,
    series_T,
)
from strongreal.errors import EnumerationBoundError
from strongreal.fields import PrimePower

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def test_series_arithmetic():
    a = series_from(4, [1, 2, 3])
    b = series_from(4, [0, 1])
    assert (a * b).coeffs == (0, 1, 2, 3, 0)
    assert (a + b).coeffs == (1, 3, 3, 0, 0)
    c = series_from(4, [2, 0, 5])
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    with pytest.raises(ValueError):
        Series(3, (1, 2))


def test_geometric_inverse_property():
    # (1 - c z^k) * sum c^j z^(kj) = 1 up to truncation
    for c, k in ((3, 1), (5, 2), (2, 3)):
        lhs = series_from(9, [1] + [0] * (k - 1) + [-c])
        assert (lhs * geometric(9, c, k)).coeffs == series_one(9).coeffs


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
    assert len(enumerate_class_data(0, PP3)) == 1
    assert len(enumerate_class_data(1, PP3)) == 4
    assert len(enumerate_class_data(1, PP3, "strongly_real")) == 2
    assert len(enumerate_class_data(1, PP3, "real")) == 2
    assert len(enumerate_class_data(2, PP3, "strongly_real")) == 4
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
    with pytest.raises(ValueError):
        enumerate_class_data(2, PP3, "bogus")


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


def test_cross_check_even_q_k_only():
    table = cross_check_counts(3, PP2)
    assert [r.direct_all for r in table.rows] == [1, 3, 9, 24]
    assert all(r.direct_strongly_real is None for r in table.rows)


def test_count_row_json_carries_both_sides():
    row = CountRow(1, 4, 2, 2, 4, 2, 2)
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
