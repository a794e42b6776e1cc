"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a pass line with its runtime (run pytest with -s to see
them) and enforces the stated wall-clock bound.
"""

import time

import pytest

from strongreal.classdata import (
    enumerate_signed_partitions,
    partition,
    partitions_of,
    signed_partition,
    symplectic_datum,
)
from strongreal.classify import (
    NOT_STRONGLY_REAL,
    STRONGLY_REAL,
    UNKNOWN,
    reduce_sharp,
    sp_strongly_real,
    strongly_real,
    unipotent_strongly_real,
)
from strongreal.counting import (
    cross_check_counts,
    displayed_series_T,
    series_T,
)
from strongreal.fields import PrimePower, table_for
from strongreal.linalg import identity, is_unitary, mat_inv, mat_mul
from strongreal.oracle import (
    is_strongly_real_oracle,
    three_one_involution,
    explicit_representative,
    reconcile,
    strong_reality_witnesses,
)
from strongreal.upoly import count_self_conjugate, enumerate_self_conjugate

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


class timer:
    def __init__(self, label, bound_seconds):
        self.label = label
        self.bound = bound_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.label} exceeded its {self.bound}s bound"
            )
        return False


def test_criterion_1_self_conjugate_counts():
    """Enumerated self-conjugate polynomial lists match the counting formula."""
    with timer("1 (polynomial counts)", 1.0):
        for pp in (PP3, PP5):
            for deg in (1, 2, 3, 4):
                for constant_one in (False, True):
                    listed = enumerate_self_conjugate(deg, pp, constant_one)
                    assert len(listed) == count_self_conjugate(deg, pp, constant_one)
                    assert len(set(u.coeffs for u in listed)) == len(listed)


def test_criterion_2_counting_cross_check():
    """Direct class enumeration equals all three series for q in {3, 5}."""
    with timer("2 (counting cross-check)", 30.0):
        for pp in (PP3, PP5):
            table = cross_check_counts(4, pp)  # raises on any mismatch
            assert table.rows[1].direct_strongly_real == 2  # T_1q = 2
            for note in table.notes:
                print(f"  q={pp.q}: {note}")
        # stretch scale for q = 3
        t3 = cross_check_counts(6, PP3)
        assert t3.rows[2].direct_strongly_real == 4  # T_23 = 4
        # documented discrepancy: displayed closed form vs coefficient path
        shown = displayed_series_T(PP3, 1).coefficient(1)
        used = series_T(PP3, 1).coefficient(1)
        print(f"  displayed closed form z^1 = {shown}; coefficient path z^1 = {used}")
        assert (shown, used) == (2 * 3, 2)


def test_criterion_3_full_reconcile():
    """Zero oracle/classifier disagreements on U(1,3), U(2,3), U(2,5), U(3,3)."""
    with timer("3 (brute force vs classifier)", 300.0):
        from strongreal.counting import series_K, series_R, series_T

        expected = {(1, 3): 4, (2, 3): 16, (2, 5): 36, (3, 3): 56}
        for (n, q), classes in expected.items():
            report = reconcile(n, q)
            assert len(report.records) == classes, (n, q)
            assert not report.disagreements, (n, q, report.disagreements)
            assert not report.undecided, (n, q)
            for rec in report.records:
                assert rec.verdict.status != UNKNOWN  # odd q is fully decided
                if rec.oracle_strongly_real:
                    assert rec.oracle_real
            # the searched group counts close the loop with the series
            pp = PrimePower(3) if q == 3 else PrimePower(5)
            assert len(report.records) == series_K(pp, n).coefficient(n)
            assert sum(1 for r in report.records if r.oracle_real) == series_R(
                pp, n
            ).coefficient(n)
            assert sum(
                1 for r in report.records if r.oracle_strongly_real
            ) == series_T(pp, n).coefficient(n)


@pytest.mark.parametrize(
    "q,n,classes,real,strong", [(3, 4, 188, 30, 19), (5, 3, 192, 16, 12)]
)
def test_representatives_path_matches_series(q, n, classes, real, strong):
    """The representatives path closes the loop with the series too: at
    budget 20,000 all 188 classes of U(4, F_3) and all 192 of U(3, F_5) are
    decided by the reverser walks, and the real and strongly real records
    number the coefficients R_n and T_n."""
    from strongreal.counting import series_R
    from strongreal.oracle import Budgets

    pp = PrimePower(q)
    report = reconcile(n, q, Budgets.uniform(20000))
    assert report.strategy == "representatives"
    assert len(report.records) == classes
    assert not report.undecided and not report.disagreements
    assert (series_R(pp, n).coefficient(n), series_T(pp, n).coefficient(n)) == (real, strong)
    assert sum(1 for r in report.records if r.oracle_real) == real
    assert sum(1 for r in report.records if r.oracle_strongly_real) == strong


def test_criterion_4_two_one_desk_scale():
    """The explicit (2^r 1^m) representatives are not strongly real, q = 3."""
    with timer("4 (type 2^r 1^m representatives)", 10.0):
        for r, m in ((1, 0), (1, 1)):
            g, form = explicit_representative("two_one", PP3, r=r, m=m)
            assert is_strongly_real_oracle(g, form) is False
            mu = [2] * r + [1] * m
            assert unipotent_strongly_real(PP3, mu).status == NOT_STRONGLY_REAL


def test_criterion_5_even_characteristic_constructions():
    """Even-q oracle matches the three explicit constructions."""
    with timer("5 (even characteristic)", 60.0):
        from strongreal.oracle import reversing_space

        F2 = table_for(PP2)
        g31, form31 = explicit_representative("three_one", PP2)
        assert len(reversing_space(F2, g31)) == 6  # 4^6 = 4096 candidates
        assert is_strongly_real_oracle(g31, form31) is True
        assert unipotent_strongly_real(PP2, [3, 1]).status == STRONGLY_REAL

        g32, form32 = explicit_representative("three_two", PP2)
        assert len(reversing_space(F2, g32)) == 9  # 4^9 = 262144 candidates
        assert is_strongly_real_oracle(g32, form32) is False
        assert unipotent_strongly_real(PP2, [3, 2]).status == NOT_STRONGLY_REAL

        g3, form3 = explicit_representative("three_r", PP2, r=1)
        assert len(reversing_space(F2, g3)) == 3
        assert is_strongly_real_oracle(g3, form3) is False
        assert unipotent_strongly_real(PP2, [3]).status == NOT_STRONGLY_REAL


def test_criterion_6_explicit_witness():
    """The explicit reversing involution is found by the exhaustive scan."""
    with timer("6 (explicit witness)", 10.0):
        g, form = explicit_representative("three_one", PP2)
        s = three_one_involution(PP2)
        F = table_for(PP2)
        assert mat_mul(F, s, s) == identity(4)
        assert mat_mul(F, mat_mul(F, s, g), s) == mat_inv(F, g)
        assert is_unitary(F, s, form.gram)
        witnesses = strong_reality_witnesses(g, form)
        assert s in witnesses


def test_criterion_7_reduction_property_suite():
    """Strong reality descends along the part-reduction map, q = 3."""
    with timer("7 (reduction suite)", 10.0):
        for n in range(2, 13):
            for mu in partitions_of(n):
                verdict = unipotent_strongly_real(PP3, mu)
                for l in range(2, mu.max_part + 1):
                    if mu.mult(l) == 0:
                        continue
                    if verdict.status == STRONGLY_REAL:
                        sharp = reduce_sharp(mu, l)
                        assert (
                            unipotent_strongly_real(PP3, sharp).status
                            == STRONGLY_REAL
                        )
        big = partition([8] * 5 + [6] * 4 + [5] * 2 + [4] + [3] * 2 + [2] * 8 + [1] * 3)
        assert reduce_sharp(big, 2) == partition(
            [6] * 5 + [4] * 4 + [3] * 2 + [2] + [1] * 5
        )
        assert reduce_sharp(big, 4) == partition(
            [6] * 5 + [4] * 4 + [3] * 4 + [2] * 9 + [1] * 3
        )


def test_criterion_8_three_valued_soundness():
    """The even-q yes and no conditions never both fire; (5,3) is Unknown."""
    with timer("8 (three-valued soundness)", 5.0):
        from strongreal.classify import _notstrong2_applies, _real2_applies

        for n in range(0, 15):
            for mu in partitions_of(n):
                assert not (_real2_applies(mu) and _notstrong2_applies(mu))
        assert unipotent_strongly_real(PP2, [5, 3]).status == UNKNOWN


def test_criterion_9_symplectic_corollary():
    """Negative symplectic verdicts exactly where an even part has odd
    multiplicity; splitting counts follow the signed even values."""
    with timer("9 (symplectic corollary)", 1.0):
        from strongreal.classdata import sp_splitting_count

        for weight in range(0, 9, 2):
            for sp in enumerate_signed_partitions(weight):
                for side in ("plus", "minus"):
                    datum = symplectic_datum(
                        PP3,
                        {},
                        signed_plus=sp if side == "plus" else signed_partition([]),
                        signed_minus=sp if side == "minus" else signed_partition([]),
                    )
                    verdict = sp_strongly_real(datum)
                    has_bad = any(
                        p % 2 == 0 and sp.base.mult(p) % 2 == 1
                        for p in set(sp.base.parts)
                    )
                    expected = NOT_STRONGLY_REAL if has_bad else UNKNOWN
                    assert verdict.status == expected, (sp, side)
        gamma = signed_partition(
            [5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1], {4: -1, 2: 1}
        )
        datum = symplectic_datum(PP3, {}, signed_plus=gamma)
        assert sp_splitting_count(datum) == 4
