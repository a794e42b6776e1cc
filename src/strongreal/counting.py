"""Exact counting of all, real, and strongly real classes of U(n, F_q).

Counts come from two independent routes that must agree:

* truncated power series with exact integer coefficients, built from the
  per-degree counts of self-conjugate polynomials (the K series uses the
  classical product (1+z^k)/(1-qz^k) over k >= 1);
* direct enumeration of class data followed by the classify predicates.

The widely quoted closed-form products for the T and R series disagree with
the coefficient-level definitions at odd powers (their z^1 coefficient is 2q
where direct enumeration gives 2).  This module computes from the coefficient
definitions; the closed forms are exposed separately for documentation and
comparison only.
"""

from __future__ import annotations

from .classdata import ClassDatum, class_datum, partitions_of
from .classify import STRONGLY_REAL, strongly_real
from .errors import CountMismatchError, EnumerationBoundError
from .fields import PrimePower, _Frozen
from .upoly import count_self_conjugate, enumerate_u_irreducibles

# direct enumeration guard: n <= 8 for q <= 5 by default
ENUM_MAX_N = 8
ENUM_MAX_Q = 5


class Series(_Frozen):
    """Truncated power series with exact integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient vector must have length order+1")
        super().__init__(order, coeffs)

    def coefficient(self, n: int) -> int:
        return self.coeffs[n]

    def __mul__(self, other: "Series") -> "Series":
        if self.order != other.order:
            raise ValueError("order mismatch")
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(0, n - i + 1):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(n, tuple(out))


def _product(order: int, factors) -> Series:
    """Product over (k, coeffs) of sum_j coeffs[j] z^(kj), truncated at z^order.

    Coefficients past z^order are ignored, missing ones are 0.
    """
    out = Series(order, (1,) + (0,) * order)
    for k, coeffs in factors:
        dense = [0] * (order + 1)
        for i, c in zip(range(0, order + 1, k), coeffs):
            dense[i] = c
        out = out * Series(order, tuple(dense))
    return out


def series_K(q: PrimePower, order: int) -> Series:
    """Total class count series: product over k of (1 + z^k)/(1 - q z^k).

    The factor's coefficients of z^(kj) are 1, q + 1, q(q + 1), q^2(q + 1), ...
    """
    c = q.q
    return _product(
        order,
        ((k, [1] + [c**j * (c + 1) for j in range(order // k)]) for k in range(1, order + 1)),
    )


def _require_odd(q: PrimePower):
    if q.p == 2:
        raise ValueError("these counting series require odd q")


def series_R(q: PrimePower, order: int) -> Series:
    """Real class count series from the self-conjugate polynomial counts."""
    _require_odd(q)
    return _product(
        order,
        (
            (k, [count_self_conjugate(j, q) for j in range(order // k + 1)])
            for k in range(1, order + 1)
        ),
    )


def series_T(q: PrimePower, order: int) -> Series:
    """Strongly real class count series from the coefficient definitions.

    Odd indices contribute unrestricted self-conjugate counts, even indices
    only polynomials of even degree with constant term 1.
    """
    _require_odd(q)
    return _product(
        order,
        (
            (k, [count_self_conjugate(j, q, k % 2 == 0) for j in range(order // k + 1)])
            for k in range(1, order + 1)
        ),
    )


def _displayed(q: PrimePower, order: int, squared) -> Series:
    """Product of (1 + q z^m)^2 over m in squared and of 1/(1 - q z^(2k)) over k >= 1."""
    _require_odd(q)
    c = q.q
    geometric = [(k, [c**j for j in range(order // k + 1)]) for k in range(2, order + 1, 2)]
    return _product(order, [(m, [1, 2 * c, c * c]) for m in squared] + geometric)


def displayed_series_T(q: PrimePower, order: int) -> Series:
    """The closed-form product variant of the T series, for comparison only.

    Product over k >= 1 of (1 + q z^(2k-1))^2 / (1 - q z^(2k)).  Its z^1
    coefficient is 2q, while the coefficient definitions give 2.
    """
    return _displayed(q, order, range(1, order + 1, 2))


def displayed_series_R(q: PrimePower, order: int) -> Series:
    """The closed-form product variant of the R series, for comparison only.

    Product over k >= 1 of (1 + q z^k)^2 / (1 - q z^(2k)).
    """
    return _displayed(q, order, range(1, order + 1))


# ---------------------------------------------------------------------------
# direct enumeration


def iter_class_data(
    n: int,
    q: PrimePower,
    max_n: int = ENUM_MAX_N,
    max_q: int = ENUM_MAX_Q,
):
    """Yield every class datum of U(n, F_q), in a deterministic order.

    Data are assembled from U-irreducibles of degree <= n and partitions of
    the available weight.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n or q.q > max_q:
        raise EnumerationBoundError(
            f"direct enumeration bounded to n <= {max_n}, q <= {max_q}"
        )
    if n == 0:
        yield ClassDatum(q, ())
        return
    uirrs = enumerate_u_irreducibles(q, n)  # sorted by (degree, coeffs)

    def rec(start: int, remaining: int, acc):
        if remaining == 0:
            yield class_datum(q, list(acc))
            return
        for i in range(start, len(uirrs)):
            f = uirrs[i]
            deg = f.degree
            if deg > remaining:
                break  # list is sorted by degree
            for w in range(1, remaining // deg + 1):
                for mu in partitions_of(w):
                    acc.append((f, mu))
                    yield from rec(i + 1, remaining - deg * w, acc)
                    acc.pop()

    yield from rec(0, n, [])


def enumerate_class_data(
    n: int,
    q: PrimePower,
    max_n: int = ENUM_MAX_N,
    max_q: int = ENUM_MAX_Q,
):
    """Materialized list form of iter_class_data."""
    return list(iter_class_data(n, q, max_n, max_q))


class CountRow(_Frozen):
    """Class counts of U(n, F_q) by direct enumeration, each equal to its
    series coefficient; R is checked against its series only for odd q, and
    direct_strongly_real is None for even q, which has no counting formula."""

    __slots__ = ("n", "direct_all", "direct_real", "direct_strongly_real")

    def to_json(self):
        odd = self.direct_strongly_real is not None
        return {
            "n": self.n,
            "K": self.direct_all,
            "R": self.direct_real if odd else None,
            "T": self.direct_strongly_real,
            "direct_K": self.direct_all,
            "direct_R": self.direct_real,
            "direct_T": self.direct_strongly_real,
        }


class CountCrossCheck(_Frozen):
    """Per-n agreement table of direct enumeration against the series."""

    __slots__ = ("q", "rows", "notes")

    def to_json(self):
        return {
            "q": self.q.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "notes": list(self.notes),
        }

    def format_table(self) -> str:
        lines = ["n,K,R,T"]
        for r in self.rows:
            t = "" if r.direct_strongly_real is None else r.direct_strongly_real
            lines.append(f"{r.n},{r.direct_all},{r.direct_real},{t}")
        return "\n".join(lines)


def _check(name: str, n: int, direct: int, series: Series):
    if direct != series.coefficient(n):
        raise CountMismatchError(
            f"{name} mismatch at n={n}: direct {direct} vs series {series.coefficient(n)}"
        )


def cross_check_counts(n_max: int, q: PrimePower) -> CountCrossCheck:
    """Assert direct enumeration counts equal the series coefficients.

    Each n is enumerated once, and its data are counted as all, real and,
    for odd q, strongly real classes.  Raises CountMismatchError at the
    first offending n; on success returns the table plus a documentation
    note comparing the closed-form product's z^1 coefficient with the
    coefficient-definition value.
    """
    odd = q.p != 2
    k_series = series_K(q, n_max)
    if odd:
        r_series, t_series = series_R(q, n_max), series_T(q, n_max)
    rows = []
    for n in range(0, n_max + 1):
        data = enumerate_class_data(n, q)
        _check("K", n, len(data), k_series)
        verdicts = [strongly_real(d) for d in data]
        direct_real, direct_sr = sum(v.real for v in verdicts), None
        if odd:
            direct_sr = sum(v.status == STRONGLY_REAL for v in verdicts)
            _check("R", n, direct_real, r_series)
            _check("T", n, direct_sr, t_series)
        rows.append(CountRow(n, len(data), direct_real, direct_sr))
    notes = []
    if odd and n_max >= 1:
        shown = displayed_series_T(q, n_max).coefficient(1)
        used = t_series.coefficient(1)
        notes.append(
            "closed-form product variant has z^1 coefficient "
            f"{shown}; coefficient definitions and direct enumeration give {used}"
        )
    return CountCrossCheck(q, tuple(rows), tuple(notes))
