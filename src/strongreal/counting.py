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

from dataclasses import dataclass

from .classdata import ClassDatum, class_datum, is_real, partitions_of
from .classify import STRONGLY_REAL, strongly_real
from .errors import CountMismatchError, EnumerationBoundError
from .fields import PrimePower
from .upoly import count_self_conjugate, enumerate_u_irreducibles

# direct enumeration guard: n <= 8 for q <= 5 by default
ENUM_MAX_N = 8
ENUM_MAX_Q = 5

FILTERS = ("all", "real", "strongly_real")


@dataclass(frozen=True)
class Series:
    """Truncated power series with exact integer coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient vector must have length order+1")

    def coefficient(self, n: int) -> int:
        return self.coeffs[n]

    def __add__(self, other: "Series") -> "Series":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return Series(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

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

    def to_json(self):
        return {"order": self.order, "coeffs": list(self.coeffs)}


def series_one(order: int) -> Series:
    return Series(order, (1,) + (0,) * order)


def series_from(order: int, coeffs) -> Series:
    coeffs = list(coeffs)[: order + 1]
    coeffs += [0] * (order + 1 - len(coeffs))
    return Series(order, tuple(coeffs))


def geometric(order: int, c: int, k: int) -> Series:
    """1 / (1 - c z^k) truncated: sum over j of c^j z^(kj)."""
    out = [0] * (order + 1)
    j = 0
    while k * j <= order:
        out[k * j] = c**j
        j += 1
    return Series(order, tuple(out))


def binomial_factor(order: int, c: int, k: int) -> Series:
    """1 + c z^k truncated."""
    out = [0] * (order + 1)
    out[0] = 1
    if k <= order:
        out[k] = c
    return Series(order, tuple(out))


def series_K(q: PrimePower, order: int) -> Series:
    """Total class count series: product over k of (1 + z^k)/(1 - q z^k)."""
    out = series_one(order)
    for k in range(1, order + 1):
        out = out * binomial_factor(order, 1, k) * geometric(order, q.q, k)
    return out


def _factor_from_counts(q: PrimePower, order: int, k: int, constant_one: bool) -> Series:
    """Sum over j of c_(j,q) z^(kj) with c from the self-conjugate counts."""
    out = [0] * (order + 1)
    j = 0
    while k * j <= order:
        out[k * j] = count_self_conjugate(j, q, constant_one)
        j += 1
    return Series(order, tuple(out))


def _require_odd(q: PrimePower):
    if q.p == 2:
        raise ValueError("these counting series require odd q")


def series_R(q: PrimePower, order: int) -> Series:
    """Real class count series from the self-conjugate polynomial counts."""
    _require_odd(q)
    out = series_one(order)
    for k in range(1, order + 1):
        out = out * _factor_from_counts(q, order, k, constant_one=False)
    return out


def series_T(q: PrimePower, order: int) -> Series:
    """Strongly real class count series from the coefficient definitions.

    Odd indices contribute unrestricted self-conjugate counts, even indices
    only polynomials of even degree with constant term 1.
    """
    _require_odd(q)
    out = series_one(order)
    for k in range(1, order + 1):
        out = out * _factor_from_counts(q, order, k, constant_one=(k % 2 == 0))
    return out


def displayed_series_T(q: PrimePower, order: int) -> Series:
    """The closed-form product variant of the T series, for comparison only.

    Product over k >= 1 of (1 + q z^(2k-1))^2 / (1 - q z^(2k)).  Its z^1
    coefficient is 2q, while the coefficient definitions give 2.
    """
    _require_odd(q)
    out = series_one(order)
    k = 1
    while 2 * k - 1 <= order:
        lin = binomial_factor(order, q.q, 2 * k - 1)
        out = out * lin * lin
        if 2 * k <= order:
            out = out * geometric(order, q.q, 2 * k)
        k += 1
    return out


def displayed_series_R(q: PrimePower, order: int) -> Series:
    """The closed-form product variant of the R series, for comparison only.

    Product over k >= 1 of (1 + q z^k)^2 / (1 - q z^(2k)).
    """
    _require_odd(q)
    out = series_one(order)
    for k in range(1, order + 1):
        lin = binomial_factor(order, q.q, k)
        out = out * lin * lin
        if 2 * k <= order:
            out = out * geometric(order, q.q, 2 * k)
    return out


# ---------------------------------------------------------------------------
# direct enumeration


def iter_class_data(
    n: int,
    q: PrimePower,
    which: str = "all",
    max_n: int = ENUM_MAX_N,
    max_q: int = ENUM_MAX_Q,
):
    """Yield class data of U(n, F_q) passing the filter, deterministic order.

    Data are assembled from U-irreducibles of degree <= n and partitions of
    the available weight; the real and strongly_real filters apply the
    corresponding predicates.
    """
    if which not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n or q.q > max_q:
        raise EnumerationBoundError(
            f"direct enumeration bounded to n <= {max_n}, q <= {max_q}"
        )

    def keep(d):
        if which == "real":
            return is_real(d)
        if which == "strongly_real":
            return strongly_real(d).status == STRONGLY_REAL
        return True

    if n == 0:
        d = ClassDatum(q, ())
        if keep(d):
            yield d
        return
    uirrs = enumerate_u_irreducibles(q, n)  # sorted by (degree, coeffs)

    def rec(start: int, remaining: int, acc):
        if remaining == 0:
            d = class_datum(q, list(acc))
            if keep(d):
                yield d
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
    which: str = "all",
    max_n: int = ENUM_MAX_N,
    max_q: int = ENUM_MAX_Q,
):
    """Materialized list form of iter_class_data."""
    return list(iter_class_data(n, q, which, max_n, max_q))


@dataclass(frozen=True)
class CountRow:
    """Direct enumeration counts next to the series coefficients."""

    n: int
    direct_all: int
    direct_real: int
    direct_strongly_real: int | None  # None when q is even (no counting formula)
    series_all: int
    series_real: int | None
    series_strongly_real: int | None

    def to_json(self):
        return {
            "n": self.n,
            "K": self.series_all,
            "R": self.series_real,
            "T": self.series_strongly_real,
            "direct_K": self.direct_all,
            "direct_R": self.direct_real,
            "direct_T": self.direct_strongly_real,
        }


@dataclass(frozen=True)
class CountCrossCheck:
    """Per-n agreement table of direct enumeration against the series."""

    q: PrimePower
    rows: tuple[CountRow, ...]
    notes: tuple[str, ...]

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


def cross_check_counts(n_max: int, q: PrimePower) -> CountCrossCheck:
    """Assert direct enumeration counts equal the series coefficients.

    Raises CountMismatchError at the first offending n; on success returns
    the table plus a documentation note comparing the closed-form product's
    z^1 coefficient with the coefficient-definition value.
    """
    k_series = series_K(q, n_max)
    r_series = series_R(q, n_max) if q.p != 2 else None
    t_series = series_T(q, n_max) if q.p != 2 else None
    rows = []
    for n in range(0, n_max + 1):
        direct_all = len(enumerate_class_data(n, q, "all"))
        direct_real = len(enumerate_class_data(n, q, "real"))
        if direct_all != k_series.coefficient(n):
            raise CountMismatchError(
                f"K mismatch at n={n}: direct {direct_all} vs series {k_series.coefficient(n)}"
            )
        if r_series is not None:
            direct_sr = len(enumerate_class_data(n, q, "strongly_real"))
            if direct_real != r_series.coefficient(n):
                raise CountMismatchError(
                    f"R mismatch at n={n}: direct {direct_real} vs series {r_series.coefficient(n)}"
                )
            if direct_sr != t_series.coefficient(n):
                raise CountMismatchError(
                    f"T mismatch at n={n}: direct {direct_sr} vs series {t_series.coefficient(n)}"
                )
        else:
            direct_sr = None
        rows.append(
            CountRow(
                n,
                direct_all,
                direct_real,
                direct_sr,
                k_series.coefficient(n),
                r_series.coefficient(n) if r_series else None,
                t_series.coefficient(n) if t_series else None,
            )
        )
    notes = []
    if q.p != 2 and n_max >= 1:
        shown = displayed_series_T(q, n_max).coefficient(1)
        used = t_series.coefficient(1)
        notes.append(
            "closed-form product variant has z^1 coefficient "
            f"{shown}; coefficient definitions and direct enumeration give {used}"
        )
    return CountCrossCheck(q, tuple(rows), tuple(notes))
