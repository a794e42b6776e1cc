"""Monic polynomial algebra over GF(q^2) and U-irreducible polynomials.

A U-irreducible polynomial is a monic polynomial over GF(q^2) whose root set
is a single orbit of the twisted map a -> a^(-q) on the nonzero elements of
the algebraic closure.  Powers of U-irreducibles are exactly the elementary
divisors of isometries of a nondegenerate Hermitian form, so these polynomials
label conjugacy data throughout the package.

The tilde involution sends a polynomial with nonzero constant to the monic
polynomial whose roots are the inverses of its roots; a polynomial over GF(q)
fixed by tilde is called self-conjugate.  On U-irreducibles tilde is a
permutation read off the orbit scan that finds them: the inverse roots of the
exponent orbit of i are the orbit of -i.  For odd q the scan records negation
beside it: the negated roots are the orbit of i + order/2.
"""

from __future__ import annotations

import itertools
from functools import cache

from .errors import (
    EnumerationBoundError,
    NotOverBaseFieldError,
    NotUFactorableError,
    TildeUndefinedError,
)
from .fields import FieldCtx, PrimePower, _Frozen, make_context, table_for

SELF_CONJ_ENUM_BOUND = 10**7


class MonicPoly(_Frozen):
    """Monic polynomial over a GF(q^2) context.

    coeffs holds c_0 .. c_(d-1) as packed field ints, low degree first; the
    leading coefficient 1 is implicit.  The empty tuple is the constant 1.
    """

    __slots__ = ("ctx", "coeffs")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 1

    def full(self) -> tuple[int, ...]:
        """Coefficients including the leading 1."""
        return self.coeffs + (1,)

    def is_over_base(self) -> bool:
        conj = self.ctx.conj
        return all(conj(c) == c for c in self.coeffs)

    def to_json(self):
        return [list(self.ctx.to_coords(c)) for c in self.coeffs]

    def __repr__(self):
        return f"MonicPoly(deg={self.degree}, coeffs={self.coeffs})"


def monic_poly(ctx: FieldCtx, coeffs) -> MonicPoly:
    coeffs = tuple(int(c) for c in coeffs)
    if any(not 0 <= c < ctx.size for c in coeffs):
        raise ValueError("coefficient out of range for context")
    return MonicPoly(ctx, coeffs)


def poly_one(ctx: FieldCtx) -> MonicPoly:
    return MonicPoly(ctx, ())


def poly_from_json(ctx: FieldCtx, arr) -> MonicPoly:
    """Read coefficient coordinate vectors; each coordinate must be an int in
    [0, p), since from_coords would silently reduce it mod p."""
    p = ctx.p
    vecs = [tuple(v) for v in arr]
    for v in vecs:
        if len(v) != ctx.deg or not all(type(c) is int and 0 <= c < p for c in v):
            raise TypeError(f"a coefficient needs {ctx.deg} ints in [0, {p}), got {list(v)}")
    return MonicPoly(ctx, tuple(map(ctx.from_coords, vecs)))


def poly_mul(a: MonicPoly, b: MonicPoly) -> MonicPoly:
    if a.ctx is not b.ctx:
        raise ValueError("polynomials over different contexts")
    F = table_for(a.ctx.pp, a.ctx.k)
    add, mul = F.add, F.mul
    bs = b.full()
    out = [0] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.full()):
        if x:
            row = mul[x]
            for j, y in enumerate(bs):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    assert out[-1] == 1
    return MonicPoly(a.ctx, tuple(out[:-1]))


def poly_divmod(u: MonicPoly, f: MonicPoly):
    """Divide u by monic f; returns (quotient, remainder) as coefficient
    tuples, low degree first.  The quotient includes its leading 1 and the
    remainder has no trailing zeros, so it is () when f divides u.
    """
    F = table_for(u.ctx.pp, u.ctx.k)
    add, mul, neg = F.add, F.mul, F.neg
    rem = list(u.full())
    df = f.degree
    ff = f.full()
    quot = [0] * max(0, len(rem) - df)
    for top in range(len(rem) - 1, df - 1, -1):
        c = rem[top]
        quot[top - df] = c
        if c:
            for i in range(df + 1):
                rem[top - df + i] = add[rem[top - df + i]][neg[mul[c][ff[i]]]]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def poly_exact_div(u: MonicPoly, f: MonicPoly) -> MonicPoly | None:
    """u / f when f divides u exactly, else None."""
    quot, rem = poly_divmod(u, f)
    if rem:
        return None
    return MonicPoly(u.ctx, tuple(quot[:-1]))


class UIrreducible(_Frozen):
    """A U-irreducible polynomial with a descriptor of its root orbit."""

    __slots__ = ("poly", "orbit_rep")

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def ctx(self) -> FieldCtx:
        return self.poly.ctx

    def sort_key(self):
        return (self.poly.degree, self.poly.coeffs)

    def __repr__(self):
        return f"UIrreducible(deg={self.degree}, coeffs={self.poly.coeffs})"


@cache
def _u_irreducibles_of_degree(pp: PrimePower, d: int):
    """The degree-d U-irreducibles, tilde and (odd q only) negation on them, as
    dicts keyed by coeffs (the first in coeffs order), read off one orbit scan."""
    q = pp.q
    ctx2 = make_context(pp, 2)
    host = make_context(pp, 2 * d)
    # roots satisfy a^((-q)^d) = a, so they lie in the cyclic subgroup of
    # order q^d - (-1)^d; orbits are taken over its exponents, e -> e*(-q)
    order = q**d - (-1) ** d
    exp, _ = host.exp_log(order)
    step = (-q) % order
    # at d = 1 the host is GF(q^2) itself; skip its q^2-entry identity map
    down = host.subfield_map(ctx2) if d > 1 else None
    # orbits are keyed by their smallest exponent, which the scan meets first;
    # least[j] is the key of the orbit of j (-1 before the scan reaches it)
    least = [-1] * order
    by_least = {}
    covered = 0
    for i in range(order):
        if least[i] >= 0:
            continue
        orbit = [i]
        least[i] = i
        j = (i * step) % order
        while j != i:
            least[j] = i
            orbit.append(j)
            j = (j * step) % order
        covered += len(orbit)
        if len(orbit) != d:
            continue
        # expand prod (t - root) in the host field
        coeffs = [1]
        for idx in orbit:
            root = exp[idx]
            nroot = host.neg(root)
            nxt = [0] * (len(coeffs) + 1)
            for deg_i, c in enumerate(coeffs):
                if c:
                    nxt[deg_i + 1] = host.add(nxt[deg_i + 1], c)
                    nxt[deg_i] = host.add(nxt[deg_i], host.mul(c, nroot))
            coeffs = nxt
        assert coeffs[-1] == 1
        small = tuple(coeffs[:-1] if down is None else (down[c] for c in coeffs[:-1]))
        rep = min(exp[idx] for idx in orbit)
        by_least[i] = UIrreducible(MonicPoly(ctx2, small), rep)
    assert covered == order, "orbit scan must partition the subgroup"
    table = {u.poly.coeffs: u for u in sorted(by_least.values(), key=UIrreducible.sort_key)}
    # the inverse roots of the orbit of i are the orbit of -i and, for odd q,
    # the negated roots the orbit of i + order/2 (-1 has that exponent)
    def image(s, t):  # f -> the U-irreducible of the orbit of s*i + t
        return {u.poly.coeffs: by_least[least[(s * i + t) % order]] for i, u in by_least.items()}

    return table, image(-1, 0), (image(1, order // 2) if q % 2 else {})


def enumerate_u_irreducibles(q: PrimePower, max_total_degree: int):
    """All U-irreducibles of degree <= bound, ordered by (degree, coeffs)."""
    if max_total_degree < 1:
        raise ValueError("degree bound must be at least 1")
    out = []
    for d in range(1, max_total_degree + 1):
        out.extend(_u_irreducibles_of_degree(q, d)[0].values())
    return tuple(out)


def u_irreducible_lookup(q: PrimePower, poly: MonicPoly) -> UIrreducible | None:
    """The UIrreducible with these coefficients, or None."""
    if poly.degree < 1:
        return None
    return _u_irreducibles_of_degree(q, poly.degree)[0].get(poly.coeffs)


def tilde(f):
    """Root inversion: MonicPoly -> MonicPoly or UIrreducible -> UIrreducible.

    On a UIrreducible it is a lookup in the pairing the orbit scan recorded,
    with no field arithmetic.
    """
    if isinstance(f, UIrreducible):
        return _u_irreducibles_of_degree(f.ctx.pp, f.degree)[1][f.poly.coeffs]
    ctx = f.ctx
    if f.degree == 0:
        return f
    c0 = f.coeffs[0]
    if c0 == 0:
        raise TildeUndefinedError("tilde undefined: zero constant term")
    inv0 = ctx.inv(c0)
    full = f.full()
    d = f.degree
    new = tuple(ctx.mul(full[d - i], inv0) for i in range(d))
    return MonicPoly(ctx, new)


def negate_uirr(f: UIrreducible) -> UIrreducible:
    """The U-irreducible of the negated roots of f (q odd), read off the orbit scan."""
    return _u_irreducibles_of_degree(f.ctx.pp, f.degree)[2][f.poly.coeffs]


def factor_into_u_irreducibles(u: MonicPoly):
    """Unique factorization into U-irreducibles, or an error.

    Returns a tuple of (UIrreducible, multiplicity) in canonical order.
    Refuses partial factorizations: if the input is not a product of
    U-irreducibles the whole call fails.
    """
    if u.degree == 0:
        return ()
    if u.constant == 0:
        raise NotUFactorableError("zero constant term")
    pp = u.ctx.pp
    out = []
    rest = u
    # ascending degree, so big-field scans only happen when actually needed
    for d in range(1, u.degree + 1):
        if rest.degree == 0 or d > rest.degree:
            break
        for cand in _u_irreducibles_of_degree(pp, d)[0].values():
            mult = 0
            while (nxt := poly_exact_div(rest, cand.poly)) is not None:
                rest = nxt
                mult += 1
            if mult:
                out.append((cand, mult))
    if rest.degree != 0:
        raise NotUFactorableError(
            f"degree-{u.degree} polynomial is not a product of U-irreducibles"
        )
    return tuple(out)


def is_self_conjugate(u: MonicPoly) -> bool:
    """tilde(u) == u, for monic u over the GF(q) subfield, nonzero constant."""
    if not u.is_over_base():
        raise NotOverBaseFieldError("polynomial has coefficients outside GF(q)")
    if u.degree and u.constant == 0:
        raise TildeUndefinedError("tilde undefined: zero constant term")
    return tilde(u) == u


def count_self_conjugate(deg: int, q: PrimePower, constant_one_only: bool = False) -> int:
    """Number of self-conjugate monic polynomials over GF(q).

    Unrestricted (nonzero constant): q^floor(deg/2) + q^floor((deg-1)/2).
    With constant term 1 the count is q^(deg/2) for even deg and 0 for odd.
    """
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    if deg == 0:
        return 1
    qq = q.q
    if constant_one_only:
        return qq ** (deg // 2) if deg % 2 == 0 else 0
    return qq ** (deg // 2) + qq ** ((deg - 1) // 2)


def enumerate_self_conjugate(deg: int, q: PrimePower, constant_one_only: bool = False):
    """Exhaustive list of self-conjugate monic polynomials over GF(q).

    With constant_one_only the list realizes the even-degree-and-constant-1
    constraint, so it is empty in odd degree (palindromes such as t+1 do
    exist there but are excluded by definition).
    """
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    ctx2 = make_context(q, 2)
    if deg == 0:
        return [poly_one(ctx2)]
    if constant_one_only and deg % 2:
        return []
    if q.q**deg > SELF_CONJ_ENUM_BOUND:
        raise EnumerationBoundError(
            f"q^deg = {q.q**deg} exceeds the enumeration bound {SELF_CONJ_ENUM_BOUND}"
        )
    F = table_for(q, 2)
    base = F.base_elems
    consts = (1,) if constant_one_only else tuple(c for c in base if c)
    out = []
    # iterate coefficient tuples (c_0 .. c_(deg-1)) in deterministic order
    for c0 in consts:
        for tail in itertools.product(base, repeat=deg - 1):
            u = MonicPoly(ctx2, (c0,) + tail)
            if tilde(u) == u:
                out.append(u)
    return out
