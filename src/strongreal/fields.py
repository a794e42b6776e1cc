"""Exact arithmetic in towers of small finite fields.

GF(p^(e*k)) is modeled as GF(p)[t] modulo a deterministic irreducible: the
lexicographically smallest monic irreducible of degree e*k over GF(p), where
coefficient vectors are compared low degree first as integers 0..p-1.

Elements are dense GF(p) coefficient vectors packed into a Python int in base
p, low digit first.  Contexts are immutable and cached, so identity comparison
of contexts is meaningful.  The bar map on a GF(q^2) context is a -> a^q,
FieldCtx.conj, defined on packed elements of any context whose degree over
GF(q) is at least 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter

from .errors import EnumerationBoundError, ExtensionTooLargeError, ZeroInputError

# Largest extension GF(p^deg) a context accepts, as deg * bit length of p.
EXTENSION_BIT_CAP = 64

# Every characteristic p stays below this.
P_CAP = 1 << 16

# Table-based field layers stay tiny; guard against misuse.
TABLE_SIZE_LIMIT = 4096


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


_set = object.__setattr__


class _Frozen:
    """Immutable value whose fields are its __slots__, each set once by
    _Frozen.__init__.  A class that checks or defaults its fields does so in
    its own __init__, then passes them on in __slots__ order.  Two values of
    one class are equal, and hash, by _key(), the tuple of the fields.
    Written out rather than made by @dataclass, whose import and per-class
    code generation slow the start of every process."""

    __slots__ = ()

    def __init__(self, *values, **named):
        # keywords may fill the fields after the positional values; a field
        # left out, or a keyword left over, makes the count differ
        names = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if len(values) != len(names) or named:
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = attrgetter(*cls.__slots__)  # a bare value for one slot
        if len(cls.__slots__) == 1:
            cls._key = lambda self: (fields(self),)
        else:
            cls._key = lambda self: fields(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class PrimePower(_Frozen):
    """q = p^e with p prime, verified by trial division at construction."""

    __slots__ = ("p", "e")

    def __init__(self, p: int, e: int = 1):
        if p >= P_CAP:
            raise ValueError("p must stay below 2^16")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("exponent must be positive")
        super().__init__(p, e)

    @property
    def q(self) -> int:
        return self.p**self.e

    def to_json(self):
        return {"p": self.p, "e": self.e}


def prime_power(q: int | PrimePower) -> PrimePower:
    """Parse an integer q as p^e; rejects non prime powers.  A PrimePower
    is returned as it is."""
    if isinstance(q, PrimePower):
        return q
    if q < 2:
        raise ValueError("q must be at least 2")
    # past P_CAP the cofactor left over is p or fails PrimePower's own cap
    p = _prime_factors(q, P_CAP)[0]
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return PrimePower(p, e)


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p); polys are tuples, low degree first


def _trim(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def _pmul(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(p, a, m):
    """a mod m in one top-down pass: each step clears the current top digit."""
    dm = len(m) - 1
    a = list(a)
    inv_lead = pow(m[-1], p - 2, p) if m[-1] != 1 else 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] * inv_lead % p
        if c:
            shift = top - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - c * m[i]) % p
    return _trim(a[:dm])


def _pgcd(p, a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(p, a, b)
    return a


def _ppowmod(p, base, exp, m):
    result = (1,)
    base = _pmod(p, base, m)
    while exp:
        if exp & 1:
            result = _pmod(p, _pmul(p, result, base), m)
        base = _pmod(p, _pmul(p, base, base), m)
        exp >>= 1
    return result


def _is_irreducible(p, f) -> bool:
    """Rabin test: x^(p^d) = x mod f and gcd(x^(p^(d/l)) - x, f) = 1."""
    d = len(f) - 1
    if d == 1:
        return True
    x = (0, 1)
    if _ppowmod(p, x, p**d, f) != x:
        return False
    for ell in _prime_factors(d):
        g = [*_ppowmod(p, x, p ** (d // ell), f), 0, 0]
        g[1] = (g[1] - 1) % p
        if len(_pgcd(p, g, f)) > 1:
            return False
    return True


def _prime_factors(n: int, below: int | None = None):
    """Distinct prime factors of n, ascending, by trial division.  With below,
    trial division stops there and the cofactor left over comes last, prime or
    not."""
    out = []
    f = 2
    while f * f <= n and (below is None or f < below):
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _lex_smallest_irreducible(p: int, deg: int):
    """Scan monic degree-deg polynomials in low-degree-first lex order, past
    the ones divisible by t (constant term 0), which all come first."""
    if deg == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (deg - 1)):
        f = tail + (1,)
        if _is_irreducible(p, f):
            return f
    raise AssertionError("no irreducible found; unreachable for deg >= 1")


def _pack(p, coords) -> int:
    """Base-p packing of a GF(p) coefficient sequence, low digit first."""
    out = 0
    for c in reversed(coords):
        out = out * p + c
    return out


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for GF(p^(e*k)); construct through make_context.

    Elements are ints in [0, p^(e*k)), the base-p packing of the coefficient
    vector with respect to the power basis of the modulus.
    """

    def __init__(self, pp: PrimePower, k: int):
        if k < 1:
            raise ValueError("extension degree must be positive")
        deg = pp.e * k
        if deg * pp.p.bit_length() > EXTENSION_BIT_CAP:
            raise ExtensionTooLargeError(
                f"GF({pp.p}^{deg}) exceeds the {EXTENSION_BIT_CAP}-bit extension cap"
            )
        self.pp = pp
        self.k = k
        self.deg = deg
        self.p = pp.p
        self.size = pp.p**deg
        self.modulus = _lex_smallest_irreducible(pp.p, deg)
        self._powers = tuple(self.p**i for i in range(deg))
        self._gen = None

    # -- encoding ----------------------------------------------------------

    def to_coords(self, a: int):
        p = self.p
        return tuple([a // w % p for w in self._powers])

    def from_coords(self, coords) -> int:
        if len(coords) != self.deg:
            raise ValueError(f"expected {self.deg} coordinates")
        p = self.p
        return _pack(p, [c % p for c in coords])

    # -- ring operations on packed ints -------------------------------------
    # a // p^i is congruent to digit i of a (to_coords) mod p, so one % p
    # gives each digit of a sum or negative

    def add(self, a: int, b: int) -> int:
        p = self.p
        return _pack(p, [(a // w + b // w) % p for w in self._powers])

    def neg(self, a: int) -> int:
        p = self.p
        return _pack(p, [-(a // w) % p for w in self._powers])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p = self.p
        prod = _pmul(p, self.to_coords(a), self.to_coords(b))
        return _pack(p, _pmod(p, prod, self.modulus))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroInputError("0 has no negative powers")
            return 0
        p = self.p
        n %= self.size - 1
        return _pack(p, _ppowmod(p, self.to_coords(a), n, self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInputError("zero is not invertible")
        return self.pow(a, self.size - 2)

    def conj(self, a: int) -> int:
        """The bar map a -> a^q (order 2 on a GF(q^2) context)."""
        return self.pow(a, self.pp.q)

    # -- multiplicative structure -------------------------------------------

    def generator(self) -> int:
        """Smallest packed element generating the multiplicative group."""
        if self._gen is not None:
            return self._gen
        q1 = self.size - 1
        primes = _prime_factors(q1)
        for g in range(1, self.size):
            if all(self.pow(g, q1 // ell) != 1 for ell in primes):
                self._gen = g
                return g
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def exp_log(self, order: int):
        """Powers h^0 .. h^(order-1) of h = generator^((size-1)/order) and
        their log dict (packed -> index).

        order must divide size - 1; h then generates the cyclic subgroup of
        that order.  Built on every call: callers keep what they derive from
        it, not the tables.
        """
        h = self.pow(self.generator(), (self.size - 1) // order)
        exp = [0] * order
        cur = 1
        for i in range(order):
            exp[i] = cur
            cur = self.mul(cur, h)
        if cur != 1:
            raise AssertionError("generator order mismatch")
        return exp, {v: i for i, v in enumerate(exp)}

    # -- subfields -----------------------------------------------------------

    def subfield_map(self, sub: "FieldCtx") -> dict:
        """Packed-value dict from this field's copy of `sub` down to `sub`.

        The embedding sends sub's power basis to powers of a deterministic
        root of sub.modulus in this field (smallest packed root).  On a field
        of sub's own degree that root is t, so the map is the identity.
        """
        if sub.p != self.p or self.deg % sub.deg:
            raise ValueError("not a subfield of this context")
        root = self._subfield_root(sub)
        return {self._eval_base_poly(sub.to_coords(y), root): y for y in range(sub.size)}

    def _subfield_root(self, sub: "FieldCtx") -> int:
        """Smallest packed root of sub.modulus in this field."""
        if sub.deg == 1:
            # base modulus is t itself; its root is 0
            return 0
        # the roots are nonzero elements of the copy of sub, whose
        # multiplicative group is the order-(p^sub.deg - 1) subgroup
        exp, _ = self.exp_log(self.p**sub.deg - 1)
        roots = [a for a in exp if self._eval_base_poly(sub.modulus, a) == 0]
        if not roots:
            raise AssertionError("subfield modulus always has a root here")
        return min(roots)

    def _eval_base_poly(self, poly, a: int) -> int:
        """Evaluate a GF(p)-coefficient polynomial at a packed element."""
        acc = 0
        for c in reversed(poly):
            acc = self.mul(acc, a)
            if c:
                acc = self.add(acc, c % self.p)
        return acc

    def to_json(self):
        return {
            "p": self.p,
            "e": self.pp.e,
            "k": self.k,
            "modulus_coords": list(self.modulus),
        }

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.deg}), k={self.k})"

    def __reduce__(self):
        # contexts compare by identity, so a copy or an unpickled context is
        # the cached one, and values over it stay equal to their originals
        return make_context, (self.pp, self.k)


@lru_cache(maxsize=None)
def make_context(pp: PrimePower, k: int) -> FieldCtx:
    """Context for GF(q^k) with the deterministic lex-smallest modulus."""
    return FieldCtx(pp, k)


# ---------------------------------------------------------------------------
# dense operation tables for the small fields that matrices live over


class GFTable:
    """Dense add/mul/inv/conj tables for a small context (size <= 4096).

    Matrix and polynomial inner loops index these tables with packed ints.
    """

    def __init__(self, ctx: FieldCtx):
        if ctx.size > TABLE_SIZE_LIMIT:
            raise EnumerationBoundError(
                f"refusing dense tables for a field of size {ctx.size}"
            )
        self.ctx = ctx
        self.size = ctx.size
        n = ctx.size
        self.neg = [ctx.neg(a) for a in range(n)]
        # every table from one pass over the powers of the generator, with
        # indices mod n - 1: a b = exp[log a + log b], and a + b =
        # exp[log a + Z(log b - log a)] with the Zech logarithm
        # Z(k) = log(1 + exp[k]), None where 1 + exp[k] = 0
        m = n - 1
        exp, log = ctx.exp_log(m)
        logs = [log[a] for a in range(1, n)]
        exp2 = exp + exp
        zech = [log.get(ctx.add(1, e)) for e in exp]
        self.add = [list(range(n))]
        for a, la in zip(range(1, n), logs):
            row = [a]
            for lb in logs:
                z = zech[(lb - la) % m]
                row.append(0 if z is None else exp2[la + z])
            self.add.append(row)
        self.mul = [[0] * n] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [0] + [exp[-la % m] for la in logs]
        self.conj = [0] + [exp[la * ctx.pp.q % m] for la in logs]
        self.base_elems = tuple(a for a in range(n) if self.conj[a] == a)
        self.trace_zero = tuple(
            a for a in range(n) if self.add[a][self.conj[a]] == 0
        )

    def sub(self, a, b):
        return self.add[a][self.neg[b]]


@lru_cache(maxsize=None)
def table_for(pp: PrimePower, k: int = 2) -> GFTable:
    """Operation tables for GF(q^k); k = 2 is the matrix entry field."""
    return GFTable(make_context(pp, k))
