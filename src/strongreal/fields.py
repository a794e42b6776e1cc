"""Exact arithmetic in towers of small finite fields.

GF(p^(e*k)) is modeled as GF(p)[t] modulo a deterministic irreducible: the
lexicographically smallest monic irreducible of degree e*k over GF(p), where
coefficient vectors are compared low degree first as integers 0..p-1.

Elements are dense GF(p) coefficient vectors packed into a Python int in base
p, low digit first.  Contexts are immutable and cached, so identity comparison
of contexts is meaningful.  The bar map on a GF(q^2) context is a -> a^q and
the twisted map is a -> a^(-q); both are FieldCtx methods on packed elements
of any context whose degree over GF(q) is at least 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import EnumerationBoundError, ExtensionTooLargeError, ZeroInputError

# Largest extension GF(p^deg) a context accepts, as deg * bit length of p.
EXTENSION_BIT_CAP = 64

# Table-based field layers stay tiny; guard against misuse.
TABLE_SIZE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """q = p^e with p prime, verified by trial division at construction."""

    p: int
    e: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p >= 1 << 16:
            raise ValueError("p must stay below 2^16")
        if self.e < 1:
            raise ValueError("exponent must be positive")

    @property
    def q(self) -> int:
        return self.p**self.e

    def to_json(self):
        return {"p": self.p, "e": self.e}

    def __repr__(self):
        return f"PrimePower(p={self.p}, e={self.e})"


def prime_power(q: int) -> PrimePower:
    """Parse an integer q as p^e; rejects non prime powers."""
    if q < 2:
        raise ValueError("q must be at least 2")
    p = 2
    while q % p:
        p += 1
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
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(p, a, m):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p) if m[-1] != 1 else 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _trim(a)


def _pgcd(p, a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(p, a, b)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
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


def _minus_x(p, g):
    """g(x) - x as a trimmed tuple."""
    out = list(g) + [0] * max(0, 2 - len(g))
    out[1] = (out[1] - 1) % p
    return _trim(out)


def _is_irreducible(p, f) -> bool:
    """Rabin test: x^(p^d) = x mod f and gcd(x^(p^(d/l)) - x, f) = 1."""
    d = len(f) - 1
    if d == 1:
        return True
    x = (0, 1)
    if _minus_x(p, _ppowmod(p, x, p**d, f)):
        return False
    for ell in _prime_factors(d):
        g = _minus_x(p, _ppowmod(p, x, p ** (d // ell), f))
        if len(_pgcd(p, g, f)) > 1:
            return False
    return True


def _prime_factors(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _lex_smallest_irreducible(p: int, deg: int):
    """Scan monic degree-deg polynomials in low-degree-first lex order."""
    if deg == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=deg):
        if tail[0] == 0:
            continue  # divisible by t
        f = tuple(tail) + (1,)
        if any(_eval_mod_p(p, f, a) == 0 for a in range(p)):
            continue  # has a root in GF(p)
        if _is_irreducible(p, f):
            return f
    raise AssertionError("no irreducible found; unreachable for deg >= 1")


def _eval_mod_p(p, f, a):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


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
        # t^(deg+i) mod modulus, used for schoolbook reduction
        red = []
        cur = tuple(((-c) % self.p) for c in self.modulus[:-1])
        for _ in range(deg - 1):
            red.append(cur + (0,) * (deg - len(cur)))
            cur = self._times_t(cur)
        self._red = red
        self._powers = tuple(self.p**i for i in range(deg + 1))
        self._gen = None
        self._sub_maps = {}

    # -- encoding ----------------------------------------------------------

    def to_coords(self, a: int):
        p = self.p
        return tuple((a // self._powers[i]) % p for i in range(self.deg))

    def from_coords(self, coords) -> int:
        if len(coords) != self.deg:
            raise ValueError(f"expected {self.deg} coordinates")
        p = self.p
        out = 0
        for i, c in enumerate(coords):
            out += (c % p) * self._powers[i]
        return out

    def _times_t(self, coords):
        """Multiply a full-length coord vector by t, reduced mod modulus."""
        p = self.p
        deg = self.deg
        coords = (0,) + tuple(coords)
        if len(coords) <= deg:
            return _trim(coords)
        top = coords[deg]
        out = [coords[i] for i in range(deg)]
        if top:
            for i in range(deg):
                out[i] = (out[i] - top * self.modulus[i]) % p
        return _trim(out)

    # -- ring operations on packed ints -------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self._digitwise(a, b, lambda x, y: (x + y) % p)

    def _digitwise(self, a, b, op):
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.deg):
            out += op(a % p, b % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        p = self.p
        return self._digitwise(a, b, lambda x, y: (x - y) % p)

    def neg(self, a: int) -> int:
        p = self.p
        return self._digitwise(a, 0, lambda x, _: (-x) % p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        ca = self.to_coords(a)
        cb = self.to_coords(b)
        p = self.p
        deg = self.deg
        buf = [0] * (2 * deg - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    buf[i + j] = (buf[i + j] + x * y) % p
        out = buf[:deg]
        for i in range(deg, 2 * deg - 1):
            c = buf[i]
            if c:
                red = self._red[i - deg]
                for j in range(deg):
                    out[j] = (out[j] + c * red[j]) % p
        return self.from_coords(out)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroInputError("0 has no negative powers")
            return 0
        n %= self.size - 1
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInputError("zero is not invertible")
        return self.pow(a, self.size - 2)

    def frobenius_q(self, a: int, power: int = 1) -> int:
        """a -> a^(q^power) for q = p^e."""
        if a == 0:
            return 0
        exponent = pow(self.pp.q, power, self.size - 1)
        return self.pow(a, exponent)

    def conj(self, a: int) -> int:
        """The bar map a -> a^q (order 2 on a GF(q^2) context)."""
        return self.frobenius_q(a, 1)

    def u_frob(self, a: int) -> int:
        """The twisted map a -> a^(-q)."""
        if a == 0:
            raise ZeroInputError("a -> a^(-q) is undefined at zero")
        return self.inv(self.frobenius_q(a, 1))

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
        root of sub.modulus in this field (smallest packed root).
        """
        key = (sub.p, sub.deg)
        cached = self._sub_maps.get(key)
        if cached is not None:
            return cached
        if sub.p != self.p or self.deg % sub.deg:
            raise ValueError("not a subfield of this context")
        if sub.deg == self.deg:
            mapping = {a: a for a in range(self.size)}
            self._sub_maps[key] = mapping
            return mapping
        root = self._subfield_root(sub)
        mapping = {}
        for y in range(sub.size):
            coords = sub.to_coords(y)
            acc = 0
            rp = 1
            for c in coords:
                if c:
                    acc = self.add(acc, self.mul(c % self.p, rp))
                rp = self.mul(rp, root)
            mapping[acc] = y
        self._sub_maps[key] = mapping
        return mapping

    def embed_from(self, sub: "FieldCtx") -> dict:
        """Packed-value dict from `sub` into this field."""
        return {v: k for k, v in self.subfield_map(sub).items()}

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
        self.one = 1
        self.zero = 0
        self.base_elems = tuple(a for a in range(n) if self.conj[a] == a)
        self.norm_one = tuple(
            a for a in range(1, n) if self.mul[a][self.conj[a]] == 1
        )
        self.trace_zero = tuple(
            a for a in range(n) if self.add[a][self.conj[a]] == 0
        )

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def norm(self, a):
        return self.mul[a][self.conj[a]]


@lru_cache(maxsize=None)
def table_for(pp: PrimePower, k: int = 2) -> GFTable:
    """Operation tables for GF(q^k); k = 2 is the matrix entry field."""
    return GFTable(make_context(pp, k))
