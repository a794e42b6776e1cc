"""Combinatorial labels for conjugacy classes of unitary and symplectic groups.

A class of U(n, F_q) is a partition-valued function on U-irreducible
polynomials whose weighted support size is n; elements of the class have
elementary divisors f^(part) for each part of the partition attached to f.
Symplectic classes (q odd) additionally carry a sign on every even part value
of the partitions at t-1 and t+1.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import DatumError, NegationUndefinedError
from .fields import PrimePower, _Frozen, make_context
from .upoly import (
    MonicPoly,
    UIrreducible,
    negate_uirr,
    poly_from_json,
    poly_mul,
    poly_one,
    tilde,
    u_irreducible_lookup,
)


class Partition(_Frozen):
    """Weakly decreasing tuple of positive parts, ordered as its parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        super().__init__(parts)

    # a > b and a >= b fall back to b < a and b <= a
    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is Partition else NotImplemented

    def __le__(self, other):
        return self.parts <= other.parts if other.__class__ is Partition else NotImplemented

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def mult(self, i: int) -> int:
        """Multiplicity of the part i."""
        return sum(1 for p in self.parts if p == i)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def unpaired(self, parity: int, least: int = 1) -> list[int]:
        """The parts p >= least with p % 2 == parity and odd multiplicity, ascending."""
        return sorted(
            p for p, m in self.multiplicities().items() if p >= least and p % 2 == parity and m % 2
        )

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partition(parts) -> Partition:
    return Partition(tuple(sorted((int(p) for p in parts), reverse=True)))


EMPTY = Partition(())


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest-first lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(t) for t in gen(n, n))


def commutant_dim(mu: Partition) -> int:
    """Sum over part pairs of min(part_i, part_j).

    This is the dimension of the algebra of matrices commuting with a
    nilpotent of Jordan type mu.
    """
    parts = mu.parts
    return sum(min(a, b) for a in parts for b in parts)


# ---------------------------------------------------------------------------


class ClassDatum(_Frozen):
    """Partition-valued label of a conjugacy class of U(n, F_q).

    blocks maps U-irreducibles in the support to nonempty partitions, kept
    sorted by (degree, coefficients) so equality is structural.
    """

    __slots__ = ("q", "blocks")

    @property
    def n(self) -> int:
        return sum(f.degree * mu.size for f, mu in self.blocks)

    def partition_at(self, f: UIrreducible) -> Partition:
        for g, mu in self.blocks:
            if g == f:
                return mu
        return EMPTY

    def to_json(self):
        return {
            "q": self.q.to_json(),
            "n": self.n,
            "blocks": [
                {"poly": f.poly.to_json(), "partition": list(mu.parts)}
                for f, mu in self.blocks
            ],
        }

    def __repr__(self):
        inner = ", ".join(f"{f.poly.coeffs}:{mu.parts}" for f, mu in self.blocks)
        return f"ClassDatum(q={self.q.q}, {{{inner}}})"


def class_datum(q: PrimePower, assignments) -> ClassDatum:
    """Build a datum from {UIrreducible: Partition}; drops empty partitions."""
    items = assignments.items() if isinstance(assignments, dict) else assignments
    blocks = []
    seen = set()
    for f, mu in items:
        if not isinstance(f, UIrreducible):
            raise DatumError("block keys must be U-irreducible polynomials")
        if not isinstance(mu, Partition):
            mu = partition(mu)
        if mu.size == 0:
            continue
        if f.poly.coeffs in seen:
            raise DatumError("duplicate U-irreducible block")
        seen.add(f.poly.coeffs)
        blocks.append((f, mu))
    blocks.sort(key=lambda fm: fm[0].sort_key())
    return ClassDatum(q, tuple(blocks))


def make_class_datum(q: PrimePower, elementary_divisors, expected_n=None) -> ClassDatum:
    """Datum from a list of (MonicPoly base, exponent) elementary divisors.

    Each base polynomial must itself be U-irreducible; exponents of the same
    base are collected into the partition.
    """
    grouped: dict = {}
    for base, exponent in elementary_divisors:
        if exponent < 1:
            raise DatumError("exponents must be at least 1")
        if isinstance(base, UIrreducible):
            uirr = base
        else:
            uirr = u_irreducible_lookup(q, base)
            if uirr is None:
                raise DatumError(
                    f"base polynomial {base.coeffs} is not U-irreducible"
                )
        grouped.setdefault(uirr, []).append(exponent)
    datum = class_datum(q, {f: partition(exps) for f, exps in grouped.items()})
    if expected_n is not None and datum.n != expected_n:
        raise DatumError(f"degree mismatch: datum has n={datum.n}, expected {expected_n}")
    return datum


def t_minus_one(q: PrimePower) -> UIrreducible:
    out = u_irreducible_lookup(q, MonicPoly(make_context(q, 2), (q.p - 1,)))  # -1 packs to p - 1
    assert out is not None
    return out


def t_plus_one(q: PrimePower) -> UIrreducible:
    out = u_irreducible_lookup(q, MonicPoly(make_context(q, 2), (1,)))
    assert out is not None
    return out


def unipotent_datum(q: PrimePower, mu) -> ClassDatum:
    return class_datum(q, {t_minus_one(q): mu})


def is_real(d: ClassDatum) -> bool:
    """True iff the partition at f equals the partition at tilde(f) for all f."""
    for f, mu in d.blocks:
        if d.partition_at(tilde(f)) != mu:
            return False
    return True


def unitary_order(n: int, q: int, sign: int = -1) -> int:
    """|U(n, F_q)| = q^(n(n-1)/2) prod (q^i - (-1)^i); sign 1 gives |GL(n, F_q)|."""
    return q ** (n * (n - 1) // 2) * prod(q**i - sign**i for i in range(1, n + 1))


def centralizer_order(d: ClassDatum) -> int:
    """|C(g)| for g in U(n, F_q) in the class of d, by Wall's formula.

    Per U-irreducible f of degree k with partition mu and part multiplicities
    m_i: (q^k)^(sum mu'_i^2 - sum m_i^2) times prod |U(m_i, q^k)| for odd k,
    prod |GL(m_i, q^k)| for even k (f a product of two conjugate
    irreducibles).
    """
    out = 1
    for f, mu in d.blocks:
        Q = d.q.q**f.degree
        mults = mu.multiplicities().values()
        out *= Q ** (commutant_dim(mu) - sum(m * m for m in mults))
        for m in mults:
            out *= unitary_order(m, Q, (-1) ** f.degree)
    return out


def star_decompose(d: ClassDatum) -> list[ClassDatum]:
    """Split a real datum into one piece per tilde pair, at its first block; a
    self-conjugate f, t-1 and t+1 among them, is a pair of one."""
    if not is_real(d):
        raise DatumError("star decomposition requires a real datum")
    return [
        class_datum(d.q, {f: mu, tilde(f): mu})
        for f, mu in d.blocks
        if f.sort_key() <= tilde(f).sort_key()
    ]


def negate(d: ClassDatum) -> ClassDatum:
    """The datum of -g for g in the class of d; errors in characteristic 2."""
    if d.q.p == 2:
        raise NegationUndefinedError(
            "negation does not permute classes in characteristic 2 (t+1 = t-1)"
        )
    return class_datum(d.q, {negate_uirr(f): mu for f, mu in d.blocks})


def invert(d: ClassDatum) -> ClassDatum:
    """The datum of g^(-1) for g in the class of d: each f becomes tilde(f)."""
    return class_datum(d.q, {tilde(f): mu for f, mu in d.blocks})


def u_sequence(d: ClassDatum) -> list[MonicPoly]:
    """u_i = prod over f of f^(multiplicity of part i), for i = 1..max part."""
    ctx = make_context(d.q, 2)
    top = max((mu.max_part for _, mu in d.blocks), default=0)
    out = []
    for i in range(1, top + 1):
        u = poly_one(ctx)
        for f, mu in d.blocks:
            for _ in range(mu.mult(i)):
                u = poly_mul(u, f.poly)
        out.append(u)
    return out


def _parts_from_json(parts) -> list[int]:
    """Partition parts as JSON gives them; each must be an int, since int()
    would read 1.9 and true as 1 and "2" as 2."""
    parts = list(parts)
    if not all(type(p) is int for p in parts):
        raise TypeError(f"partition parts must be ints, got {parts}")
    return parts


def _int_from_json(obj, key):
    """obj[key] or None if absent; like a part it must be an int, not "1", true or 1.0."""
    if (value := obj.get(key)) is not None and type(value) is not int:
        raise TypeError(f"{key} must be an int, got {value!r}")
    return value


def datum_from_json(obj) -> ClassDatum:
    q = PrimePower(obj["q"]["p"], obj["q"].get("e", 1))
    ctx = make_context(q, 2)
    divisors = []
    for block in obj["blocks"]:
        base = poly_from_json(ctx, block["poly"])
        divisors += [(base, part) for part in _parts_from_json(block["partition"])]
    return make_class_datum(q, divisors, expected_n=_int_from_json(obj, "n"))


# ---------------------------------------------------------------------------
# symplectic labels (q odd)


class SignedPartition(_Frozen):
    """Partition with odd parts of even multiplicity and signed even parts.

    signs lists (even part value, +1 or -1), one entry per even part value
    present in the base partition.
    """

    __slots__ = ("base", "signs")

    def __init__(self, base: Partition, signs: tuple[tuple[int, int], ...] = ()):
        if odd := base.unpaired(1):  # name the largest
            raise DatumError(
                f"odd part {odd[-1]} has odd multiplicity {base.mult(odd[-1])} "
                "in a signed partition"
            )
        even_values = {part for part in base if part % 2 == 0}
        sign_domain = {part for part, _ in signs}
        if sign_domain != even_values:
            raise DatumError("signs must cover exactly the even part values")
        if any(s not in (1, -1) for _, s in signs):
            raise DatumError("signs must be +1 or -1")
        if tuple(sorted(signs, reverse=True)) != signs:
            raise DatumError("signs must be sorted by part, descending")
        super().__init__(base, signs)

    @property
    def size(self) -> int:
        return self.base.size

    def even_value_count(self) -> int:
        return len(self.signs)

    def to_json(self):
        return {
            "partition": list(self.base.parts),
            "signs": {str(p): ("+" if s == 1 else "-") for p, s in self.signs},
        }

    def __repr__(self):
        return f"SignedPartition({self.base.parts}, signs={dict(self.signs)})"


EMPTY_SIGNED = SignedPartition(EMPTY, ())


def signed_partition(parts, signs=None) -> SignedPartition:
    base = partition(parts)
    if signs is None:
        signs = {}
    sign_items = tuple(
        sorted(((int(p), int(s)) for p, s in dict(signs).items()), reverse=True)
    )
    return SignedPartition(base, sign_items)


def enumerate_signed_partitions(weight: int) -> tuple[SignedPartition, ...]:
    """All symplectic signed partitions of the given weight."""
    out = []
    for base in partitions_of(weight):
        if base.unpaired(1):
            continue
        evens = sorted({p for p in base if p % 2 == 0}, reverse=True)
        for mask in range(1 << len(evens)):
            signs = tuple(
                (p, 1 if mask >> i & 1 == 0 else -1) for i, p in enumerate(evens)
            )
            out.append(SignedPartition(base, signs))
    return tuple(out)


class SymplecticClassDatum(_Frozen):
    """Label of a conjugacy class of Sp(2n, F_q), q odd.

    pairs is a real unitary datum away from t+-1 (each f and tilde(f) carry
    equal partitions); the t-1 and t+1 blocks are symplectic signed
    partitions.
    """

    __slots__ = ("pairs", "signed_plus", "signed_minus")

    def __init__(
        self, pairs: ClassDatum, signed_plus: SignedPartition, signed_minus: SignedPartition
    ):
        if pairs.q.p == 2:
            raise DatumError("symplectic data here require odd q")
        if {t_minus_one(pairs.q), t_plus_one(pairs.q)} & {f for f, _ in pairs.blocks}:
            raise DatumError("t+-1 belongs in the signed components")
        if not is_real(pairs):
            raise DatumError("blocks must satisfy mu(f) = mu(tilde f)")
        if (signed_plus.size + signed_minus.size + pairs.n) % 2:
            raise DatumError("total degree of a symplectic datum must be even")
        super().__init__(pairs, signed_plus, signed_minus)

    @property
    def q(self) -> PrimePower:
        return self.pairs.q

    @property
    def blocks(self) -> tuple[tuple[UIrreducible, Partition], ...]:
        return self.pairs.blocks

    @property
    def n2(self) -> int:
        return self.signed_plus.size + self.signed_minus.size + self.pairs.n

    def to_json(self):
        pairs = self.pairs.to_json()
        return {
            "q": pairs["q"],
            "n2": self.n2,
            "blocks": pairs["blocks"],
            "t_minus_1": self.signed_plus.to_json(),
            "t_plus_1": self.signed_minus.to_json(),
        }


def symplectic_datum(
    q: PrimePower,
    blocks=None,
    signed_plus: SignedPartition = EMPTY_SIGNED,
    signed_minus: SignedPartition = EMPTY_SIGNED,
) -> SymplecticClassDatum:
    return SymplecticClassDatum(class_datum(q, blocks or {}), signed_plus, signed_minus)


def sp_splitting_count(d: SymplecticClassDatum) -> int:
    """2^(k1+k2) where k1, k2 count signed even part values at t-1, t+1."""
    return 1 << (d.signed_plus.even_value_count() + d.signed_minus.even_value_count())


def sp_datum_from_json(obj) -> SymplecticClassDatum:
    pairs = datum_from_json({"q": obj["q"], "blocks": obj.get("blocks", [])})

    def read_signed(key):
        sub = obj.get(key)
        if not sub:
            return EMPTY_SIGNED
        raw = sub.get("signs", {})
        # keys as to_json writes them, str(part): int() would read "02" and " 2" as 2
        if not all(p.isdecimal() and p == str(int(p)) and s in ("+", "-") for p, s in raw.items()):
            raise TypeError(f'signs must map str(part) to "+" or "-", got {raw}')
        signs = {int(p): (1 if s == "+" else -1) for p, s in raw.items()}
        return signed_partition(_parts_from_json(sub["partition"]), signs)

    expected = _int_from_json(obj, "n2")
    datum = SymplecticClassDatum(pairs, read_signed("t_minus_1"), read_signed("t_plus_1"))
    if expected is not None and datum.n2 != expected:
        raise DatumError(f"degree mismatch: datum has n2={datum.n2}, expected {expected}")
    return datum
