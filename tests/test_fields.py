"""Field tower: moduli, Frobenius maps, norms, tables."""

import pytest

from strongreal.errors import ExtensionTooLargeError, ZeroInputError
from strongreal.fields import FieldCtx, PrimePower, make_context, prime_power, table_for

from field_helpers import embed_from, frobenius, norm_one, u_frob

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def brute_irreducibles(p, deg):
    """All monic degree-deg polynomials over GF(p) with no proper factor,
    found by trial division against smaller monic polynomials."""
    import itertools

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    monics = {
        d: [tuple(t) + (1,) for t in itertools.product(range(p), repeat=d)]
        for d in range(1, deg)
    }
    products = set()
    for d in range(1, deg // 2 + 1):
        for a in monics[d]:
            for b in monics[deg - d]:
                products.add(poly_mul(a, b))
    return [
        tuple(t) + (1,)
        for t in itertools.product(range(p), repeat=deg)
        if tuple(t) + (1,) not in products
    ]


def test_prime_power_validation():
    assert PrimePower(3, 2).q == 9
    with pytest.raises(ValueError):
        PrimePower(4)
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    assert prime_power(8) == PrimePower(2, 3)
    assert prime_power(9) == PrimePower(3, 2)
    with pytest.raises(ValueError):
        prime_power(12)


def brute_factorization(n):
    """{prime: exponent} of n >= 2, dividing by every d from 2 up."""
    out = {}
    d = 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def test_prime_power_matches_brute_factoring():
    for q in range(-2, 5000):
        factors = brute_factorization(q) if q >= 2 else {}
        if len(factors) == 1:
            ((p, e),) = factors.items()
            assert prime_power(q) == PrimePower(p, e), q
        else:
            with pytest.raises(ValueError):
                prime_power(q)


@pytest.mark.parametrize(
    "q", [65537, 65537**2, 3 * 65537, 65537 * 65539, 10**9 + 7, (10**9 + 7) ** 2, 2 * (10**9 + 7)]
)
def test_prime_power_rejects_large_primes_at_the_cap(q):
    # trial division stops at 2^16, the cap on p, so these return at once
    with pytest.raises(ValueError, match=r"2\^16|not a prime power"):
        prime_power(q)


def test_prime_power_above_the_cap_is_rejected_before_the_primality_test():
    # is_prime((10^9 + 7)^2) would divide by every d up to 10^9 + 7
    with pytest.raises(ValueError, match=r"p must stay below 2\^16"):
        PrimePower((10**9 + 7) ** 2)
    assert prime_power(3**40) == PrimePower(3, 40)
    assert prime_power(65521**2) == PrimePower(65521, 2)


def test_prime_power_returns_a_prime_power_as_it_is():
    # every entry point coerces q through prime_power, integer or not
    pp = PrimePower(3, 2)
    assert prime_power(pp) is pp
    assert prime_power(9) == pp


def test_gf3_prime_field_modulus():
    ctx = make_context(PP3, 1)
    assert ctx.modulus == (0, 1)  # the polynomial t
    assert ctx.size == 3


def test_gf9_modulus_is_lex_smallest_irreducible():
    # oracle: enumerate all 9 monic quadratics over GF(3), keep irreducibles,
    # take the lexicographic minimum of (c0, c1)
    expected = min(brute_irreducibles(3, 2))
    assert make_context(PP3, 2).modulus == expected


def test_gf4_modulus_unique_quadratic():
    irr = brute_irreducibles(2, 2)
    assert irr == [(1, 1, 1)]  # t^2 + t + 1 is the only one
    assert make_context(PP2, 2).modulus == (1, 1, 1)


def test_modulus_matches_bruteforce_through_degree_6():
    for p in (2, 3):
        for deg in (2, 3, 4, 5, 6):
            ctx = FieldCtx(PrimePower(p), deg)
            assert ctx.modulus == min(brute_irreducibles(p, deg))


def test_modulus_deterministic_rebuild():
    a = FieldCtx(PP5, 4)
    b = FieldCtx(PP5, 4)
    assert a.modulus == b.modulus


def test_extension_cap():
    with pytest.raises(ExtensionTooLargeError):
        make_context(PrimePower(3), 64)


def test_every_element_fixed_by_full_frobenius():
    for pp, k in ((PP3, 2), (PP2, 2), (PrimePower(2, 2), 1)):
        ctx = make_context(pp, k)
        for a in range(ctx.size):
            assert ctx.pow(a, ctx.size) == a


def test_frobenius_is_field_automorphism_of_order_two():
    ctx = make_context(PP3, 2)
    for a in range(ctx.size):
        for b in range(ctx.size):
            assert ctx.conj(ctx.add(a, b)) == ctx.add(ctx.conj(a), ctx.conj(b))
            assert ctx.conj(ctx.mul(a, b)) == ctx.mul(ctx.conj(a), ctx.conj(b))
        assert ctx.conj(ctx.conj(a)) == a
    assert any(ctx.conj(a) != a for a in range(ctx.size))


def test_frobenius_fixes_base_field():
    base = make_context(PP3, 1)
    for a in range(3):
        assert frobenius(base, a, 5) == a


def test_frobenius_on_primitive_element_is_cube():
    ctx = make_context(PP3, 2)
    g = ctx.generator()
    # direct exponentiation oracle
    cube = ctx.mul(ctx.mul(g, g), g)
    assert frobenius(ctx, g, 1) == cube


def test_u_frobenius_examples():
    ctx = make_context(PP3, 2)
    assert u_frob(ctx, 1) == 1
    minus1 = ctx.neg(1)
    assert u_frob(ctx, minus1) == minus1
    # order-8 element: exponent arithmetic mod 8 gives g^(-3) = g^5
    g = ctx.generator()
    g5 = ctx.pow(g, 5)
    assert u_frob(ctx, g) == g5
    with pytest.raises(ZeroInputError):
        u_frob(ctx, 0)


def test_u_frobenius_twice_is_q_squared_power():
    for pp in (PP2, PP3):
        ctx = make_context(pp, 2)
        for a in range(1, ctx.size):
            assert u_frob(ctx, u_frob(ctx, a)) == frobenius(ctx, a, 2)


def test_norm_lands_in_base_and_is_conj_fixed():
    ctx = make_context(PP3, 2)
    for a in range(ctx.size):
        v = ctx.mul(a, ctx.conj(a))
        assert ctx.conj(v) == v
    # the norm of 1, read down in the GF(3) base context, is 1
    down = ctx.subfield_map(make_context(PP3, 1))
    assert down[ctx.mul(1, ctx.conj(1))] == 1


def test_norm_of_order_three_element_in_gf4():
    ctx = make_context(PP2, 2)
    omega = next(a for a in range(2, 4) if ctx.pow(a, 3) == 1 and a != 1)
    down = ctx.subfield_map(make_context(PP2, 1))
    assert down[ctx.mul(omega, ctx.conj(omega))] == 1


def test_norm_preimage_counts_are_q_plus_one():
    # exhaustive count for q = 3
    ctx = make_context(PP3, 2)
    base = make_context(PP3, 1)
    up = embed_from(ctx, base)
    for c in (1, 2):
        pre = [b for b in range(1, 9) if ctx.mul(b, ctx.conj(b)) == up[c]]
        assert len(pre) == 4
    # the norm map is onto GF(3) and only 0 has norm 0
    assert {ctx.mul(b, ctx.conj(b)) for b in range(9)} == {up[c] for c in range(3)}
    assert [b for b in range(9) if ctx.mul(b, ctx.conj(b)) == up[0]] == [0]


def test_field_ctx_operators():
    ctx = make_context(PP3, 2)
    a, b = 3, 5
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.add(ctx.neg(a), a) == 0
    assert ctx.pow(a, 8) == 1
    assert ctx.conj(ctx.conj(a)) == a != ctx.conj(a)
    assert list(ctx.to_coords(a)) == [0, 1]


def reference_digitwise(ctx, a, b, op):
    """The per-digit loop FieldCtx.add/neg replaced: op on each pair of
    base-p digits, low digit first."""
    p = ctx.p
    out = 0
    mul = 1
    for _ in range(ctx.deg):
        out += op(a % p, b % p) * mul
        a //= p
        b //= p
        mul *= p
    return out


@pytest.mark.parametrize("p, deg", [(3, 12), (5, 10), (2, 20), (7, 4), (4099, 2)])
def test_add_sub_neg_match_digitwise_reference(p, deg):
    import random

    ctx = make_context(PrimePower(p), deg)
    rng = random.Random(p * 100 + deg)
    for _ in range(1000):
        a, b = rng.randrange(ctx.size), rng.randrange(ctx.size)
        assert ctx.add(a, b) == reference_digitwise(ctx, a, b, lambda x, y: (x + y) % p)
        assert ctx.neg(a) == reference_digitwise(ctx, a, 0, lambda x, _: -x % p)


def test_context_json():
    ctx = make_context(PP3, 2)
    assert ctx.to_json() == {"p": 3, "e": 1, "k": 2, "modulus_coords": [1, 0, 1]}


def test_exp_log_consistency():
    for pp, k in ((PP3, 2), (PP2, 4), (PP5, 2)):
        ctx = make_context(pp, k)
        exp, log = ctx.exp_log(ctx.size - 1)
        assert len(exp) == ctx.size - 1
        assert sorted(exp) == list(range(1, ctx.size))
        for i in (0, 1, 2, len(exp) - 1):
            assert log[exp[i]] == i
        assert ctx.mul(exp[1], exp[len(exp) - 1]) == exp[0] == 1
    # a proper subgroup: the order-28 subgroup of GF(3^6)*
    ctx = make_context(PP3, 6)
    exp, log = ctx.exp_log(28)
    assert len(set(exp)) == len(exp) == 28
    assert all(ctx.pow(a, 28) == 1 for a in exp)
    assert all(log[a] == i for i, a in enumerate(exp))


def test_subfield_map_is_field_embedding():
    big = make_context(PP3, 4)
    small = make_context(PP3, 2)
    up = embed_from(big, small)
    for a in range(small.size):
        for b in range(small.size):
            assert up[small.add(a, b)] == big.add(up[a], up[b])
            assert up[small.mul(a, b)] == big.mul(up[a], up[b])


def reference_subfield_map(host, sub):
    """The per-coordinate loop subfield_map replaced: sum c_i root^i over the
    coordinates of each element of sub."""
    if sub.deg == host.deg:
        return {a: a for a in range(host.size)}
    root = host._subfield_root(sub)
    mapping = {}
    for y in range(sub.size):
        acc = 0
        rp = 1
        for c in sub.to_coords(y):
            if c:
                acc = host.add(acc, host.mul(c % host.p, rp))
            rp = host.mul(rp, root)
        mapping[acc] = y
    return mapping


# every host field GF(q^(2d)) the U-irreducible scan builds; at d = 1 the
# host is GF(q^2) itself and the map is the identity
SCAN_HOSTS = [(q, d) for q in (2, 3, 4, 5) for d in range(1, 6)] + [
    (q, d) for q in (7, 8, 9) for d in (1, 2, 3)
]


@pytest.mark.parametrize("q, d", SCAN_HOSTS)
def test_subfield_map_matches_the_coordinate_loop(q, d):
    pp = prime_power(q)
    host, sub = make_context(pp, 2 * d), make_context(pp, 2)
    down = host.subfield_map(sub)
    assert down == reference_subfield_map(host, sub)
    up = {y: x for x, y in down.items()}
    assert sorted(up) == list(range(sub.size))
    for a in range(sub.size):
        for b in range(sub.size):
            assert up[sub.add(a, b)] == host.add(up[a], up[b])
            assert up[sub.mul(a, b)] == host.mul(up[a], up[b])


def test_table_structure():
    for pp in (PP2, PP3, PP5):
        F = table_for(pp)
        q = pp.q
        assert len(norm_one(F)) == q + 1
        assert len(F.base_elems) == q
        assert len(F.trace_zero) == q
        assert F.mul[1][1] == 1
        for a in range(1, F.size):
            assert F.mul[a][F.inv[a]] == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("k", [1, 2])
def test_tables_match_schoolbook_arithmetic(q, k):
    # mul, inv and conj come from the exp/log tables of one generator; the
    # reference is the context's own polynomial arithmetic
    ctx = make_context(prime_power(q), k)
    F = table_for(prime_power(q), k)
    n = ctx.size
    assert F.mul == [[ctx.mul(a, b) for b in range(n)] for a in range(n)]
    assert F.inv == [0] + [ctx.inv(a) for a in range(1, n)]
    assert F.conj == [frobenius(ctx, a, 1) for a in range(n)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("k", [1, 2])
def test_add_table_matches_schoolbook_addition(q, k):
    # the add table comes from Zech logarithms of the same generator
    ctx = make_context(prime_power(q), k)
    F = table_for(prime_power(q), k)
    n = ctx.size
    assert F.add == [[ctx.add(a, b) for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# differential tests: FieldCtx against the schoolbook arithmetic and the full
# modulus scan it replaced


def reference_red(ctx):
    """t^(deg+i) mod the modulus for i < deg - 1, as full coordinate lists."""
    p, deg, m = ctx.p, ctx.deg, ctx.modulus
    cur = [(-c) % p for c in m[:-1]]
    red = []
    for _ in range(deg - 1):
        red.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [(c - top * mi) % p for c, mi in zip(cur, m)]
    return red


def reference_field_mul(ctx, red, a, b):
    """Schoolbook product of coordinate vectors, reduced with the t^i table."""
    p, deg = ctx.p, ctx.deg
    ca, cb = ctx.to_coords(a), ctx.to_coords(b)
    buf = [0] * (2 * deg - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                buf[i + j] = (buf[i + j] + x * y) % p
    out = buf[:deg]
    for i in range(deg, 2 * deg - 1):
        c = buf[i]
        if c:
            for j in range(deg):
                out[j] = (out[j] + c * red[i - deg][j]) % p
    return ctx.from_coords(out)


def reference_field_pow(ctx, red, a, n):
    """Square-and-multiply on packed elements through reference_field_mul."""
    n %= ctx.size - 1
    result = 1
    while n:
        if n & 1:
            result = reference_field_mul(ctx, red, result, a)
        a = reference_field_mul(ctx, red, a, a)
        n >>= 1
    return result


@pytest.mark.parametrize("p, deg", [(3, 12), (3, 14), (5, 10), (2, 20), (7, 4)])
def test_field_arithmetic_matches_schoolbook_reference(p, deg):
    # the hosts of the U-irreducible scan, far beyond the 81-element tables
    import random

    ctx = make_context(PrimePower(p), deg)
    red = reference_red(ctx)
    rng = random.Random(p * 100 + deg)
    xs = [rng.randrange(ctx.size) for _ in range(1000)]
    for a, b in zip(xs, xs[1:] + xs[:1]):
        assert ctx.mul(a, b) == reference_field_mul(ctx, red, a, b)
    for a in xs[:40]:
        if a == 0:
            continue
        n = rng.randrange(ctx.size)
        assert ctx.pow(a, n) == reference_field_pow(ctx, red, a, n)
        assert ctx.inv(a) == reference_field_pow(ctx, red, a, ctx.size - 2)


def reference_lex_smallest_irreducible(p, deg):
    """The full scan: every monic candidate in lex order, divisible-by-t and
    root-bearing ones filtered before the Rabin test."""
    import itertools

    from strongreal.fields import _is_irreducible

    if deg == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=deg):
        if tail[0] == 0:
            continue
        f = tuple(tail) + (1,)
        if any(sum(c * a**i for i, c in enumerate(f)) % p == 0 for a in range(p)):
            continue
        if _is_irreducible(p, f):
            return f
    raise AssertionError("unreachable")


def scan_pairs():
    """(p, deg) with p^(deg-1) <= 10^5 inside the extension cap, for p < 2^10
    and for the large primes the classifier is run at."""
    from strongreal.fields import EXTENSION_BIT_CAP, is_prime

    primes = [p for p in range(2, 1 << 10) if is_prime(p)] + [1009, 4099, 16411, 65521]
    return [
        (p, deg)
        for p in primes
        for deg in range(1, EXTENSION_BIT_CAP + 1)
        if p ** (deg - 1) <= 10**5 and deg * p.bit_length() <= EXTENSION_BIT_CAP
    ]


def test_modulus_scan_matches_full_scan_reference():
    from strongreal.fields import _lex_smallest_irreducible

    for p, deg in scan_pairs():
        assert _lex_smallest_irreducible(p, deg) == reference_lex_smallest_irreducible(p, deg), (p, deg)


def test_pinned_moduli_of_large_scan_hosts():
    # the full scan took 105 s and 21 s to reach these
    assert make_context(PP5, 14).modulus == (1,) + (0,) * 10 + (1, 0, 3, 1)
    assert make_context(PP2, 28).modulus == (1,) + (0,) * 26 + (1, 1)
