"""U-irreducible polynomials, tilde, factorization, self-conjugate counts."""

import random

import pytest

from strongreal.errors import (
    NotOverBaseFieldError,
    NotUFactorableError,
    TildeUndefinedError,
)
from strongreal.fields import FieldCtx, PrimePower, make_context, prime_power, table_for
from strongreal.upoly import (
    MonicPoly,
    _u_irreducibles_of_degree,
    count_self_conjugate,
    enumerate_self_conjugate,
    enumerate_u_irreducibles,
    factor_into_u_irreducibles,
    is_self_conjugate,
    monic_poly,
    negate_uirr,
    poly_divmod,
    poly_exact_div,
    poly_mul,
    poly_one,
    tilde,
    u_irreducible_lookup,
)

from field_helpers import embed_from, norm_one, u_frob

PP2 = PrimePower(2)
PP3 = PrimePower(3)
PP5 = PrimePower(5)


def u_orbit(ctx, a):
    """Orbit of a under a -> a^(-q), computed directly."""
    orbit = [a]
    x = u_frob(ctx, a)
    while x != a:
        orbit.append(x)
        x = u_frob(ctx, x)
    return orbit


def test_degree_one_u_irreducibles_q3():
    us = enumerate_u_irreducibles(PP3, 1)
    ctx = make_context(PP3, 2)
    coeff_sets = {u.poly.coeffs for u in us}
    # t - 1 and t + 1 are the orbits of the fixed points +-1
    assert (ctx.neg(1),) in coeff_sets
    assert (1,) in coeff_sets
    assert len(us) == 4


def test_degree_one_u_irreducibles_q2():
    # oracle: solve a^(-q) = a exhaustively in GF(4)
    ctx = make_context(PP2, 2)
    fixed = [a for a in range(1, 4) if u_frob(ctx, a) == a]
    assert len(fixed) == 3  # the norm-one (cube-root-of-unity) elements
    us = enumerate_u_irreducibles(PP2, 1)
    assert sorted(u.poly.coeffs[0] for u in us) == sorted(ctx.neg(a) for a in fixed)


@pytest.mark.parametrize("pp", [PP2, PP3, PP5])
def test_degree_one_count_is_q_plus_one(pp):
    ctx = make_context(pp, 2)
    fixed = [a for a in range(1, ctx.size) if u_frob(ctx, a) == a]
    assert len(fixed) == pp.q + 1
    us = [u for u in enumerate_u_irreducibles(pp, 1) if u.degree == 1]
    assert len(us) == pp.q + 1


def test_degree_one_scan_memory_stays_below_field_size():
    # the degree-1 roots live in GF(q^2) itself: nothing of size q^2 is built
    import tracemalloc

    pp = PrimePower(1009)
    tracemalloc.start()
    try:
        us = enumerate_u_irreducibles(pp, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(us) == pp.q + 1
    assert peak < 10 * 2**20


def root_product(ctx, roots):
    """Coefficients of prod (t - r), low degree first, leading 1 included."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = ctx.add(nxt[i + 1], c)
            nxt[i] = ctx.add(nxt[i], ctx.mul(c, ctx.neg(r)))
        coeffs = nxt
    return coeffs


def test_orbit_partition_covers_field():
    # union of orbits covers GF(q^(2d))^x exactly once, checked directly
    for pp, d in ((PP3, 1), (PP3, 2), (PP3, 3), (PP2, 2)):
        host = make_context(pp, 2 * d)
        seen = set()
        for a in range(1, host.size):
            if a in seen:
                continue
            orb = u_orbit(host, a)
            assert not seen.intersection(orb)
            seen.update(orb)
        assert len(seen) == host.size - 1


def test_u_irreducible_polys_match_orbit_products():
    # rebuild each degree <= 2 polynomial from its root orbit in the host field
    for pp in (PP2, PP3):
        for u in enumerate_u_irreducibles(pp, 2):
            d = u.degree
            host = make_context(pp, 2 * d)
            up = embed_from(host, make_context(pp, 2))
            orbit = u_orbit(host, u.orbit_rep)
            assert len(orbit) == d
            assert [up[c] for c in u.poly.coeffs] == root_product(host, orbit)[:-1]


def reference_u_irreducibles(pp, d):
    """(coeffs, orbit_rep) of every degree-d U-irreducible, sorted.

    Partitions all of GF(q^(2d))* into orbits of u_frob and expands the
    length-d ones; GF(q^2) sits in the host through its smallest root of the
    GF(q^2) modulus, found by trying every element.  No exp tables.
    """
    ctx2 = make_context(pp, 2)
    host = make_context(pp, 2 * d)
    if host is ctx2:
        down = {a: a for a in range(host.size)}
    else:

        def at(poly, a):
            acc = 0
            for c in reversed(poly):
                acc = host.add(host.mul(acc, a), c)
            return acc

        root = min(a for a in range(1, host.size) if at(ctx2.modulus, a) == 0)
        down = {at(ctx2.to_coords(y), root): y for y in range(ctx2.size)}
    seen = bytearray(host.size)
    out = []
    for a in range(1, host.size):
        if seen[a]:
            continue
        orbit = u_orbit(host, a)
        for b in orbit:
            seen[b] = 1
        if len(orbit) != d:
            continue
        coeffs = root_product(host, orbit)[:-1]
        out.append((tuple(down[c] for c in coeffs), min(orbit)))
    return sorted(out)


def prime_powers_up_to(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            out.append(prime_power(q))
        except ValueError:
            pass
    return out


# every (q, d) whose host field GF(q^(2d)) has at most 4096 elements
SMALL_HOSTS = [
    (pp, d)
    for pp in prime_powers_up_to(64)
    for d in range(1, 7)
    if pp.q ** (2 * d) <= 4096
]


@pytest.mark.parametrize("pp, d", SMALL_HOSTS, ids=lambda v: str(getattr(v, "q", v)))
def test_subgroup_scan_matches_full_field_orbits(pp, d):
    got = [(u.poly.coeffs, u.orbit_rep) for u in enumerate_u_irreducibles(pp, d) if u.degree == d]
    assert got == reference_u_irreducibles(pp, d)


def mobius(n):
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("q, d, expected", [(2, 8, 30), (3, 7, 312), (4, 5, 204), (5, 5, 624)])
def test_u_irreducible_count_formula(q, d, expected):
    # (1/d) sum_{k | d} mu(d/k) (q^k - (-1)^k) monic U-irreducibles of degree d
    total = sum(mobius(d // k) * (q**k - (-1) ** k) for k in range(1, d + 1) if d % k == 0)
    assert total == expected * d
    us = enumerate_u_irreducibles(prime_power(q), d)
    assert sum(1 for u in us if u.degree == d) == expected


def test_enumeration_sorted_and_coefficients_in_small_field():
    us = enumerate_u_irreducibles(PP3, 3)
    keys = [u.sort_key() for u in us]
    assert keys == sorted(keys)
    ctx = make_context(PP3, 2)
    for u in us:
        assert all(0 <= c < ctx.size for c in u.poly.coeffs)


def test_tilde_fixes_t_plus_minus_one():
    ctx = make_context(PP3, 2)
    tm1 = monic_poly(ctx, (ctx.neg(1),))
    tp1 = monic_poly(ctx, (1,))
    assert tilde(tm1) == tm1
    assert tilde(tp1) == tp1


def test_tilde_involution_on_enumerated():
    for u in enumerate_u_irreducibles(PP3, 3):
        tu = tilde(u)
        assert tu.degree == u.degree
        assert tilde(tu) == u


# every U-irreducible of degree <= 4 at q <= 5 and of degree <= 3 at q = 7, 8, 9
TILDE_TABLE_CASES = [(q, 4) for q in (2, 3, 4, 5)] + [(q, 3) for q in (7, 8, 9)]


def table_cases():
    for q, d in TILDE_TABLE_CASES:
        yield from enumerate_u_irreducibles(prime_power(q), d)


def reference_tilde(u):
    """tilde through the polynomial: invert the constant, reverse, look it up."""
    return u_irreducible_lookup(u.ctx.pp, tilde(u.poly))


def test_tilde_table_matches_the_per_call_tilde_and_is_an_involution():
    seen = self_paired = 0
    for u in table_cases():
        tu = tilde(u)
        assert tu is reference_tilde(u)
        assert tu.degree == u.degree
        assert tilde(tu) is u
        seen += 1
        self_paired += tu is u
    assert (seen, self_paired) == (964, 34)


def test_lookup_reads_the_table_the_enumeration_lists():
    for q, d in TILDE_TABLE_CASES:
        pp = prime_power(q)
        for u in enumerate_u_irreducibles(pp, d):
            assert u_irreducible_lookup(pp, u.poly) is u
        for k in range(1, d + 1):
            keys = [u.sort_key() for u in _u_irreducibles_of_degree(pp, k)[0].values()]
            assert keys == sorted(keys)


def test_tilde_on_u_irreducibles_does_no_field_arithmetic(monkeypatch):
    us = list(table_cases())

    def refuse(*args):
        raise AssertionError("field arithmetic in tilde")

    monkeypatch.setattr(FieldCtx, "inv", refuse)
    monkeypatch.setattr(FieldCtx, "mul", refuse)
    monkeypatch.setattr(FieldCtx, "neg", refuse)
    # the polynomial tilde still reaches the patched methods
    with pytest.raises(AssertionError, match="field arithmetic"):
        tilde(us[0].poly)
    for u in us:
        assert tilde(tilde(u)) is u
        if u.ctx.p != 2:
            assert negate_uirr(negate_uirr(u)) is u


# every U-irreducible of degree <= 5, 4, 3, 3, 2, 2, 2 at q = 3, 5, 7, 9, 11, 25, 27
NEGATION_CASES = [(3, 5), (5, 4), (7, 3), (9, 3), (11, 2), (25, 2), (27, 2)]


def reference_negate_uirr(f):
    """Negation through the polynomial: (-1)^d f(-t) coefficient by coefficient."""
    ctx = f.ctx
    # coefficient of t^i picks up (-1)^(d-i)
    d = f.degree
    coeffs = tuple(c if (d - i) % 2 == 0 else ctx.neg(c) for i, c in enumerate(f.poly.coeffs))
    out = u_irreducible_lookup(ctx.pp, MonicPoly(ctx, coeffs))
    assert out is not None, "negation permutes U-irreducibles for odd q"
    return out


def test_negation_table_matches_the_coefficient_loop():
    seen = 0
    for q, d in NEGATION_CASES:
        pp = prime_power(q)
        ctx = make_context(pp, 2)
        t_minus, t_plus = (u_irreducible_lookup(pp, monic_poly(ctx, (c,))) for c in (ctx.neg(1), 1))
        assert (negate_uirr(t_minus), negate_uirr(t_plus)) == (t_plus, t_minus)
        for f in enumerate_u_irreducibles(pp, d):
            nf = negate_uirr(f)
            assert nf is reference_negate_uirr(f)
            assert negate_uirr(nf) is f
            assert negate_uirr(tilde(f)) is tilde(nf)
            seen += 1
    assert seen == 1479


def test_negation_table_is_empty_in_characteristic_two():
    for q in (2, 4, 8):
        for d in (1, 2, 3):
            assert _u_irreducibles_of_degree(prime_power(q), d)[2] == {}


def test_tilde_inverts_roots():
    # oracle: brute-force roots in the host field, invert, compare root sets
    for u in enumerate_u_irreducibles(PP3, 2):
        host = make_context(PP3, 2 * u.degree)
        up = embed_from(host, make_context(PP3, 2))

        def roots(poly):
            full = [up[c] for c in poly.coeffs] + [1]
            out = []
            for a in range(host.size):
                acc = 0
                for c in reversed(full):
                    acc = host.add(host.mul(acc, a), c)
                if acc == 0:
                    out.append(a)
            return out

        inv_roots = sorted(host.inv(r) for r in roots(u.poly))
        assert sorted(roots(tilde(u).poly)) == inv_roots


def test_tilde_errors_on_zero_constant():
    ctx = make_context(PP3, 2)
    with pytest.raises(TildeUndefinedError):
        tilde(monic_poly(ctx, (0, 1)))


def test_tilde_of_palindromic_quadratics():
    ctx = make_context(PP3, 2)
    for b in range(3):
        u = monic_poly(ctx, (1, b))  # t^2 + b t + 1
        assert tilde(u) == u


def test_factor_simple_powers():
    ctx = make_context(PP3, 2)
    tm1 = monic_poly(ctx, (ctx.neg(1),))
    cube = poly_mul(poly_mul(tm1, tm1), tm1)
    fac = factor_into_u_irreducibles(cube)
    assert len(fac) == 1
    assert fac[0][0].poly == tm1 and fac[0][1] == 3


def test_factor_product_of_all_degree_one_q2():
    us = enumerate_u_irreducibles(PP2, 1)
    prod = poly_one(make_context(PP2, 2))
    for u in us:
        prod = poly_mul(prod, u.poly)
    fac = factor_into_u_irreducibles(prod)
    assert len(fac) == 3 and all(m == 1 for _, m in fac)


def test_factor_f_times_tilde_f():
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    prod = poly_mul(f.poly, tilde(f).poly)
    fac = factor_into_u_irreducibles(prod)
    assert {u.poly.coeffs for u, _ in fac} == {f.poly.coeffs, tilde(f).poly.coeffs}


def test_factor_rejects_non_u_products():
    ctx = make_context(PP3, 2)
    F = table_for(PP3)
    bad_root = next(a for a in range(1, 9) if a not in norm_one(F))
    with pytest.raises(NotUFactorableError):
        factor_into_u_irreducibles(monic_poly(ctx, (ctx.neg(bad_root),)))
    with pytest.raises(NotUFactorableError):
        factor_into_u_irreducibles(monic_poly(ctx, (0, 1)))


def test_factor_roundtrip_random_multisets():
    rng = random.Random(7)
    us = enumerate_u_irreducibles(PP3, 2)
    ctx = make_context(PP3, 2)
    for _ in range(25):
        picks = {}
        for u in rng.sample(us, rng.randint(1, 3)):
            picks[u] = rng.randint(1, 2)
        prod = poly_one(ctx)
        for u, m in picks.items():
            for _ in range(m):
                prod = poly_mul(prod, u.poly)
        fac = dict(factor_into_u_irreducibles(prod))
        assert fac == picks


def test_poly_divmod_remainder():
    ctx = make_context(PP3, 2)
    a = monic_poly(ctx, (1, 1, 1))  # t^3 + t^2 + t + 1
    b = monic_poly(ctx, (2,))
    quot, rem = poly_divmod(a, b)
    # check a = quot * b + rem by re-expansion
    F = table_for(PP3)
    full = list(rem) + [0] * 10
    for i, qc in enumerate(quot):
        for j, bc in enumerate(b.full()):
            full[i + j] = F.add[full[i + j]][F.mul[qc][bc]]
    assert tuple(full[: a.degree + 1]) == a.full()


def test_division_by_the_constant_one():
    ctx = make_context(PP3, 2)
    u = monic_poly(ctx, (2, 0, 1))  # t^3 + t^2 + 2
    assert poly_divmod(u, poly_one(ctx)) == (u.full(), ())
    assert poly_exact_div(u, poly_one(ctx)) == u
    assert poly_exact_div(poly_one(ctx), poly_one(ctx)) == poly_one(ctx)


def test_is_self_conjugate_examples():
    ctx = make_context(PP3, 2)
    assert is_self_conjugate(monic_poly(ctx, (ctx.neg(1),)))  # t - 1
    assert is_self_conjugate(monic_poly(ctx, (1,)))  # t + 1
    assert is_self_conjugate(monic_poly(ctx, (1, 1)))  # t^2 + t + 1
    # t - a for a base, a not +-1, is not self-conjugate: no such a for q=3;
    # over GF(9) a non-base coefficient must be rejected instead
    with pytest.raises(NotOverBaseFieldError):
        is_self_conjugate(monic_poly(ctx, (3,)))


def test_only_odd_degree_self_conjugates_are_t_plus_minus_one():
    for deg in (1, 3):
        for u in enumerate_self_conjugate(deg, PP3):
            ctx = u.ctx
            factors = factor_into_u_irreducibles(u)
            # any odd-degree self-conjugate has a t-1 or t+1 factor
            assert any(f.poly.coeffs in {(1,), (ctx.neg(1),)} for f, _ in factors)


@pytest.mark.parametrize("pp", [PP3, PP5])
@pytest.mark.parametrize("deg", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("constant_one", [False, True])
def test_count_matches_enumeration(pp, deg, constant_one):
    lst = enumerate_self_conjugate(deg, pp, constant_one)
    assert len(lst) == count_self_conjugate(deg, pp, constant_one)
    for u in lst:
        assert u.is_over_base()
        if u.degree:
            assert tilde(u) == u
        if constant_one and u.degree:
            assert u.constant == 1


def test_count_formulas():
    assert count_self_conjugate(1, PP3) == 2
    assert count_self_conjugate(2, PP3) == 4
    assert count_self_conjugate(2, PP3, True) == 3
    assert count_self_conjugate(0, PP3) == 1
    assert count_self_conjugate(3, PP3, True) == 0
    assert count_self_conjugate(4, PP5) == 30
    assert count_self_conjugate(4, PP5, True) == 25


def test_enumerate_deg2_constant_one_q3():
    polys = enumerate_self_conjugate(2, PP3, True)
    assert sorted(u.coeffs for u in polys) == [(1, 0), (1, 1), (1, 2)]


def test_lookup_finds_enumerated():
    for u in enumerate_u_irreducibles(PP2, 2):
        assert u_irreducible_lookup(PP2, u.poly) == u
    ctx = make_context(PP2, 2)
    # t + omega where omega^3 != 1 does not exist over GF(4); check a reducible
    assert u_irreducible_lookup(PP2, poly_mul(
        monic_poly(ctx, (1,)), monic_poly(ctx, (1,))
    )) is None


def test_uirr_json():
    u = enumerate_u_irreducibles(PP3, 1)[0]
    assert u.poly.to_json() == [list(make_context(PP3, 2).to_coords(u.poly.coeffs[0]))]
