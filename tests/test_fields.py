"""Field tower: moduli, Frobenius maps, norms, tables."""

import pytest

from strongreal.errors import ExtensionTooLargeError, ZeroInputError
from strongreal.fields import FieldCtx, PrimePower, make_context, prime_power, table_for

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
        assert base.frobenius_q(a, 5) == a


def test_frobenius_on_primitive_element_is_cube():
    ctx = make_context(PP3, 2)
    g = ctx.generator()
    # direct exponentiation oracle
    cube = ctx.mul(ctx.mul(g, g), g)
    assert ctx.frobenius_q(g, 1) == cube


def test_u_frobenius_examples():
    ctx = make_context(PP3, 2)
    assert ctx.u_frob(1) == 1
    minus1 = ctx.neg(1)
    assert ctx.u_frob(minus1) == minus1
    # order-8 element: exponent arithmetic mod 8 gives g^(-3) = g^5
    g = ctx.generator()
    g5 = ctx.pow(g, 5)
    assert ctx.u_frob(g) == g5
    with pytest.raises(ZeroInputError):
        ctx.u_frob(0)


def test_u_frobenius_twice_is_q_squared_power():
    for pp in (PP2, PP3):
        ctx = make_context(pp, 2)
        for a in range(1, ctx.size):
            assert ctx.u_frob(ctx.u_frob(a)) == ctx.frobenius_q(a, 2)


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
    up = ctx.embed_from(base)
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
    assert ctx.sub(a, a) == 0
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.add(ctx.neg(a), a) == 0
    assert ctx.pow(a, 8) == 1
    assert ctx.conj(ctx.conj(a)) == a != ctx.conj(a)
    assert list(ctx.to_coords(a)) == [0, 1]


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
    up = big.embed_from(small)
    for a in range(small.size):
        for b in range(small.size):
            assert up[small.add(a, b)] == big.add(up[a], up[b])
            assert up[small.mul(a, b)] == big.mul(up[a], up[b])


def test_table_structure():
    for pp in (PP2, PP3, PP5):
        F = table_for(pp)
        q = pp.q
        assert len(F.norm_one) == q + 1
        assert len(F.base_elems) == q
        assert len(F.trace_zero) == q
        assert F.mul[F.one][F.one] == 1
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
    assert F.conj == [ctx.frobenius_q(a, 1) for a in range(n)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("k", [1, 2])
def test_add_table_matches_schoolbook_addition(q, k):
    # the add table comes from Zech logarithms of the same generator
    ctx = make_context(prime_power(q), k)
    F = table_for(prime_power(q), k)
    n = ctx.size
    assert F.add == [[ctx.add(a, b) for b in range(n)] for a in range(n)]
