"""The oracle's span enumerator and the two searches that walk it: the
invariant-form search of realize_class and the column-by-column search for
the unitary members of a matrix space, against the reversing-space scan it
replaced."""

import itertools
import random

import pytest

from strongreal.classdata import class_datum, partition
from strongreal.counting import enumerate_class_data
from strongreal.errors import RealizationError
from strongreal.fields import PrimePower, make_context, prime_power, table_for
from strongreal.linalg import (
    conj_transpose,
    identity,
    is_unitary,
    mat_det,
    mat_mul,
    nullspace,
)
from strongreal.oracle import (
    DEFAULT_BUDGETS,
    Budgets,
    _first_nondegenerate,
    _invariant_hermitian_basis,
    _jordan_style_matrix,
    _span,
    _unitary_members,
    explicit_representative,
    identity_form,
    realize_class,
    reversing_space,
    strong_reality_witnesses,
)
from strongreal.upoly import monic_poly, u_irreducible_lookup


def reference_invariant_hermitian_basis(pp: PrimePower, g0):
    """The invariant-form system written out equation by equation: one
    GF(p) row per coordinate of each entry of g0* X g0 - X and X - X*."""
    F = table_for(pp)
    Fp = table_for(PrimePower(pp.p, 1), 1)
    ctx2 = make_context(pp, 2)
    d2 = ctx2.deg
    p = pp.p
    n = len(g0)
    nvars = n * n * d2
    units = [ctx2.from_coords(tuple(1 if t == j else 0 for t in range(d2))) for j in range(d2)]

    def mult_block(s):
        """d2 x d2 GF(p) matrix of y -> s*y in coordinates."""
        cols = [ctx2.to_coords(ctx2.mul(s, b)) for b in units]
        return [[cols[j][i] for j in range(d2)] for i in range(d2)]

    conj_cols = [ctx2.to_coords(ctx2.conj(b)) for b in units]
    conj_block = [[conj_cols[j][i] for j in range(d2)] for i in range(d2)]

    def var(k, l, j):
        return (k * n + l) * d2 + j

    A = conj_transpose(F, g0)
    rows = []
    for r in range(n):
        for c in range(n):
            block_rows = [[0] * nvars for _ in range(d2)]
            for k in range(n):
                for l in range(n):
                    s = F.mul[A[r][k]][g0[l][c]]
                    if not s:
                        continue
                    mb = mult_block(s)
                    for i in range(d2):
                        for j in range(d2):
                            v = var(k, l, j)
                            block_rows[i][v] = (block_rows[i][v] + mb[i][j]) % p
            for i in range(d2):
                v = var(r, c, i)
                block_rows[i][v] = (block_rows[i][v] - 1) % p
            rows.extend(block_rows)
    for r in range(n):
        for c in range(n):
            for i in range(d2):
                row = [0] * nvars
                row[var(r, c, i)] = 1
                for j in range(d2):
                    v = var(c, r, j)
                    row[v] = (row[v] - conj_block[i][j]) % p
                rows.append(row)
    return [
        tuple(
            tuple(ctx2.from_coords(tuple(vec[var(k, l, j)] for j in range(d2))) for l in range(n))
            for k in range(n)
        )
        for vec in nullspace(Fp, rows)
    ]


def combinations(F, basis, coeffs):
    """Every sum of c_i * basis[i], flat, with basis[0]'s coefficient
    changing fastest: itertools.product order read backwards."""
    n = len(basis[0])
    out = []
    for rev in itertools.product(coeffs, repeat=len(basis)):
        acc = [[0] * n for _ in range(n)]
        for c, B in zip(reversed(rev), basis):
            for r in range(n):
                for s in range(n):
                    acc[r][s] = F.add[acc[r][s]][F.mul[c][B[r][s]]]
        out.append([x for row in acc for x in row])
    return out


@pytest.mark.parametrize("q,n_max", [(2, 4), (3, 4), (4, 3), (5, 3)])
def test_invariant_basis_matches_reference(q, n_max):
    pp = prime_power(q)
    F = table_for(pp)
    for n in range(1, n_max + 1):
        for d in enumerate_class_data(n, pp, "all", max_n=n, max_q=q):
            g0 = _jordan_style_matrix(F, d)
            assert _invariant_hermitian_basis(pp, g0) == reference_invariant_hermitian_basis(pp, g0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_span_is_product_order(q, m):
    pp = prime_power(q)
    F = table_for(pp)
    rng = random.Random(10 * q + m)
    basis = [
        tuple(tuple(rng.randrange(F.size) for _ in range(2)) for _ in range(2))
        for _ in range(m)
    ]
    for coeffs in (range(F.size), range(pp.p)):
        assert list(_span(F, basis, coeffs)) == combinations(F, basis, coeffs)


def test_realize_budget_boundary():
    pp = prime_power(3)
    F = table_for(pp)
    ctx2 = make_context(pp, 2)
    minus_one = u_irreducible_lookup(pp, monic_poly(ctx2, (1,)))  # t + 1
    d = class_datum(pp, {minus_one: partition([1, 1, 1])})
    basis = _invariant_hermitian_basis(pp, _jordan_style_matrix(F, d))
    t = next(
        i
        for i, h in enumerate(combinations(F, basis, range(pp.p)))
        if mat_det(F, [h[r : r + 3] for r in range(0, 9, 3)])
    )
    assert t > 1
    with pytest.raises(RealizationError):
        realize_class(d, budgets=Budgets(realize_scan=t - 1))
    default_x = _first_nondegenerate(F, basis, pp.p, DEFAULT_BUDGETS.realize_scan)
    assert _first_nondegenerate(F, basis, pp.p, t) == default_x
    assert realize_class(d, budgets=Budgets(realize_scan=t)) == realize_class(d)


def brute_force_witnesses(F, g, gram):
    """Unitary involutions in the reversing space, every member built from
    its coefficients, in counter order."""
    n = len(g)
    basis = reversing_space(F, g)
    out = []
    for h in combinations(F, basis, range(F.size))[1:]:
        hm = tuple(tuple(h[r : r + n]) for r in range(0, n * n, n))
        if mat_mul(F, hm, hm) == identity(n) and is_unitary(F, hm, gram):
            out.append(hm)
    return out


def test_scan_witnesses_match_brute_force():
    g, form = explicit_representative("three_one", PrimePower(2))
    expected = brute_force_witnesses(table_for(PrimePower(2)), g, form.gram)
    assert len(expected) == 12
    assert strong_reality_witnesses(g, form) == sorted(expected)

    pp = PrimePower(3)
    ctx2 = make_context(pp, 2)
    minus_one = u_irreducible_lookup(pp, monic_poly(ctx2, (1,)))
    form = identity_form(3, pp)
    g = realize_class(class_datum(pp, {minus_one: partition([3])}), form)
    expected = brute_force_witnesses(table_for(pp), g, form.gram)
    assert len(expected) == 6
    assert strong_reality_witnesses(g, form) == sorted(expected)


def reference_scan_reversing_space(F, basis, n, gram):
    """The reversing-space scan the column search replaced: every nonzero
    member h of the span in counter order, kept when each pair of its
    columns u, v has u* J v = J[i][j] (checked entry by entry, stopping at
    the first that fails)."""
    if not basis:
        return
    add, mul, conj = F.add, F.mul, F.conj

    def pairing(u, v):
        acc = 0
        for k in range(n):
            for l in range(n):
                acc = add[acc][mul[mul[conj[u[k]]][gram[k][l]]][v[l]]]
        return acc

    for h in _span(F, basis, range(F.size)):
        if any(h):
            cols = [h[j::n] for j in range(n)]
            if all(pairing(cols[i], cols[j]) == gram[i][j] for i in range(n) for j in range(n)):
                yield tuple(tuple(h[r : r + n]) for r in range(0, n * n, n))


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)]
    + [(2, 3)]
    + [pytest.param(q, 3, marks=pytest.mark.stretch) for q in (3, 4, 5)],
)
def test_column_search_matches_reference_scan(q, n):
    # every realized class whose reversing space has at most 10^5 members:
    # the same unitary reversers and the same unitary involutions
    pp = prime_power(q)
    F = table_for(pp)
    form = identity_form(n, pp)
    checked = 0
    for d in enumerate_class_data(n, pp, "all"):
        g = realize_class(d, form)
        basis = reversing_space(F, g)
        if F.size ** len(basis) > 10**5:
            continue
        reversers = set(reference_scan_reversing_space(F, basis, n, form.gram))
        assert set(_unitary_members(F, basis, form.gram, DEFAULT_BUDGETS.reversing_scan)) == reversers
        involutions = {h for h in reversers if mat_mul(F, h, h) == identity(n)}
        assert strong_reality_witnesses(g, form) == sorted(involutions)
        checked += 1
    assert checked
