"""The oracle's span enumerator and the two searches that walk it: the
invariant-form search of realize_class, against the candidate-by-candidate
scan it replaced, and the column-by-column search for the unitary members
of a matrix space, against the reversing-space scan it replaced."""

import itertools
import math
import random

import pytest

from strongreal.classdata import class_datum, partition
from strongreal.counting import enumerate_class_data
from strongreal.errors import BudgetExceededError, RealizationError
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
    _entrywise_members,
    _first_nondegenerate,
    _invariant_hermitian_basis,
    _is_involution,
    _jordan_style_matrix,
    _span,
    _unitary_members,
    anti_diagonal,
    explicit_representative,
    identity_form,
    realize_class,
    reconcile,
    reversing_space,
    standard_forms,
    strong_reality_witnesses,
    unitary_order,
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
        for d in enumerate_class_data(n, pp, max_n=n, max_q=q):
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


def reference_first_nondegenerate(F, basis, p, budget):
    """The form scan the block walk replaced: candidates 1 .. budget of the
    GF(p)-span in counter order, one at a time; one with a zero row is
    skipped before its determinant."""
    m = len(basis)
    if m == 0:
        raise RealizationError("invariant form space is zero")
    n = len(basis[0])
    for h in itertools.islice(_span(F, basis, range(p)), 1, min(p**m, budget + 1)):
        X = tuple(zip(*[iter(h)] * n))
        if all(map(any, X)) and mat_det(F, X) != 0:
            return X
    raise RealizationError(f"no nondegenerate invariant form within {budget} candidates")


def form_or_error(search, F, basis, p, budget):
    try:
        return search(F, basis, p, budget)
    except RealizationError as exc:
        return str(exc)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_block_walk_matches_reference_scan(q, n):
    # the same form, or the same error text, on every class datum
    pp = prime_power(q)
    F = table_for(pp)
    for d in enumerate_class_data(n, pp):
        basis = _invariant_hermitian_basis(pp, _jordan_style_matrix(F, d))
        for budget in (DEFAULT_BUDGETS.realize_scan, 20000):
            assert form_or_error(_first_nondegenerate, F, basis, pp.p, budget) == form_or_error(
                reference_first_nondegenerate, F, basis, pp.p, budget
            )


def test_scalar_form_boundary_u43():
    # every Hermitian X is invariant under the scalar 1 of U(4, F_3); in
    # counter order the first invertible one is the anti-diagonal, candidate
    # 20,412, so one candidate less is not enough
    pp = prime_power(3)
    F = table_for(pp)
    one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (2,)))  # t - 1
    d = class_datum(pp, {one: partition([1, 1, 1, 1])})
    basis = _invariant_hermitian_basis(pp, _jordan_style_matrix(F, d))
    with pytest.raises(RealizationError, match="within 20411 candidates"):
        _first_nondegenerate(F, basis, pp.p, 20411)
    with pytest.raises(RealizationError):
        realize_class(d, budgets=Budgets(realize_scan=20411))
    assert _first_nondegenerate(F, basis, pp.p, 20412) == anti_diagonal(4)
    assert reference_first_nondegenerate(F, basis, pp.p, 20412) == anti_diagonal(4)
    assert realize_class(d, budgets=Budgets(realize_scan=20412)) == realize_class(d)


def test_block_walk_reaches_det_only_for_live_candidates(monkeypatch):
    # a determinant is taken exactly for the candidates without a zero row,
    # up to the form returned: those of the reference scan
    from strongreal import oracle

    pp = prime_power(3)
    F = table_for(pp)
    calls = []
    monkeypatch.setattr(oracle, "mat_det", lambda F, X: calls.append(X) or mat_det(F, X))
    one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (2,)))  # t - 1
    data = [(d, DEFAULT_BUDGETS.realize_scan) for d in enumerate_class_data(3, pp)]
    data.append((class_datum(pp, {one: partition([1, 1, 1, 1])}), 20412))
    for d, budget in data:
        basis = _invariant_hermitian_basis(pp, _jordan_style_matrix(F, d))
        n = d.n
        calls.clear()
        X = _first_nondegenerate(F, basis, pp.p, budget)
        live = []
        for h in itertools.islice(_span(F, basis, range(pp.p)), 1, None):
            Y = tuple(zip(*[iter(h)] * n))
            if all(map(any, Y)):
                live.append(Y)
                if Y == X:
                    break
        assert calls == live


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


def ends_before_first_node(F, basis, gram):
    """Whether the unitary search stops without testing a candidate: with a
    budget of 0 nodes its first candidate raises."""
    try:
        list(_unitary_members(F, basis, gram, 0))
    except BudgetExceededError:
        return False
    return True


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)]
    + [(2, 3)]
    + [pytest.param(q, 3, marks=pytest.mark.stretch) for q in (3, 4, 5)],
)
def test_column_search_matches_reference_scan(q, n):
    # every realized class whose reversing space has at most 10^5 members:
    # the same unitary reversers and the same unitary involutions, and none
    # at all wherever the rank certificate ends the search before its first
    # node
    pp = prime_power(q)
    F = table_for(pp)
    form = identity_form(n, pp)
    checked = certified = 0
    for d in enumerate_class_data(n, pp):
        g = realize_class(d, form)
        basis = reversing_space(F, g)
        if F.size ** len(basis) > 10**5:
            continue
        reversers = set(reference_scan_reversing_space(F, basis, n, form.gram))
        if ends_before_first_node(F, basis, form.gram):
            assert not reversers
            certified += 1
        assert set(_unitary_members(F, basis, form.gram, DEFAULT_BUDGETS.reversing_scan)) == reversers
        involutions = {h for h in reversers if mat_mul(F, h, h) == identity(n)}
        assert strong_reality_witnesses(g, form) == sorted(involutions)
        checked += 1
    assert checked and certified


def reference_entrywise_members(F, n, gram):
    """The unitary members of M_n in the search's counter order: every
    column's free coefficients run through the field from 0 up."""
    basis = [tuple(zip(*[iter(e)] * n)) for e in identity(n * n)]
    return _unitary_members(F, basis, gram, math.inf)


@pytest.mark.parametrize(
    "q,n", [(q, 1) for q in (2, 3, 4, 5, 7, 8, 9)] + [(q, 2) for q in (2, 3, 4, 5)] + [(2, 3)]
)
def test_dense_first_search_matches_counter_order(q, n):
    # the shapes the group path drains (q^(2 n^2) <= 10^6; n = 1 up to q = 9), on every
    # standard form: the nonzero-first walk yields each member exactly once,
    # the same members as the counter-order reference
    pp = prime_power(q)
    F = table_for(pp)
    for form in standard_forms(n, pp):
        dense = list(_entrywise_members(F, n, form.gram))
        assert len(dense) == len(set(dense)) == unitary_order(n, q)
        assert set(dense) == set(reference_entrywise_members(F, n, form.gram))


def test_rank_certificate_reads_the_column_span():
    # neither space has an invertible member; only the first has its
    # columns in a proper subspace (e_1), so only it ends before a node
    F = table_for(PrimePower(3))
    e11, e12, e21 = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0))
    assert ends_before_first_node(F, [e11, e12], identity(2))
    assert not ends_before_first_node(F, [e11, e21], identity(2))
    assert list(_unitary_members(F, [e11, e21], identity(2), 10**4)) == []


@pytest.mark.parametrize("q,n,entries", [(2, 2, None), (3, 2, None), (2, 3, (0, 1)), (3, 3, (0, 1, 2))])
def test_involution_test_matches_the_product(q, n, entries):
    # every n x n matrix with entries in the given set (all of GF(q^2) if
    # None), and every unitary involution
    F = table_for(prime_power(q))
    one = identity(n)
    for flat in itertools.product(entries or range(F.size), repeat=n * n):
        h = tuple(zip(*[iter(flat)] * n))
        assert _is_involution(F, h) == (mat_mul(F, h, h) == one)
    for h in strong_reality_witnesses(one, identity_form(n, prime_power(q))):
        assert _is_involution(F, h)


def test_reconcile_u43_budget_20000():
    # the non-real classes (1,1,1) + (1) are decided; for the 4 with the
    # triple eigenvalue at t - 1 or t + 1 the reversing space is 9-dimensional
    # and no search could finish in budget, but its columns span only 3
    # dimensions, so the walk ends at zero nodes.  Left undecided: the 4
    # scalar classes (first invertible form at candidate 20,412) and (2,1,1)
    # at t - 1 and t + 1 (no involution among 93,312 unitary reversers, more
    # nodes than the budget)
    pp = prime_power(3)
    ctx2 = make_context(pp, 2)
    plus_minus_one = {u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (1, 2)}
    report = reconcile(4, pp, Budgets.uniform(20000))
    assert report.strategy == "representatives"
    assert len(report.records) == 188
    assert not report.disagreements

    def shape(r):
        return sorted(mu.parts for _, mu in r.datum.blocks)

    split = [r for r in report.records if shape(r) == [(1,), (1, 1, 1)] and not r.classifier_real]
    assert all((r.oracle_real, r.oracle_strongly_real) == (False, False) for r in split)
    triple = [f for r in split for f, mu in r.datum.blocks if mu.parts == (1, 1, 1)]
    assert sum(f in plus_minus_one for f in triple) == 4
    undecided = sorted(shape(r) for r in report.undecided)
    assert undecided == [[(1, 1, 1, 1)]] * 4 + [[(2, 1, 1)]] * 2
