"""The oracle's span enumerator and the two searches that walk it: the
invariant-form search of realize_class, against the same scan without its
zero-row prefilter, and the column-by-column search for the unitary members
of a matrix space, against the reversing-space scan it replaced, against
its own form before the norm solve, and against the walk that built and
eliminated a pairing system for every column, determined or not."""

import functools
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
    mat_rank,
    nullspace,
)
from strongreal.oracle import (
    DEFAULT_BUDGETS,
    Budgets,
    _block_representative,
    _columns_confined,
    _eliminate,
    _entrywise_members,
    _first_nondegenerate,
    _hermitian_dot,
    _invariant_hermitian_basis,
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
    """The form scan without its zero-row prefilter: candidates 1 .. budget
    of the GF(p)-span in counter order, one at a time, each one's
    determinant taken."""
    m = len(basis)
    if m == 0:
        raise RealizationError("invariant form space is zero")
    n = len(basis[0])
    for h in itertools.islice(_span(F, basis, range(p)), 1, min(p**m, budget + 1)):
        X = tuple(zip(*[iter(h)] * n))
        if mat_det(F, X) != 0:
            return X
    raise RealizationError(f"no nondegenerate invariant form within {budget} candidates")


def form_or_error(search, F, basis, p, budget):
    try:
        return search(F, basis, p, budget)
    except RealizationError as exc:
        return str(exc)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_zero_row_prefilter_changes_no_form(q, n):
    # the same form, or the same error text, on every class datum; a form
    # the reference finds within a budget is its answer at any larger one,
    # so it scans again only after a raise
    pp = prime_power(q)
    F = table_for(pp)
    for d in enumerate_class_data(n, pp):
        basis = _invariant_hermitian_basis(pp, _jordan_style_matrix(F, d))
        expected = None
        for budget in (20000, DEFAULT_BUDGETS.realize_scan):
            if not isinstance(expected, tuple):
                expected = form_or_error(reference_first_nondegenerate, F, basis, pp.p, budget)
            assert form_or_error(_first_nondegenerate, F, basis, pp.p, budget) == expected


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


def test_form_scan_reaches_det_only_for_live_candidates(monkeypatch):
    # a determinant is taken exactly for the candidates without a zero row,
    # up to the form returned
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


@pytest.mark.parametrize("q,n_max", [(3, 4), (5, 3), (2, 5), (4, 3), (7, 3)])
def test_one_block_form_scans_are_short(q, n_max):
    # verify realizes one (f, part) block at a time, and each meets its
    # first invertible form within 7 candidates (at most 3, 1, 2, 2 and 7
    # for these q): the traffic the plain counter-order scan is fit for
    pp = prime_power(q)
    blocks = {
        (f, part)
        for n in range(1, n_max + 1)
        for d in enumerate_class_data(n, pp, max_n=n, max_q=q)
        for f, mu in d.blocks
        for part in mu.parts
    }
    for f, part in blocks:
        one = class_datum(pp, {f: (part,)})
        realize_class(one, identity_form(one.n, pp), Budgets(realize_scan=7))


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
    # at all wherever the column-span certificate ends the search before
    # its first node
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
    # no space here has an invertible member.  [e11, e12] has both columns
    # in e_1, the plain rank test; [e11, e21] has a zero second column.  The
    # reversing space of diag(w I_3, w^2 I_4) in U(7, F_2) has columns
    # spanning F^7 together, so the rank test misses it, but columns 3-6 of
    # every member lie in one 3-dimensional span.  The 3 x 3 alternating
    # matrices over F_3, singular by their odd size, have three 2-dimensional
    # column spans, none inside another: the walk searches them
    F = table_for(PrimePower(3))
    e11, e12, e21 = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0))
    assert ends_before_first_node(F, [e11, e12], identity(2))
    assert ends_before_first_node(F, [e11, e21], identity(2))
    pp = prime_power(2)
    F2 = table_for(pp)
    ctx2 = make_context(pp, 2)
    w, w2 = (u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (2, 3))
    d = class_datum(pp, {w: partition([1, 1, 1]), w2: partition([1, 1, 1, 1])})
    basis = reversing_space(F2, _block_representative(d, identity_form(7, pp), Budgets(), {}))
    assert mat_rank(F2, [col for B in basis for col in zip(*B)]) == 7
    assert ends_before_first_node(F2, basis, identity(7))
    alternating = [  # E_ij - E_ji for i < j, with 2 = -1
        ((0, 1, 0), (2, 0, 0), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (2, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 2, 0)),
    ]
    assert not ends_before_first_node(F, alternating, identity(3))
    assert list(_unitary_members(F, alternating, identity(3), 10**4)) == []


def reference_unitary_members(F, basis, J, budget, coeffs=None):
    """The unitary-member search before the norm solve: every candidate of
    a column's affine set is built by _span and tested against
    x* J x = J[j][j], one node each."""
    n = len(J)
    if mat_rank(F, [col for B in basis for col in zip(*B)]) < n:
        return
    if coeffs is None:
        coeffs = range(F.size)
    add, mul = F.add, F.mul
    vecs = [[B[r][c] for c in range(n) for r in range(n)] for B in basis]
    pivots = [divmod(e, n) for _, e in _eliminate(F, vecs)]
    nodes = 0
    dot = _hermitian_dot(F, J)

    def combine(c, vectors, base):
        for ck, v in zip(c, vectors):
            if ck:
                base = [add[a][mul[ck][b]] for a, b in zip(base, v)]
        return base

    def walk(cols):
        nonlocal nodes
        j = len(cols)
        if j == n:
            yield tuple(zip(*cols))
            return
        part = [v[j * n : j * n + n] for v in vecs]
        # the vectors pivoting before column j come first in part
        a = combine([cols[c][r] for c, r in pivots if c < j], part, [0] * n)
        heads = [h for h, (c, _) in zip(part, pivots) if c == j]
        # the candidates are a + sum c_k heads[k] for (c, 1) in the kernel
        system = [
            [dot(u, h) for h in heads] + [F.sub(dot(u, a), J[i][j])]
            for i, u in enumerate(cols)
        ]
        kernel = nullspace(F, system or [[0] * (len(heads) + 1)])
        start = next((v for v in kernel if v[-1]), None)
        if start is None:
            return
        directions = [(combine(v, heads, [0] * n),) for v in kernel if not v[-1]]
        for x in _span(F, directions, coeffs, combine(start, heads, a)):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"unitary search passed {budget} nodes")
            if dot(x, x) == J[j][j]:
                yield from walk(cols + [x])

    yield from walk([])


def until_budget(search, *args):
    """The members a search yields, in order, and whether it then raised
    BudgetExceededError."""
    members = []
    try:
        for h in search(*args):
            members.append(h)
    except BudgetExceededError:
        return members, True
    return members, False


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in (2, 3, 4, 5, 7) for n in (1, 2)]
    + [(2, 3), (3, 3)]
    + [pytest.param(q, 3, marks=pytest.mark.stretch) for q in (4, 5, 7)],
)
def test_norm_solve_matches_reference_search(q, n):
    # every realized class on every standard form, from a budget of one
    # node up: the same members in the same order, and the same raise.
    # The reference has only the plain rank test, so where the column-span
    # test ends the walk before its first node, the reference drained must
    # find no member
    pp = prime_power(q)
    F = table_for(pp)
    for form in standard_forms(n, pp):
        for d in enumerate_class_data(n, pp, max_n=n, max_q=q):
            basis = reversing_space(F, realize_class(d, form))
            certified = ends_before_first_node(F, basis, form.gram)
            if certified:
                assert list(reference_unitary_members(F, basis, form.gram, math.inf)) == []
            for budget in (1, 50, 777, 20000):
                outcome = until_budget(_unitary_members, F, basis, form.gram, budget)
                reference = until_budget(reference_unitary_members, F, basis, form.gram, budget)
                assert outcome == (([], False) if certified else reference)
                assert outcome[0] == reference[0]


def until_budget_tally(F, basis, J, budget, involutions, search=_unitary_members, coeffs=None):
    """The member count the walk tallies, and whether it then raised."""
    total = 0
    try:
        for found in search(F, basis, J, budget, coeffs, involutions=involutions, tally=True):
            total += found
    except BudgetExceededError:
        return total, True
    return total, False


@pytest.mark.parametrize(
    "q,n", [(3, n) for n in (1, 2, 3, 4)] + [(5, 3)] + [(2, n) for n in (1, 2, 3, 4, 5)]
)
def test_tally_counts_the_members_the_walk_yields(q, n):
    # every class on its block-sum representative, in both modes, at
    # budgets from one node up: the tallied total is the number of members
    # yielded, and the walk raises at the same budgets
    pp = prime_power(q)
    F = table_for(pp)
    form = identity_form(n, pp)
    blocks = {}
    raised = drained = 0
    for d in enumerate_class_data(n, pp, max_n=n, max_q=q):
        basis = reversing_space(F, _block_representative(d, form, Budgets(), blocks))
        for involutions in (False, True):
            for budget in (1, 50, 777, 20000):
                members, ran_out = until_budget(
                    functools.partial(_unitary_members, involutions=involutions),
                    F, basis, form.gram, budget,
                )
                tally = until_budget_tally(F, basis, form.gram, budget, involutions)
                assert tally == (len(members), ran_out), (d, involutions, budget)
                raised += ran_out
                drained += bool(members) and not ran_out
    assert raised and drained


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7) for n in (1, 2)] + [(2, 3)])
def test_entrywise_members_match_reference_search(q, n):
    # the group path's dense-first walk over M_n, member by member
    pp = prime_power(q)
    F = table_for(pp)
    basis = [tuple(zip(*[iter(e)] * n)) for e in identity(n * n)]
    for form in standard_forms(n, pp):
        assert list(_entrywise_members(F, n, form.gram)) == list(
            reference_unitary_members(F, basis, form.gram, math.inf, [*range(1, F.size), 0])
        )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_budget_boundary_inside_one_block(q):
    # U(1, F_q) as the unitary members of M_1: one block of q^2 candidates
    # and q + 1 members; at every budget, in either coefficient order, the
    # same members come before the same raise
    F = table_for(prime_power(q))
    basis, J = [((1,),)], identity(1)
    for coeffs in (range(F.size), [*range(1, F.size), 0]):
        for budget in range(F.size + 1):
            outcome = until_budget(_unitary_members, F, basis, J, budget, coeffs)
            assert outcome == until_budget(reference_unitary_members, F, basis, J, budget, coeffs)
            assert outcome[1] == (budget < F.size)
        assert len(outcome[0]) == q + 1


class NodeClock:
    """A budget of cap nodes, none unless given.  Python evaluates a
    search's check `nodes > budget` as `budget < nodes`, which keeps the
    node count and compares it with the cap."""

    nodes = 0

    def __init__(self, cap=math.inf):
        self.cap = cap

    def __lt__(self, nodes):
        self.nodes = nodes
        return self.cap < nodes


def node_trace(search, F, basis, J):
    """Each member with the node count at which it is yielded, and the
    total node count of the search."""
    clock = NodeClock()
    return [(clock.nodes, h) for h in search(F, basis, J, clock)], clock.nodes


def test_budget_boundary_u35_unipotent_21():
    # (2,1) at t - 1 in U(3, F_5) on the identity form: 4,500 members over
    # 35,125 nodes in blocks of 25, with members at nodes 29, 32, 33 and 34
    # of one block.  Node counts only grow, so at budget B a search yields
    # the members found at nodes <= B and raises iff its total exceeds B:
    # equal traces mean equal outcomes at every budget.  Real runs check
    # that reading over the first blocks, at the ends of sampled members
    # and at the end of the walk.
    pp = prime_power(5)
    F = table_for(pp)
    one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (4,)))  # t - 1
    form = identity_form(3, pp)
    basis = reversing_space(F, realize_class(class_datum(pp, {one: partition([2, 1])}), form))
    trace = node_trace(_unitary_members, F, basis, form.gram)
    assert trace == node_trace(reference_unitary_members, F, basis, form.gram)
    found, total = trace
    at = [t for t, _ in found]
    assert (len(at), total, at[:4]) == (4500, 35125, [29, 32, 33, 34])
    budgets = {*range(101), total - 1, total}
    budgets |= {b for t in at[::450] for b in (t - 1, t)}
    for budget in sorted(budgets):
        outcome = until_budget(_unitary_members, F, basis, form.gram, budget)
        assert outcome == until_budget(reference_unitary_members, F, basis, form.gram, budget)
        assert outcome == ([h for t, h in found if t <= budget], total > budget)


def test_reconcile_u43_budget_20000():
    # the non-real classes (1,1,1) + (1) are decided; for the 4 with the
    # triple eigenvalue at t - 1 or t + 1 the reversing space is 9-dimensional
    # and no search could finish in budget, but its columns span only 3
    # dimensions, so the walk ends at zero nodes.  The 4 scalar classes,
    # whose first invertible form over the whole datum comes at candidate
    # 20,412, are decided through block sums of 1 x 1 blocks.  (2,1,1) at
    # t - 1 and t + 1 have 93,312 unitary reversers, more than the budget,
    # and no involution among the first ones; the walk over the Hermitian
    # reversers drains in 2,187 nodes without one: real, not strongly real
    pp = prime_power(3)
    ctx2 = make_context(pp, 2)
    plus_minus_one = {u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (1, 2)}
    report = reconcile(4, pp, Budgets.uniform(20000))
    assert report.strategy == "representatives"
    assert len(report.records) == 188
    assert not report.disagreements

    def shape(r):
        return sorted(mu.parts for _, mu in r.datum.blocks)

    def verdicts(r):
        return r.oracle_real, r.oracle_strongly_real

    split = [r for r in report.records if shape(r) == [(1,), (1, 1, 1)] and not r.classifier_real]
    assert all(verdicts(r) == (False, False) for r in split)
    triple = [f for r in split for f, mu in r.datum.blocks if mu.parts == (1, 1, 1)]
    assert sum(f in plus_minus_one for f in triple) == 4
    scalar = [r for r in report.records if shape(r) == [(1, 1, 1, 1)]]
    at_one = [r.datum.blocks[0][0] in plus_minus_one for r in scalar]
    assert sorted(at_one) == [False, False, True, True]
    for r, real in zip(scalar, at_one):
        assert verdicts(r) == ((True, True) if real else (False, False))
    assert not report.undecided
    once_open = [
        r for r in report.records
        if shape(r) == [(2, 1, 1)] and r.datum.blocks[0][0] in plus_minus_one
    ]
    assert [verdicts(r) for r in once_open] == [(True, False)] * 2


def reference_pairing_walk(F, basis, J, budget, coeffs=None, involutions=False, tally=False):
    """The reverser walk before determined columns were checked in place:
    every node builds its whole pairing system, Hermitian rows included,
    and hands it to nullspace.
    The reference for _unitary_members, with its involutions and tally
    modes; node counts, members, tallies and raises must agree."""
    n = len(J)
    if _columns_confined(F, basis, n):
        return
    if n == 0:  # the 0 x 0 matrix, which has no last column to yield at
        yield ()
        return
    if coeffs is None:
        coeffs = range(F.size)
    add, mul, conj, sub = F.add, F.mul, F.conj, F.sub
    vecs = [[B[r][c] for c in range(n) for r in range(n)] for B in basis]
    pivots = [divmod(e, n) for _, e in _eliminate(F, vecs)]
    # column j: the pivots before it with the slices at j of their vectors
    # (which come first in echelon order), then the slices pivoting at j
    plan = []
    for j in range(n):
        part = [v[j * n : j * n + n] for v in vecs]
        k = sum(c < j for c, _ in pivots)
        plan.append((pivots[:k], part[:k], part[k : k + sum(c == j for c, _ in pivots)]))
    nodes = 0
    dot = _hermitian_dot(F, J)
    units = identity(n)  # dot(units[i], x) = (J x)[i]
    solved = {}
    lines = {}

    def solutions(w, b):
        """(index, c) in coeffs order, by the value of Tr(c b) + N(c) w."""
        if (w, b) not in solved:
            by_value = solved[w, b] = {}
            for i, c in enumerate(coeffs):
                cb = mul[c][b]
                value = add[add[cb][conj[cb]]][mul[mul[c][conj[c]]][w]]
                by_value.setdefault(value, []).append((i, c))
        return solved[w, b]

    def line(alpha, beta):
        """c -> its place in coeffs order among the q with alpha + c beta in GF(q)."""
        if (alpha, beta) not in lines:
            ib = F.inv[beta]
            on = {mul[sub(t, alpha)][ib] for t in F.base_elems}
            lines[alpha, beta] = {c: k for k, c in enumerate(c for c in coeffs if c in on)}
        return lines[alpha, beta]

    def count(k):
        nonlocal nodes
        nodes += k
        if nodes > budget:
            raise BudgetExceededError(f"unitary search passed {budget} nodes")

    def combine(c, vectors, base):
        for ck, v in zip(c, vectors):
            if ck:
                base = [add[a][mul[ck][b]] for a, b in zip(base, v)]
        return base

    def walk(cols):
        j = len(cols)
        before, slices, heads = plan[j]
        a = combine([cols[c][r] for c, r in before], slices, [0] * n)
        # the candidates are a + sum c_k heads[k] for (c, 1) in the kernel
        system = [
            [dot(u, h) for h in heads] + [sub(dot(u, a), J[i][j])]
            for i, u in enumerate(cols)
        ]
        if involutions:
            e = units[j]
            system += [
                [dot(units[i], h) for h in heads] + [sub(dot(units[i], a), conj[dot(e, u)])]
                for i, u in enumerate(cols)
            ]
        kernel = nullspace(F, system or [[0] * (len(heads) + 1)])
        start = next((v for v in kernel if v[-1]), None)
        if start is None:
            return
        x = combine(start, heads, a)
        directions = [combine(v, heads, [0] * n) for v in kernel if not v[-1]]
        last = j == n - 1
        if not directions:
            count(1)
            diagonal = dot(units[j], x)
            if dot(x, x) == J[j][j] and (not involutions or conj[diagonal] == diagonal):
                if last:
                    yield 1 if tally else tuple(zip(*cols, x))
                else:
                    yield from walk(cols + [x])
            return
        v = directions[0]
        w = dot(v, v)
        beta = dot(units[j], v) if involutions else 0
        size = len(F.base_elems) if beta else len(coeffs)
        places = None
        for r in _span(F, [(d,) for d in directions[1:]], coeffs, x):
            if involutions:
                alpha = dot(units[j], r)
                if beta:
                    places = line(alpha, beta)
                elif conj[alpha] != alpha:
                    count(1)
                    continue
            found = solutions(w, dot(r, v)).get(sub(J[j][j], dot(r, r)), ())
            if places is not None:
                found = [(places[c], c) for _, c in found if c in places]
            if tally and last:
                # the solving c whose candidates come within budget
                within = 0
                for i, _ in found:
                    if nodes + i + 1 > budget:
                        break
                    within += 1
                if within:
                    yield within
                count(size)
                continue
            done = 0
            for i, c in found:
                # the candidates done .. i - 1 of this block fail the norm
                count(i + 1 - done)
                done = i + 1
                col = [add[ri][mul[c][vi]] for ri, vi in zip(r, v)]
                if last:
                    yield tuple(zip(*cols, col))
                else:
                    yield from walk(cols + [col])
            count(size - done)

    yield from walk([])


def capped_trace(search, F, basis, J, cap, **kw):
    """Each member with the node count at which it comes, the node count
    at the end, and whether the search ran past cap nodes."""
    clock = NodeClock(cap)
    found = []
    try:
        for h in search(F, basis, J, clock, **kw):
            found.append((clock.nodes, h))
    except BudgetExceededError:
        return found, clock.nodes, True
    return found, clock.nodes, False


def assert_walks_agree(F, basis, J, coeffs=None):
    # in both modes: the same members at the same node counts up to 5,000
    # nodes, which fixes what either yields at every smaller budget, and
    # the same tallies and raises at budgets from one node up to 20,000
    for involutions in (False, True):
        traces = [
            capped_trace(search, F, basis, J, 5000, coeffs=coeffs, involutions=involutions)
            for search in (_unitary_members, reference_pairing_walk)
        ]
        assert traces[0] == traces[1], involutions
        for budget in (1, 50, 777, 20000):
            assert until_budget_tally(F, basis, J, budget, involutions, coeffs=coeffs) == (
                until_budget_tally(F, basis, J, budget, involutions, reference_pairing_walk, coeffs)
            ), (involutions, budget)


@pytest.mark.parametrize(
    "q,n", [(3, n) for n in (1, 2, 3, 4)] + [(4, 3), (5, 3)] + [(2, n) for n in (1, 2, 3, 4, 5)]
)
def test_walk_matches_reference_pairing_walk(q, n):
    # the reversing space of every block-sum representative; the images of
    # a class under g -> +-g^(+-1) share one space, walked once
    pp = prime_power(q)
    F = table_for(pp)
    form = identity_form(n, pp)
    blocks = {}
    spaces = dict.fromkeys(
        tuple(reversing_space(F, _block_representative(d, form, Budgets(), blocks)))
        for d in enumerate_class_data(n, pp, max_n=n, max_q=q)
    )
    for basis in spaces:
        assert_walks_agree(F, list(basis), form.gram)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 2)])
def test_entrywise_walk_matches_reference_pairing_walk(q, n):
    # the basis and coefficient order of _entrywise_members, on every standard form
    pp = prime_power(q)
    F = table_for(pp)
    basis = [tuple(zip(*[iter(e)] * n)) for e in identity(n * n)]
    for form in standard_forms(n, pp):
        assert_walks_agree(F, basis, form.gram, [*range(1, F.size), 0])


def pinned_basis(q, n, blocks):
    """The reversing space of the block-sum representative of the class
    with the given partitions at t - c, for each (c, parts) in blocks."""
    pp = prime_power(q)
    F = table_for(pp)
    ctx2 = make_context(pp, 2)
    d = class_datum(
        pp, {u_irreducible_lookup(pp, monic_poly(ctx2, (c,))): partition(p) for c, p in blocks}
    )
    form = identity_form(n, pp)
    return F, reversing_space(F, _block_representative(d, form, Budgets(), {})), form.gram


def drained_tally(F, basis, J, involutions):
    """(nodes, leaves) of a tally walk that never runs out."""
    clock = NodeClock()
    leaves = sum(_unitary_members(F, basis, J, clock, involutions=involutions, tally=True))
    return clock.nodes, leaves


@pytest.mark.parametrize("c,nodes", [(1, 2191), (2, 2193)])
def test_determined_columns_u43_regular_unipotent(c, nodes):
    # (4) at t + 1 (c = 1) and at t - 1 (c = 2) in U(4, F_3): the reversing
    # space has m = 4 dimensions, all pivoting in column 0, so columns 1-3
    # are determined.  The Hermitian walk drains without an involution and
    # the full walk counts |C(g)| = 108 leaves
    F, basis, J = pinned_basis(3, 4, [(c, [4])])
    assert len(basis) == 4
    assert drained_tally(F, basis, J, True) == (nodes, 0)
    assert drained_tally(F, basis, J, False) == (6993, 108)


@pytest.mark.stretch
def test_drained_walks_u53_split_unipotent():
    # (1) at t + 1 plus (2,1,1) at t - 1 in U(5, F_3): m = 11, a Hermitian
    # drain without an involution and a full tally of |C(g)| leaves
    F, basis, J = pinned_basis(3, 5, [(1, [1]), (2, [2, 1, 1])])
    assert len(basis) == 11
    assert drained_tally(F, basis, J, True) == (4377, 0)
    assert drained_tally(F, basis, J, False) == (1184877, 373248)
