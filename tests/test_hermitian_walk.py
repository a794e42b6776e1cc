"""The Hermitian mode of the unitary-member walk: only the reversers h with
J h Hermitian, which for a unitary h are exactly the involutions.  Checked
against the involutions among the full walk's leaves, against a plain scan
of the GF(q)-space of Hermitian reversers, against Wall's class equation
where neither can run, and through reconcile, where it decides strong
reality."""

import itertools
import math

import pytest

from strongreal.classdata import centralizer_order, class_datum, is_real, partition, unitary_order
from strongreal.classify import UNKNOWN, strongly_real
from strongreal.counting import enumerate_class_data
from strongreal.errors import BudgetExceededError, CountMismatchError
from strongreal.fields import PrimePower, make_context, prime_power, table_for
from strongreal.linalg import (
    conj_transpose,
    identity,
    is_unitary,
    mat_inv,
    mat_mul,
    mat_rank,
    nullspace,
)
from strongreal import oracle
from strongreal.oracle import (
    Budgets,
    _block_representative,
    _representative_records,
    _representative_verdicts,
    _unitary_members,
    identity_form,
    is_real_oracle,
    is_strongly_real_oracle,
    realize_class,
    reconcile,
    reversing_space,
    standard_forms,
    strong_reality_witnesses,
)
from strongreal.upoly import monic_poly, u_irreducible_lookup


def reference_hermitian_reversers(pp: PrimePower, basis, J):
    """The unitary members of the GF(q)-space {h in span(basis) : J h
    Hermitian}, by a plain scan with is_unitary per candidate.

    The space is the kernel over GF(p) of h -> J h - (J h)* on the GF(p)-
    spanning set p^t B_k (p^t is the t-th GF(p)-coordinate unit of
    GF(q^2)); Galois descent makes its GF(q)-dimension that of the
    reversing space, so it has q^m members."""
    F = table_for(pp)
    ctx2 = F.ctx
    add, mul, neg = F.add, F.mul, F.neg
    coords = [ctx2.to_coords(a) for a in range(F.size)]
    spanning = [
        tuple(tuple(mul[pp.p**t][x] for x in row) for row in B)
        for B in basis
        for t in range(ctx2.deg)
    ]
    cols = []
    for h in spanning:
        jh = mat_mul(F, J, h)
        adj = conj_transpose(F, jh)
        diff = [add[a][neg[b]] for ra, rb in zip(jh, adj) for a, b in zip(ra, rb)]
        cols.append([c for x in diff for c in coords[x]])
    kernel = nullspace(table_for(PrimePower(pp.p, 1), 1), list(zip(*cols))) if cols else []
    assert len(kernel) * 2 == len(spanning)  # GF(p)-dimension m e of a GF(q)-space of dimension m
    n = len(J)

    def combine(cs, vectors):
        flat = [0] * (n * n)
        for c, v in zip(cs, vectors):
            if c:
                flat = [add[a][mul[c][b]] for a, b in zip(flat, v)]
        return flat

    flats = [[x for row in h for x in row] for h in spanning]
    hermitian = [combine(vec, flats) for vec in kernel]
    out = []
    for digits in itertools.product(range(pp.p), repeat=len(hermitian)):
        h = tuple(zip(*[iter(combine(digits, hermitian))] * n))
        if is_unitary(F, h, J):
            out.append(h)
    return out


def involution_count(n, pp):
    """Unitary involutions of U(n, F_q) by the class equation: the sum of
    |U| / |C(d)| over the classes whose minimal polynomial divides t^2 - 1."""
    ctx2 = make_context(pp, 2)
    signs = {u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (1, ctx2.neg(1))}
    top = 2 if pp.p == 2 else 1
    return sum(
        unitary_order(n, pp.q) // centralizer_order(d)
        for d in enumerate_class_data(n, pp, max_n=n, max_q=pp.q)
        if all(f in signs and max(mu.parts) <= top for f, mu in d.blocks)
    )


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3)])
def test_hermitian_leaves_are_the_involutions(q, n):
    # every real class of U(n, F_q) on every standard form.  The Hermitian
    # leaves are distinct unitary involutions that reverse g, the same set
    # as the involutions among the full walk's drained leaves and as the
    # plain GF(q)-span scan, wherever those fit (|C(g)| <= 10^5 leaves,
    # q^m <= 10^4 candidates); the scalar classes of U(3, F_4) and
    # U(3, F_5), whose reversing space is all of M_3, are checked against
    # the number of involutions of the group by the class equation instead
    pp = prime_power(q)
    F = table_for(pp)
    by_walk = by_scan = by_count = 0
    for form in standard_forms(n, pp):
        for d in enumerate_class_data(n, pp, max_n=n, max_q=q):
            if not is_real(d):
                continue
            g = realize_class(d, form)
            basis = reversing_space(F, g)
            herm = list(_unitary_members(F, basis, form.gram, 10**7, involutions=True))
            assert len(herm) == len(set(herm))
            ginv = mat_inv(F, g)
            for h in herm:
                assert is_unitary(F, h, form.gram) and mat_mul(F, h, h) == identity(n)
                assert mat_mul(F, h, g) == mat_mul(F, ginv, h)
            fits = False
            if centralizer_order(d) <= 10**5:
                full = list(_unitary_members(F, basis, form.gram, 10**7))
                assert set(herm) == {h for h in full if mat_mul(F, h, h) == identity(n)}
                by_walk += 1
                fits = True
            if q ** len(basis) <= 10**4:
                assert set(herm) == set(reference_hermitian_reversers(pp, basis, form.gram))
                by_scan += 1
                fits = True
            if not fits:
                assert len(basis) == n * n
                assert len(herm) == involution_count(n, pp)
                by_count += 1
    assert by_walk and by_scan
    # the real scalar classes, I and (for odd q) -I, on each of the 3 forms
    assert by_count == ({4: 3, 5: 6}.get(q, 0) if n == 3 else 0)


def test_hermitian_walk_drains_the_four_exhausted_classes():
    # (2,1,1) in U(4, F_3) and (2,1) in U(3, F_5), at t - 1 and t + 1: the
    # full walk has 93,312 and 4,500 unitary reversers, the Hermitian walk
    # drains in 2,187 and 3,125 nodes without an involution
    for q, parts, nodes in ((3, [2, 1, 1], 2187), (5, [2, 1], 3125)):
        pp = prime_power(q)
        F = table_for(pp)
        ctx2 = make_context(pp, 2)
        form = identity_form(sum(parts), pp)
        for c in (1, ctx2.neg(1)):
            f = u_irreducible_lookup(pp, monic_poly(ctx2, (c,)))
            g = realize_class(class_datum(pp, {f: partition(parts)}), form)
            basis = reversing_space(F, g)
            assert list(_unitary_members(F, basis, form.gram, nodes, involutions=True)) == []
            with pytest.raises(BudgetExceededError):
                list(_unitary_members(F, basis, form.gram, nodes - 1, involutions=True))
            assert strong_reality_witnesses(g, form, budgets=Budgets(reversing_scan=nodes)) == []


class NodeClock:
    """A budget of cap nodes, none unless given, that keeps the node count
    (a search evaluates `nodes > budget` as `budget < nodes`)."""

    nodes = 0

    def __init__(self, cap=math.inf):
        self.cap = cap

    def __lt__(self, nodes):
        self.nodes = nodes
        return self.cap < nodes


def test_node_count_where_the_line_condition_skips_c():
    # -I in U(2, F_3) for J = [[0, 1], [1, 0]], where (J x)[0] = x[1]:
    # column 0 is c e_0 + c1 e_1 with v = e_0, so (J v)[0] = 0.  The 6 values
    # of c1 outside GF(3) are one node each; each of the other 3 keeps all 9
    # c (33 nodes), of which 9 + 3 + 3 meet the norm Tr(conj(c) c1) = 0.
    # Column 1 then costs 3 nodes (a GF(3)-line) for each of c = +-1 at
    # c1 = 0 and 1 node for each of the 6 columns with c1 = +-1: 45 nodes,
    # and the 8 leaves are the involutions of U(2, F_3) (I, -I and 96 / 16)
    pp = prime_power(3)
    F = table_for(pp)
    form = standard_forms(2, pp)[1]
    assert form.gram == ((0, 1), (1, 0))
    minus_one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (1,)))
    g = realize_class(class_datum(pp, {minus_one: partition([1, 1])}), form)
    basis = reversing_space(F, g)
    clock = NodeClock()
    found = list(_unitary_members(F, basis, form.gram, clock, involutions=True))
    assert (len(found), clock.nodes) == (8, 45) and len(found) == involution_count(2, pp)
    assert len(list(_unitary_members(F, basis, form.gram, 45, involutions=True))) == 8
    with pytest.raises(BudgetExceededError):
        list(_unitary_members(F, basis, form.gram, 44, involutions=True))


def reference_representative_verdicts(g, datum, form, budgets):
    """The decision with the full walk first: every leaf tested for h h = 1,
    and the Hermitian walk only where the full walk runs out.  The
    reference for _representative_verdicts."""
    F = table_for(form.q)
    space = reversing_space(F, g)
    one = identity(len(g))
    leaves = 0
    try:
        for h in _unitary_members(F, space, form.gram, budgets.reversing_scan):
            if mat_mul(F, h, h) == one:
                return True, True
            leaves += 1
    except BudgetExceededError:
        involutions = _unitary_members(
            F, space, form.gram, budgets.reversing_scan, involutions=True
        )
        try:
            strong = next(involutions, None) is not None
        except BudgetExceededError:
            strong = None
        return (True if leaves or strong else None), strong
    if leaves and leaves != centralizer_order(datum):
        raise CountMismatchError(f"{leaves} unitary reversers of {datum}")
    return leaves > 0, False


DIFFERENTIAL_CASES = [(3, n) for n in (1, 2, 3, 4)] + [(5, 3)] + [(2, n) for n in (1, 2, 3, 4, 5)]


@pytest.mark.parametrize("q,n", DIFFERENTIAL_CASES)
def test_verdicts_match_the_full_walk_reference(q, n, monkeypatch):
    # every class, at the default budgets and at budgets where walks run
    # out: the same records, undecided ones included, as the full walk
    # with its per-leaf involution test
    pp = prime_power(q)
    form = identity_form(n, pp)
    data = enumerate_class_data(n, pp, max_n=n, max_q=q)
    for budgets in (Budgets(), Budgets(reversing_scan=1000), Budgets(reversing_scan=30)):
        got = _representative_records(data, form, budgets)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_representative_verdicts", reference_representative_verdicts)
            assert got == _representative_records(data, form, budgets), budgets


def drain_nodes(F, basis, J, cap, involutions):
    """Nodes of the drained walk, or None past cap nodes."""
    clock = NodeClock(cap)
    try:
        for _ in _unitary_members(F, basis, J, clock, involutions=involutions):
            pass
    except BudgetExceededError:
        return None
    return clock.nodes


@pytest.mark.parametrize("q,n", DIFFERENTIAL_CASES)
def test_hermitian_drain_takes_no_more_nodes(q, n):
    # wherever the full walk drains, the Hermitian walk drains in at most
    # as many nodes, so a budget the Hermitian walk runs out of, the full
    # walk runs out of too and its leaves could not decide strong reality
    pp = prime_power(q)
    F = table_for(pp)
    form = identity_form(n, pp)
    blocks = {}
    drained = 0
    for d in enumerate_class_data(n, pp, max_n=n, max_q=q):
        g = _block_representative(d, form, Budgets(), blocks)
        basis = reversing_space(F, g)
        full = drain_nodes(F, basis, form.gram, 20000, involutions=False)
        if full is not None:
            hermitian = drain_nodes(F, basis, form.gram, full, involutions=True)
            assert hermitian is not None and hermitian <= full, d
            drained += 1
    assert drained


def test_witnesses_use_the_hermitian_walk():
    # without a group, strong reality is the Hermitian walk alone: (2,1) in
    # U(3, F_5) drains within 3,125 nodes without an involution, where the
    # full walk (35,125 nodes), which is_real_oracle runs, meets its first
    # reverser at node 29 and raises before it drains
    pp = prime_power(5)
    F = table_for(pp)
    one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (4,)))
    form = identity_form(3, pp)
    g = realize_class(class_datum(pp, {one: partition([2, 1])}), form)
    small = Budgets(reversing_scan=3125)
    assert strong_reality_witnesses(g, form, budgets=small) == []
    assert not is_strongly_real_oracle(g, form, budgets=small)
    assert is_real_oracle(g, form, budgets=small)
    with pytest.raises(BudgetExceededError):
        list(_unitary_members(F, reversing_space(F, g), form.gram, 3125))


def test_exhaustion_is_recorded_not_guessed_u35():
    # at reversing_scan = 1000 the Hermitian walk cannot drain (2,1) at
    # t - 1 and t + 1, so strong reality stays undecided, and the full walk
    # stops at its first reverser.  The 4 non-real classes (1) + (1,1) at
    # two degree-1 U-irreducibles other than t -+ 1, whose walks run out
    # under the plain rank test, end before their first node: two columns
    # share a 1-dimensional span, so they are decided (False, False)
    budgets = Budgets(entry_scan=10, group_order=10, reversing_scan=1000, realize_scan=200000)
    report = reconcile(3, 5, budgets)
    assert report.strategy == "representatives"
    assert not report.disagreements
    pp = prime_power(5)
    F = table_for(pp)
    ctx2 = make_context(pp, 2)
    plus_minus_one = {u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (1, 4)}
    verdicts = {(r.oracle_real, r.oracle_strongly_real) for r in report.undecided}
    assert verdicts == {(True, None)}
    open_strong = [r for r in report.undecided if r.oracle_strongly_real is None]
    assert sorted(mu.parts for r in open_strong for _, mu in r.datum.blocks) == [(2, 1)] * 2
    assert {r.datum.blocks[0][0] for r in open_strong} == plus_minus_one
    # the polynomials t + a, a = 5, 24, 6, 20 in GF(25) (coordinates
    # [0, 1], [4, 4], [1, 1], [0, 4])
    a, b, c, e = (u_irreducible_lookup(pp, monic_poly(ctx2, (x,))) for x in (5, 24, 6, 20))
    once_open = [
        class_datum(pp, {f: partition(mu), h: partition(nu)})
        for f, h in ((a, b), (c, e))
        for mu, nu in (([1], [1, 1]), ([1, 1], [1]))
    ]
    records = {r.datum: r for r in report.records}
    for d in once_open:
        assert not records[d].classifier_real
        assert (records[d].oracle_real, records[d].oracle_strongly_real) == (False, False)
        basis = reversing_space(F, _block_representative(d, identity_form(3, pp), budgets, {}))
        assert mat_rank(F, [col for B in basis for col in zip(*B)]) == 3
        assert drain_nodes(F, basis, identity(3), 0, False) == 0


def test_a_walk_out_of_budget_before_any_reverser_stays_undecided():
    # (3) at t + 1 plus (1) at t + w and at t + w^2 in U(5, F_2) is real and
    # not strongly real.  Its Hermitian walk drains in 12 nodes; the full
    # walk meets its first reverser at node 14.  At 12 and 13 nodes no
    # involution reverses it, but reality is not known from the walk
    pp = prime_power(2)
    ctx2 = make_context(pp, 2)
    one, w, w2 = (u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (1, 2, 3))
    d = class_datum(pp, {one: partition([3]), w: partition([1]), w2: partition([1])})
    assert is_real(d)
    form = identity_form(5, pp)
    g = _block_representative(d, form, Budgets(), {})
    expected = {11: (None, None), 12: (None, False), 13: (None, False), 14: (True, False)}
    for budget, record in expected.items():
        budgets = Budgets(reversing_scan=budget)
        assert _representative_verdicts(g, d, form, budgets) == record, budget
        assert reference_representative_verdicts(g, d, form, budgets) == record, budget


def test_full_walk_stops_at_its_first_reverser_past_budget(monkeypatch):
    # (2,1,1) at t - 1 in U(4, F_3) has |C| = 93,312 unitary reversers, more
    # than a budget of 20,000 nodes can count, so the full walk stops at its
    # first reverser: the record of the reference, which counts until it
    # runs out.  Its Hermitian walk drains in 2,187 nodes without an
    # involution
    pp = prime_power(3)
    one = u_irreducible_lookup(pp, monic_poly(make_context(pp, 2), (2,)))
    d = class_datum(pp, {one: partition([2, 1, 1])})
    assert centralizer_order(d) == 93312
    form = identity_form(4, pp)
    g = _block_representative(d, form, Budgets(), {})
    budgets = Budgets.uniform(20000)
    tallied = []
    real = oracle._unitary_members

    def spy(*args, tally=False, **kwargs):
        tallied.append(tally)
        return real(*args, tally=tally, **kwargs)

    monkeypatch.setattr(oracle, "_unitary_members", spy)
    record = _representative_verdicts(g, d, form, budgets)
    assert record == reference_representative_verdicts(g, d, form, budgets) == (True, False)
    assert tallied == [False, False]


def test_non_real_u72_records_end_before_their_first_node():
    # (1,1,1) at t + w plus (1,1,1,1) at t + w^2, and its mirror: the
    # representative is diagonal, and columns of one eigenvalue share one
    # span, 3-dimensional for the 4 columns of the larger block.  Both walks
    # end at 0 nodes; the full walk alone would run past 10^7 nodes
    pp = prime_power(2)
    F = table_for(pp)
    ctx2 = make_context(pp, 2)
    w, w2 = (u_irreducible_lookup(pp, monic_poly(ctx2, (c,))) for c in (2, 3))
    form = identity_form(7, pp)
    for a, b in ((w, w2), (w2, w)):
        d = class_datum(pp, {a: partition([1, 1, 1]), b: partition([1, 1, 1, 1])})
        assert not is_real(d)
        g = _block_representative(d, form, Budgets(), {})
        assert _representative_verdicts(g, d, form, Budgets()) == (False, False)
        basis = reversing_space(F, g)
        for involutions in (False, True):
            assert drain_nodes(F, basis, form.gram, 0, involutions) == 0


def unipotent_at_one(parts):
    return {"poly": [[1, 0]], "partition": parts}


# The real classes of U(n, F_2), n <= 8, that the classifier leaves Unknown:
# n, blocks as `list` prints them, reversing-space dimension m, and the
# unitary involutions that reverse the block-sum representative.  t + w and
# t + w^2 ([[0, 1]], [[1, 1]]) are the degree-1 U-irreducibles other than
# t + 1, w a primitive cube root of unity in GF(4).
UNKNOWN_F2 = [
    (6, [unipotent_at_one([5, 1])], 8, 0),
    (7, [unipotent_at_one([5, 1, 1])], 13, 0),
    (7, [unipotent_at_one([4, 3])], 13, 0),
    (7, [unipotent_at_one([3, 2, 2])], 19, 0),
    (
        8,
        [
            unipotent_at_one([5, 1]),
            {"poly": [[0, 1]], "partition": [1]},
            {"poly": [[1, 1]], "partition": [1]},
        ],
        10,
        0,
    ),
    (8, [unipotent_at_one([7, 1])], 10, 0),
    (8, [unipotent_at_one([5, 3])], 14, 192),
    (8, [unipotent_at_one([5, 2, 1])], 16, 0),
    (8, [unipotent_at_one([5, 1, 1, 1])], 20, 0),
]


def test_unknown_classes_of_u_n_f2_decided_by_search():
    # the nine are exactly the real Unknown classes for n <= 8, and the
    # Hermitian walk decides each: only (5,3) is strongly real, with 192
    # involutions (the same count as an independent earlier search)
    pp = prime_power(2)
    F = table_for(pp)
    unknown = [
        d
        for n in range(1, 9)
        for d in enumerate_class_data(n, pp, max_n=8, max_q=2)
        if is_real(d) and strongly_real(d).status == UNKNOWN
    ]
    assert [(d.n, d.to_json()["blocks"]) for d in unknown] == [row[:2] for row in UNKNOWN_F2]
    blocks = {}
    for d, (n, _, m, involutions) in zip(unknown, UNKNOWN_F2):
        form = identity_form(n, pp)
        g = _block_representative(d, form, Budgets(), blocks)
        basis = reversing_space(F, g)
        assert len(basis) == m
        found = list(_unitary_members(F, basis, form.gram, 10**6, involutions=True))
        assert len(found) == len(set(found)) == involutions
        assert all(mat_mul(F, h, h) == identity(n) and is_unitary(F, h, form.gram) for h in found)
        # reconcile's verdicts: strong reality from the Hermitian walk, real
        # from it or from the full walk
        verdicts = _representative_verdicts(g, d, form, Budgets.uniform(20000))
        assert verdicts == (True, involutions > 0)


def test_empty_matrix_is_the_one_member_of_m0():
    # n = 0: the 0 x 0 matrix is unitary and an involution, in both modes,
    # so verify --n 0 still builds U(0, F_q) and decides its one class
    F = table_for(prime_power(3))
    for involutions in (False, True):
        assert list(_unitary_members(F, [], (), 10, involutions=involutions)) == [()]
    report = reconcile(0, 3)
    assert [(r.oracle_real, r.oracle_strongly_real) for r in report.records] == [(True, True)]
