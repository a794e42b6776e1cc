"""The packed-code kernel of the group path against plain matrix arithmetic
and against the tuple codes it replaced.

The matrix references use only linalg.mat_mul and linalg.mat_inv: a
breadth-first closure over the generators, conjugacy orbits by generator
conjugation, and the involution test s s = 1.  reference_tuple_code_group
is the kernel as it ran on tuples of row codes, which must give the same
closure order, permutations and orbits.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongreal import oracle
from strongreal.errors import CountMismatchError, GroupClosureError
from strongreal.fields import prime_power, table_for
from strongreal.linalg import conj_transpose, identity, is_unitary, mat_inv, mat_mul
from strongreal.oracle import (
    _conjugation_orbits,
    _RowCodes,
    _strongly_real_orbits,
    anti_diagonal,
    congruence_to_identity,
    enumerate_group,
    HermitianForm,
    is_real_oracle,
    is_strongly_real_oracle,
    reconcile,
    standard_forms,
    strong_reality_witnesses,
    unitary_order,
)

from field_helpers import norm_one

# A table has q^(2n) rows, so the shapes stop at 20000 rows.  That covers
# every shape whose group fits the default order budget: U(2, F_q) up to
# q = 37, U(3, F_q) up to q = 4, and U(4, F_2).
SHAPES = [(q, n) for q in (2, 3, 4, 5, 7) for n in range(1, 5) if q ** (2 * n) <= 20000]


@functools.lru_cache(maxsize=None)
def row_codes(q, n):
    return _RowCodes(table_for(prime_power(q)), n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_code_product_matches_mat_mul(data):
    q, n = data.draw(st.sampled_from(SHAPES))
    codec = row_codes(q, n)
    entry = st.integers(0, codec.F.size - 1)
    matrix = st.tuples(*[st.tuples(*[entry] * n)] * n)
    a, b = data.draw(matrix), data.draw(matrix)
    x, y = codec.encode(a), codec.encode(b)
    assert type(x) is int
    assert codec.decode(x) == a
    # codes sort like the matrices, rows compared first to last
    assert (x < y) == (a < b)
    [product] = codec.times(codec.split([x]), codec.table(b))
    assert codec.decode(product) == mat_mul(codec.F, a, b)
    [adjoint] = codec.adjoint(codec.split([x]))
    assert codec.decode(adjoint) == conj_transpose(codec.F, a)


class ReferenceTupleCodes:
    """The tuple codes the packed ones replaced: a matrix as the tuple of its
    row codes, a right-multiplication table by one mat_mul over every row,
    and the adjoint by decoding, transposing and encoding again."""

    def __init__(self, F, n):
        self.F = F
        self.rows = tuple(itertools.product(range(F.size), repeat=n))
        self.code = {row: c for c, row in enumerate(self.rows)}
        self.conj = [self.code[tuple(F.conj[a] for a in row)] for row in self.rows]
        self.identity = self.encode(identity(n))

    def encode(self, m):
        return tuple([self.code[row] for row in m])

    def decode(self, x):
        return tuple([self.rows[c] for c in x])

    def table(self, g):
        return [self.code[row] for row in mat_mul(self.F, self.rows, g)]

    def adjoint(self, x):
        return tuple([self.conj[self.code[col]] for col in zip(*self.decode(x))])


def reference_times(x, table):
    return tuple([table[r] for r in x])


def reference_tuple_code_group(n, pp, form):
    """(decoded elements in closure order, right, inverse, conjugacy orbit
    ids, strongly real orbit ids) by the tuple-code kernel: the closure one
    element at a time over the same members, the inverse element by
    element, orbits by a search over the conjugation moves, and strong
    reality by one table per involution orbit."""
    F = table_for(pp)
    codec = ReferenceTupleCodes(F, n)
    target = unitary_order(n, pp.q)
    right, pairs = [], []
    codes, index = [codec.identity], {codec.identity: 0}

    def scan(xs, pairs):
        for x in xs:
            for table, perm in pairs:
                y = reference_times(x, table)
                j = index.get(y)
                if j is None:
                    j = index[y] = len(codes)
                    codes.append(y)
                perm.append(j)

    for g in oracle._entrywise_members(F, n, form.gram):
        if codec.encode(g) in index:
            continue
        found = len(codes)
        right.append([])
        pairs.append((codec.table(g), right[-1]))
        scan(itertools.islice(codes, found), pairs[-1:])
        scan(itertools.islice(codes, found, None), pairs)
        if len(codes) >= target:
            break
    assert len(codes) == target
    adjoint = codec.adjoint
    if form.gram == identity(n):
        inverse = [index[adjoint(x)] for x in codes]
    else:
        t_j, t_jinv = codec.table(form.gram), codec.table(mat_inv(F, form.gram))
        inverse = [
            index[adjoint(reference_times(adjoint(reference_times(adjoint(x), t_j)), t_jinv))]
            for x in codes
        ]

    moves = [[inverse[r[inverse[ri]]] for ri in r] for r in right]
    orbit, count = [-1] * len(codes), 0
    for start in range(len(codes)):
        if orbit[start] < 0:
            orbit[start], stack = count, [start]
            while stack:
                x = stack.pop()
                for move in moves:
                    if orbit[move[x]] < 0:
                        orbit[move[x]] = count
                        stack.append(move[x])
            count += 1

    involutions = [i for i, j in enumerate(inverse) if i == j]
    strong = set()
    for s in {orbit[i]: i for i in involutions}.values():
        table = codec.table(codec.decode(codes[s]))
        strong.update(orbit[index[reference_times(codes[t], table)]] for t in involutions)
    return [codec.decode(x) for x in codes], right, inverse, orbit, strong


# (n, q, form index in standard_forms): every U(n <= 3, F_2), U(2, F_q) for
# q <= 7, U(3, F_3), n = 0 and 1, and non-identity forms N_2, N_2 + I_1, N_3
DIFFERENTIAL = (
    [(0, 3, 0), (1, 3, 0), (1, 5, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0), (3, 3, 0)]
    + [(2, q, 0) for q in (3, 4, 5, 7)]
    + [(2, 3, 1), (2, 7, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2)]
)


@pytest.mark.parametrize("n,q,which", DIFFERENTIAL)
def test_packed_codes_match_tuple_code_reference(n, q, which):
    pp = prime_power(q)
    form = standard_forms(n, pp)[which]
    assert (form.gram == identity(n)) == (which == 0)
    group = enumerate_group(n, pp, form)
    elements, right, inverse, orbit, strong = reference_tuple_code_group(n, pp, form)
    assert list(group.elements) == elements
    assert group.right == right
    assert group.inverse == inverse
    assert _conjugation_orbits(group) == orbit
    assert _strongly_real_orbits(group, orbit) == strong


def _reference(F, group):
    """Closure set, orbit partition and involution set by matrix products."""
    eye = identity(group.form.n)
    closure, frontier = {eye}, [eye]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = mat_mul(F, x, g)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    pairs = [(h, mat_inv(F, h)) for h in group.generators]
    orbits, seen = set(), set()
    for g in sorted(closure):
        if g in seen:
            continue
        orbit, frontier = {g}, [g]
        while frontier:
            nxt = []
            for x in frontier:
                for h, hinv in pairs:
                    y = mat_mul(F, mat_mul(F, h, x), hinv)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        orbits.add(frozenset(orbit))
    involutions = {s for s in closure if mat_mul(F, s, s) == eye}
    return closure, orbits, involutions


def reference_transported_group(n, pp, form):
    """U(n, F_q) for form as the identity-form group moved through a
    congruence: x -> r x r^(-1) with r* J r = I, which takes x* x = I to
    (r x r^(-1))* J (r x r^(-1)) = J."""
    F = table_for(pp)
    r = congruence_to_identity(F, form.gram)
    rinv = mat_inv(F, r)
    return [mat_mul(F, mat_mul(F, r, x), rinv) for x in enumerate_group(n, pp).elements]


# (n, q) for the antidiagonal form N_n
OTHER_FORMS = [(2, 3), (2, 2), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("n,q", OTHER_FORMS)
def test_other_form_matches_transported_reference(n, q):
    pp = prime_power(q)
    form = HermitianForm(pp, anti_diagonal(n))
    group = enumerate_group(n, pp, form)
    reference = reference_transported_group(n, pp, form)
    assert group.order == len(reference) == unitary_order(n, q)
    assert set(group.elements) == set(reference)


@pytest.mark.parametrize("fault", ["short", "conjugated"])
@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_other_form_closure_checks(n, q, fault, monkeypatch):
    # the search for N_n itself, one member short or conjugated by a
    # non-unitary p (right count, wrong form), must not give a group
    pp = prime_power(q)
    F = table_for(pp)
    search = oracle._entrywise_members
    p = embed_block(n, ((1, 1), (0, 1)), 0)
    pinv = mat_inv(F, p)

    def members(F, n, J):
        found = search(F, n, J)
        if J == identity(n):
            return found
        if fault == "short":
            return list(found)[:-1]
        return (mat_mul(F, mat_mul(F, p, g), pinv) for g in found)

    order = unitary_order(n, q)
    message = f"found {order - 1} members, expected {order}" if fault == "short" else "unitarity"
    monkeypatch.setattr(oracle, "_entrywise_members", members)
    with pytest.raises(GroupClosureError, match=message):
        enumerate_group(n, pp, HermitianForm(pp, anti_diagonal(n)))


@pytest.mark.parametrize(
    "n,q,antidiagonal",
    [(2, 3, False), (3, 2, False), (2, 5, False), (1, 3, False)]
    + [(n, q, True) for n, q in OTHER_FORMS],
)
def test_kernel_matches_matrix_reference(n, q, antidiagonal):
    pp = prime_power(q)
    F = table_for(pp)
    form = HermitianForm(pp, anti_diagonal(n)) if antidiagonal else None
    group = enumerate_group(n, pp, form)
    assert group.strategy == ("entrywise" if q ** (2 * n * n) <= 10**6 else "closure")
    closure, orbits, involutions = _reference(F, group)

    assert set(group.elements) == closure
    # kept in the closure's order: the identity first, one index per code
    assert group.elements[0] == identity(n)
    assert len(group.index) == group.order
    for i, x in enumerate(group.codes):
        assert group.elements[i] == group.codec.decode(x)
        assert group.index[x] == i
    for i, g in enumerate(group.elements):
        assert group.elements[group.inverse[i]] == mat_inv(F, g)
        for h, right in zip(group.generators, group.right):
            assert group.elements[right[i]] == mat_mul(F, g, h)

    parts: dict = {}
    for g, oid in zip(group.elements, _conjugation_orbits(group)):
        parts.setdefault(oid, set()).add(g)
    assert {frozenset(p) for p in parts.values()} == orbits
    assert set(group.involutions()) == involutions


def test_verdicts_take_no_group():
    # membership reads packed codes; the verdict functions take no group, so a
    # group passed to one, by position or by name, is a TypeError
    pp = prime_power(3)
    group = enumerate_group(2, pp)
    not_unitary = ((1, 1), (0, 1))
    assert not_unitary not in group
    assert identity(2) in group
    for verdict in (is_real_oracle, is_strongly_real_oracle, strong_reality_witnesses):
        with pytest.raises(TypeError):
            verdict(identity(2), group.form, group)
        with pytest.raises(TypeError):
            verdict(identity(2), group.form, group=group)


@pytest.mark.parametrize(
    "g,member",
    [
        ([[1, 0], [0, 1]], True),  # rows as lists
        ([(1, 0), [0, 1]], True),
        (((0, 1), (1, 0)), True),
        (((1, 0),), False),  # one row short
        (((1, 0), (0, 1), (0, 0)), False),  # one row over
        (((0, 1, 0), (0, 0, 1)), False),  # rows of 3, packed like the identity
        (((1,), (0, 1)), False),
        (((1, 0), (-1, 10)), False),  # entries outside 0 .. 8, packed like the identity
        (((0, 9), (0, 1)), False),
        (((1.0, 0), (0, 1)), False),  # not a field element's int
    ],
)
def test_membership_takes_any_sequence_and_refuses_other_shapes(g, member):
    # U(2, F_3): q^2 = 9, so a row code is below 81
    group = enumerate_group(2, prime_power(3))
    assert (g in group) is member


def test_membership_at_n_0():
    group = enumerate_group(0, prime_power(3))
    assert () in group and [] in group
    assert ((),) not in group


@pytest.mark.parametrize("fault", ["merge", "split"])
def test_reconcile_rejects_wrong_orbits(monkeypatch, fault):
    # orbits that lose a class or count one twice must not reach a report
    exact = _conjugation_orbits

    def faulty(group):
        orbit = exact(group)
        if fault == "merge":
            return [0 if oid == 1 else oid for oid in orbit]
        first: dict = {}
        i = next(i for i, oid in enumerate(orbit) if first.setdefault(oid, i) != i)
        orbit[i] = max(orbit) + 1
        return orbit

    monkeypatch.setattr(oracle, "_conjugation_orbits", faulty)
    with pytest.raises(CountMismatchError):
        reconcile(2, 3)


def test_reconcile_checks_orbit_sizes(monkeypatch):
    # moving one element into another orbit keeps every orbit's first
    # element, so the data still match the classes; only the orbit sizes,
    # |G| / |C(g)| by Wall's formula, show the fault
    exact = _conjugation_orbits

    def faulty(group):
        orbit = exact(group)
        first: dict = {}
        i = next(i for i, oid in enumerate(orbit) if first.setdefault(oid, i) != i and oid != 0)
        orbit[i] = 0
        return orbit

    monkeypatch.setattr(oracle, "_conjugation_orbits", faulty)
    with pytest.raises(CountMismatchError, match="elements, expected"):
        reconcile(2, 3)


def embed_block(n, block, pos):
    """block at rows and columns [pos, pos + len(block)), identity elsewhere."""
    inside = range(pos, pos + len(block))
    return tuple(
        tuple(
            block[i - pos][j - pos] if i in inside and j in inside else int(i == j)
            for j in range(n)
        )
        for i in range(n)
    )


def reference_closure_seeds(F, n, u2_elements):
    """The seed set with the unitary diagonals built on their own as well."""
    seeds = set()
    for pos in range(n - 1):
        for m2 in u2_elements:
            seeds.add(embed_block(n, m2, pos))
    for diag in itertools.product(norm_one(F), repeat=n):
        seeds.add(tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))
    for perm in itertools.permutations(range(n)):
        for scalars in itertools.product(norm_one(F), repeat=n):
            seeds.add(
                tuple(tuple(scalars[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
            )
    return seeds


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_seeds_match_reference(q, n):
    # the embedded U(2) blocks and the monomial unitary matrices are
    # unitary, so the group must contain them
    pp = prime_power(q)
    F = table_for(pp)
    b = min(n, 2)
    seeds = reference_closure_seeds(F, n, enumerate_group(b, pp).elements)
    if unitary_order(n, q) > oracle.DEFAULT_BUDGETS.group_order:
        # U(3, F_5) is past the group budget; membership is unitarity
        assert all(is_unitary(F, s, identity(n)) for s in seeds)
        return
    group = enumerate_group(n, pp)
    assert all(s in group for s in seeds)
