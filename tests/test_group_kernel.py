"""The row-code kernel of the group path against plain matrix arithmetic.

The references below use only linalg.mat_mul and linalg.mat_inv: a
breadth-first closure over the generators, conjugacy orbits by generator
conjugation, and the involution test s s = 1.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongreal import oracle
from strongreal.errors import CountMismatchError
from strongreal.fields import prime_power, table_for
from strongreal.linalg import conj_transpose, identity, mat_inv, mat_mul
from strongreal.oracle import (
    _closure_seeds,
    _conjugation_orbits,
    _entrywise_members,
    _RowCodes,
    _times,
    anti_diagonal,
    enumerate_group,
    HermitianForm,
    is_real_oracle,
    reconcile,
)

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
    x = codec.encode(a)
    assert codec.decode(x) == a
    assert codec.decode(_times(x, codec.table(b))) == mat_mul(codec.F, a, b)
    assert codec.decode(codec.adjoint(x)) == conj_transpose(codec.F, a)


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


@pytest.mark.parametrize(
    "n,q,transported",
    [(2, 3, False), (3, 2, False), (2, 5, False), (1, 3, False), (3, 2, True)],
)
def test_kernel_matches_matrix_reference(n, q, transported):
    pp = prime_power(q)
    F = table_for(pp)
    form = HermitianForm(pp, anti_diagonal(n)) if transported else None
    group = enumerate_group(n, pp, form)
    assert group.strategy.endswith("+transport") == transported
    closure, orbits, involutions = _reference(F, group)

    assert set(group.elements) == closure
    assert list(group.elements) == sorted(closure)
    for i, g in enumerate(group.elements):
        assert group.elements[group.inverse[i]] == mat_inv(F, g)
        for h, right in zip(group.generators, group.right):
            assert group.elements[right[i]] == mat_mul(F, g, h)

    parts: dict = {}
    for g, oid in zip(group.elements, _conjugation_orbits(group)):
        parts.setdefault(oid, set()).add(g)
    assert {frozenset(p) for p in parts.values()} == orbits
    assert set(group.involutions()) == involutions


def test_group_search_needs_an_element():
    pp = prime_power(3)
    group = enumerate_group(2, pp)
    not_unitary = ((1, 1), (0, 1))
    assert not_unitary not in group
    with pytest.raises(ValueError):
        is_real_oracle(not_unitary, group.form, group)


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


def reference_closure_seeds(F, n, u2_elements):
    """The seed set with the unitary diagonals built on their own as well."""
    seeds = set()
    for pos in range(n - 1):
        for m2 in u2_elements:
            seeds.add(oracle._embed_block(n, m2, pos))
    for diag in itertools.product(F.norm_one, repeat=n):
        seeds.add(tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))
    for perm in itertools.permutations(range(n)):
        for scalars in itertools.product(F.norm_one, repeat=n):
            seeds.add(
                tuple(tuple(scalars[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
            )
    return seeds


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_seeds_match_reference(q, n):
    F = table_for(prime_power(q))
    b = min(n, 2)
    u2 = list(_entrywise_members(F, b, identity(b)))
    assert _closure_seeds(F, n, u2) == reference_closure_seeds(F, n, u2)
