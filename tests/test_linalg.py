"""Elimination, inverses, and characteristic polynomials over GF(q^2)."""

import random

import pytest

from strongreal.errors import ZeroInputError
from strongreal.fields import PrimePower, prime_power, table_for
from strongreal.linalg import (
    charpoly,
    conj_transpose,
    identity,
    is_hermitian,
    is_unitary,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    nullspace,
    transpose,
)

PP2 = PrimePower(2)
PP3 = PrimePower(3)

F3 = table_for(PP3)
F2 = table_for(PP2)


def random_matrix(rng, F, n):
    return tuple(tuple(rng.randrange(F.size) for _ in range(n)) for _ in range(n))


def reference_charpoly(F, A):
    """The Laplace expansion charpoly replaced: det(tI - A) memoized over
    the 2^n column subsets, with its own coefficient-tuple helpers."""
    n = len(A)
    add, mul, neg = F.add, F.mul, F.neg

    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = add[out[i]][x]
        return tuple(out)

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = add[out[i + j]][mul[x][y]]
        return tuple(out)

    def pscale(c, a):
        return tuple(mul[c][x] for x in a)

    # entry (i, j) of tI - A as a linear polynomial
    ent = [[(neg[A[i][j]], 1 if i == j else 0) for j in range(n)] for i in range(n)]
    memo = {0: (1,)}

    def det(mask):
        if mask not in memo:
            cols = [j for j in range(n) if mask >> j & 1]
            row = n - len(cols)
            acc = (0,)
            for pos, j in enumerate(cols):
                term = pmul(ent[row][j], det(mask & ~(1 << j)))
                acc = padd(acc, term if pos % 2 == 0 else pscale(neg[1], term))
            memo[mask] = acc
        return memo[mask]

    full = det((1 << n) - 1)
    full = full + (0,) * (n + 1 - len(full))
    assert full[n] == 1
    return tuple(full[:n])


def sparse_matrix(rng, F, n, density):
    return tuple(
        tuple(rng.randrange(1, F.size) if rng.random() < density else 0 for _ in range(n))
        for _ in range(n)
    )


def test_mul_identity_and_associativity():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, F3, 3)
        b = random_matrix(rng, F3, 3)
        c = random_matrix(rng, F3, 3)
        assert mat_mul(F3, a, identity(3)) == a
        assert mat_mul(F3, identity(3), a) == a
        assert mat_mul(F3, mat_mul(F3, a, b), c) == mat_mul(F3, a, mat_mul(F3, b, c))


def test_inverse():
    rng = random.Random(5)
    found = 0
    while found < 15:
        a = random_matrix(rng, F3, 3)
        if mat_det(F3, a) == 0:
            continue
        found += 1
        inv = mat_inv(F3, a)
        assert mat_mul(F3, a, inv) == identity(3)
        assert mat_mul(F3, inv, a) == identity(3)
    with pytest.raises(ZeroInputError):
        mat_inv(F3, ((0, 0), (0, 0)))


def test_rank_and_nullspace():
    rows = ((1, 2, 0), (2, 1, 0), (0, 0, 0))
    r = mat_rank(F3, rows)
    basis = nullspace(F3, rows)
    assert r + len(basis) == 3
    for v in basis:
        for row in rows:
            acc = 0
            for a, x in zip(row, v):
                acc = F3.add[acc][F3.mul[a][x]]
            assert acc == 0


def test_nullspace_deterministic():
    rng = random.Random(11)
    for _ in range(10):
        rows = [tuple(rng.randrange(9) for _ in range(4)) for _ in range(3)]
        assert nullspace(F3, rows) == nullspace(F3, [list(r) for r in rows])


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(20):
        a = random_matrix(rng, F3, 3)
        b = random_matrix(rng, F3, 3)
        assert mat_det(F3, mat_mul(F3, a, b)) == F3.mul[mat_det(F3, a)][mat_det(F3, b)]


def test_conj_transpose_and_hermitian():
    J = ((0, 1), (1, 0))
    assert is_hermitian(F3, J)
    g = ((1, 3), (0, 1))
    assert conj_transpose(F3, conj_transpose(F3, g)) == g
    assert transpose(transpose(g)) == g


def test_charpoly_against_pointwise_determinants():
    # oracle: evaluate det(xI - A) directly for every field point x
    rng = random.Random(17)
    for F, n in ((F3, 2), (F3, 3), (F2, 3), (F2, 4)):
        for _ in range(8):
            a = random_matrix(rng, F, n)
            coeffs = charpoly(F, a) + (1,)
            for x in range(F.size):
                shifted = tuple(
                    tuple(
                        F.add[x if i == j else 0][F.neg[a[i][j]]]
                        for j in range(n)
                    )
                    for i in range(n)
                )
                val = 0
                for c in reversed(coeffs):
                    val = F.add[F.mul[val][x]][c]
                assert val == mat_det(F, shifted)


def reference_mat_det(F, A):
    """The forward elimination mat_det replaced: the product of the pivots,
    negated at each row swap."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    rows = [list(r) for r in A]
    n = len(rows)
    det = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            return 0
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = neg[det]
        det = mul[det][rows[r][c]]
        pv = inv[rows[r][c]]
        prow = mul[pv]
        rows[r] = [prow[x] for x in rows[r]]
        for i in range(r + 1, n):
            if rows[i][c]:
                factor = neg[rows[i][c]]
                frow = mul[factor]
                src = rows[r]
                rows[i] = [add[rows[i][j]][frow[src[j]]] for j in range(n)]
        r += 1
    return det


def charpoly_cases(F, q):
    """Dense, sparse and singular matrices of size 0 .. 7, and ones whose
    Hessenberg reduction meets a zero pivot with a nonzero entry below it
    (row and column swap) or with none (the column is skipped)."""
    rng = random.Random(q)
    for n in range(8):
        cases = [random_matrix(rng, F, n) for _ in range(12)]
        cases += [sparse_matrix(rng, F, n, density) for density in (0.1, 0.3, 0.5) for _ in range(4)]
        for _ in range(4):
            a = [list(row) for row in random_matrix(rng, F, n)]
            if n:
                a[rng.randrange(n)] = [0] * n  # singular
            cases.append(a)
        for col in range(max(n - 2, 0)):
            # upper Hessenberg with a zero at (col + 1, col): the reduction
            # swaps in a nonzero entry from below, or skips the column
            for below in (rng.randrange(1, F.size), 0):
                a = [[x if i <= j + 1 else 0 for j, x in enumerate(row)]
                     for i, row in enumerate(random_matrix(rng, F, n))]
                a[col + 1][col] = 0
                a[col + 2][col] = below
                cases.append(a)
        yield from (tuple(map(tuple, a)) for a in cases)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_charpoly_matches_laplace_reference(q):
    F = table_for(prime_power(q))
    for a in charpoly_cases(F, q):
        assert charpoly(F, a) == reference_charpoly(F, a), (q, a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mat_det_matches_elimination_reference(q):
    # det A = (-1)^n charpoly(A)(0), against the elimination it replaced
    F = table_for(prime_power(q))
    assert mat_det(F, ()) == reference_mat_det(F, ()) == 1
    for a in charpoly_cases(F, q):
        assert mat_det(F, a) == reference_mat_det(F, a), (q, a)


def test_charpoly_of_companion():
    from strongreal.oracle import _companion

    coeffs = (2, 1, 0, 1)  # t^4 + t^2 + t + 2 over GF(9)
    comp = _companion(F3, coeffs + (1,))
    assert charpoly(F3, comp) == coeffs


def test_is_unitary():
    # identity form: columns orthonormal
    g = ((0, 1), (1, 0))
    assert is_unitary(F3, g, identity(2))
    assert not is_unitary(F3, ((1, 1), (0, 1)), identity(2))
