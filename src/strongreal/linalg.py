"""Matrix kernels over small finite fields.

Matrices are tuples of tuples of packed field ints and all arithmetic goes
through a GFTable.  Elimination uses a deterministic pivot rule (first
nonzero entry in column order) so ranks, nullspace bases, and inverses are
reproducible.
"""

from __future__ import annotations

from .errors import ZeroInputError
from .fields import GFTable

Matrix = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F: GFTable, A: Matrix, B: Matrix) -> Matrix:
    mul = F.mul
    add = F.add
    Bt = tuple(zip(*B))
    out = []
    for row in A:
        out_row = []
        for col in Bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = add[acc][mul[a][b]]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def conj_transpose(F: GFTable, A: Matrix) -> Matrix:
    conj = F.conj
    return tuple(tuple(conj[a] for a in col) for col in zip(*A))


def _eliminate(F: GFTable, rows):
    """Row reduce in place; returns ordered list of (pivot_row, pivot_col)."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = inv[rows[r][c]]
        if pv != 1:
            prow = mul[pv]
            rows[r] = [prow[x] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                factor = neg[rows[i][c]]
                frow = mul[factor]
                src = rows[r]
                dst = rows[i]
                rows[i] = [add[dst[j]][frow[src[j]]] for j in range(n)]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def mat_rank(F: GFTable, A) -> int:
    return len(_eliminate(F, [list(r) for r in A]))


def nullspace(F: GFTable, A):
    """Basis of {x : A x = 0}, deterministic order (one vector per free col)."""
    rows = [list(r) for r in A]
    if not rows:
        return []
    n = len(rows[0])
    pivots = _eliminate(F, rows)
    pivot_cols = {c: r for r, c in pivots}
    neg = F.neg
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [0] * n
        vec[free] = 1
        for c, r in pivot_cols.items():
            vec[c] = neg[rows[r][free]]
        basis.append(tuple(vec))
    return basis


def mat_inv(F: GFTable, A: Matrix) -> Matrix:
    n = len(A)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A)]
    pivots = _eliminate(F, rows)
    if sum(1 for _, c in pivots if c < n) < n:
        raise ZeroInputError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def mat_det(F: GFTable, A: Matrix) -> int:
    """det A = (-1)^n charpoly(A)(0); the 0 x 0 determinant is 1."""
    if not A:
        return 1
    c0 = charpoly(F, A)[0]
    return F.neg[c0] if len(A) % 2 else c0


def is_hermitian(F: GFTable, J: Matrix) -> bool:
    return conj_transpose(F, J) == J


def is_unitary(F: GFTable, g: Matrix, J: Matrix) -> bool:
    return mat_mul(F, mat_mul(F, conj_transpose(F, g), J), g) == J


# ---------------------------------------------------------------------------
# characteristic polynomial, exact over any characteristic


def charpoly(F: GFTable, A: Matrix):
    """Monic characteristic polynomial det(tI - A), low-degree coefficients.

    Returns (c_0, ..., c_(n-1)); the leading 1 is implicit.  A similarity
    takes A to upper Hessenberg form H; then p_m = det(tI - H[:m, :m])
    follows from p_(m-1), ..., p_0 by expanding along the last column
    (H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    section 2.2): O(n^3) field operations in any characteristic.
    """
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    n = len(A)
    H = [list(row) for row in A]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        pinv = inv[H[m][m - 1]]
        for i in range(m + 1, n):
            u = mul[H[i][m - 1]][pinv]
            if u:
                # row i -= u row m, then column m += u column i
                minus_u, plus_u = mul[neg[u]], mul[u]
                H[i] = [add[x][minus_u[y]] for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = add[row[m]][plus_u[row[i]]]
    polys = [[1]]
    for m in range(n):
        # p_(m+1) = t p_m - sum over k = m, ..., 0 of
        # h_(k,m) h_(k+1,k) ... h_(m,m-1) p_k
        p = [0] + polys[m]
        sub = 1
        for k in range(m, -1, -1):
            scale = mul[mul[neg[sub]][H[k][m]]]
            for j, x in enumerate(polys[k]):
                p[j] = add[p[j]][scale[x]]
            sub = mul[sub][H[k][k - 1]]  # not read after k = 0
            if not sub:
                break
        polys.append(p)
    return tuple(polys[n][:n])
