"""Ground truth by brute force over explicit matrix groups.

Materializes small unitary groups U(n, F_q) as sets of matrices over GF(q^2),
extracts class data from matrices, decides reality and strong reality by
exhaustive search, and reconciles everything against the classify module.

Search budgets are explicit; exceeding one raises, it never silently turns
into a verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

from . import classify
from .classdata import (
    ClassDatum,
    centralizer_order,
    class_datum,
    invert,
    negate,
    partition,
    unitary_order,
)
from .counting import enumerate_class_data
from .errors import (
    BudgetExceededError,
    CountMismatchError,
    GroupClosureError,
    RealizationBudgetError,
    RealizationError,
)
from .fields import GFTable, PrimePower, _Frozen, make_context, prime_power, table_for
from .linalg import (
    Matrix,
    _eliminate,
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
from .upoly import MonicPoly, factor_into_u_irreducibles, poly_mul, poly_one


class Budgets(_Frozen):
    """Hard caps for the search strategies."""

    __slots__ = ("entry_scan", "group_order", "reversing_scan", "realize_scan")

    def __init__(
        self,
        entry_scan: int = 10**8,        # cap on q^(2 n^2) for entrywise filtering
        group_order: int = 2 * 10**6,   # cap on materialized group order, either strategy
        reversing_scan: int = 10**7,    # cap on nodes of the unitary reverser search
        realize_scan: int = 200_000,    # cap on invariant-form search candidates
    ):
        super().__init__(entry_scan, group_order, reversing_scan, realize_scan)

    @staticmethod
    def uniform(value: int) -> "Budgets":
        return Budgets(
            entry_scan=value,
            group_order=value,
            reversing_scan=value,
            realize_scan=value,
        )


DEFAULT_BUDGETS = Budgets()


class HermitianForm(_Frozen):
    """Invertible matrix J with conj-transpose(J) = J."""

    __slots__ = ("q", "gram")

    def __init__(self, q: PrimePower, gram: Matrix):
        F = table_for(q)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError(f"gram matrix is not {n} x {n}")
        if not all(isinstance(a, int) and a in range(F.size) for row in gram for a in row):
            raise ValueError(f"gram entries must be packed field elements 0 .. {F.size - 1}")
        if not is_hermitian(F, gram):
            raise ValueError("gram matrix is not Hermitian")
        if mat_det(F, gram) == 0:
            raise ValueError("gram matrix is singular")
        super().__init__(q, gram)

    @property
    def n(self) -> int:
        return len(self.gram)

    def to_json(self):
        return {"q": self.q.to_json(), "gram": matrix_to_json(self.q, self.gram)}


def matrix_to_json(q: PrimePower, M: Matrix):
    """M with each GF(q^2) entry written as its list of GF(p) coordinates."""
    ctx = make_context(q, 2)
    return [[list(ctx.to_coords(a)) for a in row] for row in M]


def identity_form(n: int, q: PrimePower) -> HermitianForm:
    return HermitianForm(q, identity(n))


def anti_diagonal(n: int) -> Matrix:
    return tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


def _block_diag(*blocks) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for r in b:
            rows.append((0,) * offset + tuple(r) + (0,) * (n - offset - len(r)))
        offset += len(b)
    return tuple(rows)


def standard_forms(n: int, q: PrimePower) -> list[HermitianForm]:
    """Identity plus the block forms used by the explicit constructions.

    Includes N_2r + I_m for 2r <= n, N_3 + 1 at n = 4, N_3 + N_2 at n = 5,
    and the full antidiagonal N_n when 3 divides n.
    """
    grams = [identity(n)]
    for r in range(1, n // 2 + 1):
        blocks = [anti_diagonal(2 * r)]
        if n - 2 * r:
            blocks.append(identity(n - 2 * r))
        grams.append(_block_diag(*blocks))
    if n == 4:
        grams.append(_block_diag(anti_diagonal(3), identity(1)))
    if n == 5:
        grams.append(_block_diag(anti_diagonal(3), anti_diagonal(2)))
    if n % 3 == 0:
        grams.append(anti_diagonal(n))
    seen = set()
    out = []
    for g in grams:
        if g not in seen:
            seen.add(g)
            out.append(HermitianForm(q, g))
    return out


# ---------------------------------------------------------------------------
# group enumeration
#
# The group path runs on one int per element: a row (r_0, ..., r_{n-1}) over
# GF(q^2) is coded as the base-q^2 int sum r_j q^(2(n-1-j)), and a matrix as
# its n row codes packed big-endian in fixed-width bit slots, so codes sort
# like the matrices.  Right multiplication by a fixed g is one table from row
# code to row code, so x * g costs n lookups.  Closure records, for each
# generator, its right-multiplication permutation of element indices; with
# the inverse permutation these give conjugation and involutions without a
# single matrix product per element.


class _RowCodes:
    """Packed codes for n x n matrices over GF(q^2)."""

    def __init__(self, F: GFTable, n: int):
        self.F, self.n, self.powers = F, n, [F.size ** (n - 1 - j) for j in range(n)]
        self.width = (F.size**n - 1).bit_length()
        self.shifts = [self.width * (n - 1 - i) for i in range(n)]
        # transpose[r]: row r conjugated and stood up as a column, slot i
        # holding conj(r_i); x* is sum_k transpose[r_k] q^(2(n-1-k))
        self.transpose = [0]
        for s in self.shifts:
            self.transpose = [t + (c << s) for t in self.transpose for c in F.conj]
        self.identity = self.encode(identity(n))

    def encode(self, m: Matrix) -> int:
        x = 0
        for row in m:
            x = x << self.width | sum(map(operator.mul, row, self.powers))
        return x

    def decode(self, x: int) -> Matrix:
        rows = (x >> s & ((1 << self.width) - 1) for s in self.shifts)
        return tuple(tuple(r // p % self.F.size for p in self.powers) for r in rows)

    def table(self, g: Matrix) -> list:
        """Row code -> code of (row * g), over every row in code order: an
        odometer keeps the sum of the leading digits' multiples of the rows
        of g, and each last digit a adds a g[n-1] to it, one vector addition
        per row, whose code Horner's rule reads off."""
        if not g:
            return [0]
        add, mul, size = self.F.add, self.F.mul, self.F.size
        multiples = [[[mul[a][b] for b in row] for a in range(size)] for row in g]
        sums = [[0] * self.n]
        for row in multiples[:-1]:
            sums = [[add[s][t] for s, t in zip(u, m)] for u in sums for m in row]
        head, *last = zip(*multiples[-1])
        out: list = []
        for u0, *u in sums:
            ys = map(add[u0].__getitem__, head)
            for uk, column in zip(u, last):
                ys = map(operator.add, map(size.__mul__, ys), map(add[uk].__getitem__, column))
            out.extend(ys)
        return out

    def split(self, xs: list) -> list:
        """The row codes of the codes xs, one list per slot, top first; for
        n = 0 the codes themselves, all 0, which every table keeps."""
        mask = (1 << self.width) - 1
        return [[x >> s & mask for x in xs] for s in self.shifts] or [xs]

    def times(self, rows: list, table: list, scale: int = 0) -> list:
        """Codes of x * g from split(xs), for the table of g: Horner's rule
        over the slots, scale 2^width, each row code looked up.  With the
        transpose table and scale q^2 the same rule gives the codes of x*."""
        scale = scale or 1 << self.width
        ys = [table[r] for r in rows[0]]
        for r in rows[1:]:
            ys = [y * scale + table[x] for y, x in zip(ys, r)]
        return ys

    def adjoint(self, rows: list) -> list:
        """Codes of x* from split(xs)."""
        return self.times(rows, self.transpose, self.F.size)


class GroupEnumeration:
    """A fully materialized unitary group for a fixed form, kept as its
    closure found it.

    codes[i] is the packed code under codec of element i, in the order the
    closure reached the elements (the identity first); index maps a code
    back to i, right[k][i] is the index of element i * generators[k], and
    inverse[i] the index of element i^(-1).  elements decodes every code.
    """

    def __init__(
        self, form: HermitianForm, generators: tuple, strategy: str,
        codec: _RowCodes, codes: list, index: dict, right: list, inverse: list,
    ):
        self.form, self.generators, self.strategy = form, generators, strategy
        self.codec, self.codes, self.index = codec, codes, index
        self.right, self.inverse = right, inverse

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(map(self.codec.decode, self.codes))

    @property
    def order(self) -> int:
        return len(self.codes)

    def __contains__(self, g) -> bool:
        """g given as rows of any sequence type; False for a wrong shape or an
        entry outside 0 .. q^2 - 1, which could pack to a member's code."""
        n, size = self.form.n, self.codec.F.size
        ok = [len(r) == n and all(type(a) is int and 0 <= a < size for a in r) for r in g]
        return len(ok) == n and all(ok) and self.codec.encode(g) in self.index

    @functools.cached_property
    def involution_indices(self) -> tuple:
        """Indices of the s with s^2 = 1 (the identity included)."""
        return tuple(i for i, j in enumerate(self.inverse) if i == j)

    def involutions(self):
        return tuple(self.codec.decode(self.codes[i]) for i in self.involution_indices)


def _hermitian_dot(F: GFTable, J: Matrix):
    """The map (u, v) -> u* J v on column vectors, which reads J's nonzero
    entries, each as its multiplication row, from a list built once."""
    add, mul, conj = F.add, F.mul, F.conj
    rows = [[(l, mul[a]) for l, a in enumerate(row) if a] for row in J]

    def dot(u, v):
        acc = 0
        for uk, row in zip(u, rows):
            if uk:
                cu = mul[conj[uk]]
                for l, ja in row:
                    vl = v[l]
                    if vl:
                        acc = add[acc][cu[ja[vl]]]
        return acc

    return dot


def _entrywise_members(F: GFTable, n: int, J: Matrix):
    """All matrices with g* J g = J, lazily: the unitary members of M_n.

    Each column's coefficients run nonzero first, so the first members are
    dense rather than nearly monomial, and a few of them generate the group.
    """
    basis = [tuple(zip(*[iter(e)] * n)) for e in identity(n * n)]
    # uncapped: every caller bounds the size of the group first
    return _unitary_members(F, basis, J, math.inf, coeffs=[*range(1, F.size), 0])


# codes per bulk step of the closure and the inverse, which bounds their
# transient lists
_CHUNK = 1024


def _grow_closure(codec: _RowCodes, members, target: int):
    """Small deterministic generating set taken from members greedily, each
    member outside the closure so far becoming a generator, until the
    closure has target elements.  The closure grows in place: a new
    generator's permutation first runs over the elements found before it,
    then every permutation runs over the elements found since.  Each scan
    takes _CHUNK codes at a time and numbers the new products in the order
    of x, then generator.

    Returns (generators, codes in discovery order with the identity first,
    their index, and per generator the permutation i -> index of
    codes[i] * generator).  Raises GroupClosureError if the members run out
    first.
    """
    gens: list = []
    right: list = []
    pairs: list = []  # (table, permutation) per generator
    codes, index = [codec.identity], {codec.identity: 0}

    def scan(start, stop, pairs):
        while start < min(stop, len(codes)):  # codes grows while it is scanned
            rows = codec.split(codes[start : min(start + _CHUNK, stop)])
            start += len(rows[0])
            products = [codec.times(rows, table) for table, _ in pairs]
            new = dict.fromkeys(itertools.chain.from_iterable(zip(*products)))
            new = list(itertools.filterfalse(index.__contains__, new))
            index.update(zip(new, itertools.count(len(codes))))
            codes.extend(new)
            for (_, perm), ys in zip(pairs, products):
                perm.extend(map(index.__getitem__, ys))

    for g in members:
        if codec.encode(g) in index:
            continue
        found = len(codes)
        gens.append(g)
        right.append([])
        pairs.append((codec.table(g), right[-1]))
        scan(0, found, pairs[-1:])
        scan(found, math.inf, pairs)
        if len(codes) >= target:
            break
    if len(codes) < target:
        raise GroupClosureError(f"closure reached {len(codes)} elements, expected {target}")
    return tuple(gens), codes, index, right


def enumerate_group(
    n: int,
    q,
    form: HermitianForm | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> GroupEnumeration:
    """Materialize U(n, F_q) for the given form.

    Generators are taken greedily from the column-by-column unitary search
    over M_n until the closure has as many elements as the order formula,
    which must not exceed the group budget under either strategy.  When
    q^(2 n^2) <= 10^6 the search is drained first (label entrywise, also
    guarded by the entry-scan budget) and must find exactly that many
    members; otherwise it stops as soon as the closure is complete (label
    closure).  Every generator must pass is_unitary, so the closure lies in
    U(n, F_q), and its order must equal the formula, so it is all of
    U(n, F_q).  The search, the closure and both checks are the same for
    every form.
    """
    pp = prime_power(q)
    F = table_for(pp)
    if form is None:
        form = identity_form(n, pp)
    if (form.n, form.q) != (n, pp):
        raise ValueError(f"the form is for U({form.n}, F_{form.q.q}), not U({n}, F_{pp.q})")
    entry_cost = pp.q ** (2 * n * n)
    predicted = unitary_order(n, pp.q)
    if predicted > budgets.group_order:
        raise BudgetExceededError(
            f"predicted order {predicted} exceeds the group budget {budgets.group_order}"
        )
    members = _entrywise_members(F, n, form.gram)
    if entry_cost <= 10**6:
        strategy = "entrywise"
        if entry_cost > budgets.entry_scan:
            raise BudgetExceededError(
                f"entrywise scan size {entry_cost} exceeds budget {budgets.entry_scan}"
            )
        members = list(members)
        if len(members) != predicted:
            raise GroupClosureError(
                f"unitary search found {len(members)} members, expected {predicted}"
            )
    else:
        strategy = "closure"
    codec = _RowCodes(F, n)
    gens, codes, index, right = _grow_closure(codec, members, predicted)
    if len(codes) != predicted:
        raise GroupClosureError(
            f"enumerated order {len(codes)} contradicts the formula {predicted}"
        )
    if not all(is_unitary(F, g, form.gram) for g in gens):
        raise GroupClosureError("a generator failed the unitarity check")
    # x^(-1) = J^(-1) x* J: x* for the identity form, else, since J and
    # J^(-1) are Hermitian, ((x* J)* J^(-1))*
    tables = [] if form.gram == identity(n) else [form.gram, mat_inv(F, form.gram)]
    tables = [codec.table(t) for t in tables]
    inverse: list = []
    for start in range(0, len(codes), _CHUNK):
        xs = codes[start : start + _CHUNK]
        for table in tables:
            xs = codec.times(codec.split(codec.adjoint(codec.split(xs))), table)
        inverse += [index[x] for x in codec.adjoint(codec.split(xs))]
    return GroupEnumeration(form, gens, strategy, codec, codes, index, right, inverse)


# ---------------------------------------------------------------------------
# matrices <-> class data


def extract_class_datum(g: Matrix, q) -> ClassDatum:
    """Datum of g: factor the characteristic polynomial, read partitions
    from nullity jumps of powers of each factor evaluated at g."""
    pp = prime_power(q)
    F = table_for(pp)
    ctx2 = make_context(pp, 2)
    n = len(g)
    chi = MonicPoly(ctx2, charpoly(F, g))
    factors = factor_into_u_irreducibles(chi)
    blocks = {}
    for f, total in factors:
        d = f.degree
        if total == 1:
            blocks[f] = partition([1])
            continue
        fg = _poly_at_matrix(F, f.poly, g)
        ranks = []
        power = fg
        while True:
            ranks.append(n - mat_rank(F, power))
            if ranks[-1] == d * total:
                break
            power = mat_mul(F, power, fg)
        r = [0] + ranks
        r.append(r[-1])
        parts = []
        for j in range(1, len(r) - 1):
            mj = 2 * r[j] - r[j - 1] - r[j + 1]
            assert mj % d == 0 and mj >= 0
            parts.extend([j] * (mj // d))
        blocks[f] = partition(parts)
    datum = class_datum(pp, blocks)
    assert datum.n == n
    return datum


def _poly_at_matrix(F: GFTable, f: MonicPoly, g: Matrix) -> Matrix:
    """Evaluate a monic polynomial at a matrix (Horner)."""
    n = len(g)
    acc = identity(n)
    add = F.add
    for c in reversed(f.coeffs):
        acc = mat_mul(F, acc, g)
        if c:
            acc = tuple(
                tuple(add[acc[i][j]][c] if i == j else acc[i][j] for j in range(n))
                for i in range(n)
            )
    return acc


def _companion(F: GFTable, full_coeffs) -> Matrix:
    """Companion matrix of a monic polynomial with the given full coefficients."""
    D = len(full_coeffs) - 1
    neg = F.neg
    rows = []
    for i in range(D):
        row = [0] * D
        if i >= 1:
            row[i - 1] = 1
        row[D - 1] = neg[full_coeffs[i]]
        rows.append(tuple(row))
    return tuple(rows)


def _jordan_style_matrix(F: GFTable, d: ClassDatum) -> Matrix:
    blocks = []
    ctx2 = make_context(d.q, 2)
    for f, mu in d.blocks:
        for part in mu.parts:
            power = poly_one(ctx2)
            for _ in range(part):
                power = poly_mul(power, f.poly)
            blocks.append(_companion(F, power.full()))
    return _block_diag(*blocks) if blocks else ()


# ---------------------------------------------------------------------------
# invariant Hermitian forms and congruences


def _invariant_hermitian_basis(pp: PrimePower, g0: Matrix):
    """GF(p)-basis of Hermitian X with g0* X g0 = X.

    The kernel over GF(p) of X -> (g0* X g0 - X, X - X*) in coordinates.
    Its column (k, l, j) is the image of X = p^j E_kl, the j-th coordinate
    unit at entry (k, l), where g0* X g0 = p^j (column k of g0*)(row l of g0).
    """
    F = table_for(pp)
    ctx2 = F.ctx
    add, mul, neg, conj = F.add, F.mul, F.neg, F.conj
    coords = [ctx2.to_coords(a) for a in range(F.size)]
    d2 = ctx2.deg
    n = len(g0)
    A = conj_transpose(F, g0)
    cols = []
    for k in range(n):
        for l in range(n):
            outer = [[mul[A[r][k]][x] for x in g0[l]] for r in range(n)]
            for j in range(d2):
                b = pp.p**j
                image = [[mul[b][x] for x in row] for row in outer]
                image[k][l] = add[image[k][l]][neg[b]]
                sym = [[0] * n for _ in range(n)]
                sym[k][l] = b
                sym[l][k] = add[sym[l][k]][neg[conj[b]]]
                cols.append([c for m in (image, sym) for row in m for x in row for c in coords[x]])
    kernel = nullspace(table_for(PrimePower(pp.p, 1), 1), list(zip(*cols)))
    return [
        tuple(
            tuple(ctx2.from_coords(vec[(k * n + l) * d2 : (k * n + l + 1) * d2]) for l in range(n))
            for k in range(n)
        )
        for vec in kernel
    ]


def _span(F: GFTable, basis, coeffs, start=None):
    """Every sum start + c_i * basis[i] with each c_i in coeffs, as a flat list.

    Counter order: the coefficient of basis[0] changes fastest and runs
    through coeffs in order, so the plain start (zero unless given) comes
    first when coeffs starts at 0.  One partial sum is kept per basis
    vector, so each member costs about one vector addition.  basis may be
    empty only when start is given.
    """
    if not basis:
        yield list(start)
        return
    add, mul = F.add, F.mul
    scaled = [[[mul[c][x] for row in B for x in row] for c in coeffs] for B in basis]
    m, last = len(basis), len(coeffs) - 1
    digits = [0] * m
    # partial[i] is start plus the sum over j >= i of coeffs[digits[j]] * basis[j]
    partial = [None] * m + [list(start) if start is not None else [0] * len(scaled[0][0])]
    top = m
    while True:
        for i in range(top - 1, 0, -1):
            partial[i] = [add[a][b] for a, b in zip(partial[i + 1], scaled[i][digits[i]])]
        rest = partial[1]
        for s in scaled[0]:
            yield [add[a][b] for a, b in zip(rest, s)]
        top = 1
        while top < m and digits[top] == last:
            digits[top] = 0
            top += 1
        if top == m:
            return
        digits[top] += 1
        top += 1


def _first_nondegenerate(F: GFTable, basis, p: int, budget: int) -> Matrix:
    """The first invertible member of the GF(p)-span in _span's counter
    order, among candidates 1 .. budget (candidate 0 is the zero matrix).
    A candidate with a zero row is passed over before its determinant."""
    m = len(basis)
    if m == 0:
        raise RealizationError("invariant form space is zero")
    n = len(basis[0])
    for h in itertools.islice(_span(F, basis, range(p)), 1, min(p**m, budget + 1)):
        X = tuple(zip(*[iter(h)] * n))
        if all(map(any, X)) and mat_det(F, X):
            return X
    raise RealizationBudgetError(
        f"no nondegenerate invariant form within {budget} candidates"
    )


def congruence_to_identity(F: GFTable, X: Matrix) -> Matrix:
    """R with R* X R = I, by Hermitian Gram-Schmidt with norm scaling."""
    n = len(X)
    add, mul, neg, conj, inv = F.add, F.mul, F.neg, F.conj, F.inv
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    dot = _hermitian_dot(F, X)

    for i in range(n):
        if dot(basis[i], basis[i]) == 0:
            fixed = False
            for j in range(i + 1, n):
                if fixed:
                    break
                for lam in range(1, F.size):
                    cand = tuple(
                        add[basis[i][t]][mul[lam][basis[j][t]]] for t in range(n)
                    )
                    if dot(cand, cand) != 0:
                        basis[i] = cand
                        fixed = True
                        break
            if not fixed:
                raise RealizationError("form is degenerate on the remaining space")
        norm = dot(basis[i], basis[i])
        # norm lies in the fixed field of conjugation; scale it away
        scale = next(
            b for b in range(1, F.size) if mul[b][conj[b]] == norm
        )
        sinv = inv[scale]
        basis[i] = tuple(mul[sinv][t] for t in basis[i])
        for j in range(i + 1, n):
            c = dot(basis[i], basis[j])
            if c:
                nc = neg[c]
                basis[j] = tuple(
                    add[basis[j][t]][mul[nc][basis[i][t]]] for t in range(n)
                )
    return transpose(tuple(basis))


def realize_class(
    d: ClassDatum,
    form: HermitianForm | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Matrix:
    """A matrix in the class of d, unitary for the given form.

    Builds the companion block matrix, solves for an invariant nondegenerate
    Hermitian form X, and conjugates by a congruence taking the target form
    to X.  The result is verified: right form, right datum.
    """
    pp = d.q
    F = table_for(pp)
    n = d.n
    if form is None:
        form = identity_form(n, pp)
    if (form.n, form.q) != (n, pp):
        raise RealizationError(f"the form is for U({form.n}, F_{form.q.q}), not U({n}, F_{pp.q})")
    if n == 0:
        return ()
    g0 = _jordan_style_matrix(F, d)
    basis = _invariant_hermitian_basis(pp, g0)
    X = _first_nondegenerate(F, basis, pp.p, budgets.realize_scan)
    qmat = congruence_to_identity(F, X)
    rmat = congruence_to_identity(F, form.gram)
    pmat = mat_mul(F, rmat, mat_inv(F, qmat))
    g = mat_mul(F, mat_mul(F, pmat, g0), mat_inv(F, pmat))
    if not is_unitary(F, g, form.gram):
        raise RealizationError("realized matrix failed the unitarity check")
    if extract_class_datum(g, pp) != d:
        raise RealizationError("realized matrix has the wrong class datum")
    return g


# ---------------------------------------------------------------------------
# explicit representatives used by the positive/negative constructions


def _unipotent(n: int, r: int, blocks: dict) -> Matrix:
    """I_n plus c I_r at block (k, l) of the grid of r x r blocks, for each
    (k, l): c in blocks."""
    return tuple(
        tuple(
            1 if i == j else blocks.get((i // r, j // r), 0) if (j - i) % r == 0 else 0
            for j in range(n)
        )
        for i in range(n)
    )


def explicit_representative(kind: str, q, r: int = 1, m: int = 0):
    """The displayed matrix for a named construction, with its form.

    kinds: two_one(r, m) for odd q; three_one, three_two, three_r(r) for even q.
    Parameters are chosen deterministically (first suitable in scan order).
    """
    pp = prime_power(q)
    F = table_for(pp)
    if kind == "two_one":
        if pp.p == 2:
            raise ValueError("two_one requires odd q")
        if r < 1 or r % 2 == 0:
            raise ValueError("two_one requires odd r >= 1")
        if m < 0:
            raise ValueError("two_one requires m >= 0")
        a = next(x for x in F.trace_zero if x)
        g = _unipotent(2 * r + m, r, {(0, 1): a})
        gram = _block_diag(anti_diagonal(2 * r), identity(m))
    elif kind in ("three_one", "three_two", "three_r"):
        if pp.p != 2:
            raise ValueError(f"{kind} requires even q")
        if kind != "three_r":
            r = 1
        elif r < 1 or r % 2 == 0:
            raise ValueError("three_r requires odd r")
        a = 1
        aa = F.mul[a][F.conj[a]]
        b = next(x for x in range(F.size) if F.add[x][F.conj[x]] == aa)
        g = _unipotent(3 * r, r, {(0, 1): a, (0, 2): b, (1, 2): F.conj[a]})
        gram = anti_diagonal(3 * r)
        # (3,1) and (3,2) add a trivial and a regular unipotent U(1), U(2) block
        if kind == "three_one":
            g, gram = _block_diag(g, identity(1)), _block_diag(gram, identity(1))
        elif kind == "three_two":
            g, gram = _block_diag(g, ((1, 1), (0, 1))), _block_diag(gram, anti_diagonal(2))
    else:
        raise ValueError(f"unknown representative kind {kind!r}")
    form = HermitianForm(pp, gram)
    if not is_unitary(F, g, form.gram):
        raise AssertionError("representative must satisfy the unitarity equation")
    return g, form


def three_one_involution(q) -> Matrix:
    """The explicit reversing involution for the type (3,1) representative.

    Built from the first root beta of t^2 + t + 1 in GF(q^2) and alpha =
    beta * a with the same a used by explicit_representative('three_one').
    """
    pp = prime_power(q)
    if pp.p != 2:
        raise ValueError("three_one requires even q")
    F = table_for(pp)
    beta = next(
        x
        for x in range(F.size)
        if F.add[F.add[F.mul[x][x]][x]][1] == 0
    )
    a = 1
    alpha = F.mul[beta][a]
    ac = F.conj[alpha]
    return (
        (1, alpha, 0, alpha),
        (0, 1, ac, 0),
        (0, 0, 1, 0),
        (0, 0, ac, 1),
    )


# ---------------------------------------------------------------------------
# reality and strong reality search


def reversing_space(F: GFTable, g: Matrix):
    """Basis of {h : h g = g^(-1) h} over GF(q^2)."""
    n = len(g)
    ginv = mat_inv(F, g)
    add, mul, neg = F.add, F.mul, F.neg
    rows = []
    for r in range(n):
        for c in range(n):
            row = [0] * (n * n)
            for k in range(n):
                v = g[k][c]
                if v:
                    idx = r * n + k
                    row[idx] = add[row[idx]][v]
                w = ginv[r][k]
                if w:
                    idx = k * n + c
                    row[idx] = add[row[idx]][neg[w]]
            rows.append(row)
    kernel = nullspace(F, rows)
    return [tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n)) for vec in kernel]


def _columns_confined(F: GFTable, basis, n: int) -> bool:
    """Whether the span of basis has no invertible member because too many
    columns share one span.  Column k of every member lies in P_k, the span
    of column k over the basis matrices.  If more than dim V of the P_k lie
    in one subspace V, those columns of every member are dependent.  V runs
    over each P_j and over their sum, which holds all n of them: the sum
    alone is the plain rank test."""
    spans = []
    for k in range(n):
        rows = [[B[r][k] for r in range(n)] for B in basis]
        spans.append(rows[: len(_eliminate(F, rows))])
    rows = [list(v) for P in spans for v in P]
    spans.append(rows[: len(_eliminate(F, rows))])
    for V in spans:
        d = len(V)
        if d < n and sum(len(P) <= d and mat_rank(F, V + P) == d for P in spans[:n]) > d:
            return True
    return False


def _unitary_members(
    F: GFTable,
    basis,
    J: Matrix,
    budget: int,
    coeffs=None,
    involutions: bool = False,
    tally: bool = False,
):
    """Members h of the GF(q^2)-span of basis with h* J h = J, lazily.

    The basis is put in reduced echelon form over the entries in
    column-major order, so column j of h involves only the vectors pivoting
    in columns <= j, each with h's entry at its pivot as coefficient.
    Columns are chosen left to right, each from a plan made once per call.
    The pairings u_i* J x = J[i][j] with the chosen columns u_i are linear
    in column x, so one elimination gives the affine set of candidates.  A
    column where no vector pivots is determined: its one candidate is tested
    pairing by pairing, with no system, and its node counts only once every
    pairing holds, as the empty kernel of a failed system counts none.
    The free coefficients of a column run through coeffs, counter order
    over every field element (0 first) unless given.  The last norm
    condition x* J x = J[j][j] is solved for the fastest-changing
    coefficient c: with x = r + c v, where _span walks r over the other
    directions, it reads Tr(c r* J v) + N(c) v* J v = J[j][j] - r* J r, so
    each r costs two pairings and only the solving c build a column.  A
    search node is one candidate, solving or not, in the order of the walk;
    past budget nodes the search raises BudgetExceededError at the same
    candidate as a test of every candidate would.

    With involutions, only the members with J h Hermitian, which for a
    unitary h are exactly the involutions (h^(-1) = J^(-1) h* J).  Column j
    then also meets (J x)[i] = conj((J u_i)[j]) for i < j, more linear rows
    of the same system, and (J x)[j] in GF(q).  For (J v)[j] != 0 that
    confines c to a GF(q)-line, so each r has q candidates (nodes) instead
    of q^2.  For (J v)[j] = 0 it does not involve c: an r with (J r)[j]
    outside GF(q) is one node, and any other r keeps all its candidates.

    With tally, the walk yields 1 in place of each member and builds no
    last column and no matrix for it, so the sum is the member count, and
    where the walk raises it is the number of members it would have yielded
    first.  Nodes are counted, and the budget checked, as without tally.

    When _columns_confined finds too many columns sharing one span, no
    member is invertible, let alone unitary, and the search ends before its
    first node.
    """
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

    def below(cols):
        """The yields under the chosen columns cols; determined columns settle here."""
        for j in range(len(cols), n):
            before, slices, heads = plan[j]
            a = combine([cols[c][r] for c, r in before], slices, [0] * n)
            if heads:
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
                    return ()
                x = combine(start, heads, a)
                directions = [combine(v, heads, [0] * n) for v in kernel if not v[-1]]
                if directions:
                    return walk(cols, x, directions)
            else:
                x = a
                # the last column's pairing fails most often: test it first
                for i in range(j - 1, -1, -1):
                    if dot(cols[i], x) != J[i][j] or (
                        involutions and dot(units[i], x) != conj[dot(units[j], cols[i])]
                    ):
                        return ()
            count(1)
            diagonal = dot(units[j], x) if involutions else 0
            if dot(x, x) != J[j][j] or conj[diagonal] != diagonal:
                return ()
            cols = cols + [x]
        return (1 if tally else tuple(zip(*cols)),)

    def walk(cols, x, directions):
        j = len(cols)
        last = j == n - 1
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
            done = 0
            for i, c in found:
                # the candidates done .. i - 1 of this block fail the norm
                count(i + 1 - done)
                done = i + 1
                if tally and last:
                    yield 1
                    continue
                col = [add[ri][mul[c][vi]] for ri, vi in zip(r, v)]
                yield from below(cols + [col])
            count(size - done)

    yield from below([])


def _reverser_walk(g: Matrix, form: HermitianForm, budgets: Budgets):
    """The walk over the unitary h with h g h^(-1) = g^(-1), lazily; called
    with involutions=True it runs in Hermitian mode and yields only the
    involutions.  Raises BudgetExceededError once it passes
    budgets.reversing_scan nodes."""
    F = table_for(form.q)
    return functools.partial(
        _unitary_members, F, reversing_space(F, g), form.gram, budgets.reversing_scan
    )


def strong_reality_witnesses(
    g: Matrix, form: HermitianForm, *, budgets: Budgets = DEFAULT_BUDGETS
):
    """Every unitary involution s with s g s = g^(-1), sorted."""
    return sorted(_reverser_walk(g, form, budgets)(involutions=True))


def is_strongly_real_oracle(
    g: Matrix, form: HermitianForm, *, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """Search verdict: does some unitary involution reverse g?  Raises
    BudgetExceededError instead of guessing."""
    return next(_reverser_walk(g, form, budgets)(involutions=True), None) is not None


def is_real_oracle(
    g: Matrix, form: HermitianForm, *, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """Search verdict: does some unitary h reverse g?  Raises
    BudgetExceededError instead of guessing."""
    return next(_reverser_walk(g, form, budgets)(), None) is not None


# ---------------------------------------------------------------------------
# reconciliation


class ClassRecord(_Frozen):
    """The oracle's answers on one class next to the classifier's verdict;
    an oracle answer is None when every strategy ran out of budget."""

    __slots__ = ("datum", "oracle_real", "oracle_strongly_real", "verdict")

    @property
    def classifier_real(self) -> bool:
        return self.verdict.real

    @property
    def agree(self) -> bool:
        """False only when a decided verdict contradicts the oracle."""
        if self.oracle_strongly_real is None or not self.verdict.decided:
            return True
        return (self.verdict.status == classify.STRONGLY_REAL) == self.oracle_strongly_real

    @property
    def real_agree(self) -> bool:
        if self.oracle_real is None:
            return True
        return self.oracle_real == self.classifier_real

    @property
    def undecided(self) -> bool:
        return self.oracle_strongly_real is None or self.oracle_real is None

    def to_json(self):
        return {
            "datum": self.datum.to_json(),
            "is_real": self.oracle_real,
            "is_strongly_real": self.oracle_strongly_real,
            "verdict": self.verdict.to_json(),
            "agree": self.agree and self.real_agree,
        }


class OracleReport(_Frozen):
    __slots__ = ("n", "q", "strategy", "group_order", "records", "budgets")

    @property
    def disagreements(self):
        return [r for r in self.records if not (r.agree and r.real_agree)]

    @property
    def undecided(self):
        return [r for r in self.records if r.undecided]

    def to_json(self):
        return {
            "n": self.n,
            "q": self.q.to_json(),
            "strategy": self.strategy,
            "group_order": self.group_order,
            "class_count": len(self.records),
            "disagreements": len(self.disagreements),
            "undecided": len(self.undecided),
            "records": [r.to_json() for r in self.records],
            "budget": {
                "entry_scan": self.budgets.entry_scan,
                "group_order": self.budgets.group_order,
                "reversing_scan": self.budgets.reversing_scan,
            },
        }


def _conjugation_orbits(group: GroupEnumeration) -> list:
    """Conjugacy orbit id of every element index, ids numbered in the order
    of each orbit's first element in the group's index order.

    Conjugation by a generator h, x -> h^(-1) x h, is the index permutation
    inverse . right_h . inverse . right_h; orbits are its connected components.
    """
    inverse = group.inverse
    moves = [[inverse[r[inverse[ri]]] for ri in r] for r in group.right]
    orbit = [-1] * group.order
    count = 0
    for start in range(group.order):
        if orbit[start] >= 0:
            continue
        orbit[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for move in moves:
                y = move[x]
                if orbit[y] < 0:
                    orbit[y] = count
                    stack.append(y)
        count += 1
    return orbit


def _strongly_real_orbits(group: GroupEnumeration, orbit: list) -> set:
    """Orbit ids of the strongly real elements: the products s t of two
    involutions, the identity included (if s g s = g^(-1), t = s g).  As
    x (s t) x^(-1) = (x s x^(-1)) (x t x^(-1)), one s per involution orbit
    times every t meets them all; t s = s (s t) s is in the orbit of s t."""
    codes, index, codec = group.codes, group.index, group.codec
    involutions = group.involution_indices
    rows = codec.split([codes[t] for t in involutions])
    strong = set()
    for s in {orbit[i]: i for i in involutions}.values():
        table = codec.table(codec.decode(codes[s]))
        strong.update([orbit[index[y]] for y in codec.times(rows, table)])
    return strong


def _representative_verdicts(g: Matrix, datum: ClassDatum, form: HermitianForm, budgets: Budgets):
    """(real, strongly real) for g, a representative of datum, from the
    walks over its unitary reversers; None wherever a budget ran out.

    The Hermitian walk decides strong reality: an involution settles both
    verdicts, a drain without one rules strong reality out.  Otherwise the
    full walk counts the reversers, a coset of the centralizer if there are
    any, and a drained count is checked against Wall's |C(g)|.  Whether it
    found any is the oracle's own reality verdict, which reconcile compares
    with the classifier.  Each walk has a budget of its own.  Every partial
    member the Hermitian walk extends, the full walk extends too, through
    at least as many nodes, so where the Hermitian walk runs out the full
    walk does as well.  Each reverser costs the full walk a node, so when
    |C(g)| is over budget a walk that finds one cannot drain: it stops at
    the first, which proves reality as the raise after it would.
    """
    walk = _reverser_walk(g, form, budgets)
    try:
        if next(walk(involutions=True), None) is not None:
            return True, True
        strong = False
    except BudgetExceededError:
        strong = None
    order = centralizer_order(datum)
    leaves = 0
    try:
        if order > budgets.reversing_scan:
            return next(walk(), None) is not None, strong
        for found in walk(tally=True):
            leaves += found
    except BudgetExceededError:
        return (True if leaves else None), strong
    if leaves and leaves != order:
        raise CountMismatchError(f"{leaves} unitary reversers of {datum}, expected {order}")
    return leaves > 0, strong


def _block_representative(
    datum: ClassDatum, form: HermitianForm, budgets: Budgets, cache: dict
) -> Matrix:
    """A matrix in the class of datum, unitary for the identity form: the
    direct sum of realize_class on {f: (part)} over every (f, part), which
    the orthogonal primary decomposition (Wall) allows, checked as
    realize_class checks its own result.  cache maps (f, part) to its block
    or to the RealizationBudgetError it raised, so each is scanned once."""
    pp = datum.q
    F = table_for(pp)
    assert form.gram == identity(form.n), "block sums are unitary for the identity form"
    blocks = []
    for f, mu in datum.blocks:
        for part in mu.parts:
            if (f, part) not in cache:
                one = class_datum(pp, {f: (part,)})
                try:
                    cache[f, part] = realize_class(one, identity_form(one.n, pp), budgets)
                except RealizationBudgetError as exc:
                    cache[f, part] = exc
            block = cache[f, part]
            if isinstance(block, RealizationBudgetError):
                raise block.with_traceback(None)  # else each raise extends it
            blocks.append(block)
    g = _block_diag(*blocks)
    if not is_unitary(F, g, form.gram):
        raise RealizationError("block sum failed the unitarity check")
    if extract_class_datum(g, pp) != datum:
        raise RealizationError("block sum has the wrong class datum")
    return g


def _representative_records(data, form: HermitianForm, budgets: Budgets):
    """(datum, real, strongly real) for each of the class data, realizing and
    walking only the first class of each orbit of g -> +-g^(+-1) among them.

    Representatives are block sums, each block realized once per call.  For
    s, e in {1, -1}, h (s g^e) h^(-1) = (s g^e)^(-1) iff h g h^(-1) =
    g^(-1), and reversing_space returns the same basis for all four, so
    their walks are one computation, budget outcome included.  The images
    are data: invert(d), and when q is odd negate(d) and negate(invert(d));
    each must be one of the data, else CountMismatchError.  A class whose
    form scan runs out of budget is recorded undecided and shares nothing;
    any other RealizationError propagates.
    """
    known = set(data)
    found: dict = {}
    blocks: dict = {}
    for datum in data:
        if datum in found:
            continue
        try:
            g = _block_representative(datum, form, budgets, blocks)
        except RealizationBudgetError:
            found[datum] = (None, None)  # budget too small to even realize
            continue
        found[datum] = verdicts = _representative_verdicts(g, datum, form, budgets)
        inverse = invert(datum)
        for image in [inverse] if form.q.p == 2 else [inverse, negate(datum), negate(inverse)]:
            if image not in known:
                raise CountMismatchError(f"image {image} of {datum} is not among the class data")
            found.setdefault(image, verdicts)
    return [(datum, *found[datum]) for datum in data]


def _check_orbit_data(n: int, pp: PrimePower, found, sizes, expected) -> None:
    """The data of the records read off the conjugacy orbits must be
    pairwise distinct and be exactly the expected data, the enumerated
    classes of U(n, F_q), and the orbit of each datum, of the given size,
    must have |U(n, F_q)| / |C(datum)| elements."""
    data, expected = [datum for datum, _, _ in found], set(expected)
    if len(set(data)) != len(data) or set(data) != expected:
        raise CountMismatchError(
            f"{len(data)} conjugacy orbits give {len(set(data))} distinct data, "
            f"{len(set(data) & expected)} of the {len(expected)} enumerated classes"
        )
    order = unitary_order(n, pp.q)
    for datum, size in zip(data, sizes):
        if size * centralizer_order(datum) != order:
            raise CountMismatchError(
                f"orbit of {datum} has {size} elements, expected "
                f"{order} / {centralizer_order(datum)}"
            )


def reconcile(n: int, q, budgets: Budgets = DEFAULT_BUDGETS) -> OracleReport:
    """One record per class: oracle reality and strong reality against the
    classifier.  Budget exhaustion is recorded per class, never skipped."""
    pp = prime_power(q)
    form = identity_form(n, pp)
    data = enumerate_class_data(n, pp, max_n=n, max_q=pp.q)
    try:
        group = enumerate_group(n, pp, form, budgets)
    except BudgetExceededError:
        group = None

    if group is not None:
        orbit = _conjugation_orbits(group)
        reps: dict = {}
        for i, oid in enumerate(orbit):
            reps.setdefault(oid, i)
        strong = _strongly_real_orbits(group, orbit)
        # reality from orbit ids: g^(-1) lies in the orbit of g
        found = []
        for oid, i in reps.items():
            g = group.codec.decode(group.codes[i])
            found.append((extract_class_datum(g, pp), orbit[group.inverse[i]] == oid, oid in strong))
        sizes = Counter(orbit)
        _check_orbit_data(n, pp, found, [sizes[oid] for oid in reps], data)
        strategy, group_order = group.strategy, group.order
    else:
        found = _representative_records(data, form, budgets)
        strategy, group_order = "representatives", None
    records = sorted(
        (
            ClassRecord(datum, oracle_real, oracle_sr, classify.strongly_real(datum))
            for datum, oracle_real, oracle_sr in found
        ),
        key=lambda r: [(f.sort_key(), mu.parts) for f, mu in r.datum.blocks],
    )
    return OracleReport(n, pp, strategy, group_order, tuple(records), budgets)
