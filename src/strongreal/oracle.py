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
import time
from collections import Counter
from dataclasses import dataclass, field

from . import classify
from .classdata import (
    ClassDatum,
    centralizer_order,
    class_datum,
    is_real as datum_is_real,
    partition,
    unitary_order,
)
from .counting import enumerate_class_data
from .errors import (
    BudgetExceededError,
    CountMismatchError,
    GroupClosureError,
    RealizationError,
)
from .fields import GFTable, PrimePower, make_context, prime_power, table_for
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


@dataclass(frozen=True)
class Budgets:
    """Hard caps for the search strategies."""

    entry_scan: int = 10**8        # cap on q^(2 n^2) for entrywise filtering
    group_order: int = 2 * 10**6   # cap on materialized group order
    reversing_scan: int = 10**7    # cap on nodes of the unitary reverser search
    realize_scan: int = 200_000    # cap on invariant-form search candidates

    @staticmethod
    def uniform(value: int) -> "Budgets":
        return Budgets(
            entry_scan=value,
            group_order=value,
            reversing_scan=value,
            realize_scan=value,
        )


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class HermitianForm:
    """Invertible matrix J with conj-transpose(J) = J."""

    q: PrimePower
    gram: Matrix

    def __post_init__(self):
        F = table_for(self.q)
        if not is_hermitian(F, self.gram):
            raise ValueError("gram matrix is not Hermitian")
        if mat_det(F, self.gram) == 0:
            raise ValueError("gram matrix is singular")

    @property
    def n(self) -> int:
        return len(self.gram)

    def to_json(self):
        ctx = make_context(self.q, 2)
        return {
            "q": self.q.to_json(),
            "gram": [[list(ctx.to_coords(a)) for a in row] for row in self.gram],
        }


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
# The group path runs on row codes.  A row (r_0, ..., r_{n-1}) over GF(q^2)
# is coded as the big-endian base-q^2 int sum r_j q^(2(n-1-j)), and a matrix
# as the tuple of its row codes.  Right multiplication by a fixed g is one
# table from row code to row code, so x * g costs n lookups.  Closure
# records, for each generator, its right-multiplication permutation of
# element indices; with the inverse permutation these give conjugation,
# involutions and reversers without a single matrix product per element.
# The group keeps its elements as codes, in the order the closure reached
# them, and decodes only the matrices it hands out.


class _RowCodes:
    """Row-code tables for n x n matrices over GF(q^2)."""

    def __init__(self, F: GFTable, n: int):
        self.F = F
        self.rows = tuple(itertools.product(range(F.size), repeat=n))
        self.code = {row: c for c, row in enumerate(self.rows)}
        self.conj = [self.code[tuple(F.conj[a] for a in row)] for row in self.rows]
        self.identity = self.encode(identity(n))

    def encode(self, m: Matrix) -> tuple:
        return tuple([self.code[row] for row in m])

    def decode(self, x: tuple) -> Matrix:
        return tuple([self.rows[c] for c in x])

    def products(self, row_codes, g: Matrix) -> list:
        """Codes of row * g for the given row codes, from one matrix product."""
        rows = self.rows
        return [self.code[row] for row in mat_mul(self.F, [rows[c] for c in row_codes], g)]

    def table(self, g: Matrix) -> list:
        """Row code -> code of (row * g), over every row."""
        return self.products(range(len(self.rows)), g)

    def adjoint(self, x: tuple) -> tuple:
        """Code of the conjugate transpose."""
        return tuple([self.conj[self.code[col]] for col in zip(*self.decode(x))])


def _times(x: tuple, table: list) -> tuple:
    """Code of x * g, for the table of g."""
    return tuple([table[r] for r in x])


@dataclass
class GroupEnumeration:
    """A fully materialized unitary group for a fixed form, kept as its
    closure found it.

    codes[i] is the row code under codec of element i, in the order the
    closure reached the elements (the identity first); index maps a code
    back to i, right[k][i] is the index of element i * generators[k], and
    inverse[i] the index of element i^(-1).  elements decodes every code.
    """

    form: HermitianForm
    generators: tuple
    strategy: str
    codec: _RowCodes = field(repr=False, compare=False)
    codes: list = field(repr=False)
    index: dict = field(repr=False, compare=False)
    right: list = field(repr=False, compare=False)
    inverse: list = field(repr=False, compare=False)

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(map(self.codec.decode, self.codes))

    @property
    def order(self) -> int:
        return len(self.codes)

    def __contains__(self, g) -> bool:
        code = self.codec.code
        return tuple([code.get(row) for row in g]) in self.index

    @functools.cached_property
    def involution_indices(self) -> tuple:
        """Indices of the s with s^2 = 1 (the identity included)."""
        return tuple(i for i, j in enumerate(self.inverse) if i == j)

    def involutions(self):
        return tuple(self.codec.decode(self.codes[i]) for i in self.involution_indices)

    def reversers(self, g: Matrix, involution: bool):
        """Elements h with h g h^(-1) = g^(-1), lazily and in index order;
        only involutions if asked.  g must be an element."""
        if g not in self:
            raise ValueError("g is not an element of the group")
        codes, index, inverse = self.codes, self.index, self.inverse
        candidates = self.involution_indices if involution else range(self.order)
        # h g h^(-1) = g^(-1) iff (h g)(h^(-1) g) = 1; the candidates are
        # closed under inversion, so only their rows need a product with g
        rows = list({r for i in candidates for r in codes[i]})
        table = dict(zip(rows, self.codec.products(rows, g)))
        for i in candidates:
            if inverse[index[_times(codes[i], table)]] == index[_times(codes[inverse[i]], table)]:
                yield self.codec.decode(codes[i])


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


def _grow_closure(codec: _RowCodes, members, target: int):
    """Small deterministic generating set taken from members greedily, each
    member outside the closure so far becoming a generator, until the
    closure has target elements.  The closure grows in place: a new
    generator's permutation first runs over the elements found before it,
    then every permutation runs over the elements found since.

    Returns (generators, codes in discovery order with the identity first,
    their index, and per generator the permutation i -> index of
    codes[i] * generator).  Raises GroupClosureError if the members run out
    first.
    """
    gens: list = []
    right: list = []
    pairs: list = []  # (table, permutation) per generator
    codes, index = [codec.identity], {codec.identity: 0}

    def scan(xs, pairs):
        for x in xs:  # codes grows while it is scanned
            for table, perm in pairs:
                y = tuple([table[r] for r in x])  # _times, inlined in the hottest loop
                j = index.get(y)
                if j is None:
                    j = index[y] = len(codes)
                    codes.append(y)
                perm.append(j)

    for g in members:
        if codec.encode(g) in index:
            continue
        found = len(codes)
        gens.append(g)
        right.append([])
        pairs.append((codec.table(g), right[-1]))
        scan(itertools.islice(codes, found), pairs[-1:])
        scan(itertools.islice(codes, found, None), pairs)
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
    over M_n until the closure has as many elements as the order formula.
    When q^(2 n^2) <= 10^6 the search is drained first (label entrywise,
    guarded by the entry-scan budget) and must find exactly that many
    members; otherwise it stops as soon as the closure is complete (label
    closure, guarded by the group budget).  Every generator must pass
    is_unitary, so the closure lies in U(n, F_q), and its order must equal
    the formula, so it is all of U(n, F_q).  Non-identity forms are reached
    by transporting the identity form group through a congruence.
    """
    pp = q if isinstance(q, PrimePower) else prime_power(q)
    F = table_for(pp)
    if form is None:
        form = identity_form(n, pp)
    if form.gram != identity(n):
        base = enumerate_group(n, pp, None, budgets)
        r = congruence_to_identity(F, form.gram)
        rinv = mat_inv(F, r)
        # x -> r x r^(-1) as ((x r^(-1))* r*)*
        codec = base.codec
        t_rinv, t_rstar = codec.table(rinv), codec.table(conj_transpose(F, r))
        codes = [
            codec.adjoint(_times(codec.adjoint(_times(x, t_rinv)), t_rstar))
            for x in base.codes
        ]
        gens = tuple(mat_mul(F, mat_mul(F, r, g), rinv) for g in base.generators)
        index = {x: i for i, x in enumerate(codes)}
        strategy = base.strategy + "+transport"
        return GroupEnumeration(form, gens, strategy, codec, codes, index, base.right, base.inverse)

    entry_cost = pp.q ** (2 * n * n)
    predicted = unitary_order(n, pp.q)
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
        if predicted > budgets.group_order:
            raise BudgetExceededError(
                f"predicted order {predicted} exceeds the group budget {budgets.group_order}"
            )
    codec = _RowCodes(F, n)
    gens, codes, index, right = _grow_closure(codec, members, predicted)
    if len(codes) != predicted:
        raise GroupClosureError(
            f"enumerated order {len(codes)} contradicts the formula {predicted}"
        )
    if not all(is_unitary(F, g, form.gram) for g in gens):
        raise GroupClosureError("a generator failed the unitarity check")
    # x^(-1) = J^(-1) x* J is x* for the identity form
    inverse = [index[codec.adjoint(x)] for x in codes]
    return GroupEnumeration(form, gens, strategy, codec, codes, index, right, inverse)


# ---------------------------------------------------------------------------
# matrices <-> class data


def extract_class_datum(g: Matrix, q) -> ClassDatum:
    """Datum of g: factor the characteristic polynomial, read partitions
    from nullity jumps of powers of each factor evaluated at g."""
    pp = q if isinstance(q, PrimePower) else prime_power(q)
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
    coeffs = f.full()
    acc = tuple(tuple(coeffs[-1] if i == j else 0 for j in range(n)) for i in range(n))
    add = F.add
    for c in reversed(coeffs[:-1]):
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

    Walked from the high digits down: with the coefficients of basis[k:]
    fixed to the partial sum P, the next p^k candidates differ from P only
    by members of the span of basis[:k].  A row that is zero in P and in
    all of basis[:k] is zero in each of them, so the whole block is skipped
    in one step; its candidates still count against the budget.
    """
    m = len(basis)
    if m == 0:
        raise RealizationError("invariant form space is zero")
    n = len(basis[0])
    add, mul = F.add, F.mul
    last = min(p**m - 1, budget)
    # the packed ints 0 .. p-1 are the elements of GF(p)
    scaled = [[[tuple(mul[c][x] for x in row) for row in B] for c in range(p)] for B in basis]
    # free[k]: the rows that are zero in every one of basis[:k]
    free = [[r for r in range(n) if not any(any(B[r]) for B in basis[:k])] for k in range(m + 1)]

    def block(k, P, first):
        if any(not any(P[r]) for r in free[k]):
            return None
        if k == 0:
            return P if mat_det(F, P) else None
        k -= 1
        for c in range(p):
            start = first + c * p**k
            if start > last:
                return None
            Q = P if not c else tuple(
                tuple(add[a][b] for a, b in zip(row, s)) if any(s) else row
                for row, s in zip(P, scaled[k][c])
            )
            X = block(k, Q, start)
            if X is not None:
                return X
        return None

    X = block(m, ((0,) * n,) * n, 0)
    if X is None:
        raise RealizationError(
            f"no nondegenerate invariant form within {budget} candidates"
        )
    return X


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
    if n == 0:
        raise RealizationError("cannot realize the empty datum")
    if form is None:
        form = identity_form(n, pp)
    if form.n != n:
        raise RealizationError("form dimension does not match the datum")
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


def explicit_representative(kind: str, q, r: int = 1, m: int = 0):
    """The displayed matrix for a named construction, with its form.

    kinds: two_one(r, m) for odd q; three_one, three_two, three_r(r) for even q.
    Parameters are chosen deterministically (first suitable in scan order).
    """
    pp = q if isinstance(q, PrimePower) else prime_power(q)
    F = table_for(pp)
    if kind == "two_one":
        if pp.p == 2:
            raise ValueError("two_one requires odd q")
        if r < 1 or r % 2 == 0:
            raise ValueError("two_one requires odd r >= 1")
        if m < 0:
            raise ValueError("two_one requires m >= 0")
        a = next(x for x in F.trace_zero if x)
        n = 2 * r + m
        gram = _block_diag(anti_diagonal(2 * r), identity(m)) if m else anti_diagonal(2 * r)
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            if i < r:
                row[i + r] = a
            rows.append(tuple(row))
        g = tuple(rows)
    elif kind in ("three_one", "three_two", "three_r"):
        if pp.p != 2:
            raise ValueError(f"{kind} requires even q")
        a = 1
        aa = F.mul[a][F.conj[a]]
        b = next(x for x in range(F.size) if F.add[x][F.conj[x]] == aa)
        ab = F.conj[a]
        if kind == "three_one":
            gram = _block_diag(anti_diagonal(3), identity(1))
            g = (
                (1, a, b, 0),
                (0, 1, ab, 0),
                (0, 0, 1, 0),
                (0, 0, 0, 1),
            )
        elif kind == "three_two":
            gram = _block_diag(anti_diagonal(3), anti_diagonal(2))
            g = (
                (1, a, b, 0, 0),
                (0, 1, ab, 0, 0),
                (0, 0, 1, 0, 0),
                (0, 0, 0, 1, 1),
                (0, 0, 0, 0, 1),
            )
        else:
            if r < 1 or r % 2 == 0:
                raise ValueError("three_r requires odd r")
            n = 3 * r
            gram = anti_diagonal(n)
            rows = []
            for i in range(n):
                row = [0] * n
                row[i] = 1
                if i < r:
                    row[i + r] = a
                    row[i + 2 * r] = b
                elif i < 2 * r:
                    row[i + r] = ab
                rows.append(tuple(row))
            g = tuple(rows)
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
    pp = q if isinstance(q, PrimePower) else prime_power(q)
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


def _unitary_members(F: GFTable, basis, J: Matrix, budget: int, coeffs=None):
    """Members h of the GF(q^2)-span of basis with h* J h = J, lazily.

    The basis is put in reduced echelon form over the entries in
    column-major order, so column j of h involves only the vectors pivoting
    in columns <= j, each with h's entry at its pivot as coefficient.
    Columns are chosen left to right.  The pairings u_i* J x = J[i][j] with
    the chosen columns u_i are linear in column x, so one elimination gives
    the affine set of candidates, which _span walks; each is tested against
    x* J x = J[j][j].  The free coefficients of a column run through
    coeffs, counter order over every field element (0 first) unless given.
    A search node is one candidate tested; past budget nodes the search
    raises BudgetExceededError.

    Every member's columns lie in the span of the columns of the basis
    matrices.  When that span is smaller than F^n no member is invertible,
    let alone unitary, and the search ends before its first node.
    """
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


def _is_involution(F: GFTable, h: Matrix) -> bool:
    """h h == 1, entry by entry, stopping at the first wrong one."""
    add, mul = F.add, F.mul
    cols = tuple(zip(*h))
    for i, row in enumerate(h):
        for j, col in enumerate(cols):
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = add[acc][mul[a][b]]
            if acc != (1 if i == j else 0):
                return False
    return True


def _reversers(
    g: Matrix,
    form: HermitianForm,
    group: GroupEnumeration | None,
    budgets: Budgets,
    involution: bool,
):
    """Unitary h with h g h^(-1) = g^(-1), lazily; only involutions if asked.

    With a materialized group, which must contain g, filters its involutions
    or its elements; otherwise searches the unitary members of the reversing
    space, raising BudgetExceededError once the search passes
    budgets.reversing_scan nodes.
    """
    if group is not None:
        yield from group.reversers(g, involution)
        return
    F = table_for(form.q)
    members = _unitary_members(F, reversing_space(F, g), form.gram, budgets.reversing_scan)
    if involution:
        members = (h for h in members if _is_involution(F, h))
    yield from members


def strong_reality_witnesses(
    g: Matrix,
    form: HermitianForm,
    group: GroupEnumeration | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
):
    """Every unitary involution s with s g s = g^(-1), sorted."""
    return sorted(_reversers(g, form, group, budgets, involution=True))


def is_strongly_real_oracle(
    g: Matrix,
    form: HermitianForm,
    group: GroupEnumeration | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> bool:
    """Search verdict: does some unitary involution reverse g?

    With a materialized group, scans its involutions; otherwise searches the
    unitary members of the reversing space.  Raises BudgetExceededError
    instead of guessing.
    """
    return next(_reversers(g, form, group, budgets, involution=True), None) is not None


def is_real_oracle(
    g: Matrix,
    form: HermitianForm,
    group: GroupEnumeration | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> bool:
    """Search verdict: is g conjugate to its inverse within the group?"""
    return next(_reversers(g, form, group, budgets, involution=False), None) is not None


# ---------------------------------------------------------------------------
# reconciliation


@dataclass(frozen=True)
class ClassRecord:
    datum: ClassDatum
    oracle_real: bool | None  # None when every strategy ran out of budget
    oracle_strongly_real: bool | None
    verdict: classify.Verdict
    classifier_real: bool

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


@dataclass(frozen=True)
class OracleReport:
    n: int
    q: PrimePower
    strategy: str
    group_order: int | None
    records: tuple[ClassRecord, ...]
    elapsed_ms: int
    budgets: Budgets

    @property
    def disagreements(self):
        return [r for r in self.records if not (r.agree and r.real_agree)]

    @property
    def undecided(self):
        return [r for r in self.records if r.undecided]

    def to_json(self, include_timing: bool = True):
        out = {
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
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


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


def _representative_verdicts(g: Matrix, datum: ClassDatum, form: HermitianForm, budgets: Budgets):
    """(real, strongly real) from one walk over the unitary reversers of g,
    a representative of datum; None wherever the budget ran out.

    A walk that ends without an involution has seen every unitary reverser,
    a coset of the centralizer if it found any; that count is checked
    against Wall's |C(g)|.  Whether it found any is the oracle's own reality
    verdict, which reconcile compares with the classifier.
    """
    F = table_for(form.q)
    leaves = 0
    try:
        for h in _reversers(g, form, None, budgets, involution=False):
            if _is_involution(F, h):
                return True, True
            leaves += 1
    except BudgetExceededError:
        return (True if leaves else None), None
    if leaves and leaves != centralizer_order(datum):
        raise CountMismatchError(
            f"{leaves} unitary reversers of {datum}, expected {centralizer_order(datum)}"
        )
    return leaves > 0, False


def _sign_inverse_images(F: GFTable, g: Matrix) -> list:
    """g^(-1), -g and -g^(-1); only g^(-1) in characteristic 2, where -1 = 1."""
    ginv = mat_inv(F, g)
    if F.ctx.p == 2:
        return [ginv]
    neg = F.neg
    return [ginv] + [tuple(tuple(neg[x] for x in row) for row in m) for m in (g, ginv)]


def _representative_records(data, form: HermitianForm, budgets: Budgets):
    """(datum, real, strongly real) for each of the class data, realizing and
    walking only the first class of each orbit of g -> +-g^(+-1) among them.

    For s, e in {1, -1}, h (s g^e) h^(-1) = (s g^e)^(-1) iff h g h^(-1) =
    g^(-1), and reversing_space returns the same basis for all four, so
    their walks are one computation, budget outcome included.  Each image
    must be unitary, have g's centralizer order and be one of the data,
    else CountMismatchError.  A class that fails to realize shares nothing.
    """
    pp = form.q
    F = table_for(pp)
    found: dict = {}
    shared: dict = {}
    for datum in data:
        if datum in shared:
            found[datum] = shared.pop(datum)
            continue
        try:
            g = realize_class(datum, form, budgets)
        except RealizationError:
            found[datum] = (None, None)  # budget too small to even realize
            continue
        found[datum] = verdicts = _representative_verdicts(g, datum, form, budgets)
        for h in _sign_inverse_images(F, g):
            image = extract_class_datum(h, pp)
            if not is_unitary(F, h, form.gram):
                raise RealizationError(f"an image of the {datum} representative is not unitary")
            if centralizer_order(image) != centralizer_order(datum):
                raise CountMismatchError(
                    f"image {image} of {datum} has |C| = {centralizer_order(image)}, "
                    f"expected {centralizer_order(datum)}"
                )
            if image not in found:
                shared.setdefault(image, verdicts)
    if shared:
        raise CountMismatchError(
            f"{len(shared)} images of realized classes are not among the class data"
        )
    return [(datum, *verdicts) for datum, verdicts in found.items()]


def _check_orbit_data(n: int, pp: PrimePower, data, sizes) -> None:
    """The data read off the conjugacy orbits must be pairwise distinct and
    be exactly the enumerated classes of U(n, F_q), and the orbit of each
    datum, of the given size, must have |U(n, F_q)| / |C(datum)| elements."""
    expected = set(enumerate_class_data(n, pp, max_n=n, max_q=pp.q))
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
    pp = q if isinstance(q, PrimePower) else prime_power(q)
    started = time.perf_counter()
    form = identity_form(n, pp)
    try:
        group = enumerate_group(n, pp, form, budgets)
    except BudgetExceededError:
        group = None

    if group is not None:
        orbit = _conjugation_orbits(group)
        reps: dict = {}
        for i, oid in enumerate(orbit):
            reps.setdefault(oid, i)
        # reality from orbit ids: g^(-1) lies in the orbit of g
        found = []
        for oid, i in reps.items():
            g = group.codec.decode(group.codes[i])
            sr = is_strongly_real_oracle(g, form, group, budgets)
            found.append((extract_class_datum(g, pp), orbit[group.inverse[i]] == oid, sr))
        sizes = Counter(orbit)
        _check_orbit_data(n, pp, [datum for datum, _, _ in found], [sizes[oid] for oid in reps])
        strategy, group_order = group.strategy, group.order
    else:
        data = enumerate_class_data(n, pp, max_n=n, max_q=pp.q)
        found = _representative_records(data, form, budgets)
        strategy, group_order = "representatives", None
    records = sorted(
        (
            ClassRecord(
                datum, oracle_real, oracle_sr, classify.strongly_real(datum), datum_is_real(datum)
            )
            for datum, oracle_real, oracle_sr in found
        ),
        key=lambda r: [(f.sort_key(), mu.parts) for f, mu in r.datum.blocks],
    )
    elapsed = int((time.perf_counter() - started) * 1000)
    return OracleReport(
        n, pp, strategy, group_order, tuple(records), elapsed, budgets
    )
