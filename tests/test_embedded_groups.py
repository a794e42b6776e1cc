"""The main theorem on the embedded groups themselves.

For q odd, g in U(n, F_q) is strongly real exactly when it is conjugate
into an embedded orthogonal group O^+-(n, F_q).  Here each group is built
as the members over F_q of the unitary walk for a symmetric form S over
F_q, which are the h with h^T S h = S, and the classes it meets are read
off its elements.  Over the two forms I and diag(1, ..., 1, lambda),
lambda a nonsquare, they must be exactly the classes classify calls
strongly real.  For q even, an alternating form gives Sp(S), and the
classes it meets must be the symplectic_embeddable_even_q set.
"""

import math

import pytest

from strongreal.classify import STRONGLY_REAL, strongly_real, symplectic_embeddable_even_q
from strongreal.counting import enumerate_class_data
from strongreal.fields import PrimePower, prime_power, table_for
from strongreal.linalg import identity
from strongreal.oracle import _block_diag, _unitary_members, anti_diagonal, extract_class_datum


def embedded_members(pp: PrimePower, S):
    """The h over F_q with h^T S h = S, from the walk over the entry basis
    with every free coefficient in F_q."""
    F = table_for(pp)
    n = len(S)
    entry_basis = [tuple(zip(*[iter(e)] * n)) for e in identity(n * n)]
    members = list(_unitary_members(F, entry_basis, S, math.inf, coeffs=F.base_elems))
    base = set(F.base_elems)
    assert all(a in base for h in members for row in h for a in row)
    return members


def nonsquare(pp: PrimePower) -> int:
    F = table_for(pp)
    squares = {F.mul[a][a] for a in F.base_elems}
    return next(a for a in F.base_elems if a not in squares)


def orthogonal_orders(n: int, q: int) -> list:
    """|O^+(n, q)| and |O^-(n, q)| ascending; both are |O(n, q)| for odd n."""
    m = n // 2
    if n % 2:
        order = 2 * q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
        return [order, order]
    rest = 2 * q ** (m * (m - 1)) * math.prod(q ** (2 * i) - 1 for i in range(1, m))
    return sorted(rest * (q**m - eps) for eps in (1, -1))


def test_orthogonal_orders_match_the_known_values():
    assert orthogonal_orders(4, 3) == [1152, 1440]
    assert orthogonal_orders(3, 5) == [240, 240]
    assert orthogonal_orders(3, 7) == [672, 672]
    assert orthogonal_orders(2, 3) == [4, 8]


@pytest.mark.parametrize(
    "n, q", [(1, 3), (2, 3), (3, 3), (4, 3), (1, 5), (2, 5), (3, 5), (2, 7), (3, 7)]
)
def test_strongly_real_classes_are_those_meeting_an_orthogonal_group(n, q):
    pp = prime_power(q)
    lam = nonsquare(pp)
    met, orders = set(), []
    for S in (identity(n), _block_diag(identity(n - 1), ((lam,),))):
        members = embedded_members(pp, S)
        orders.append(len(members))
        met.update(extract_class_datum(h, pp) for h in members)
    assert sorted(orders) == orthogonal_orders(n, q)
    data = enumerate_class_data(n, pp, max_q=q)
    assert met == {d for d in data if strongly_real(d).status == STRONGLY_REAL}


@pytest.mark.parametrize("n, q, order", [(2, 2, 6), (2, 4, 60), (2, 8, 504), (4, 2, 720)])
def test_symplectic_embeddable_classes_are_those_meeting_sp(n, q, order):
    pp = prime_power(q)
    A = _block_diag(*[anti_diagonal(2)] * (n // 2))
    members = embedded_members(pp, A)
    assert len(members) == order
    met = {extract_class_datum(h, pp) for h in members}
    data = enumerate_class_data(n, pp, max_q=q)
    assert met == {d for d in data if symplectic_embeddable_even_q(d)}
