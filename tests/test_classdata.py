"""Class data: partitions, datum construction, decompositions, sp labels."""

import pytest

from strongreal.classdata import (
    ClassDatum,
    Partition,
    centralizer_order,
    class_datum,
    commutant_dim,
    datum_from_json,
    enumerate_signed_partitions,
    from_u_sequence,
    is_real,
    make_class_datum,
    negate,
    negative_unipotent_datum,
    partition,
    partitions_of,
    signed_partition,
    sp_datum_from_json,
    sp_splitting_count,
    star_decompose,
    symplectic_datum,
    t_minus_one,
    t_plus_one,
    u_sequence,
    unipotent_datum,
)
from strongreal.counting import enumerate_class_data
from strongreal.errors import DatumError, NegationUndefinedError
from strongreal.fields import PrimePower, prime_power
from strongreal.oracle import unitary_order
from strongreal.upoly import enumerate_u_irreducibles, tilde

PP2 = PrimePower(2)
PP3 = PrimePower(3)


def test_partition_basics():
    mu = partition([2, 5, 5, 1])
    assert mu.parts == (5, 5, 2, 1)
    assert mu.size == 13
    assert mu.mult(5) == 2 and mu.mult(3) == 0
    assert mu.max_part == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_partitions_of_counts():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions_of(n)) for n in range(11)] == expected
    sizes = {mu.size for mu in partitions_of(6)}
    assert sizes == {6}


def test_commutant_dim():
    assert commutant_dim(partition([3, 1])) == 6
    assert commutant_dim(partition([2])) == 2
    assert commutant_dim(partition([2, 1])) == 5
    assert commutant_dim(partition([1] * 3)) == 9


def test_centralizer_order_examples():
    assert centralizer_order(unipotent_datum(PP3, [1, 1, 1])) == unitary_order(3, 3)
    # regular unipotent: the centre, of order q + 1, times q^(n - 1)
    assert centralizer_order(unipotent_datum(PP3, [3])) == 4 * 3**2
    # (2, 1): (q)^(5 - 2) |U(1, q)|^2
    assert centralizer_order(unipotent_datum(PP3, [2, 1])) == 3**3 * 4 * 4


@pytest.mark.parametrize("q,n_max", [(3, 6), (2, 4), (4, 4), (5, 4)])
def test_class_equation(q, n_max):
    # sum over classes of |G| / |C(g)| is |G|, with every |C(g)| dividing |G|
    pp = prime_power(q)
    for n in range(1, n_max + 1):
        order = unitary_order(n, q)
        total = 0
        for d in enumerate_class_data(n, pp):
            index, rest = divmod(order, centralizer_order(d))
            assert rest == 0
            total += index
        assert total == order


def test_make_class_datum_block_of_type_from_powers():
    tm1 = t_minus_one(PP3)
    divisors = [(tm1.poly, e) for e in (5, 5, 3, 2, 2, 2, 1, 1)]
    d = make_class_datum(PP3, divisors)
    assert d.n == 21
    assert d.blocks == ((tm1, partition([5, 5, 3, 2, 2, 2, 1, 1])),)


def test_make_class_datum_single():
    tm1 = t_minus_one(PP3)
    d = make_class_datum(PP3, [(tm1.poly, 1)], expected_n=1)
    assert d.n == 1
    with pytest.raises(DatumError):
        make_class_datum(PP3, [(tm1.poly, 1)], expected_n=2)


def test_make_class_datum_tilde_pair():
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    d = make_class_datum(PP3, [(f.poly, 1), (tilde(f).poly, 1)])
    assert len(d.blocks) == 2
    assert all(mu == partition([1]) for _, mu in d.blocks)


def test_make_class_datum_rejects_non_u_irreducible():
    from strongreal.upoly import poly_mul

    tm1 = t_minus_one(PP3)
    square = poly_mul(tm1.poly, tm1.poly)
    with pytest.raises(DatumError):
        make_class_datum(PP3, [(square, 1)])


def test_is_real():
    assert is_real(unipotent_datum(PP3, [4, 1]))
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    assert is_real(class_datum(PP3, {f: partition([1]), tilde(f): partition([1])}))
    assert not is_real(class_datum(PP3, {f: partition([1])}))
    assert not is_real(
        class_datum(PP3, {f: partition([2]), tilde(f): partition([1, 1])})
    )


def test_star_decompose():
    assert star_decompose(unipotent_datum(PP3, [3])) == [unipotent_datum(PP3, [3])]
    assert star_decompose(ClassDatum(PP3, ())) == []
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    d = class_datum(
        PP3,
        {
            t_minus_one(PP3): partition([2]),
            t_plus_one(PP3): partition([1, 1]),
            f: partition([1]),
            tilde(f): partition([1]),
        },
    )
    pieces = star_decompose(d)
    assert sorted(p.n for p in pieces) == [2, 2, 2]
    assert all(is_real(p) for p in pieces)
    with pytest.raises(DatumError):
        star_decompose(class_datum(PP3, {f: partition([1])}))


def test_negate():
    assert negate(negative_unipotent_datum(PP3, [3, 1])) == unipotent_datum(PP3, [3, 1])
    d = class_datum(
        PP3, {t_minus_one(PP3): partition([2]), t_plus_one(PP3): partition([1])}
    )
    nd = negate(d)
    assert nd == class_datum(
        PP3, {t_minus_one(PP3): partition([1]), t_plus_one(PP3): partition([2])}
    )
    for datum in enumerate_class_data(3, PP3):
        assert negate(negate(datum)) == datum
    with pytest.raises(NegationUndefinedError):
        negate(unipotent_datum(PP2, [1]))


def test_u_sequence_examples():
    ctx_neg1 = t_minus_one(PP3).poly.coeffs
    seq = u_sequence(unipotent_datum(PP3, [3, 1]))
    assert [u.coeffs for u in seq] == [ctx_neg1, (), ctx_neg1]
    seq2 = u_sequence(unipotent_datum(PP3, [2, 2, 2, 1, 1]))
    assert [u.degree for u in seq2] == [2, 3]


def test_u_sequence_roundtrip_exhaustive():
    for n in range(0, 5):
        for d in enumerate_class_data(n, PP3):
            assert from_u_sequence(PP3, u_sequence(d)) == d


def test_u_sequence_degree_identity():
    # for unipotent data, deg u_i equals the multiplicity of part i
    for mu in partitions_of(6):
        d = unipotent_datum(PP3, mu)
        for i, u in enumerate(u_sequence(d), start=1):
            assert u.degree == mu.mult(i)


def test_datum_json_roundtrip():
    for n in range(1, 4):
        for d in enumerate_class_data(n, PP3):
            assert datum_from_json(d.to_json()) == d


def test_signed_partition_validation():
    g = signed_partition([5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1], {4: -1, 2: 1})
    assert g.size == 34
    assert g.even_value_count() == 2
    assert g.sign_of(4) == -1 and g.sign_of(2) == 1
    with pytest.raises(DatumError):
        signed_partition([3], {})  # odd part with odd multiplicity
    with pytest.raises(DatumError):
        signed_partition([2, 2], {})  # missing sign
    with pytest.raises(DatumError):
        signed_partition([1, 1], {2: 1})  # sign without the part


def test_enumerate_signed_partitions():
    # weight 4: bases (4), (2,2), (2,1,1), (1,1,1,1) -> 2+2+2+1 signed versions
    assert len(enumerate_signed_partitions(4)) == 7
    assert len(enumerate_signed_partitions(0)) == 1
    for sp in enumerate_signed_partitions(6):
        assert sp.size == 6


def test_sp_splitting_count():
    g = signed_partition([5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1], {4: -1, 2: 1})
    d = symplectic_datum(PP3, {}, signed_plus=g)
    assert sp_splitting_count(d) == 4
    assert sp_splitting_count(symplectic_datum(PP3, {}, signed_plus=signed_partition([1, 1]))) == 1
    d2 = symplectic_datum(
        PP3,
        {},
        signed_plus=signed_partition([2], {2: 1}),
        signed_minus=signed_partition([4], {4: -1}),
    )
    assert sp_splitting_count(d2) == 4


def test_symplectic_datum_validation():
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    d = symplectic_datum(PP3, {f: [1], tilde(f): [1]})
    assert d.n2 == 2
    with pytest.raises(DatumError):
        symplectic_datum(PP3, {f: [1]})  # missing the tilde partner
    with pytest.raises(DatumError):
        symplectic_datum(PP3, {t_minus_one(PP3): [1, 1]})  # belongs in signed part
    with pytest.raises(DatumError):
        symplectic_datum(PP3, {}, signed_plus=signed_partition([1, 1, 1, 1]),
                         signed_minus=signed_partition([1]))  # odd total? parts invalid
    with pytest.raises(DatumError):
        symplectic_datum(PrimePower(2), {})


def test_sp_datum_json_roundtrip():
    f = next(u for u in enumerate_u_irreducibles(PP3, 1) if tilde(u) != u)
    d = symplectic_datum(
        PP3,
        {f: [1], tilde(f): [1]},
        signed_plus=signed_partition([2, 1, 1], {2: -1}),
        signed_minus=signed_partition([1, 1]),
    )
    assert sp_datum_from_json(d.to_json()) == d
