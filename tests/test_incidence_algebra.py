import random

import pytest

from incalg.coeff_rings import MatrixRing, RingMismatchError, ZMod, parse_ring_spec
from incalg.incidence_algebra import (
    IncidenceFunction,
    NonInvertibleError,
    SupportError,
    _block_inverse,
    _diagonal_inverse,
    convolve,
    delta,
    function_from_json,
    function_to_json,
    hadamard,
    invert,
    is_unit_function,
    matrix_is_invertible,
    unit_decompose,
    zeta,
)
from incalg.oracle import matrix_oracle, random_function, random_unit
from incalg.preorder_core import close_relations


def test_from_entries_validates_support(chain2):
    r = ZMod(5)
    with pytest.raises(SupportError):
        IncidenceFunction.from_entries(chain2, r, [("b", "a", 1)])
    with pytest.raises(SupportError):
        IncidenceFunction.from_entries(chain2, r, [("a", "b", 1), ("a", "b", 2)])
    f = IncidenceFunction.from_entries(chain2, r, [("a", "b", 0)])
    assert f.entries == {}


def test_value_and_support(chain3):
    r = ZMod(7)
    f = IncidenceFunction.from_entries(chain3, r, [("a", "c", 3), ("b", "b", 1)])
    assert f.value("a", "c") == 3
    assert f.value("a", "b") == 0
    assert sorted(f.entries) == [("a", "c"), ("b", "b")]


def test_zeta_convolution_counts_intervals(chain3):
    """zeta * zeta counts the points of each interval."""
    r = ZMod(5)
    z = zeta(chain3, r)
    zz = convolve(z, z)
    assert zz.value("a", "c") == 3
    assert zz.value("a", "b") == 2
    assert zz.value("a", "a") == 1


def test_delta_is_identity(crown):
    r = ZMod(12)
    d = delta(crown, r)
    rng = random.Random(5)
    for _ in range(20):
        f = random_function(crown, r, rng)
        assert convolve(d, f) == f
        assert convolve(f, d) == f


def test_mobius_of_chain(chain3):
    r = ZMod(5)
    mu = invert(zeta(chain3, r))
    assert mu.value("a", "a") == 1
    assert mu.value("a", "b") == 4
    assert mu.value("b", "c") == 4
    assert mu.value("a", "c") == 0
    assert convolve(mu, zeta(chain3, r)) == delta(chain3, r)


def test_mobius_of_crown(crown):
    # height-1 poset: mobius is -1 on every strict pair
    r = ZMod(7)
    mu = invert(zeta(crown, r))
    for x, y in crown.quotient().strict_pairs():
        assert mu.value(x, y) == 6


def test_diagonal_and_strict_parts(preorder_21):
    r = ZMod(3)
    f = IncidenceFunction.from_entries(
        preorder_21, r, [("a1", "a2", 2), ("a1", "b1", 1), ("a2", "a2", 1)]
    )
    diag = f.diagonal_part()
    strict = f.strict_part()
    assert sorted(diag.entries) == [("a1", "a2"), ("a2", "a2")]
    assert sorted(strict.entries) == [("a1", "b1")]
    assert diag + strict == f


def test_algebra_operations(chain2):
    r = ZMod(5)
    f = IncidenceFunction.from_entries(chain2, r, [("a", "b", 2)])
    g = IncidenceFunction.from_entries(chain2, r, [("a", "b", 3), ("a", "a", 1)])
    assert (f + g).value("a", "b") == 0
    assert (f - g).value("a", "b") == 4
    assert (-f).value("a", "b") == 3
    assert (f + f).value("a", "b") == 4


def test_mixed_carriers_rejected(chain2, chain3):
    f = IncidenceFunction.from_entries(chain2, ZMod(5), [("a", "b", 1)])
    g = IncidenceFunction.from_entries(chain2, ZMod(3), [("a", "b", 1)])
    h = IncidenceFunction.from_entries(chain3, ZMod(5), [("a", "b", 1)])
    with pytest.raises(RingMismatchError):
        convolve(f, g)
    with pytest.raises(RingMismatchError):
        f + h


def test_unit_decompose_example(chain2):
    r = ZMod(5)
    u = IncidenceFunction.from_entries(chain2, r, [("a", "a", 2), ("b", "b", 3), ("a", "b", 4)])
    d, v = unit_decompose(u)
    assert sorted(d.entries.items()) == [(("a", "b"), 3)]
    assert sorted(v.entries.items()) == [(("a", "a"), 2), (("b", "b"), 3)]
    assert convolve(delta(chain2, r) + d, v) == u


def test_unit_decompose_rejects_non_unit(chain2):
    r = ZMod(4)
    u = IncidenceFunction.from_entries(chain2, r, [("a", "a", 2), ("b", "b", 1)])
    with pytest.raises(NonInvertibleError):
        unit_decompose(u)


def test_conjugation_examples(chain2):
    """u^-1 e u for units u."""
    r = ZMod(5)
    e_ab = IncidenceFunction.from_entries(chain2, r, [("a", "b", 1)])
    u = IncidenceFunction.from_entries(chain2, r, [("a", "a", 1), ("b", "b", 2)])
    assert convolve(convolve(invert(u), e_ab), u) == e_ab + e_ab
    e_b = IncidenceFunction.from_entries(chain2, r, [("b", "b", 1)])
    w = delta(chain2, r) + e_ab
    got = convolve(convolve(invert(w), e_b), w)
    assert sorted(got.entries.items()) == [(("a", "b"), 4), (("b", "b"), 1)]


def test_invert_random_units(crown, seed=1009):
    rng = random.Random(seed)
    r = ZMod(12)
    d = delta(crown, r)
    for _ in range(50):
        u = random_unit(crown, r, rng)
        u_inv = invert(u)
        assert convolve(u, u_inv) == d
        assert convolve(u_inv, u) == d


def test_invert_preorder_with_class_blocks(preorder_21, seed=55):
    rng = random.Random(seed)
    r = ZMod(3)
    d = delta(preorder_21, r)
    for _ in range(50):
        u = random_unit(preorder_21, r, rng)
        assert convolve(u, invert(u)) == d


def test_one_plus_nilpotent_is_invertible(diamond, seed=23):
    """delta + m is a unit for every strictly supported m."""
    rng = random.Random(seed)
    r = ZMod(4)
    d = delta(diamond, r)
    for _ in range(50):
        m = random_function(diamond, r, rng).strict_part()
        u = d + m
        assert convolve(u, invert(u)) == d


def test_invert_rejects_non_units(chain2, preorder_21):
    with pytest.raises(NonInvertibleError):
        invert(IncidenceFunction.from_entries(chain2, ZMod(4), [("a", "a", 2), ("b", "b", 1)]))
    # missing diagonal entry means a zero block
    with pytest.raises(NonInvertibleError):
        invert(IncidenceFunction.from_entries(chain2, ZMod(4), [("a", "b", 1)]))
    # 2x2 class block that is not invertible over Z/2
    f = IncidenceFunction.from_entries(
        preorder_21,
        ZMod(2),
        [("a1", "a1", 1), ("a1", "a2", 1), ("a2", "a1", 1), ("a2", "a2", 1), ("b1", "b1", 1)],
    )
    assert not is_unit_function(f)
    with pytest.raises(NonInvertibleError):
        invert(f)


def test_matrix_inverse_without_unit_entries():
    """Invertible block containing no unit entry at all; elimination with
    unit pivots would get stuck here, Euclid row reduction does not."""
    r = ZMod(6)
    mat = [[2, 3], [3, 2]]
    assert matrix_is_invertible(r, mat)
    inv = _block_inverse(r, mat)
    prod = [
        [
            (mat[i][0] * inv[0][j] + mat[i][1] * inv[1][j]) % 6
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    assert not matrix_is_invertible(r, [[2, 3], [4, 3]])


def test_noncommutative_class_blocks_invert(preorder_21, chain2, seed=12):
    """A 2-element class over M(2,Z/2): the block is inverted as a 4x4
    matrix over Z/2, and the result is a two-sided inverse."""
    r = MatrixRing(2, ZMod(2))
    d = delta(preorder_21, r)
    f = IncidenceFunction.from_entries(
        preorder_21, r, [("a1", "a1", r.one()), ("a2", "a2", r.one()), ("b1", "b1", r.one())]
    )
    assert invert(f) == f
    rng = random.Random(seed)
    for _ in range(30):
        u = random_unit(preorder_21, r, rng)
        assert u * invert(u) == invert(u) * u == d
    g = IncidenceFunction.from_entries(
        chain2, r, [("a", "a", r.one()), ("b", "b", r.one()), ("a", "b", r.one())]
    )
    assert convolve(g, invert(g)) == delta(chain2, r)


@pytest.mark.parametrize("spec, size", [("Z/7", 12), ("M(2,Z/3)", 6), ("Z/2 x Z/3", 10)])
def test_invert_large_class_blocks(spec, size, seed=5):
    """Dense units whose class block is a 10x10 to 12x12 matrix over Z/n
    after flattening or splitting into factors; inverting it must not cost
    factorial time in the size."""
    r = parse_ring_spec(spec)
    members = [f"a{i:02d}" for i in range(size)]
    p = close_relations(
        members + ["b", "z"],
        list(zip(members, members[1:] + members[:1])) + [("z", "a00"), ("a00", "b")],
    )
    assert sorted(map(len, p.quotient().classes)) == [1, 1, size]
    u = random_unit(p, r, random.Random(seed), density=1.0)
    assert is_unit_function(u)
    u_inv = invert(u)
    assert u * u_inv == u_inv * u == delta(p, r)


def test_matrix_oracle_agreement(crown, seed=6):
    rng = random.Random(seed)
    for spec in ("Z/2 x Z/3", "M(2,Z/3)", "Z/2 x M(2,Z/2)"):
        r = parse_ring_spec(spec)
        for _ in range(25):
            f = random_function(crown, r, rng)
            g = random_function(crown, r, rng)
            assert matrix_oracle(f, g)


def _series_inverse(f):
    """Reference: the inverse as v^-1 (1 + d)^-1 with d = strict(f) v^-1
    nilpotent, summing the alternating powers of d up to the height."""
    ring = f.ring
    v_inv = _diagonal_inverse(f)
    d = convolve(f.strict_part(), v_inv)
    series = delta(f.preorder, ring)
    power, sign = d, -1
    for _ in range(f.preorder.quotient().height()):
        series = series + power if sign > 0 else series - power
        sign = -sign
        power = convolve(power, d)
    return convolve(v_inv, series)


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x Z/3", "M(2,Z/3)"])
def test_invert_matches_series(spec, crown, diamond, seed=71):
    rng = random.Random(seed)
    r = parse_ring_spec(spec)
    chain6 = close_relations("abcdef", list(zip("abcde", "bcdef")))
    for p in (crown, diamond, chain6):
        for _ in range(15):
            u = random_unit(p, r, rng)
            assert invert(u) == _series_inverse(u)


@pytest.mark.parametrize("spec", ["Z/3", "M(2,Z/2)"])
def test_invert_class_blocks_match_series(spec, preorder_21, seed=72):
    rng = random.Random(seed)
    r = parse_ring_spec(spec)
    for _ in range(30):
        u = random_unit(preorder_21, r, rng)
        assert invert(u) == _series_inverse(u)


def test_mobius_of_long_chain(chain1100):
    """Inverting zeta on a 1,100-chain needs no recursion over the classes."""
    r = ZMod(7)
    labels = chain1100.elements
    mu = {(x, x): 1 for x in labels}
    mu.update({(x, y): 6 for x, y in zip(labels, labels[1:])})
    assert invert(zeta(chain1100, r)).entries == mu


def test_convolution_associative_random(seed=31):
    rng = random.Random(seed)
    p = close_relations("abcde", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e")])
    r = ZMod(6)
    for _ in range(60):
        f = random_function(p, r, rng)
        g = random_function(p, r, rng)
        h = random_function(p, r, rng)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_hadamard_pointwise(chain3):
    r = ZMod(5)
    z = zeta(chain3, r)
    f = IncidenceFunction.from_entries(chain3, r, [("a", "c", 3), ("a", "a", 2)])
    h = hadamard(z, f)
    assert h == f
    doubled = hadamard(f, f)
    assert doubled.value("a", "c") == 4
    assert doubled.value("a", "a") == 4


def test_function_json_round_trip(crown, seed=8):
    rng = random.Random(seed)
    r = ZMod(12)
    for _ in range(10):
        f = random_function(crown, r, rng)
        text = function_to_json(f)
        assert text.endswith("\n")
        again = function_from_json(text, crown, r)
        assert again == f
    with pytest.raises(SupportError):
        function_from_json("{]", crown, r)
    with pytest.raises(SupportError):
        function_from_json('{"entries": [{"from": "a"}]}', crown, r)
