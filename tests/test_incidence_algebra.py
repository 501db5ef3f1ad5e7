import json
import random
from collections import defaultdict

import pytest

from incalg.coeff_rings import (
    MatrixRing,
    ProductRing,
    RingMismatchError,
    ZMod,
    det_inverse,
    parse_ring_spec,
)
from incalg.incidence_algebra import (
    IncidenceFunction,
    NonInvertibleError,
    SupportError,
    convolve,
    delta,
    function_from_json,
    function_to_json,
    hadamard,
    invert,
    is_unit_function,
    unit_decompose,
    zeta,
)
from incalg.oracle import matrix_oracle, random_function
from incalg.preorder_core import _bits, close_relations
from reference import class_members, inflate, matrix_is_invertible, random_unit


def test_from_entries_validates_support(chain2):
    r = ZMod(5)
    with pytest.raises(SupportError):
        IncidenceFunction.from_entries(chain2, r, [("b", "a", 1)])
    with pytest.raises(SupportError):
        IncidenceFunction.from_entries(chain2, r, [("a", "b", 1), ("a", "b", 2)])
    f = IncidenceFunction.from_entries(chain2, r, [("a", "b", 0)])
    assert f.entries == {}


@pytest.mark.parametrize("values", [("0", "2"), ("2", "0"), ("0", "0")])
def test_duplicate_pair_is_refused_whatever_its_values(chain2, values):
    """A pair given twice is an error even when one of its values is zero."""
    r = ZMod(5)
    msg = r"duplicate entry for pair \(a, b\)"
    with pytest.raises(SupportError, match=msg):
        IncidenceFunction.from_entries(chain2, r, [("a", "b", int(v)) for v in values])
    text = json.dumps({"entries": [{"from": "a", "to": "b", "value": v} for v in values]})
    with pytest.raises(SupportError, match=msg):
        function_from_json(text, chain2, r)


def test_value_and_support(chain3):
    r = ZMod(7)
    f = IncidenceFunction.from_entries(chain3, r, [("a", "c", 3), ("b", "b", 1)])
    assert f.value("a", "c") == 3
    assert f.value("a", "b") == 0
    assert f.items() == [(("a", "c"), 3), (("b", "b"), 1)]


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
    assert diag.items() == [(("a1", "a2"), 2), (("a2", "a2"), 1)]
    assert strict.items() == [(("a1", "b1"), 1)]
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
    assert d.items() == [(("a", "b"), 3)]
    assert v.items() == [(("a", "a"), 2), (("b", "b"), 3)]
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
    assert got.items() == [(("a", "b"), 4), (("b", "b"), 1)]


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
    inv = det_inverse(6, mat)[1]
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
    v_inv = invert(f.diagonal_part())
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


def test_index_pairs_are_the_one_pair_list(gate_posets):
    """Preorder.index_pairs is the tuple of the comparable index pairs, row
    by row with columns ascending, reflexive pairs included, and zeta lists
    its keys in that order: on the gate posets (every sweep poset among
    them) and on a preorder declared out of label order, with a class of
    two elements."""
    shuffled = close_relations(["d", "b", "a", "c"], [("d", "b"), ("b", "d"), ("c", "b"),
                                                      ("a", "c")])
    for p in [*gate_posets, shuffled]:
        pairs = [(i, j) for i, row in enumerate(p._up) for j in _bits(row)]
        assert type(p.index_pairs) is tuple and list(p.index_pairs) == pairs
        assert list(zeta(p, ZMod(2)).entries) == pairs


def test_mobius_of_long_chain(chain1100):
    """Inverting zeta on a 1,100-chain needs no recursion over the classes."""
    r = ZMod(7)
    labels = chain1100.elements
    mu = {(x, x): 1 for x in labels}
    mu.update({(x, y): 6 for x, y in zip(labels, labels[1:])})
    assert invert(zeta(chain1100, r)).items() == sorted(mu.items())


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


def test_hadamard_drops_entries_where_m_is_zero(chain3):
    """A pair without an entry in m has none in the product, whatever f holds there."""
    r = ZMod(5)
    m = IncidenceFunction.from_entries(chain3, r, [("a", "c", 2)])
    f = IncidenceFunction.from_entries(chain3, r, [("a", "c", 3), ("a", "a", 2), ("b", "c", 4)])
    product = IncidenceFunction.from_entries(chain3, r, [("a", "c", 1)])
    assert hadamard(m, f) == product and hadamard(f, m) == product


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


# The dict-of-term-lists engine that the packed-integer kernel replaced,
# kept as the reference: rows grouped by first element, the terms of each
# output entry collected per column and summed by an add/mul fold.  It
# reads and builds functions by label, through items() and from_entries.

def _from_pairs(preorder, ring, items):
    return IncidenceFunction.from_entries(preorder, ring, [(x, y, v) for (x, y), v in items])


def _ref_fold(ring, terms):
    acc = ring.zero()
    for a, b in terms:
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def _ref_rows(items):
    rows = defaultdict(list)
    for (x, y), v in items:
        rows[x].append((y, v))
    return rows


def _ref_row_product(row, rows):
    terms = defaultdict(list)
    for z, a in row:
        for y, b in rows.get(z, ()):
            terms[y].append((a, b))
    return terms


def _ref_convolve(f, g):
    ring, zero = f.ring, f.ring.zero()
    g_rows = _ref_rows(g.items())
    out = {}
    for x, row in _ref_rows(f.items()).items():
        for y, terms in _ref_row_product(row, g_rows).items():
            v = _ref_fold(ring, terms)
            if v != zero:
                out[(x, y)] = v
    return _from_pairs(f.preorder, ring, out.items())


def _ref_block_inverse(ring, rows):
    s = len(rows)
    if isinstance(ring, ProductRing):
        parts = [_ref_block_inverse(r, [[a[i] for a in row] for row in rows])
                 for i, r in enumerate(ring.factors)]
        if None in parts:
            return None
        return [[tuple(p[a][b] for p in parts) for b in range(s)] for a in range(s)]
    if isinstance(ring, MatrixRing):
        k = ring.size
        flat = det_inverse(ring.base.n, [[a[i][j] for a in row for j in range(k)]
                                         for row in rows for i in range(k)])[1]
        if flat is None:
            return None
        return [[tuple(tuple(flat[a * k + i][b * k:(b + 1) * k]) for i in range(k))
                 for b in range(s)] for a in range(s)]
    return det_inverse(ring.n, rows)[1]


def _ref_invert(f):
    quotient, ring = f.preorder.quotient(), f.ring
    zero = ring.zero()
    v_inv = {}
    for ci, members in enumerate(quotient.classes):
        inv = _ref_block_inverse(ring, [[f.value(s, t) for t in members] for s in members])
        if inv is None:
            raise NonInvertibleError(
                f"diagonal block of class {quotient.reps[ci]!r} is not invertible")
        for a, s in enumerate(members):
            for b, t in enumerate(members):
                if inv[a][b] != zero:
                    v_inv[s, t] = inv[a][b]
    cls = quotient._c
    strict = _ref_rows((p, a) for p, a in f.items() if cls(p[0]) != cls(p[1]))
    rows = {}
    for ci in quotient.top_down():
        members = quotient.classes[ci]
        for x in members:
            d_terms = _ref_row_product(
                [(xp, ring.neg(v_inv[x, xp])) for xp in members if (x, xp) in v_inv], strict)
            d_row = [(z, v) for z, terms in d_terms.items()
                     if (v := _ref_fold(ring, terms)) != zero]
            row = [(y, v_inv[x, y]) for y in members if (x, y) in v_inv]
            row += [(y, v) for y, terms in _ref_row_product(d_row, rows).items()
                    if (v := _ref_fold(ring, terms)) != zero]
            rows[x] = row
    return _from_pairs(f.preorder, ring, [((x, y), v) for x, row in rows.items() for y, v in row])


KERNEL_RINGS = ["Z/2", "Z/12", f"Z/{2**61 - 1}", f"Z/{10**12}", "M(2,Z/3)", "M(3,Z/4)",
                f"M(2,Z/{10**9})", "Z/2 x M(2,Z/3) x Z/5"]
WIDE_RINGS = [f"Z/{2**61 - 1}", f"Z/{10**12}", f"M(2,Z/{10**9})"]


def _kernel_preorders():
    """A point, chains, B_4, doubled classes, a fence and a disconnected
    preorder, with labels declared in shuffled order so that index order
    and label order differ."""
    rng = random.Random(3)

    def build(labels, gens):
        labels = list(labels)
        rng.shuffle(labels)
        return close_relations(labels, gens)

    chain = [f"c{i}" for i in range(7)]
    cube = [format(s, "04b") for s in range(16)]
    fence = [f"f{i}" for i in range(9)]  # f0 < f1 > f2 < f3 ...
    return {
        "point": build(["p"], []),
        "chain2": build("ab", [("a", "b")]),
        "chain7": build(chain, list(zip(chain, chain[1:]))),
        "B4": build(cube, [(cube[s], cube[s | 1 << b]) for s in range(16) for b in range(4)
                           if not s >> b & 1]),
        "doubled": inflate(close_relations("wxyz", [("w", "x"), ("x", "y"), ("w", "z")]),
                           [2, 1, 3, 2]),
        "fence": build(fence, [(fence[i], fence[i + 1]) if i % 2 == 0 else
                               (fence[i + 1], fence[i]) for i in range(8)]),
        "disconnected": build(["s", "t", "u", "v", "w"],
                              [("s", "t"), ("t", "u"), ("v", "w"), ("w", "v")]),
    }


def _random_element(ring, rng):
    """Zero, one, the largest residue or a random one, per scalar."""
    if isinstance(ring, ProductRing):
        return tuple(_random_element(r, rng) for r in ring.factors)
    n = ring.base.n if isinstance(ring, MatrixRing) else ring.n

    def pick():
        return rng.choice((0, 1, n - 1, rng.randrange(n), rng.randrange(n)))

    if isinstance(ring, MatrixRing):
        return tuple(tuple(pick() for _ in range(ring.size)) for _ in range(ring.size))
    return pick()


def _largest(ring):
    """The element whose every residue is n - 1: every term of a product
    of two such functions is as large as the field bound allows."""
    if isinstance(ring, ProductRing):
        return tuple(_largest(r) for r in ring.factors)
    if isinstance(ring, MatrixRing):
        return tuple((ring.base.n - 1,) * ring.size for _ in range(ring.size))
    return ring.n - 1


def _function_of(p, ring, rng, density):
    entries = [(x, y, _random_element(ring, rng)) for x, y in p.comparable_pairs()
               if rng.random() < density]
    return IncidenceFunction.from_entries(p, ring, entries)


def _unit_of(p, ring, rng):
    """A random function whose diagonal class blocks are invertible."""
    entries = dict(_function_of(p, ring, rng, 0.7).strict_part().items())
    for members in p.quotient().classes:
        while True:
            block = [[_random_element(ring, rng) for _ in members] for _ in members]
            if _ref_block_inverse(ring, block) is not None:
                break
        entries.update(((s, t), block[a][b]) for a, s in enumerate(members)
                       for b, t in enumerate(members) if block[a][b] != ring.zero())
    return _from_pairs(p, ring, entries.items())


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_kernel_matches_reference(spec, seed=15):
    """convolve and invert equal the reference engine on every test
    preorder: the zero function, delta, zeta, the all-(n-1) function and
    seeded random functions and units; singular units raise the same
    error text."""
    ring = parse_ring_spec(spec)
    rng = random.Random(seed)
    largest = _largest(ring)
    for name, p in _kernel_preorders().items():
        zero_f = IncidenceFunction(p, ring, {})
        full = _from_pairs(p, ring, [(pair, largest) for pair in p.comparable_pairs()])
        funcs = [zero_f, delta(p, ring), zeta(p, ring), full]
        funcs += [_function_of(p, ring, rng, d) for d in (0.2, 0.6, 1.0)]
        for f in funcs:
            for g in funcs[:4] + [rng.choice(funcs[4:])]:
                assert convolve(f, g) == _ref_convolve(f, g), (name, spec)
        units = [delta(p, ring)] + [_unit_of(p, ring, rng) for _ in range(3)]
        if p.quotient().n_classes == len(p.elements):
            units.append(zeta(p, ring))  # a unit when every class is one element
        for u in units:
            assert invert(u) == _ref_invert(u), (name, spec)
        x = rng.choice(p.elements)
        block = class_members(p.quotient(), x)  # drop the whole row of x's block
        singular = _from_pairs(p, ring, [((s, t), v) for (s, t), v in units[1].items()
                                         if s != x or t not in block])
        for f in (singular, zero_f, full):
            try:
                want = _ref_invert(f)
            except NonInvertibleError as e:
                with pytest.raises(NonInvertibleError) as got:
                    invert(f)
                assert str(got.value) == str(e)
                assert not is_unit_function(f)
            else:
                assert invert(f) == want


@pytest.mark.parametrize("spec", WIDE_RINGS)
def test_kernel_with_wide_fields_matches_matrix_oracle(spec, seed=16):
    """Moduli whose fields need more than 64 bits: products agree with
    the dense matrix oracle, and inverses are two-sided."""
    ring = parse_ring_spec(spec)
    rng = random.Random(seed)
    for p in _kernel_preorders().values():
        full = _from_pairs(p, ring, [(pair, _largest(ring)) for pair in p.comparable_pairs()])
        for f, g in [(full, full), (_function_of(p, ring, rng, 0.8), full),
                     (_function_of(p, ring, rng, 0.8), _function_of(p, ring, rng, 0.8))]:
            assert matrix_oracle(f, g)
        u = _unit_of(p, ring, rng)
        assert convolve(u, invert(u)) == convolve(invert(u), u) == delta(p, ring)
