import itertools
import json
import random

import pytest

from incalg.coeff_rings import (
    MatrixRing,
    NonUnitError,
    ProductRing,
    RingMismatchError,
    RingParseError,
    ZMod,
    count_central_units,
    det_inverse,
    parse_ring_spec,
    scalar_view,
)
from incalg.incidence_algebra import IncidenceFunction
from incalg.mult_automorphisms import WeightSystem
from incalg.preorder_core import close_relations


def test_zmod_basics():
    r = ZMod(12)
    assert r.order == 12
    assert r.add(7, 8) == 3
    assert r.mul(5, 7) == 11
    assert r.one() == 1 and r.zero() == 0


def test_zmod_units_and_central_units():
    r = ZMod(12)
    assert list(r.central_units()) == [1, 5, 7, 11]
    for u in r.central_units():
        assert r.mul(u, r.inverse(u)) == 1
    assert not r.is_unit(6)
    for a in range(12):
        if a not in r.central_units():
            with pytest.raises(NonUnitError) as err:
                r.inverse(a)
            assert str(err.value) == f"{a} is not invertible in Z/12"


def test_count_central_units_matches_the_list(seed=23):
    """min(cap, len(central_units())) for every Z/n with n < 500 and
    seeded larger moduli, products and matrix rings, at caps around the
    count, where the bound alone decides and where the count is needed."""
    rng = random.Random(seed)
    specs = [f"Z/{n}" for n in range(2, 500)]
    specs += [f"Z/{rng.randrange(500, 10 ** 5)}" for _ in range(10)]
    specs += ["Z/2 x Z/3", "Z/4 x Z/6 x Z/9", "M(3,Z/10)", "M(2,Z/12) x Z/7", "Z/30030"]
    for spec in specs:
        ring = parse_ring_spec(spec)
        total = len(ring.central_units())
        for cap in {1, 2, 3, total // 2 + 1, total - 1, total, total + 1, 2 * total + 5}:
            if cap >= 1:
                assert count_central_units(ring, cap) == min(cap, total), (spec, cap)


def test_zmod_inverse_random(seed=20240817):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(2, 60)
        r = ZMod(n)
        a = rng.randrange(n)
        if r.is_unit(a):
            assert r.mul(a, r.inverse(a)) == 1


def test_zmod_parse_and_format():
    r = ZMod(7)
    assert r.parse_element("10") == 3
    assert r.parse_element("-1") == 6
    assert r.format_element(3) == "3"
    with pytest.raises(RingParseError):
        r.parse_element("x")


def test_parse_ring_spec_atoms():
    assert str(parse_ring_spec("Z/5")) == "Z/5"
    assert str(parse_ring_spec(" Z/12 ")) == "Z/12"
    m = parse_ring_spec("M(2,Z/3)")
    assert isinstance(m, MatrixRing)
    assert m.size == 2 and m.base.n == 3
    for bad in ("Z/1", "Z/0", "Z/x", "Q", "M(0,Z/2)", "M(2,Z/1)", ""):
        with pytest.raises(RingParseError):
            parse_ring_spec(bad)


def test_product_ring_flattens():
    r = parse_ring_spec("Z/2 x Z/3 x Z/2")
    assert isinstance(r, ProductRing)
    assert len(r.factors) == 3
    assert str(r) == "Z/2 x Z/3 x Z/2"
    assert r.order == 12
    assert r.one() == (1, 1, 1)
    assert r.add((1, 2, 0), (1, 2, 1)) == (0, 1, 1)
    assert r.mul((1, 2, 1), (1, 2, 1)) == (1, 1, 1)


def test_product_ring_units():
    r = parse_ring_spec("Z/4 x Z/3")
    units = r.central_units()
    assert len(units) == 4
    for u in units:
        assert r.mul(u, r.inverse(u)) == r.one()
    assert r.parse_element("(3, 2)") == (3, 2)
    assert r.format_element((3, 2)) == "(3,2)"
    with pytest.raises(RingParseError):
        r.parse_element("(1,2,3)")


def test_matrix_ring_arithmetic():
    r = MatrixRing(2, ZMod(3))
    a = ((1, 2), (0, 1))
    b = ((2, 0), (1, 1))
    assert r.mul(a, b) == ((1, 2), (1, 1))
    assert r.add(a, b) == ((0, 2), (1, 2))
    assert r.one() == ((1, 0), (0, 1))


def _mul_by_entries(ring, a, b):
    """Reference product: entry (i, j) sums a[i][t] b[t][j] over t."""
    k, n = ring.size, ring.base.n
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) % n for j in range(k))
        for i in range(k)
    )


def test_matrix_mul_matches_entry_definition(seed=78):
    """Every pair of M(2,Z/2) and of M(2,Z/4) (65,536 pairs), and seeded
    pairs of M(3,Z/4)."""
    for spec in ("M(2,Z/2)", "M(2,Z/4)"):
        r = parse_ring_spec(spec)
        for a, b in itertools.product(r.elements(), repeat=2):
            assert r.mul(a, b) == _mul_by_entries(r, a, b)
    rng = random.Random(seed)
    r = parse_ring_spec("M(3,Z/4)")
    for _ in range(200):
        a, b = (tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(3)) for _ in "ab")
        assert r.mul(a, b) == _mul_by_entries(r, a, b)


def test_matrix_ring_inverse_random(seed=77):
    rng = random.Random(seed)
    r = MatrixRing(2, ZMod(5))
    found = 0
    while found < 50:
        a = tuple(tuple(rng.randrange(5) for _ in range(2)) for _ in range(2))
        if not r.is_unit(a):
            continue
        found += 1
        assert r.mul(a, r.inverse(a)) == r.one()
        assert r.mul(r.inverse(a), a) == r.one()


def test_matrix_ring_central_units():
    """Central units of a full matrix ring are the scalar matrices with
    unit scalar."""
    r = MatrixRing(2, ZMod(3))
    got = set(r.central_units())
    assert got == {((1, 0), (0, 1)), ((2, 0), (0, 2))}
    for c in got:
        for a in r.elements():
            assert r.mul(c, a) == r.mul(a, c)


def test_matrix_ring_central_units_by_commutation():
    # recompute the center the slow way and intersect with the units
    r = MatrixRing(2, ZMod(2))
    slow = [
        a
        for a in r.elements()
        if r.is_unit(a) and all(r.mul(a, b) == r.mul(b, a) for b in r.elements())
    ]
    assert sorted(slow) == sorted(r.central_units())


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x Z/3", "M(1,Z/4)", "M(2,Z/3)", "M(3,Z/2)",
                                  "Z/2 x M(2,Z/2)"])
def test_is_central_unit_is_membership_in_central_units(spec):
    r = parse_ring_spec(spec)
    central = set(r.central_units())
    assert central
    for a in r.elements():
        assert r.is_central_unit(a) == (a in central)


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x Z/3", "M(1,Z/4)", "M(2,Z/3)", "M(3,Z/2)",
                                  "Z/4 x M(2,Z/3)", "Z/2 x M(2,Z/2) x Z/5"])
def test_scalar_codec_is_lambda_per_factor(spec):
    """``ring.scalars`` splits every central unit into one residue per
    factor of the scalar view: a unit of Z/n itself, the diagonal entry
    lambda of lambda I, read as the unit's component in a product; join
    maps the residues back to the very same units."""
    r = parse_ring_spec(spec)
    units = r.central_units()
    split, join = r.scalars
    columns = split(units)
    view = scalar_view(r)
    assert [n for n, _ in columns] == [n for n, _, _ in view]
    for (n, k, part), (_, col) in zip(view, columns):
        for u, scalar in zip(units, col):
            factor = u if part is None else u[part]
            assert factor == (_lambda_identity(k, scalar) if k else scalar)
    assert join([col for _, col in columns]) == units
    assert join([col for _, col in split(())]) == ()


def _lambda_identity(k, u):
    """Reference lambda I: u on the diagonal, zero elsewhere."""
    return tuple(tuple(u if i == j else 0 for j in range(k)) for i in range(k))


def test_order_needs_no_element_list():
    assert ZMod(10 ** 30).order == 10 ** 30
    assert parse_ring_spec("M(3,Z/7)").order == 7 ** 9
    assert parse_ring_spec("Z/2 x M(2,Z/3) x Z/5").order == 2 * 3 ** 4 * 5


def test_parse_errors_quote_a_bounded_excerpt():
    long_text = "[" * 10_000
    for r in (ZMod(5), parse_ring_spec("Z/2 x Z/3"), MatrixRing(2, ZMod(3))):
        for text in (long_text, "(" + long_text + ")", "9" * 10_000, "[[" + "9" * 10_000):
            with pytest.raises(RingParseError) as e:
                r.parse_element(text)
            assert len(str(e.value)) < 120
    with pytest.raises(RingParseError) as e:
        ZMod(5).parse_element("x1")
    assert str(e.value) == "cannot parse 'x1' as an element of Z/5"


def test_matrix_ring_parse_format():
    r = MatrixRing(2, ZMod(3))
    a = r.parse_element("[[1,2],[0,1]]")
    assert a == ((1, 2), (0, 1))
    assert r.format_element(a) == "[[1,2],[0,1]]"
    for a in r.elements():
        assert r.format_element(a) == json.dumps([list(row) for row in a], separators=(",", ":"))
    with pytest.raises(RingParseError):
        r.parse_element("[[1,2]]")
    with pytest.raises(RingParseError):
        r.parse_element("[[1,2],[0]]")


def test_mixed_spec_product_with_matrix():
    r = parse_ring_spec("Z/2 x M(2,Z/3)")
    assert r.order == 2 * 3 ** 4
    one = r.one()
    assert one == (1, ((1, 0), (0, 1)))
    assert len(r.central_units()) == 2  # 1 x {I, 2I}


def _element_texts(ring, rng):
    """Element texts the grammar accepts: signed, +-prefixed, zero-padded
    and 30-digit integers; matrices with negative and 30-digit entries;
    tuples of those."""
    if isinstance(ring, ZMod):
        big = rng.randrange(10 ** 29, 10 ** 30)
        return [str(rng.randrange(-10 ** 6, 10 ** 6)), f"+{rng.randrange(10 ** 6)}", str(big),
                f"-{big}", f" {rng.choice('+-')}{rng.randrange(1000):07d} ", "-0"]
    if isinstance(ring, MatrixRing):
        k = ring.size
        return [json.dumps([[rng.choice((rng.randrange(-9, 9), rng.randrange(-10 ** 30, 10 ** 30)))
                             for _ in range(k)] for _ in range(k)]) for _ in range(4)]
    return ["(" + ", ".join(rng.choice(_element_texts(f, rng)) for f in ring.factors) + ")"
            for _ in range(4)]


@pytest.mark.parametrize("spec", ["Z/2", "Z/12", "Z/99999999999", "M(2,Z/3)", "M(3,Z/4)",
                                  "Z/2 x Z/3", "Z/4 x M(2,Z/3)", "M(1,Z/5) x Z/7 x Z/9"])
def test_parse_element_returns_canonical_elements(spec, seed=45):
    """Every element parse_element returns passes ring.check: the parsers
    reduce every residue mod n, so parse_values checks nothing again."""
    ring, rng = parse_ring_spec(spec), random.Random(f"{seed}:{spec}")
    for _ in range(60):
        for text in _element_texts(ring, rng):
            ring.check(ring.parse_element(text))


def test_check_refuses_non_canonical_values():
    """check refuses any value that is not a ring's own encoding, and the
    validating constructors surface that refusal."""
    cases = {
        "Z/5": [True, 5, -1, 2.0, "2"],
        "Z/2 x Z/3": [(1,), [1, 2], (1, 3), (1, True)],
        "M(2,Z/3)": [[[1, 0], [0, 1]], ((1, 0, 0), (0, 1, 0)), ((3, 0), (0, 1)),
                     ((True, 0), (0, 1))],
    }
    pair = close_relations("ab", [("a", "b")])
    for spec, values in cases.items():
        ring = parse_ring_spec(spec)
        for v in values:
            with pytest.raises(RingMismatchError, match="is not a canonical element of"):
                ring.check(v)
            with pytest.raises(RingMismatchError):
                IncidenceFunction.from_entries(pair, ring, [("a", "b", v)])
            with pytest.raises(RingMismatchError):
                WeightSystem.from_values(pair.quotient(), ring, {("a", "b"): v})


def test_ring_equality_and_str_round_trip():
    for spec in ("Z/2", "Z/12", "M(2,Z/3)", "Z/2 x Z/3", "Z/2 x M(2,Z/2) x Z/5"):
        r = parse_ring_spec(spec)
        assert parse_ring_spec(str(r)) == r
        assert hash(parse_ring_spec(str(r))) == hash(r)
        assert repr(r) == str(r) == spec
    for a, b in (("Z/6", "Z/2 x Z/3"), ("M(1,Z/5)", "Z/5"), ("Z/2 x Z/3", "Z/3 x Z/2")):
        assert parse_ring_spec(a) != parse_ring_spec(b)


def _laplace_determinant(ring, rows):
    """Reference: Laplace expansion along the first row, the determinant
    the package used before ``det_inverse``."""
    k = len(rows)
    if k == 0:
        return ring.one()
    if k == 1:
        return rows[0][0]
    zero = ring.zero()
    total = zero
    for j, a in enumerate(rows[0]):
        if a == zero:
            continue
        term = ring.mul(a, _laplace_determinant(ring, [r[:j] + r[j + 1:] for r in rows[1:]]))
        total = ring.add(total, term if j % 2 == 0 else ring.neg(term))
    return total


def _adjugate_inverse(ring, rows):
    """Reference: det^-1 adj(A) from cofactors, or None when det is no unit."""
    det = _laplace_determinant(ring, rows)
    if not ring.is_unit(det):
        return None
    dinv = ring.inverse(det)
    k = len(rows)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            cof = _laplace_determinant(
                ring, [r[:i] + r[i + 1:] for t, r in enumerate(rows) if t != j])
            row.append(ring.mul(dinv, cof if (i + j) % 2 == 0 else ring.neg(cof)))
        out.append(row)
    return out


def test_det_inverse_matches_laplace(seed=31):
    """det_inverse agrees with Laplace expansion and the adjugate: every
    2x2 over four moduli with zero divisors, random matrices up to 6x6,
    and the unit test, inverse and error message of all of M(2,Z/4)."""
    cases = []
    for n in (4, 6, 8, 9):
        cases += [(n, [[a, b], [c, d]]) for a, b, c, d in itertools.product(range(n), repeat=4)]
    rng = random.Random(seed)
    for n in (7, 12, 30):
        for s in range(1, 7):
            cases += [(n, [[rng.randrange(n) for _ in range(s)] for _ in range(s)])
                      for _ in range(12)]
    units = 0
    for n, rows in cases:
        ring = ZMod(n)
        det, inv = det_inverse(n, rows)
        assert det == _laplace_determinant(ring, rows)
        assert inv == _adjugate_inverse(ring, rows)
        units += inv is not None
    assert 0 < units < len(cases)

    r = MatrixRing(2, ZMod(4))
    for a in r.elements():
        rows = [list(row) for row in a]
        det = _laplace_determinant(r.base, rows)
        ref = _adjugate_inverse(r.base, rows)
        assert r.is_unit(a) == (ref is not None)
        if ref is None:
            with pytest.raises(NonUnitError) as err:
                r.inverse(a)
            assert str(err.value) == (
                f"{r.format_element(a)} has non-unit determinant {det} in M(2,Z/4)")
        else:
            assert r.inverse(a) == tuple(map(tuple, ref))
