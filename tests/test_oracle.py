import itertools
import tracemalloc

import pytest

from incalg import oracle
from incalg.cli import run_command
from incalg.coeff_rings import ZMod, parse_ring_spec
from incalg.comparability import tree_of
from incalg.mult_automorphisms import WeightSystem
from incalg.oracle import (
    DEFAULT_SUITE_RINGS,
    GuardExceeded,
    all_posets,
    automorphism_check,
    connected_posets,
    enumerate_inner,
    enumerate_mult,
    matrix_embedding_check,
    run_full_suite,
    verify_bimodule_scalars,
    verify_inner_conjugations,
    verify_structure,
)
from incalg.preorder_core import close_relations, preorder_to_text
from reference import inflate, leq, lt


def test_enumerate_mult_equals_product_filter(crown):
    """The pruned search returns exactly what the plain filter returns,
    in the same order."""
    q = crown.quotient()
    r = ZMod(3)
    pairs = q.strict_pairs()
    units = r.central_units()
    slow = []
    for combo in itertools.product(units, repeat=len(pairs)):
        ws = WeightSystem.from_values(q, r, dict(zip(pairs, combo)))
        if ws.is_valid():
            slow.append(ws.values)
    fast = [w.values for w in enumerate_mult(q, r)]
    assert fast == slow


def test_enumerate_counts_crown(crown):
    q = crown.quotient()
    r = ZMod(5)
    assert len(enumerate_mult(q, r)) == 256
    assert len(enumerate_inner(q, r)) == 64


def test_enumerate_counts_diamond_and_chain(diamond, chain3):
    assert len(enumerate_mult(diamond.quotient(), ZMod(5))) == 64
    assert len(enumerate_inner(diamond.quotient(), ZMod(5))) == 64
    assert len(enumerate_mult(chain3.quotient(), ZMod(12))) == 16
    assert len(enumerate_inner(chain3.quotient(), ZMod(12))) == 16


def test_inner_count_formula(crown, diamond, chain3):
    for p, spec in ((crown, "Z/5"), (diamond, "Z/12"), (chain3, "Z/2 x Z/3")):
        q = p.quotient()
        r = parse_ring_spec(spec)
        t = tree_of(q)
        expected = len(r.central_units()) ** (t.graph.m - len(t.non_tree_slots))
        assert len(enumerate_inner(q, r)) == expected


def test_guard_refuses_large_instances(monkeypatch):
    chain = close_relations("abcdef", [(x, y) for x, y in zip("abcde", "bcdef")])
    q = chain.quotient()
    with pytest.raises(GuardExceeded):
        enumerate_mult(q, ZMod(1009))
    with pytest.raises(GuardExceeded):
        enumerate_inner(q, ZMod(1009))
    # the guards are read at call time; force runs past the count of 2^5 potentials
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 10)
    with pytest.raises(GuardExceeded):
        enumerate_inner(q, ZMod(3))
    assert len(enumerate_inner(q, ZMod(3), force=True)) == 32
    monkeypatch.setattr(oracle, "GUARD_ALGEBRA", 1)
    with pytest.raises(GuardExceeded, match="exceed the guard 1$"):
        verify_inner_conjugations(close_relations("ab", [("a", "b")]), ZMod(2))
    with pytest.raises(GuardExceeded, match="exceed the guard 1$"):
        verify_bimodule_scalars(1, 1, ZMod(2))


def test_verify_structure_crown(crown):
    report = verify_structure(crown.quotient(), ZMod(5))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "decompose-recompose",
        "factor-intersection-trivial",
        "inner-count",
        "size-product",
        "inner-test-agreement",
        "all-inner-iff-trivial-complement",
    ]
    assert report.counts["mult"] == 256
    assert report.counts["inner"] == 64
    assert report.counts["tree_trivial"] == 4
    d = report.to_dict()
    assert d["passed"] is True
    assert len(d["checks"]) == 6


def test_verify_structure_matrix_ring(crown):
    report = verify_structure(crown.quotient(), parse_ring_spec("M(2,Z/3)"))
    assert report.passed
    assert report.counts["mult"] == 16


def test_verify_inner_conjugations_chain2():
    chain2 = close_relations("ab", [("a", "b")])
    report = verify_inner_conjugations(chain2, ZMod(3))
    assert report.passed
    assert report.counts["units"] == 12
    assert report.counts["induced"] == 2


def test_verify_inner_conjugations_preorder():
    pre = inflate(close_relations("ab", [("a", "b")]), (2, 1))
    report = verify_inner_conjugations(pre, ZMod(2))
    assert report.passed
    assert report.counts["units"] == 24
    assert report.counts["induced"] == 1


@pytest.mark.parametrize("n, units", [(3, 1296), (4, 4096)])
def test_verify_inner_conjugations_where_mult_exceeds_inner(crown, n, units):
    """On the crown Mult = Inn x T with T of order 2, so conjugations
    induce the 8 coboundaries, not the 16 weight systems."""
    report = verify_inner_conjugations(crown, ZMod(n))
    assert report.passed
    assert report.counts["units"] == units
    induced = report.counts["induced"]
    assert induced == len(enumerate_inner(crown.quotient(), ZMod(n))) == 8
    assert induced < len(enumerate_mult(crown.quotient(), ZMod(n))) == 16


def test_verify_bimodule_scalars():
    for nrows, ncols, n, endos, autos in (
        (1, 1, 2, 2, 1),
        (1, 1, 3, 3, 2),
        (2, 1, 2, 2, 1),
        (1, 2, 2, 2, 1),
        (1, 1, 4, 4, 2),
        (1, 1, 6, 6, 2),
        (2, 1, 3, 3, 2),
    ):
        report = verify_bimodule_scalars(nrows, ncols, ZMod(n))
        assert report.passed
        assert report.counts["endomorphisms"] == endos
        assert report.counts["automorphisms"] == autos


def test_bimodule_sweep_needs_a_zmod_base():
    with pytest.raises(NotImplementedError) as err:
        verify_bimodule_scalars(1, 1, parse_ring_spec("Z/2 x Z/3"))
    assert str(err.value) == "bimodule sweep is implemented for Z/n bases"


def test_bimodule_guard_runs_before_any_matrix_is_built():
    """M(3x4,Z/3) has 3^12 = 531,441 matrices; the guard refuses its
    531441^12 additive maps before listing one."""
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as refused:
            verify_bimodule_scalars(3, 4, ZMod(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "531441^12 additive maps exceed the guard 1000000"
    assert peak < 10 ** 6


def test_automorphism_check_detects_corruption(crown):
    q = crown.quotient()
    good = WeightSystem.from_values(
        q, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 3})
    assert automorphism_check(good, seed=11).passed
    # a chain-condition violation shows up as a failed multiplicativity trial
    chain3 = close_relations("abc", [("a", "b"), ("b", "c")])
    bad = WeightSystem.from_values(
        chain3.quotient(), ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 2})
    report = automorphism_check(bad, seed=11)
    assert not report.passed
    assert report.seed == 11
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].details["witness"]


def test_matrix_embedding_check(chain3):
    assert matrix_embedding_check(chain3, ZMod(12), seed=3).passed


def test_all_posets_counts():
    assert [len(all_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]
    assert len(connected_posets(5)) == 1 + 1 + 3 + 10 + 44
    with pytest.raises(ValueError):
        all_posets(6)


def test_verify_poset_passes_on_every_disconnected_poset(capsys, tmp_path):
    """Oracle agreement on all 28 disconnected posets with at most five
    points, through verify --poset, at the default root and at the last
    class, over the sweep rings, a matrix ring and a product ring."""
    rings = ",".join(DEFAULT_SUITE_RINGS + ("M(2,Z/3)", "Z/2 x Z/3"))
    posets = [p for n in range(1, 6) for p in all_posets(n)
              if len(tree_of(p.quotient()).components) > 1]
    assert len(posets) == 28
    path = tmp_path / "poset.txt"
    for poset in posets:
        path.write_text(preorder_to_text(poset))
        for root in ([], ["--root", poset.quotient().reps[-1]]):
            code = run_command(["verify", "--poset", str(path), "--ring", rings, *root])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0 and len(lines) == 8
            assert all(line.startswith("PASS ") for line in lines), lines


def test_all_posets_pairwise_nonisomorphic():
    """No two 4-element representatives are isomorphic (checked by brute
    permutation), and all are genuine posets."""
    import itertools as it

    posets = all_posets(4)
    keys = []
    for p in posets:
        rel = {(x, y) for x, y in p.comparable_pairs()}
        labels = p.elements
        key = min(
            tuple(sorted((perm[labels.index(x)], perm[labels.index(y)]) for x, y in rel))
            for perm in it.permutations(range(4))
        )
        keys.append(key)
        assert p.quotient().n_classes == 4  # antisymmetry
    assert len(set(keys)) == len(posets)


def test_inflate_builds_preorder():
    base = close_relations("ab", [("a", "b")])
    pre = inflate(base, (2, 3))
    q = pre.quotient()
    assert q.classes == (("a1", "a2"), ("b1", "b2", "b3"))
    assert leq(pre, "b1", "b3") and leq(pre, "b3", "b1")
    assert lt(pre, "a2", "b2")
    with pytest.raises(ValueError):
        inflate(base, (2,))
    with pytest.raises(ValueError):
        inflate(base, (0, 1))


def test_run_full_suite_small(seed=5):
    reports = run_full_suite(seed=seed, max_classes=3)
    assert reports
    assert all(r.passed for r in reports)
    seeds = {r.seed for r in reports if r.seed is not None}
    assert seeds == {seed}
