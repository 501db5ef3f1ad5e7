import random

import pytest

import gen
import workloads
from arith import ring_from_spec


def _files(tmp_path, name, seed, label):
    out = tmp_path / label
    out.mkdir()
    workloads.build(name, seed, str(out))
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = _files(tmp_path, name, 7, "first")
    again = _files(tmp_path, name, 7, "again")
    other = _files(tmp_path, name, 8, "other")
    assert first and first == again
    if name != "verify-sweep":  # the sweep's files are the fixed enumeration
        assert first != other


def test_family_sizes():
    assert len(gen.chain(120).strict_pairs()) == 7140
    assert len(gen.boolean_lattice(8).strict_pairs()) == 6305
    tower, _ = gen.crown_tower(6, 8)
    n, m = len(tower.classes), len(tower.strict_pairs())
    assert (n, m, m - n + 1) == (96, 768, 673)


def test_small_posets_are_the_59_connected_ones():
    posets = gen.connected_small_posets(5)
    assert [sum(1 for n, _ in posets if n == k) for k in range(1, 6)] == [1, 1, 3, 10, 44]


def test_inflation_keeps_representatives_least():
    poset = gen.inflate(gen.chain(40), random.Random(3), 10)
    assert sorted(len(c) for c in poset.classes)[-10:] == [2] * 5 + [3] * 5
    assert all(c[0] == min(c) for c in poset.classes)


@pytest.mark.parametrize("spec", ["Z/7", "Z/2 x Z/3", "M(2,Z/3)"])
def test_pullback_satisfies_chain_condition_but_is_not_inner(spec):
    tower, nodes = gen.crown_tower(3, 3)
    ring = ring_from_spec(spec)
    w = gen.crown_cocycle_pullback(tower, nodes, ring, random.Random(1))
    k = len(tower.classes)
    for (i, j), c in w.items():
        for z in range(k):
            if tower.lt(i, z) and tower.lt(z, j):
                assert c == ring.mul(w[(i, z)], w[(z, j)])
    # a coboundary is one on every level-0 crown cycle; this one is not
    a = {nodes[i][0]: i for i in range(k) if nodes[i][1] == 0}
    h = ring.one
    for p in range(3):
        q = (p + 1) % 3
        h = ring.mul(h, ring.mul(w[(a["a", p], a["b", q])], ring.inv(w[(a["a", q], a["b", q])])))
    assert h != ring.one
