import pytest

from incalg.preorder_core import close_relations


@pytest.fixture
def chain2():
    return close_relations("ab", [("a", "b")])


@pytest.fixture
def chain3():
    return close_relations("abc", [("a", "b"), ("b", "c")])


@pytest.fixture
def crown():
    """Two minimal elements under two maximal ones; the smallest poset
    whose comparability graph has a cycle."""
    return close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


@pytest.fixture
def diamond():
    return close_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@pytest.fixture
def preorder_21():
    """Preorder a1 ~ a2 < b1: one doubled class over the 2-chain."""
    return close_relations(
        ["a1", "a2", "b1"],
        [("a1", "a2"), ("a2", "a1"), ("a1", "b1")],
    )


@pytest.fixture
def crown_txt(tmp_path, crown):
    from incalg.preorder_core import preorder_to_text

    path = tmp_path / "crown.txt"
    path.write_text(preorder_to_text(crown))
    return str(path)


@pytest.fixture
def chain3_txt(tmp_path, chain3):
    from incalg.preorder_core import preorder_to_text

    path = tmp_path / "chain3.txt"
    path.write_text(preorder_to_text(chain3))
    return str(path)


@pytest.fixture(scope="session")
def chain1100():
    """A 1,100-element chain: deep enough to overflow any per-class recursion."""
    labels = [f"c{i:04d}" for i in range(1100)]
    return close_relations(labels, list(zip(labels, labels[1:])))


def _boolean_lattice(bits):
    labels = ["b" + format(s, f"0{bits}b") for s in range(1 << bits)]
    return close_relations(labels, [(labels[s], labels[s | 1 << b])
                                    for s in range(1 << bits) for b in range(bits)
                                    if not s >> b & 1])


def _crown_tower(half, height):
    """A crown on 2*half points (a_p below b_p and b_(p+1 mod half))
    times a chain of the given height, ordered componentwise."""
    points = [f"a{p}" for p in range(half)] + [f"b{p}" for p in range(half)]
    below = [(f"a{p}", f"b{q}") for p in range(half) for q in (p, (p + 1) % half)]
    labels = [f"{pt}_{lvl}" for pt in points for lvl in range(height)]
    rels = [(f"{pt}_{lvl}", f"{pt}_{lvl + 1}") for pt in points for lvl in range(height - 1)]
    rels += [(f"{lo}_{lvl}", f"{hi}_{lvl}") for lo, hi in below for lvl in range(height)]
    return close_relations(labels, rels)


@pytest.fixture(scope="session")
def boolean6():
    """The boolean lattice B_6: 64 classes, 665 strict pairs."""
    return _boolean_lattice(6)


@pytest.fixture(scope="session")
def gate_posets():
    """Posets for the cover-only chain check: every connected poset with
    at most 5 points and its dual, B_4, a 10-chain with classes of 1 to 3
    members, and a 6-crown times a 3-chain."""
    from incalg.oracle import connected_posets
    from reference import inflate

    small = connected_posets(5)
    duals = [close_relations(p.elements, [(y, x) for x, y in p.comparable_pairs()])
             for p in small]
    chain = close_relations([f"c{i}" for i in range(10)],
                            [(f"c{i}", f"c{i + 1}") for i in range(9)])
    larger = [_boolean_lattice(4), inflate(chain, [1, 2, 3] * 3 + [2]), _crown_tower(3, 3)]
    return list(small) + duals + larger
