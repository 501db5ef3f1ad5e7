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
