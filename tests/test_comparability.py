import pytest

from incalg.coeff_rings import ZMod
from incalg.comparability import (
    ComparabilityGraph,
    GraphError,
    cycle_weight,
    fundamental_cycles,
    path_weight,
    simple_semi_paths,
    spanning_tree,
)
from incalg.mult_automorphisms import WeightSystem
from incalg.preorder_core import close_relations


def test_graph_of_crown(crown):
    g = ComparabilityGraph(crown.quotient())
    assert g.vertices == ("a", "b", "c", "d")
    assert g.edges == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
    assert g.m == 4
    assert g.cyclomatic == 1


def test_graph_of_chain(chain3):
    g = ComparabilityGraph(chain3.quotient())
    assert g.m == 3
    assert g.cyclomatic == 1  # a<b<c comparability graph is a triangle


def test_cyclomatic_counts_components():
    p = close_relations("abcd", [("a", "b")])
    g = ComparabilityGraph(p.quotient())
    assert g.m == 1
    assert g.cyclomatic == 1 - 4 + 3


def test_spanning_tree_crown(crown):
    g = ComparabilityGraph(crown.quotient())
    t = spanning_tree(g)
    assert t.root == "a"
    assert sorted(t.tree_edges) == [("a", "c"), ("a", "d"), ("b", "c")]
    assert t.non_tree_edges == (("b", "d"),)
    assert t.path("b", "d") == ("b", "c", "a", "d")
    assert t.path("c", "c") == ("c",)


def test_spanning_tree_other_root(crown):
    g = ComparabilityGraph(crown.quotient())
    t = spanning_tree(g, "b")
    assert t.root == "b"
    # every tree has n-1 edges and one leftover edge on the crown
    assert len(t.tree_edges) == 3
    assert len(t.non_tree_edges) == 1


def test_spanning_tree_disconnected():
    p = close_relations("abc", [("a", "b")])
    g = ComparabilityGraph(p.quotient())
    with pytest.raises(GraphError) as err:
        spanning_tree(g)
    assert "c" in str(err.value)


def test_fundamental_cycles_crown(crown):
    g = ComparabilityGraph(crown.quotient())
    t = spanning_tree(g)
    cycles = fundamental_cycles(g, t)
    assert len(cycles) == g.cyclomatic == 1
    assert str(cycles[0]) == "b-d-a-c-b"
    assert cycles[0].edge == ("b", "d")


def test_path_weight_directions(crown):
    q = crown.quotient()
    ws = WeightSystem.from_values(
        q, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 1}
    )
    # ascending steps multiply the weight, descending ones its inverse
    assert path_weight(ws, ("b", "c", "a", "d")) == 3  # 1 * inv(2) * 1 = 3
    assert path_weight(ws, ("b", "d")) == 1
    with pytest.raises(GraphError):
        path_weight(ws, ("c", "d"))


def test_cycle_weight_crown_witness(crown):
    """The leftover-edge cycle of the non-inner crown example carries
    weight 3; its inverse traversal carries the inverse weight."""
    q = crown.quotient()
    g = ComparabilityGraph(q)
    t = spanning_tree(g)
    cyc = fundamental_cycles(g, t)[0]
    ws = WeightSystem.from_values(
        q, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 1}
    )
    assert cycle_weight(ws, cyc) == 3
    inner = WeightSystem.from_values(
        q, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 3}
    )
    assert cycle_weight(inner, cyc) == 1


def test_simple_semi_paths(crown):
    g = ComparabilityGraph(crown.quotient())
    assert simple_semi_paths(g, "b", "d") == [("b", "c", "a", "d"), ("b", "d")]
    assert simple_semi_paths(g, "a", "a") == [("a",)]
    paths = simple_semi_paths(g, "a", "b")
    assert paths == [("a", "c", "b"), ("a", "d", "b")]


def test_bfs_depths_on_fence():
    # zigzag w < x > y < z: a path graph, so depths are forced
    p = close_relations("wxyz", [("w", "x"), ("y", "x"), ("y", "z")])
    t = spanning_tree(ComparabilityGraph(p.quotient()))
    assert t.bfs_order == ("w", "x", "y", "z")
    assert t.parent["y"] == "x"
    assert t.depth["z"] == 3
    assert t.non_tree_edges == ()
