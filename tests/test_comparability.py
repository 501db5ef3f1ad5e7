import random
from collections import deque

import pytest

from incalg.coeff_rings import ZMod
from incalg.comparability import (
    ComparabilityGraph,
    GraphError,
    fundamental_cycles,
    path_weight,
    spanning_tree,
    tree_of,
)
from incalg.mult_automorphisms import WeightSystem
from incalg.oracle import all_posets
from incalg.preorder_core import close_relations
from reference import cycle_weight, inflate, simple_semi_paths


def test_graph_of_crown(crown):
    g = ComparabilityGraph(crown.quotient())
    assert g.vertices == ("a", "b", "c", "d")
    assert g.poset.strict_pairs() == [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    assert g.m == 4
    assert len(spanning_tree(g).non_tree_slots) == 1


def test_graph_of_chain(chain3):
    g = ComparabilityGraph(chain3.quotient())
    assert g.m == 3
    assert len(spanning_tree(g).non_tree_slots) == 1  # a<b<c comparability graph is a triangle


def test_cyclomatic_counts_components():
    p = close_relations("abcd", [("a", "b")])
    g = ComparabilityGraph(p.quotient())
    t = spanning_tree(g)
    assert g.m == 1
    assert len(t.components) == 3
    assert len(t.non_tree_slots) == 1 - 4 + 3


def _tree_edges(tree):
    """The label pairs of the tree's edges, read off its steps."""
    pairs = tree.graph.poset.strict_pairs()
    return {pairs[slot] for _, _, slot, _ in tree.steps}


def test_spanning_tree_crown(crown):
    q = crown.quotient()
    g = ComparabilityGraph(q)
    t = spanning_tree(g)
    assert t.root == "a"
    assert sorted(_tree_edges(t)) == [("a", "c"), ("a", "d"), ("b", "c")]
    assert tuple(q.strict_pairs()[s] for s in t.non_tree_slots) == (("b", "d"),)
    # classes a, b, c, d are indices 0-3; slots (0,2), (0,3), (1,2), (1,3)
    assert t.parent == [None, 2, 0, 0]
    assert t.steps == ((0, 2, 0, True), (0, 3, 1, True), (2, 1, 2, False))
    assert t.non_tree_slots == (3,)
    # the tree path from d back to b closes the crown's one cycle
    assert str(t.cycle(3)) == "b-d-a-c-b"
    assert t.cycle(3).sequence == ("b", "d", "a", "c", "b")


def test_spanning_tree_other_root(crown):
    g = ComparabilityGraph(crown.quotient())
    t = spanning_tree(g, "b")
    assert t.root == "b"
    # every tree has n-1 edges and one leftover edge on the crown
    assert len(t.steps) == 3
    assert len(t.non_tree_slots) == 1


def test_spanning_tree_disconnected():
    """A disconnected graph gets a forest: c starts a second tree."""
    p = close_relations("abc", [("a", "b")])
    g = ComparabilityGraph(p.quotient())
    t = spanning_tree(g)
    assert t.steps == ((0, 1, 0, True),)
    assert t.parent == [None, 0, None]
    assert t.components == [("a", "b"), ("c",)]


def test_graphs_hold_no_forest_and_each_quotient_one_graph(crown):
    """A graph built directly walks nothing and counts no components:
    its forest does, and leaves no second graph on the quotient.  tree_of
    builds and caches one graph per quotient, shared by every root."""
    q = crown.quotient()
    g = ComparabilityGraph(q)
    assert not hasattr(g, "components") and not hasattr(g, "cyclomatic")
    t = spanning_tree(g)
    assert (len(t.components), len(t.non_tree_slots)) == (1, 1)
    assert q._graph is None
    graph = tree_of(q).graph
    assert q._graph is graph and tree_of(q, "d").graph is graph


def test_fundamental_cycles_crown(crown):
    g = ComparabilityGraph(crown.quotient())
    t = spanning_tree(g)
    cycles = fundamental_cycles(g, t)
    assert len(cycles) == len(t.non_tree_slots) == 1
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


def test_graph_rows_are_strict_comparability(seed=41):
    """rows[i] holds exactly the classes j != i comparable to class i, on
    every poset of at most 5 points and on preorders inflated over them."""
    rng = random.Random(seed)
    posets = [p for n in range(1, 6) for p in all_posets(n)]
    posets += [inflate(p, [rng.randint(1, 3) for _ in p.elements]) for p in posets[::7]]
    for poset in posets:
        q = poset.quotient()
        reps = q.reps
        assert ComparabilityGraph(q).rows == [
            sum(1 << j for j, y in enumerate(reps) if q.lt(x, y) or q.lt(y, x)) for x in reps]


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
    # w, x, y, z are indices 0-3; slots (0,1), (2,1), (2,3)
    assert [child for _, child, _, _ in t.steps] == [1, 2, 3]
    assert t.parent == [None, 0, 1, 2]
    assert t.depth == [0, 1, 2, 3]
    assert t.steps == ((0, 1, 0, True), (1, 2, 1, False), (2, 3, 2, True))
    assert t.non_tree_slots == ()


def _reference_tree(poset, root):
    """The label BFS that defines the tree: from the root, neighbours in
    label order, oriented tree edges, and the tree semi-path of two
    vertices by climbing parents from the deeper one."""
    adjacency = {v: sorted(w for w in poset.reps if poset.lt(v, w) or poset.lt(w, v))
                 for v in poset.reps}
    parent, depth, order = {root: None}, {root: 0}, [root]
    queue, tree_edges = deque([root]), set()
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
                tree_edges.add((v, w) if poset.lt(v, w) else (w, v))
                queue.append(w)

    def path(x, y):
        left, right = [x], [y]
        a, b = x, y
        while depth[a] > depth[b]:
            a = parent[a]
            left.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            right.append(b)
        while a != b:
            a = parent[a]
            left.append(a)
            b = parent[b]
            right.append(b)
        return tuple(left + right[-2::-1])

    non_tree = tuple(e for e in poset.strict_pairs() if e not in tree_edges)
    cycles = [(e, (min(e),) + path(max(e), min(e))) for e in non_tree]
    return order, parent, depth, tree_edges, non_tree, cycles


def test_index_tree_matches_label_reference(gate_posets):
    """Tree edges, BFS child order, parents, depths and every fundamental
    cycle of the index tree equal the label BFS, at every root."""
    for poset in gate_posets:
        q = poset.quotient()
        g, reps = ComparabilityGraph(q), q.reps
        for root in reps:
            t = spanning_tree(g, root)
            order, parent, depth, tree_edges, non_tree, cycles = _reference_tree(q, root)
            pairs = q.strict_pairs()
            assert _tree_edges(t) == tree_edges
            assert tuple(pairs[s] for s in t.non_tree_slots) == non_tree
            assert [reps[child] for _, child, _, _ in t.steps] == order[1:]
            assert {reps[i]: p if p is None else reps[p] for i, p in enumerate(t.parent)} == parent
            assert {reps[i]: d for i, d in enumerate(t.depth)} == depth
            for p, c, slot, up in t.steps:
                assert p == t.parent[c]
                assert pairs[slot] == ((reps[p], reps[c]) if up else (reps[c], reps[p]))
            assert [(c.edge, c.sequence) for c in fundamental_cycles(g, t)] == cycles
