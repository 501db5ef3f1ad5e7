"""Comparability graph of a quotient poset.

Vertices are the class representatives; there is one undirected edge for
every strictly comparable pair of classes, stored oriented with the
order-smaller class first.  Spanning trees use breadth-first search with
lexicographic neighbour order, so every derived object here is
deterministic for a given input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Disconnected inputs, unknown vertices, or invalid semi-paths."""


class ComparabilityGraph:
    def __init__(self, poset):
        self.poset = poset
        self.vertices = tuple(sorted(poset.reps))
        self.edges = tuple(poset.strict_pairs())
        adjacency = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adjacency[x].add(y)
            adjacency[y].add(x)
        self.adjacency = {v: tuple(sorted(nbrs)) for v, nbrs in adjacency.items()}
        self.m = len(self.edges)
        self.components = poset.connected_components()
        self.cyclomatic = self.m - len(self.vertices) + len(self.components)

    def __repr__(self):
        return f"ComparabilityGraph({len(self.vertices)} vertices, {self.m} edges)"


class SpanningTree:
    """BFS spanning tree; holds parents, depths, and the edge partition."""

    def __init__(self, graph: ComparabilityGraph, root: str):
        self.graph = graph
        self.root = root
        parent = {root: None}
        depth = {root: 0}
        order = [root]
        queue = deque([root])
        tree_edges = set()
        while queue:
            v = queue.popleft()
            for w in graph.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
                    tree_edges.add((v, w) if graph.poset.lt(v, w) else (w, v))
                    queue.append(w)
        if len(order) != len(graph.vertices):
            missing = sorted(set(graph.vertices) - set(order))
            raise GraphError(f"comparability graph is not connected; unreached: {missing}")
        self.parent = parent
        self.depth = depth
        self.bfs_order = tuple(order)
        self.tree_edges = frozenset(tree_edges)
        self.non_tree_edges = tuple(e for e in graph.edges if e not in tree_edges)

    def path(self, x, y):
        """Vertex sequence of the unique tree semi-path from x to y."""
        x = self.graph.poset.rep(x)
        y = self.graph.poset.rep(y)
        for v in (x, y):
            if v not in self.parent:
                raise GraphError(f"{v!r} is not a vertex of the spanning tree")
        left, right = [x], [y]
        a, b = x, y
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
            left.append(a)
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
            right.append(b)
        while a != b:
            a = self.parent[a]
            left.append(a)
            b = self.parent[b]
            right.append(b)
        return tuple(left + right[-2::-1])

    def __repr__(self):
        return f"SpanningTree(root={self.root!r}, {len(self.tree_edges)} edges)"


def spanning_tree(graph: ComparabilityGraph, root=None) -> SpanningTree:
    """BFS tree from the root (default: lexicographically least vertex)."""
    if root is None:
        root = min(graph.vertices)
    else:
        root = graph.poset.rep(root)
    return SpanningTree(graph, root)


def tree_of(poset, root=None) -> SpanningTree:
    """The BFS tree of a quotient poset's comparability graph for a root.

    Graph and trees are built once and cached on the poset, which never
    changes; the cache key is the resolved root, so None and the least
    class share one tree.
    """
    root = min(poset.reps) if root is None else poset.rep(root)
    tree = poset._trees.get(root)
    if tree is None:
        if poset._graph is None:
            poset._graph = ComparabilityGraph(poset)
        tree = poset._trees[root] = spanning_tree(poset._graph, root)
    return tree


@dataclass(frozen=True)
class FundamentalCycle:
    """Closed walk for one non-tree edge: the edge first, tree path back."""

    edge: tuple
    sequence: tuple

    def __str__(self):
        return "-".join(self.sequence)


def fundamental_cycle(tree: SpanningTree, edge) -> FundamentalCycle:
    """The cycle of one non-tree edge.

    The stored sequence starts at the lexicographically smaller endpoint
    and crosses the non-tree edge first.
    """
    s, t = min(edge), max(edge)
    return FundamentalCycle(edge=edge, sequence=(s,) + tree.path(t, s))


def fundamental_cycles(graph: ComparabilityGraph, tree: SpanningTree):
    """One cycle per non-tree edge, in sorted edge order."""
    return tuple(fundamental_cycle(tree, edge) for edge in tree.non_tree_edges)


def path_weight(ws, path):
    """Product of step weights along a semi-path.

    An ascending step x < y contributes the pair weight c[x,y]; a
    descending step contributes the inverse.  Empty and single-vertex
    paths yield one.  Definitional reference for tests; not called at runtime.
    """
    ring = ws.ring
    poset = ws.poset
    acc = ring.one()
    for u, v in zip(path, path[1:]):
        if poset.lt(u, v):
            step = ws.value(u, v)
        elif poset.lt(v, u):
            step = ring.inverse(ws.value(v, u))
        else:
            raise GraphError(f"consecutive vertices {u!r}, {v!r} are not strictly comparable")
        acc = ring.mul(acc, step)
    return acc


def cycle_weight(ws, cycle: FundamentalCycle):
    """Weight of a fundamental cycle, traversed tree-path first.

    The stored sequence crosses the non-tree edge first; the weight is
    taken along the reversed sequence, i.e. the tree semi-path followed by
    the closing edge step.  The opposite traversal gives the inverse
    value; triviality (weight one) does not depend on the direction.
    Definitional reference for tests, like :func:`path_weight`.
    """
    return path_weight(ws, tuple(reversed(cycle.sequence)))


def simple_semi_paths(graph: ComparabilityGraph, x, y):
    """All simple semi-paths from x to y, in lexicographic vertex order."""
    x = graph.poset.rep(x)
    y = graph.poset.rep(y)
    out = []

    def extend(path, seen):
        v = path[-1]
        if v == y:
            out.append(tuple(path))
            return
        for w in graph.adjacency[v]:
            if w not in seen:
                path.append(w)
                seen.add(w)
                extend(path, seen)
                seen.remove(w)
                path.pop()

    extend([x], {x})
    return out
