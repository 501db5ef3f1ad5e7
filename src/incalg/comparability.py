"""Comparability graph of a quotient poset.

Vertices are the class representatives; there is one undirected edge for
every strictly comparable pair of classes, stored oriented with the
order-smaller class first, so edge s is the quotient's slot s.  The
graph builds its neighbour rows ``rows[i]``, the bitmask of the classes
strictly comparable to class i, from the quotient's up rows and strict
pairs.  Spanning forests live on class indices: breadth-first search
over those rows in ascending index, i.e. lexicographic, order, one tree
per component.  That is the one walk of the graph; the forest alone
holds the components, the non-tree slots (m - k + c, the cycle rank)
and each fundamental cycle once built.  Everything here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preorder_core import _bits


class GraphError(ValueError):
    """Invalid semi-paths: consecutive vertices that are not comparable."""


class ComparabilityGraph:
    """Vertices, edge count and neighbour rows; the forest has the rest."""

    def __init__(self, poset):
        self.poset = poset
        self.vertices = poset.reps  # ascending, like the class indices
        self.m = len(poset.index_pairs)  # edge s is slot s, labelled strict_pairs()[s]
        self.rows = rows = [row & ~(1 << i) for i, row in enumerate(poset._up)]
        for i, j in poset.index_pairs:  # the down half of each row
            rows[j] |= 1 << i

    def __repr__(self):
        return f"ComparabilityGraph({len(self.vertices)} vertices, {self.m} edges)"


@dataclass(frozen=True)
class FundamentalCycle:
    """Closed walk for one non-tree edge: the edge first, tree path back."""

    edge: tuple
    sequence: tuple

    def __str__(self):
        return "-".join(self.sequence)


class SpanningTree:
    """BFS spanning forest on class indices: a BFS tree from the root,
    then one from each unreached class in ascending index.

    ``components`` holds each tree's class representatives as a sorted
    tuple, the tuples sorted.  ``parent`` and ``depth`` are lists over
    the classes (a tree root's parent is None).  ``steps`` holds one
    ``(parent, child, slot, up)`` per tree edge in BFS order, tree by
    tree, where ``up`` says that parent < child, so the slot is (parent,
    child), not (child, parent).  ``non_tree_slots`` ascend; both ends
    of one lie in the same tree.  Each fundamental cycle is built once,
    by :meth:`cycle`, and kept; :func:`fundamental_cycles` lists them.
    ``root`` is the root's class representative; any member label of
    that class (or None, for the least class) picks the same forest.
    The forest holds no labels of its edges: the edge of step ``(parent,
    child, slot, up)`` is ``strict_pairs()[slot]``.
    """

    def __init__(self, graph: ComparabilityGraph, root=None):
        poset, self.graph = graph.poset, graph
        up, rows, slot_of, k = poset._up, graph.rows, poset.slot_of, poset.n_classes
        parent, depth, steps, components = [None] * k, [0] * k, [], []
        first = 0 if root is None else poset._c(root)
        self.root, seen = poset.reps[first], 0
        for start in (first, *range(k)):  # one BFS per component, roots in this order
            if seen >> start & 1:
                continue
            seen |= 1 << start
            order = [start]
            for a in order:  # grows while it is read: the BFS queue
                for b in _bits(rows[a] & ~seen):
                    seen |= 1 << b
                    parent[b], depth[b] = a, depth[a] + 1
                    order.append(b)
                    ascends = bool(up[a] >> b & 1)
                    steps.append((a, b, slot_of[a][b] if ascends else slot_of[b][a], ascends))
            components.append(tuple(poset.reps[i] for i in sorted(order)))
        self.components = sorted(components)
        self.parent, self.depth, self.steps = parent, depth, tuple(steps)
        in_tree = {s for _, _, s, _ in steps}
        self.non_tree_slots = tuple(s for s in range(graph.m) if s not in in_tree)
        self._cycles = {}

    def cycle(self, slot) -> FundamentalCycle:
        """The cycle of a non-tree slot: from the lexicographically smaller
        endpoint a across the edge to b, then up the tree from b to the
        meeting class and down to a."""
        if slot in self._cycles:  # a witness names the same few cycles again and again
            return self._cycles[slot]
        pair = self.graph.poset.index_pairs[slot]
        a, b = sorted(pair)
        parent, depth = self.parent, self.depth
        left, right = [b], [a]
        while a != b:  # climb the deeper end until the ends meet
            if depth[a] > depth[b]:
                a = parent[a]
                right.append(a)
            else:
                b = parent[b]
                left.append(b)
        reps = self.graph.vertices
        cycle = self._cycles[slot] = FundamentalCycle(
            edge=(reps[pair[0]], reps[pair[1]]),
            sequence=tuple(reps[i] for i in right[:1] + left + right[-2::-1]))
        return cycle

    def __repr__(self):
        return f"SpanningTree(root={self.root!r}, {len(self.steps)} edges)"


def spanning_tree(graph: ComparabilityGraph, root=None) -> SpanningTree:
    """BFS forest from the root (default: the least vertex, ``vertices[0]``)."""
    return SpanningTree(graph, root)


def tree_of(poset, root=None) -> SpanningTree:
    """The BFS forest of a quotient poset's comparability graph for a root.

    Graph and trees are built once and cached on the poset, which never
    changes; the cache key is the resolved root, so None and the least
    class share one tree.
    """
    root = poset.reps[0] if root is None else poset.rep(root)
    tree = poset._trees.get(root)
    if tree is None:
        if poset._graph is None:
            poset._graph = ComparabilityGraph(poset)
        tree = poset._trees[root] = spanning_tree(poset._graph, root)
    return tree


def fundamental_cycles(graph: ComparabilityGraph, tree: SpanningTree):
    """One :class:`FundamentalCycle` per non-tree slot, in slot order: a
    new tuple on each call, of cycles each built once per tree."""
    return tuple(map(tree.cycle, tree.non_tree_slots))


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

