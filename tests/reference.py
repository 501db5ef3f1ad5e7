"""Definitional references and fixture builders that only the tests use.

- ``cycle_weight`` and ``simple_semi_paths``: the step-by-step cycle
  weight and the list of all simple semi-paths, against which the tree
  walk and the innerness tests are checked.
- ``leq``, ``lt``, ``interval``, ``as_preorder`` and ``class_members``:
  plain queries on a preorder and its quotient, for the preorder and
  quotient properties.  No library code asks a ``Preorder`` whether two
  labels compare; ``QuotientPoset.lt`` stays, as ``path_weight`` calls it.
- ``matrix_is_invertible`` and ``random_unit``: random invertible
  functions for the inversion tests.
- ``inflate``: a preorder with given class sizes over a poset.

``comparability.path_weight``, ``comparability.fundamental_cycles``,
``mult_automorphisms.is_inner_cycles`` and
``incidence_algebra.is_unit_function`` are references of the same kind,
but they stay in the library while the benchmark's tracer
(``bench/spans.py``) wraps them by name.
"""

from incalg.coeff_rings import scalar_view
from incalg.comparability import ComparabilityGraph, FundamentalCycle, path_weight
from incalg.incidence_algebra import IncidenceFunction, _scalar_inverses
from incalg.preorder_core import Preorder, _bits, close_relations


def cycle_weight(ws, cycle: FundamentalCycle):
    """Weight of a fundamental cycle, traversed tree-path first.

    The stored sequence crosses the non-tree edge first; the weight is
    taken along the reversed sequence, i.e. the tree semi-path followed by
    the closing edge step.  The opposite traversal gives the inverse
    value; triviality (weight one) does not depend on the direction.
    """
    return path_weight(ws, tuple(reversed(cycle.sequence)))


def simple_semi_paths(graph: ComparabilityGraph, x, y):
    """All simple semi-paths from x to y, in lexicographic vertex order."""
    poset = graph.poset
    x, y = poset._c(x), poset._c(y)
    up, reps = poset._up, poset.reps
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in _bits(row):
            down[j] |= 1 << i
    out = []

    def extend(path, seen):
        v = path[-1]
        if v == y:
            out.append(tuple(reps[i] for i in path))
            return
        for w in _bits((up[v] | down[v]) & ~seen):
            path.append(w)
            extend(path, seen | 1 << w)
            path.pop()

    extend([x], 1 << x)
    return out


def leq(preorder, x, y) -> bool:
    return bool(preorder._up[preorder._i(x)] >> preorder._i(y) & 1)


def lt(preorder, x, y) -> bool:
    i, j = preorder._i(x), preorder._i(y)
    return bool(preorder._up[i] >> j & 1) and not preorder._up[j] >> i & 1


def interval(preorder, x, y):
    """Sorted tuple of all z with x <= z <= y."""
    i, j = preorder._i(x), preorder._i(y)
    out = [
        preorder.elements[k]
        for k in range(len(preorder.elements))
        if preorder._up[i] >> k & 1 and preorder._up[k] >> j & 1
    ]
    return tuple(sorted(out))


def as_preorder(q) -> Preorder:
    """The quotient itself as a preorder on the representative labels."""
    return close_relations(sorted(q.reps), q.strict_pairs())


def class_members(q, x):
    return q.classes[q._c(x)]


def matrix_is_invertible(ring, rows) -> bool:
    """Invertibility of a square matrix over the coefficient ring."""
    return _scalar_inverses(scalar_view(ring), rows) is not None


def random_unit(preorder, ring, rng, density=0.6) -> IncidenceFunction:
    """Random invertible function: invertible diagonal blocks, random strict part."""
    quotient = preorder.quotient()
    elements = ring.elements()
    units = [u for u in elements if ring.is_unit(u)]
    entries = []
    for members in quotient.classes:
        size = len(members)
        if size == 1:
            entries.append((members[0], members[0], units[rng.randrange(len(units))]))
            continue
        while True:
            mat = [
                [elements[rng.randrange(len(elements))] for _ in range(size)]
                for _ in range(size)
            ]
            if matrix_is_invertible(ring, mat):
                break
        for i, s in enumerate(members):
            for j, t in enumerate(members):
                entries.append((s, t, mat[i][j]))
    zero = ring.zero()
    cls = quotient._c
    for x, y in preorder.comparable_pairs():
        if cls(x) != cls(y) and rng.random() < density:
            entries.append((x, y, elements[rng.randrange(len(elements))]))
    return IncidenceFunction.from_entries(
        preorder, ring, [(x, y, v) for x, y, v in entries if v != zero]
    )


def inflate(poset: Preorder, sizes) -> Preorder:
    """Preorder whose classes have the given sizes over the given poset.

    Element i of the class over base label x is named x followed by its
    one-based index; members of one class are related both ways.
    """
    if len(sizes) != len(poset.elements):
        raise ValueError("need one class size per base element")
    members = {}
    labels = []
    for x, size in zip(poset.elements, sizes):
        if size < 1:
            raise ValueError("class sizes must be positive")
        members[x] = [f"{x}{i}" for i in range(1, size + 1)]
        labels.extend(members[x])
    gens = []
    for x in poset.elements:
        chain = members[x]
        for a, b in zip(chain, chain[1:]):
            gens.append((a, b))
        if len(chain) > 1:
            gens.append((chain[-1], chain[0]))
    for x, y in poset.comparable_pairs():
        if x != y:
            gens.append((members[x][0], members[y][0]))
    return close_relations(labels, gens)
