"""Weight systems on a quotient poset and the automorphisms they induce.

A weight system assigns a central unit to every strictly comparable pair
of classes.  Systems satisfying the chain condition

    c[x,y] = c[x,z] * c[z,y]   for every x < z < y

correspond exactly to the automorphisms of the incidence algebra that fix
every class-diagonal function and scale each cross-class block; those
automorphisms form an abelian group under composition, mirrored here by
pointwise multiplication of weights.

Coboundary systems c[x,y] = v[x]^-1 v[y] for a vertex potential v are the
ones induced by conjugation with a unit.  Whether a system is a coboundary
is decided on the comparability graph by one walk: propagate a potential v
along a spanning tree and form w1[x,y] = c[x,y] v[x] v[y]^-1, one on the
tree edges.  Each fundamental cycle weighs w1 on its non-tree edge
(inverted when the cycle crosses it upwards), so c is inner iff w1 = 1,
and c = w1 * (coboundary of v) is the unique tree-trivial decomposition.

``WeightSystem(...)`` and ``Potential(...)`` trust their arguments, like
``IncidenceFunction(...)``: values keyed by class representatives, total,
central units.  Input from outside goes through the validating
``from_values`` classmethods (or the JSON readers, which use the same
check), so internal builders never re-check what they construct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_rings import parse_ring_spec
from .comparability import FundamentalCycle, fundamental_cycle, fundamental_cycles, tree_of
from .incidence_algebra import IncidenceFunction, read_records, write_records


class WeightSystemError(ValueError):
    """Totality, centrality, carrier, or chain-condition violations."""


def _checked(ring, values, canon, allowed, what):
    """Validated central-unit assignment, keyed canonically.

    ``values`` is a mapping or an iterable of (key, value) items.  Each
    key, mapped through ``canon``, must lie in ``allowed`` and occur once;
    every value must be a central unit of the ring; all of ``allowed``
    must be covered.
    """
    items = values.items() if isinstance(values, dict) else values
    norm = {}
    for key, v in items:
        c = canon(key)
        if c not in allowed:
            raise WeightSystemError(f"{key!r} is not {what}")
        if c in norm:
            raise WeightSystemError(f"duplicate value for {what} {c!r}")
        ring.check(v)
        if not ring.is_central_unit(v):
            raise WeightSystemError(
                f"value {ring.format_element(v)} at {c!r} is not a central unit of {ring}"
            )
        norm[c] = v
    if len(norm) < len(allowed):
        raise WeightSystemError(f"missing values for {sorted(allowed - norm.keys())}")
    return norm


def _class_pair(poset):
    return lambda pair: (poset.rep(pair[0]), poset.rep(pair[1]))


class WeightSystem:
    """Total assignment of central units to the strict class pairs.

    The constructor trusts its arguments; :meth:`from_values` validates.
    The chain condition is checked separately via :meth:`violations`, so
    invalid candidates can exist as objects (the oracle filters them, the
    CLI reports them).
    """

    __slots__ = ("poset", "ring", "values", "_key", "_violations")

    def __init__(self, poset, ring, values):
        # trusted constructor: callers guarantee rep-keyed, total, central-unit values
        self.poset = poset
        self.ring = ring
        self.values = values
        self._key = None
        self._violations = None

    @classmethod
    def from_values(cls, poset, ring, values) -> "WeightSystem":
        """Build from {(x, y): value} or (pair, value) items, validating.

        Labels may name any class member; every strictly comparable class
        pair needs exactly one central-unit value.
        """
        allowed = frozenset(poset.strict_pairs())
        return cls(poset, ring, _checked(
            ring, values, _class_pair(poset), allowed, "a strictly comparable pair"))

    def value(self, x, y):
        pair = (self.poset.rep(x), self.poset.rep(y))
        try:
            return self.values[pair]
        except KeyError:
            raise WeightSystemError(f"no weight for pair ({x}, {y})") from None

    def items(self):
        return sorted(self.values.items())

    def key(self):
        """Canonical hashable form, used for dedup and set membership."""
        if self._key is None:
            self._key = tuple(self.items())
        return self._key

    def violations(self):
        """Triples (x, z, y) with x < z < y where the chain condition fails.

        Computed once per instance; callers must not mutate the list.
        """
        if self._violations is None:
            ring, poset, c = self.ring, self.poset, self.values
            out = []
            for x, y in poset.strict_pairs():
                for z in poset.reps:
                    if poset.lt(x, z) and poset.lt(z, y):
                        if c[(x, y)] != ring.mul(c[(x, z)], c[(z, y)]):
                            out.append((x, z, y))
            self._violations = out
        return self._violations

    def is_valid(self) -> bool:
        return not self.violations()

    @classmethod
    def identity(cls, poset, ring) -> "WeightSystem":
        one = ring.one()
        return cls(poset, ring, {p: one for p in poset.strict_pairs()})

    def __mul__(self, other):
        _same_carrier(self, other)
        ring = self.ring
        return WeightSystem(
            self.poset,
            ring,
            {p: ring.mul(v, other.values[p]) for p, v in self.values.items()},
        )

    def inverse(self) -> "WeightSystem":
        ring = self.ring
        return WeightSystem(
            self.poset, ring, {p: ring.inverse(v) for p, v in self.values.items()}
        )

    def apply(self, f: IncidenceFunction) -> IncidenceFunction:
        """Scale each cross-class entry of f by its class-pair weight."""
        if f.ring != self.ring or f.preorder != self.poset.source:
            raise WeightSystemError("function carrier does not match the weight system")
        cls = self.poset.class_of
        reps = self.poset.reps
        ring = self.ring
        out = {}
        for (s, t), v in f.entries.items():
            ci, cj = cls[s], cls[t]
            if ci == cj:
                out[(s, t)] = v
            else:
                out[(s, t)] = ring.mul(self.values[(reps[ci], reps[cj])], v)
        return IncidenceFunction(f.preorder, f.ring, out)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, WeightSystem)
            and other.ring == self.ring
            and other.poset == self.poset
            and other.values == self.values
        )

    def __hash__(self):
        return hash((str(self.ring), self.key()))

    def __repr__(self):
        return f"WeightSystem({len(self.values)} pairs over {self.ring})"


def _same_carrier(a, b):
    if a.ring != b.ring or a.poset != b.poset:
        raise WeightSystemError("weight systems live on different carriers")


class Potential:
    """Central unit attached to every class, keyed by representative.

    The constructor trusts its arguments; :meth:`from_values` validates.
    """

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset, ring, values):
        # trusted constructor: callers guarantee rep-keyed, total, central-unit values
        self.poset = poset
        self.ring = ring
        self.values = values

    @classmethod
    def from_values(cls, poset, ring, values) -> "Potential":
        """Build from {x: value} or (x, value) items, validating.

        Labels may name any class member; every class needs exactly one
        central-unit value.
        """
        allowed = frozenset(poset.reps)
        return cls(poset, ring, _checked(ring, values, poset.rep, allowed, "a class"))

    def value(self, x):
        return self.values[self.poset.rep(x)]

    def items(self):
        return sorted(self.values.items())

    def __eq__(self, other):
        return (
            isinstance(other, Potential)
            and other.ring == self.ring
            and other.poset == self.poset
            and other.values == self.values
        )

    def __repr__(self):
        return f"Potential({len(self.values)} classes over {self.ring})"


@dataclass(frozen=True)
class NotInnerWitness:
    """A fundamental cycle whose weight is not one."""

    cycle: FundamentalCycle
    weight: object

    def __str__(self):
        return f"cycle {self.cycle} has non-unit weight"


def from_potential(potential: Potential) -> WeightSystem:
    """Coboundary weights c[x,y] = v[x]^-1 v[y]."""
    ring = potential.ring
    v = potential.values
    inv = {x: ring.inverse(u) for x, u in v.items()}
    values = {(x, y): ring.mul(inv[x], v[y]) for x, y in potential.poset.strict_pairs()}
    return WeightSystem(potential.poset, ring, values)


def from_tree(tree, ring, tree_values) -> WeightSystem:
    """Extend central-unit values on the spanning-tree edges to a full system.

    Each pair gets the product of the step weights along its tree
    semi-path, which is the coboundary of the tree propagation.
    """
    poset = tree.graph.poset
    weights = _checked(ring, tree_values, _class_pair(poset), tree.tree_edges, "a tree edge")
    return from_potential(_propagate(weights, tree, ring))


def _require_valid(ws: WeightSystem):
    bad = ws.violations()
    if bad:
        raise WeightSystemError(f"chain condition fails at triples {bad[:5]}")


def _propagate(weights, tree, ring) -> Potential:
    """Potential with value one at the root, pushed along the tree edges.

    ``weights`` maps each tree edge (x, y), x below y, to its weight.
    """
    values = {tree.root: ring.one()}
    for child in tree.bfs_order[1:]:
        parent = tree.parent[child]
        step = weights.get((parent, child))
        if step is None:
            step = ring.inverse(weights[(child, parent)])
        values[child] = ring.mul(values[parent], step)
    return Potential(tree.graph.poset, ring, values)


def _tree_split(ws: WeightSystem, root):
    """The one tree walk of a valid ws: (tree, v, w1), v propagated from one
    at the root and w1[x,y] = c[x,y] v[x] v[y]^-1 in one pass over the pairs."""
    _require_valid(ws)
    tree = tree_of(ws.poset, root)
    ring = ws.ring
    potential = _propagate(ws.values, tree, ring)
    v, mul = potential.values, ring.mul
    inv = {x: ring.inverse(u) for x, u in v.items()}
    w1 = {(x, y): mul(mul(c, v[x]), inv[y]) for (x, y), c in ws.values.items()}
    return tree, potential, w1


def _cycle_value(ring, w1, cycle: FundamentalCycle):
    """``comparability.cycle_weight`` of a cycle: w1 on its edge, inverted
    when the stored sequence crosses the edge upwards."""
    w = w1[cycle.edge]
    return w if cycle.sequence[0] == cycle.edge[1] else ring.inverse(w)


def find_potential(ws: WeightSystem, root=None):
    """Reconstruct a vertex potential, or witness that none exists.

    Propagates from the root along a BFS spanning tree; the potential is
    the answer iff the tree-trivial factor w1 is one on every non-tree
    edge.  Returns a :class:`Potential`, or a :class:`NotInnerWitness`
    holding the first fundamental cycle with non-unit weight.
    """
    tree, potential, w1 = _tree_split(ws, root)
    one = ws.ring.one()
    for edge in tree.non_tree_edges:
        if w1[edge] != one:
            cycle = fundamental_cycle(tree, edge)
            return NotInnerWitness(cycle=cycle, weight=_cycle_value(ws.ring, w1, cycle))
    return potential


def is_inner_cycles(ws: WeightSystem, root=None):
    """Cycle-weight criterion: inner iff every fundamental cycle has weight one.

    Returns (answer, report) where report lists (cycle, weight) pairs.
    """
    tree, _, w1 = _tree_split(ws, root)
    one = ws.ring.one()
    report = tuple((c, _cycle_value(ws.ring, w1, c))
                   for c in fundamental_cycles(tree.graph, tree))
    return all(w == one for _, w in report), report


def decompose(ws: WeightSystem, root=None):
    """Split ws = w1 * w0 with w1 trivial on the tree edges and w0 a coboundary.

    Returns (w1, w0, potential) where w0 = from_potential(potential) and
    the potential is the tree propagation of ws with value one at the root.
    """
    _, potential, w1 = _tree_split(ws, root)
    return WeightSystem(ws.poset, ws.ring, w1), from_potential(potential), potential


def to_mult_function(ws: WeightSystem) -> IncidenceFunction:
    """Incidence function acting by Hadamard product exactly as ws.apply:
    one on within-class pairs, the class-pair weight on cross pairs."""
    source = ws.poset.source
    cls = ws.poset.class_of
    reps = ws.poset.reps
    one = ws.ring.one()
    entries = {}
    for s, t in source.comparable_pairs():
        ci, cj = cls[s], cls[t]
        entries[(s, t)] = one if ci == cj else ws.values[(reps[ci], reps[cj])]
    return IncidenceFunction(source, ws.ring, entries)


def from_mult_function(m: IncidenceFunction) -> WeightSystem:
    """Inverse of :func:`to_mult_function`.

    Accepts exactly the multiplicative m with central-unit values: the
    block values at the class representatives must form a valid weight
    system whose multiplicative function is m, i.e. m is one inside the
    classes and constant on each class block.
    """
    quotient = m.preorder.quotient()
    ws = WeightSystem.from_values(
        quotient, m.ring, [(p, m.value(*p)) for p in quotient.strict_pairs()])
    _require_valid(ws)
    if to_mult_function(ws) != m:
        raise WeightSystemError("function is not one inside classes and constant on class blocks")
    return ws


def from_point_map(potential: Potential) -> IncidenceFunction:
    """Multiplicative function of a point potential: m(x,y) = v[x]^-1 v[y]."""
    return to_mult_function(from_potential(potential))


def weight_system_to_json(ws: WeightSystem) -> str:
    fmt = ws.ring.format_element
    rows = [(x, y, fmt(v)) for (x, y), v in ws.items()]
    return write_records({"ring": str(ws.ring)}, "weights", ("from", "to", "value"), rows)


def _read_ring_records(text, what, list_key, fields, poset, ring):
    """Ring and rows of a weight or potential file; labels must be class
    representatives (the first ``len(fields) - 1`` fields of each row)."""
    obj, rows = read_records(text, what, list_key, fields, WeightSystemError)
    if "ring" not in obj:
        raise WeightSystemError(f'{what} file needs a "ring"')
    file_ring = parse_ring_spec(obj["ring"])
    if ring is not None and ring != file_ring:
        raise WeightSystemError(f"file ring {file_ring} does not match expected ring {ring}")
    for lab in dict.fromkeys(lab for row in rows for lab in row[:-1]):
        if poset.rep(lab) != lab:
            raise WeightSystemError(
                f"label {lab!r} is not a class representative (expected {poset.rep(lab)!r})"
            )
    return (file_ring if ring is None else ring), rows


def weight_system_from_json(text: str, poset, ring=None) -> WeightSystem:
    use, rows = _read_ring_records(text, "weight-system", "weights", ("from", "to", "value"),
                                   poset, ring)
    return WeightSystem.from_values(
        poset, use, [((x, y), use.parse_element(v)) for x, y, v in rows])


def load_weight_system(path, poset, ring=None) -> WeightSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return weight_system_from_json(fh.read(), poset, ring)


def potential_to_json(potential: Potential) -> str:
    fmt = potential.ring.format_element
    rows = [(x, fmt(v)) for x, v in potential.items()]
    return write_records({"ring": str(potential.ring)}, "values", ("class", "value"), rows)


def potential_from_json(text: str, poset, ring=None) -> Potential:
    use, rows = _read_ring_records(text, "potential", "values", ("class", "value"), poset, ring)
    return Potential.from_values(poset, use, [(x, use.parse_element(v)) for x, v in rows])
