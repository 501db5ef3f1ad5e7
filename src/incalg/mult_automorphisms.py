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
is decided on the comparability graph: propagate a potential along a
spanning tree and compare on the remaining edges, or equivalently test all
fundamental cycle weights for one.  The decomposition splits any valid
system uniquely into a tree-trivial factor times a coboundary factor.

``WeightSystem(...)`` and ``Potential(...)`` trust their arguments, like
``IncidenceFunction(...)``: values keyed by class representatives, total,
central units.  Input from outside goes through the validating
``from_values`` classmethods (or the JSON readers, which use the same
check), so internal builders never re-check what they construct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_rings import parse_ring_spec
from .comparability import (
    FundamentalCycle, cycle_weight, fundamental_cycle, fundamental_cycles, tree_of)
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
    values = {
        (x, y): ring.mul(ring.inverse(v[x]), v[y]) for x, y in potential.poset.strict_pairs()
    }
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


def find_potential(ws: WeightSystem, root=None):
    """Reconstruct a vertex potential, or witness that none exists.

    Propagates from the root along a BFS spanning tree and compares the
    coboundary of the result with ws on the non-tree edges.  Returns a
    :class:`Potential`, or a :class:`NotInnerWitness` holding a
    fundamental cycle with non-unit weight.
    """
    _require_valid(ws)
    tree = tree_of(ws.poset, root)
    potential = _propagate(ws.values, tree, ws.ring)
    ring = ws.ring
    v = potential.values
    for edge in tree.non_tree_edges:
        x, y = edge
        if ws.values[edge] != ring.mul(ring.inverse(v[x]), v[y]):
            cycle = fundamental_cycle(tree, edge)
            return NotInnerWitness(cycle=cycle, weight=cycle_weight(ws, cycle))
    return potential


def is_inner_cycles(ws: WeightSystem, root=None):
    """Cycle-weight criterion: inner iff every fundamental cycle has weight one.

    Returns (answer, report) where report lists (cycle, weight) pairs.
    """
    _require_valid(ws)
    tree = tree_of(ws.poset, root)
    one = ws.ring.one()
    report = tuple((c, cycle_weight(ws, c)) for c in fundamental_cycles(tree.graph, tree))
    return all(w == one for _, w in report), report


def decompose(ws: WeightSystem, root=None):
    """Split ws = w1 * w0 with w1 trivial on the tree edges and w0 a coboundary.

    Returns (w1, w0, potential) where w0 = from_potential(potential) and
    the potential is the tree propagation of ws with value one at the root.
    """
    _require_valid(ws)
    potential = _propagate(ws.values, tree_of(ws.poset, root), ws.ring)
    w0 = from_potential(potential)
    w1 = ws * w0.inverse()
    return w1, w0, potential


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

    Requires central-unit values on all comparable pairs, the product
    identity m(x,y) = m(x,z) m(z,y) on chains x <= z <= y (which forces
    ones on the diagonal), and ones on within-class pairs.
    """
    preorder = m.preorder
    ring = m.ring
    quotient = preorder.quotient()
    pairs = preorder.comparable_pairs()
    for x, y in pairs:
        v = m.entries.get((x, y))
        if v is None or not ring.is_central_unit(v):
            raise WeightSystemError(f"value at ({x}, {y}) is not a central unit")
    for x, y in pairs:
        target = m.entries[(x, y)]
        for z in preorder.elements:
            if preorder.leq(x, z) and preorder.leq(z, y):
                if target != ring.mul(m.entries[(x, z)], m.entries[(z, y)]):
                    raise WeightSystemError(
                        f"multiplicativity fails on the chain ({x}, {z}, {y})"
                    )
    one = ring.one()
    cls = quotient.class_of
    for x, y in pairs:
        if cls[x] == cls[y] and m.entries[(x, y)] != one:
            raise WeightSystemError(f"within-class value at ({x}, {y}) must be one")
    values = {p: m.entries[p] for p in quotient.strict_pairs()}
    return WeightSystem.from_values(quotient, ring, values)


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
