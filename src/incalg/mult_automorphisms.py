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
is decided on the comparability graph by one walk per call: propagate a
potential v along a spanning forest, one tree per component with v = 1 at
its root; w1[x,y] = c[x,y] v[x] v[y]^-1 is one on the tree edges.  Each
fundamental cycle weighs w1 on its non-tree edge (inverted when the
cycle crosses it upwards), so c is inner iff w1 = 1, and
c = w1 * (coboundary of v) is the unique tree-trivial decomposition.
A coboundary satisfies the chain condition (v[x]^-1 v[z] v[z]^-1 v[y] =
v[x]^-1 v[y]) and central units commute, so for every triple x < z < y

    c[x,y] / (c[x,z] c[z,y]) = w1[x,y] / (w1[x,z] w1[z,y]):

c fails exactly where w1 fails, and only at triples (a, z, b), (a, b, y)
or (x, a, b) around a slot (a, b) of F = {w1 != 1}.  So w1 = 1 proves c
valid, and the walks run the chain gate only where w1 is not one, to tell
invalid from outer, and hand their walk whole to ``violations``: it tests
the triples around F while those it gathers number fewer than the pairs.

The tree walk, the chain check (the gate and the violation scan),
coboundaries, products and inverses compute on plain ints:
``ring.scalars`` (see ``coeff_rings.scalar_codec``) splits the central
units into one Z/n scalar per factor of the scalar view (a unit of Z/n
itself, lambda for lambda I over M(k,Z/n), one per factor of a
product), each factor runs with ``a * b % n`` and ``pow(a, -1, n)``,
and the results are joined back.

``WeightSystem(...)`` and ``Potential(...)`` trust their arguments, like
``IncidenceFunction(...)``: a tuple of central units aligned to the
quotient's ``strict_pairs()`` (slot s is the pair ``index_pairs[s]``) or
to its ``reps`` (one value per class index).  Label-keyed input from
outside goes through the validating ``from_values`` classmethods (or the
weight file reader, which uses the same check), so internal builders
never re-check what they construct.  Potentials are written to files,
never read from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import itemgetter, mod, mul, ne

from .coeff_rings import parse_ring_spec
from .comparability import FundamentalCycle, fundamental_cycles, tree_of
from .incidence_algebra import (
    IncidenceFunction,
    format_values,
    parse_values,
    read_records,
    write_records,
    zeta,
)
from .preorder_core import PreorderError, _bits


class WeightSystemError(ValueError):
    """Totality, centrality, carrier, or chain-condition violations."""


def _checked(ring, values, canon, keys, what):
    """Validated central units, a tuple aligned to ``keys``.

    ``values`` is a mapping or an iterable of (key, value) items.  Each
    key, mapped through ``canon``, must be one of ``keys`` and occur once;
    every value must be a central unit of the ring; all of ``keys`` must
    be covered.
    """
    items = values.items() if isinstance(values, dict) else values
    allowed, norm = frozenset(keys), {}
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
    return tuple(map(norm.__getitem__, keys))


def _mismatches(cols, S, T, U):
    """The chain condition: per factor (n, c), lazily, c[S] != c[T] c[U] mod n."""
    return [map(ne, map(c.__getitem__, S), map(mod, map(mul, map(c.__getitem__, T),
                                                        map(c.__getitem__, U)), repeat(n)))
            for n, c in cols]


class WeightSystem:
    """Total assignment of central units to the strict class pairs.

    The constructor trusts its arguments; :meth:`from_values` validates.
    The chain condition is checked separately via :meth:`is_valid` and
    :meth:`violations`, so invalid candidates can exist as objects (the
    oracle filters them, the CLI reports them).
    """

    __slots__ = ("poset", "ring", "values", "_valid", "_handed")

    def __init__(self, poset, ring, values):
        # trusted constructor: callers guarantee a central-unit tuple aligned to strict_pairs()
        self.poset, self.ring, self.values = poset, ring, values
        self._valid = self._handed = None  # the gate's verdict; a walk handed to violations

    @classmethod
    def from_values(cls, poset, ring, values) -> "WeightSystem":
        """Build from {(x, y): value} or (pair, value) items, validating.

        Labels may name any class member; every strictly comparable class
        pair needs exactly one central-unit value.
        """
        return cls(poset, ring, _checked(ring, values, lambda p: (poset.rep(p[0]), poset.rep(p[1])),
                                         poset.strict_pairs(), "a strictly comparable pair"))

    def value(self, x, y):
        poset = self.poset
        slot = poset.slot_of[poset._c(x)].get(poset._c(y))
        if slot is None:
            raise WeightSystemError(f"no weight for pair ({x}, {y})")
        return self.values[slot]

    def items(self):
        """((x, y), value) in sorted pair order."""
        return list(zip(self.poset.strict_pairs(), self.values))

    def violations(self, limit=None):
        """Triples (x, z, y) with x < z < y where the chain condition fails,
        the first ``limit`` of them (all by default), by slot (x, y), then z.

        The scan reads F = {w1 != 1} off a walk, the caller's (handed over
        whole, forest and all, in ``_handed`` by :func:`_require_valid`) or
        its own, by C-level map chains; a failing triple touches F (see the
        module notes).  It gathers the triples each slot (a, b) of F
        touches, (a, z, b) for a < z < b, (a, b, y) for b < y and (x, a, b)
        for x < a, reading the forest's neighbour rows, and while the
        gathered count stays below the strict pairs it tests them: that is
        the gate's verdict and the whole list, and F = {} proves c valid
        with no gate and no ``_cover_triples``.  Past that budget (a valid
        non-inner system has a large F) the gate of :meth:`is_valid` runs
        and, only when it fails, the row scan: per row i, on
        ``poset.triples(i, strict up-set of i)``, the failures of every
        factor sorted by (slot (i, j), slot (i, z)), up to the row where
        ``limit`` is reached.
        """
        if self._valid:
            return []
        poset, pairs, reps = self.poset, self.poset.index_pairs, self.poset.reps.__getitem__
        tree, cols, vs = self._handed or _walk(self, None)
        up, rows, slot_of, near, out = poset._up, tree.graph.rows, poset.slot_of, [], []
        for a, b in map(pairs.__getitem__, chain.from_iterable(compress(count(), map(ne, map(
                mod, map(mul, c, map(v.__getitem__, map(itemgetter(0), pairs))), repeat(n)),
                map(v.__getitem__, map(itemgetter(1), pairs)))) for (n, c), v in zip(cols, vs))):
            near += zip(_bits(rows[a] & ~up[a]), repeat(b), repeat(a))  # (x, a, b), as (x, y, z)
            near += zip(repeat(a), repeat(b), _bits(rows[a] & up[a] & rows[b] & ~up[b]))  # a<z<b
            near += zip(repeat(a), slot_of[b], repeat(b))  # (a, b, y)
            if len(near) >= len(pairs):
                break
        else:  # sorted as (x, y, z): by slot (x, y), then slot (x, z)
            out = [(x, z, y) for x, y, z in sorted(set(near)) if any(
                c[slot_of[x][y]] != c[slot_of[x][z]] * c[slot_of[z][y]] % n for n, c in cols)]
            self._valid = not out
        if not out and not self.is_valid():  # past the budget, and the gate fails
            for i, row in enumerate(up):
                S, T, U = poset.triples(i, row & ~(1 << i))
                bad = set().union(*[compress(count(), m) for m in _mismatches(cols, S, T, U)])
                out += [(i, *pairs[U[p]]) for p in sorted(bad, key=lambda p: (S[p], T[p]))]
                if limit is not None and len(out) >= limit:
                    break
        return [tuple(map(reps, t)) for t in out[:limit]]

    def is_valid(self) -> bool:
        """Whether the chain condition holds: no factor has a mismatch over
        ``poset._cover_triples`` (none at height <= 1), the map chains
        stopping at the first one.  Covers suffice, by induction on [x,y]:
        for x < z < y pick a cover z' of x with z' <= z.  If z' = z the gate
        checked the triple.  Otherwise the gate gives c[x,y] = c[x,z'] c[z',y]
        and c[x,z] = c[x,z'] c[z',z], and induction on the shorter [z',y]
        gives c[z',y] = c[z',z] c[z,y]; so c[x,y] = c[x,z] c[z,y].  Cached
        per instance; set by a walk that shows ws a coboundary, and by
        :meth:`violations` when F settles the question."""
        if self._valid is None:
            S, T, U = self.poset._cover_triples
            self._valid = not S or not any(map(any, _mismatches(
                self.ring.scalars[0](self.values), S, T, U)))
        return self._valid

    @classmethod
    def identity(cls, poset, ring) -> "WeightSystem":
        return cls(poset, ring, (ring.one(),) * len(poset.index_pairs))

    def __mul__(self, other):
        if other.ring != self.ring or other.poset != self.poset:
            raise WeightSystemError("weight systems live on different carriers")
        split, join = self.ring.scalars
        cols = []
        for (n, a), (_, b) in zip(split(self.values), split(other.values)):
            cols.append(tuple([x * y % n for x, y in zip(a, b)]))
        return WeightSystem(self.poset, self.ring, join(cols))

    def inverse(self) -> "WeightSystem":
        split, join = self.ring.scalars
        cols = [tuple([pow(x, -1, n) for x in c]) for n, c in split(self.values)]
        return WeightSystem(self.poset, self.ring, join(cols))

    def apply(self, f: IncidenceFunction) -> IncidenceFunction:
        """Scale each cross-class entry of f by its class-pair weight."""
        if f.ring != self.ring or f.preorder != self.poset.source:
            raise WeightSystemError("function carrier does not match the weight system")
        cls, slot_of = self.poset.elem_class, self.poset.slot_of
        c, mul = self.values, self.ring.mul
        out = {}
        for (s, t), v in f.entries.items():
            ci, cj = cls[s], cls[t]
            out[(s, t)] = v if ci == cj else mul(c[slot_of[ci][cj]], v)
        return IncidenceFunction(f.preorder, f.ring, out)

    def __eq__(self, other):
        return self is other or (isinstance(other, WeightSystem) and other.ring == self.ring
                                 and other.poset == self.poset and other.values == self.values)

    def __hash__(self):
        return hash((str(self.ring), self.values))

    def __repr__(self):
        return f"WeightSystem({len(self.values)} pairs over {self.ring})"


class Potential:
    """Central unit attached to every class, a tuple aligned to ``reps``.

    The constructor trusts its arguments; :meth:`from_values` validates.
    """

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset, ring, values):
        # trusted constructor: callers guarantee a central-unit tuple aligned to reps
        self.poset, self.ring, self.values = poset, ring, values

    @classmethod
    def from_values(cls, poset, ring, values) -> "Potential":
        """Build from {x: value} or (x, value) items, validating.

        Labels may name any class member; every class needs exactly one
        central-unit value.
        """
        return cls(poset, ring, _checked(ring, values, poset.rep, poset.reps, "a class"))

    def items(self):
        """(representative, value) in sorted order."""
        return list(zip(self.poset.reps, self.values))

    def __eq__(self, other):
        return (isinstance(other, Potential) and other.ring == self.ring
                and other.poset == self.poset and other.values == self.values)

    def __repr__(self):
        return f"Potential({len(self.values)} classes over {self.ring})"


@dataclass(frozen=True)
class NotInnerWitness:
    """A fundamental cycle whose weight is not one."""

    cycle: FundamentalCycle
    weight: object


def from_potential(potential: Potential) -> WeightSystem:
    """Coboundary weights c[x,y] = v[x]^-1 v[y]."""
    (split, join), pairs = potential.ring.scalars, potential.poset.index_pairs
    cols = []
    for n, v in split(potential.values):
        inv = [pow(x, -1, n) for x in v]
        cols.append(tuple([inv[i] * v[j] % n for i, j in pairs]))
    return WeightSystem(potential.poset, potential.ring, join(cols))


def _require_valid(ws: WeightSystem, walk=None):  # walk: the caller's whole _walk, for the scan
    if not ws.is_valid():
        ws._handed = walk
        raise WeightSystemError(f"chain condition fails at triples {ws.violations(5)}")


def _walk(ws: WeightSystem, root):
    """The forest for root, the scalar columns (n, c) of ws and per column
    v mod n, one at each tree root, pushed along the steps.  An invalid ws
    is refused before an unknown root, as if the gate ran first."""
    try:
        tree = tree_of(ws.poset, root)
    except PreorderError:
        _require_valid(ws)
        raise
    cols, vs = ws.ring.scalars[0](ws.values), []
    for n, c in cols:
        v = [1] * len(ws.poset.reps)
        for i, j, slot, up in tree.steps:
            v[j] = v[i] * (c[slot] if up else pow(c[slot], -1, n)) % n
        vs.append(tuple(v))
    return tree, cols, vs


def _cycle_value(ring, pair, w):
    """The cycle weight, tree path first, of a non-tree slot (i, j) whose w1 is
    w: inverted when i < j, as the cycle then starts at i and crosses upwards."""
    return w if pair[1] < pair[0] else ring.inverse(w)


def find_potential(ws: WeightSystem, root=None):
    """Reconstruct a vertex potential, or witness that none exists.

    One walk tests c[i,j] v[i] = v[j] (w1 = 1) per factor on each non-tree
    slot (i, j), taking no inverse.  Returns a :class:`Potential`, or, when
    the gate passes, a :class:`NotInnerWitness`: the first fundamental
    cycle of weight not one.
    """
    walk = tree, cols, vs = _walk(ws, root)
    pairs, join = ws.poset.index_pairs, ws.ring.scalars[1]
    for slot in tree.non_tree_slots:
        i, j = pairs[slot]
        if any(c[slot] * v[i] % n != v[j] for (n, c), v in zip(cols, vs)):
            _require_valid(ws, walk)
            w = join([(c[slot] * v[i] * pow(v[j], -1, n) % n,) for (n, c), v in zip(cols, vs)])
            return NotInnerWitness(tree.cycle(slot), _cycle_value(ws.ring, (i, j), w[0]))
    ws._valid = True
    return Potential(ws.poset, ws.ring, join(vs))


def is_inner_cycles(ws: WeightSystem, root=None):
    """Cycle-weight criterion: inner iff every fundamental cycle has weight one.

    Returns (answer, report) where report lists (cycle, weight) pairs.
    Kept for the tests and the benchmark's tracer only: the oracle judges
    cycles with its own arithmetic, and the CLI's witness comes from
    :func:`find_potential`.
    """
    w1, tree, pairs = decompose(ws, root)[0], tree_of(ws.poset, root), ws.poset.index_pairs
    one = ws.ring.one()
    report = tuple((c, _cycle_value(ws.ring, pairs[s], w1.values[s]))
                   for s, c in zip(tree.non_tree_slots, fundamental_cycles(tree.graph, tree)))
    return all(w == one for _, w in report), report


def decompose(ws: WeightSystem, root=None):
    """Split ws = w1 * w0 with w1 trivial on the tree edges and w0 a coboundary.

    Returns (w1, w0, potential): one walk gives v, and one v^-1 per factor
    gives w1[x,y] = c[x,y] v[x] v[y]^-1 and w0[x,y] = v[x]^-1 v[y].  The
    gate runs only when w1 is not one.
    """
    walk = _, cols, vs = _walk(ws, root)
    pairs, w1s, w0s = ws.poset.index_pairs, [], []
    for (n, c), v in zip(cols, vs):
        inv = [pow(x, -1, n) for x in v]
        w1s.append(tuple([x * v[i] * inv[j] % n for x, (i, j) in zip(c, pairs)]))
        w0s.append(tuple([inv[i] * v[j] % n for i, j in pairs]))
    if any(w.count(1) < len(w) for w in w1s):
        _require_valid(ws, walk)
    ws._valid, poset, ring, join = True, ws.poset, ws.ring, ws.ring.scalars[1]
    return (WeightSystem(poset, ring, join(w1s)), WeightSystem(poset, ring, join(w0s)),
            Potential(poset, ring, join(vs)))


def to_mult_function(ws: WeightSystem) -> IncidenceFunction:
    """Incidence function acting by Hadamard product exactly as ws.apply:
    one on within-class pairs, the class-pair weight on cross pairs, i.e.
    ws applied to zeta."""
    return ws.apply(zeta(ws.poset.source, ws.ring))


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


def weight_system_to_json(ws: WeightSystem) -> str:
    reps, pairs = ws.poset.reps, ws.poset.index_pairs
    return write_records({"ring": str(ws.ring)}, "weights", ("from", "to", "value"),
                         [(reps, map(itemgetter(0), pairs)), (reps, map(itemgetter(1), pairs)),
                          (format_values(ws.ring, ws.values), ws.values)])


def weight_system_from_json(text: str, poset, ring=None) -> WeightSystem:
    """Read a weight file.

    The labels must be class representatives: one subset test checks
    them all, and only when it fails does the loop over the distinct
    labels run, to name the first bad one.  The values are parsed by
    ``parse_values``, once per distinct text, and each distinct value is
    tested for a central unit once.  The rows map to slots in bulk
    through the label map ``source._index``, then ``elem_class`` and
    ``slot_of``, with no key tuples.  When every value is a central unit
    and the rows name every slot once, the values are laid out by slot
    directly; otherwise :meth:`WeightSystem.from_values` runs on the
    parsed rows and raises the error of the first faulty one.
    """
    obj, (xs, ys, texts) = read_records(text, "weight-system", "weights",
                                        ("from", "to", "value"), WeightSystemError)
    if "ring" not in obj:
        raise WeightSystemError('weight-system file needs a "ring"')
    file_ring = parse_ring_spec(obj["ring"])
    if ring is not None and ring != file_ring:
        raise WeightSystemError(f"file ring {file_ring} does not match expected ring {ring}")
    if not set(xs).union(ys).issubset(poset.reps):
        for lab in dict.fromkeys(chain.from_iterable(zip(xs, ys))):
            if poset.rep(lab) != lab:
                raise WeightSystemError(
                    f"label {lab!r} is not a class representative (expected {poset.rep(lab)!r})"
                )
    use = file_ring if ring is None else ring
    values, distinct = parse_values(use, texts)
    del obj, texts  # the decoded file: freed before the slots are laid out
    cls, index = poset.elem_class.__getitem__, poset.source._index.__getitem__
    rows = map(poset.slot_of.__getitem__, map(cls, map(index, xs)))
    slots, size = list(map(dict.get, rows, map(cls, map(index, ys)))), len(poset.index_pairs)
    if len(slots) == size and all(map(use.is_central_unit, distinct)):
        table = dict(zip(slots, values))
        if len(table) == size and None not in table:
            return WeightSystem(poset, use, tuple(map(table.__getitem__, range(size))))
    return WeightSystem.from_values(poset, use, list(zip(zip(xs, ys), values)))


def load_weight_system(path, poset, ring=None) -> WeightSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return weight_system_from_json(fh.read(), poset, ring)


def potential_to_json(potential: Potential) -> str:
    ring, values = potential.ring, potential.values
    return write_records({"ring": str(ring)}, "values", ("class", "value"), [
        (potential.poset.reps, range(len(values))), (format_values(ring, values), values)])
