"""Finite preorders, their equivalence classes, and the quotient poset.

A preorder is a reflexive transitive relation on labelled elements.  Two
elements are equivalent when each is below the other; the classes of that
equivalence inherit a partial order.  Relations are stored as one bitmask
row per element, which keeps closure and order queries cheap at desk
scale.  The closure is built per strongly connected component of the
generators, in reverse topological order, with one row OR per generator
edge (:func:`close_relations`); a file of over ``GUARD_ELEMENTS``
elements is refused before it.  A preorder keeps one pair list,
``index_pairs``, which keys every incidence function, and the algebra
keeps one kernel per preorder and scalar ring in ``_kernels``.

The quotient keeps one integer-indexed view of order data, built once:
element e is in class ``elem_class[e]``, class i has the up row
``_up[i]`` (a bitmask of class indices), its ``index_pairs`` lists the
strict pairs (i, j) in ``strict_pairs()`` order, and ``slot_of[i]``
maps each class j strictly above i to the slot of (i, j), in ascending
j: one map, read both ways with ``index_pairs``.
``triples(i, middles)`` lays out the triples i < z < j through given
middle classes z as three slot lists.  Weight systems and potentials are
tuples over those slots and class indices, incidence functions are keyed
by element index pairs.  Labels are resolved only at the edges, through
the one label map ``source._index``; label-pair lists are built on demand.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat

GUARD_ELEMENTS = 1 << 15  # a preorder file's elements, refused above this before the closure


class PreorderError(ValueError):
    """Bad labels, undeclared elements, or malformed preorder files."""


def _validate_labels(labels):
    if not labels:
        raise PreorderError("a preorder needs at least one element")
    seen = set()
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise PreorderError(f"labels must be non-empty strings, got {lab!r}")
        if any(ch.isspace() for ch in lab) or "#" in lab:
            raise PreorderError(f"label {lab!r} contains whitespace or '#'")
        if lab in seen:
            raise PreorderError(f"duplicate label {lab!r}")
        seen.add(lab)


def close_relations(elements, generators) -> "Preorder":
    """Reflexive-transitive closure of generator pairs over the given labels.

    The up row of an element is the set of elements reachable from it
    along the generators.  The rows are built per strongly connected
    component by :func:`_reach_rows` in O(n + E) row ORs, not the n^2
    row steps of Warshall's algorithm.
    """
    labels = list(elements)
    _validate_labels(labels)
    index = {x: i for i, x in enumerate(labels)}
    succ = [[] for _ in labels]
    for x, y in generators:
        if x not in index:
            raise PreorderError(f"undeclared label {x!r} in relation ({x}, {y})")
        if y not in index:
            raise PreorderError(f"undeclared label {y!r} in relation ({x}, {y})")
        succ[index[x]].append(index[y])
    return Preorder(tuple(labels), _reach_rows(succ))


def _reach_rows(succ):
    """Per vertex of the digraph ``succ`` (successor lists), the bitmask
    of the vertices reachable from it, itself included.

    An iterative Tarjan pass (an explicit path of edge iterators, so a
    long chain does not recurse) finishes the strongly connected
    components in reverse topological order, sinks first.  When a
    component is finished, every component it reaches is final, so its
    row is the bits of its members ORed with the rows of their
    successors outside it: one OR per edge.
    """
    n = len(succ)
    num, low, rows = [0] * n, [0] * n, [0] * n  # num: discovery number, 0 while unvisited
    done = [False] * n  # set once a vertex's component, and so its row, is final
    stack, count = [], 0
    for root in range(n):
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if not done[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == num[v]:
                    members, row = [], 0
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        row |= 1 << members[-1]
                    for m in members:
                        for w in succ[m]:
                            if done[w]:
                                row |= rows[w]
                    for m in members:
                        rows[m], done[m] = row, True
    return rows


class Preorder:
    """Reflexive-transitive relation over distinct labels (bitmask rows).

    Use :func:`close_relations` or :func:`load_preorder_text` to build one;
    the constructor trusts its arguments.
    """

    def __init__(self, elements, up_masks):
        self.elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._up = list(up_masks)
        self._quotient = None
        self._kernels = {}  # filled by incidence_algebra._kernel

    def _i(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise PreorderError(f"unknown label {x!r}") from None

    @cached_property
    def index_pairs(self):
        """Comparable index pairs (i, j), reflexive pairs included, by row, columns ascending."""
        return tuple((i, j) for i, row in enumerate(self._up) for j in _bits(row))

    def comparable_pairs(self):
        """Sorted list of ordered pairs (x, y) with x <= y, diagonal included,
        a new list on each call."""
        labels = self.elements
        return sorted([(labels[i], labels[j]) for i, j in self.index_pairs])

    def quotient(self) -> "QuotientPoset":
        if self._quotient is None:
            self._quotient = QuotientPoset(self)
        return self._quotient

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Preorder)
            and other.elements == self.elements
            and other._up == self._up
        )

    def __repr__(self):
        return f"Preorder({len(self.elements)} elements)"


class QuotientPoset:
    """Partial order on the equivalence classes of a preorder.

    Classes are sorted-label tuples ordered by representative; the
    representative is the lexicographically least member, so reps ascend
    with the class index.  Order queries accept any member label and
    answer for its class, read through ``source._index``: the quotient
    keeps no label map of its own.

    The index view: ``elem_class[e]`` is the class of element e (an
    index into ``source.elements``), ``_up[i]`` is the bitmask of the
    classes above class i (i included), ``index_pairs`` the strict pairs
    in ``strict_pairs()`` order, ``slot_of[i]`` the dict {j: slot of
    (i, j)} over the classes j strictly above i, ascending, and, built
    on first use, ``_covers[i]``, the bitmask of the classes covering i.
    """

    def __init__(self, source: Preorder):
        up, labels = source._up, source.elements
        groups = {}  # equivalent elements are exactly those with equal up rows
        for e, row in enumerate(up):
            groups.setdefault(row, []).append(e)
        members = sorted((sorted(g, key=labels.__getitem__) for g in groups.values()),
                         key=lambda g: labels[g[0]])  # labels serve only as sort keys
        self.source = source
        self.classes = tuple(tuple(map(labels.__getitem__, g)) for g in members)
        self.reps = tuple(c[0] for c in self.classes)
        self.elem_class = elem_class = [0] * len(labels)
        for ci, g in enumerate(members):
            for e in g:
                elem_class[e] = ci
        self._up, pairs, self.slot_of = [], [], []
        for ci, g in enumerate(members):
            row = 0
            for e in _bits(up[g[0]]):
                row |= 1 << elem_class[e]
            self._up.append(row)
            above = _bits(row & ~(1 << ci))
            self.slot_of.append(dict(zip(above, range(len(pairs), len(pairs) + len(above)))))
            pairs += zip(repeat(ci), above)
        self.index_pairs = tuple(pairs)
        self._graph, self._trees = None, {}  # filled by comparability.tree_of

    @cached_property
    def _covers(self):
        """Per class, the bitmask of the classes covering it: its strict up
        row minus the union of the strict up rows of that row's members."""
        strict = [row & ~(1 << i) for i, row in enumerate(self._up)]
        covers = []
        for row in strict:
            above = 0
            for z in _bits(row):
                above |= strict[z]
            covers.append(row & ~above)
        return covers

    def triples(self, i, middles):
        """The triples i < z < j with z in the bitmask ``middles`` (above
        i), by z then j, as slot lists S of (i, j), T of (i, z), U of (z, j):
        U lists the slots of row z, and S maps their classes through row
        i; the lists share the int objects of ``slot_of``."""
        slot_of = self.slot_of
        slot = slot_of[i].__getitem__  # j -> slot of (i, j)
        S, T, U = [], [], []
        for z in _bits(middles):
            row = slot_of[z]
            S += map(slot, row)
            T += repeat(slot(z), len(row))
            U += row.values()
        return S, T, U

    @cached_property
    def _cover_triples(self):
        """``triples(i, _covers[i])`` of every row i, concatenated."""
        S, T, U = [], [], []
        for i, row in enumerate(self._covers):
            for whole, part in zip((S, T, U), self.triples(i, row)):
                whole += part
        return S, T, U

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def _c(self, x) -> int:
        return self.elem_class[self.source._i(x)]

    def rep(self, x) -> str:
        return self.reps[self._c(x)]

    def lt(self, x, y) -> bool:
        ci, cj = self._c(x), self._c(y)
        return ci != cj and bool(self._up[ci] >> cj & 1)

    def strict_pairs(self):
        """All ordered pairs of representatives (x, y) with [x] < [y], sorted.

        Slot s holds the labels of ``index_pairs[s]``; reps ascend with
        the class index, so this order is the sorted order.  A new list
        on each call.
        """
        reps = self.reps
        return [(reps[i], reps[j]) for i, j in self.index_pairs]

    def height(self) -> int:
        """Longest strict chain length anywhere in the quotient: the
        longest chain upward from each class, in one top-down pass."""
        up, longest = self._up, [0] * self.n_classes
        for c in self.top_down():
            above = _bits(up[c] & ~(1 << c))
            longest[c] = 1 + max((longest[b] for b in above), default=-1)
        return max(longest)

    def top_down(self):
        """Class indices, each after every class strictly above it.

        A class strictly above another has a strictly smaller up-set, so
        ascending up-set size is such an order.
        """
        return sorted(range(self.n_classes), key=lambda c: self._up[c].bit_count())

    def __eq__(self, other):
        """Equal sources: the quotient is a function of its source."""
        return self is other or (isinstance(other, QuotientPoset) and other.source == self.source)

    def __repr__(self):
        return f"QuotientPoset({self.n_classes} classes)"


_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_TABLED_BYTES = 512  # per-position tables cover masks up to 4,096 bits
_BIT_TABLES = []  # _BIT_TABLES[k][v]: the set bits of byte value v at byte k, as indices


def _bits(mask):
    """Indices of the set bits of a non-negative int, ascending.

    The mask is read a byte at a time, lowest first.  Table k maps each
    of the 256 byte values to the indices 8k..8k+7 of its set bits, so a
    non-zero byte costs one lookup and one list extension, while the zero
    bytes are skipped in C (``compress`` over the bytes).  The tables are
    built on first use, one per byte position, sharing the index objects
    of that position, for the first ``_TABLED_BYTES`` positions only
    (about 10 MiB); a byte past them reads ``_BYTE_BITS`` and adds its
    bit offset.
    """
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    while len(_BIT_TABLES) < min(len(data), _TABLED_BYTES):
        at = tuple(range(8 * len(_BIT_TABLES), 8 * len(_BIT_TABLES) + 8))
        _BIT_TABLES.append(tuple(tuple(at[b] for b in bits) for bits in _BYTE_BITS))
    out = []
    for table, byte in compress(zip(_BIT_TABLES, data), data):
        out += table[byte]
    for k in range(_TABLED_BYTES, len(data)):
        if data[k]:
            out += map((8 * k).__add__, _BYTE_BITS[data[k]])
    return out


def load_preorder_text(text: str) -> Preorder:
    """Parse the preorder file format.

    One ``elements`` line lists the labels; each ``rel x y`` line adds a
    generating relation x <= y.  ``#`` starts a comment.  A file of over
    ``GUARD_ELEMENTS`` elements is refused before the closure, whose row
    i holds bit i: N rows take N^2 / 16 bytes or more, whatever the relation.
    """
    elements = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "elements":
            if elements is not None:
                raise PreorderError(f"line {lineno}: duplicate elements line")
            if len(tokens) < 2:
                raise PreorderError(f"line {lineno}: elements line needs at least one label")
            elements = tokens[1:]
        elif tokens[0] == "rel":
            if len(tokens) != 3:
                raise PreorderError(f"line {lineno}: rel needs exactly two labels")
            gens.append((lineno, tokens[1], tokens[2]))
        else:
            raise PreorderError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if elements is None:
        raise PreorderError("missing elements line")
    declared = set(elements)
    for lineno, x, y in gens:
        for lab in (x, y):
            if lab not in declared:
                raise PreorderError(f"line {lineno}: undeclared label {lab!r}")
    if len(elements) > GUARD_ELEMENTS:
        raise PreorderError(
            f"a preorder with {len(elements)} elements is over the guard {GUARD_ELEMENTS}")
    return close_relations(elements, [(x, y) for _, x, y in gens])


def load_preorder(path) -> Preorder:
    with open(path, "r", encoding="utf-8") as fh:
        return load_preorder_text(fh.read())


def preorder_to_text(preorder: Preorder) -> str:
    """File-format text that reloads to an equal preorder."""
    lines = ["elements " + " ".join(preorder.elements)]
    for x, y in preorder.comparable_pairs():
        if x != y:
            lines.append(f"rel {x} {y}")
    return "\n".join(lines) + "\n"


def preorder_descriptor(preorder: Preorder) -> str:
    """One-line replayable description, same grammar as the file format."""
    return "; ".join(preorder_to_text(preorder).strip().splitlines())
