"""Incidence algebra of a finite preorder over a finite coefficient ring.

Elements are functions on the comparable pairs of the preorder, stored
sparsely (absent pair = zero).  Multiplication is convolution,

    (fg)(x, y) = sum of f(x, z) g(z, y) over x <= z <= y,

which under a linear extension is just structural matrix multiplication;
each output entry is one ``ring.dot`` over its terms.  Functions split
into a class-diagonal part (pairs inside one equivalence class) and a
strict part (pairs across classes).  :func:`invert` inverts the diagonal
blocks, each by one row reduction over Z/n (``det_inverse``), and then
solves f g = 1 row by row, top class first (Rota's Moebius recursion),
for the cost of about one convolution.

``IncidenceFunction(...)`` trusts its arguments and is what the algebra
uses internally; :meth:`IncidenceFunction.from_entries` and the JSON
reader validate support and encoding once, at the boundary.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .coeff_rings import MatrixRing, ProductRing, RingMismatchError, det_inverse


class SupportError(ValueError):
    """Entry outside the comparable pairs, or a malformed function file."""


class NonInvertibleError(ArithmeticError):
    """A diagonal class block is singular."""


class IncidenceFunction:
    """Sparse ring-valued function on the comparable pairs of a preorder."""

    __slots__ = ("preorder", "ring", "entries")

    def __init__(self, preorder, ring, entries):
        # trusted constructor: callers guarantee support, canonical nonzero values
        self.preorder = preorder
        self.ring = ring
        self.entries = entries

    @classmethod
    def from_entries(cls, preorder, ring, entries):
        """Build from (x, y, value) triples, validating support and encoding."""
        zero = ring.zero()
        out = {}
        for x, y, value in entries:
            if not preorder.leq(x, y):
                raise SupportError(f"pair ({x}, {y}) is not comparable: support violation")
            ring.check(value)
            if (x, y) in out:
                raise SupportError(f"duplicate entry for pair ({x}, {y})")
            if value != zero:
                out[(x, y)] = value
        return cls(preorder, ring, out)

    def value(self, x, y):
        got = self.entries.get((x, y))
        if got is not None:
            return got
        self.preorder._i(x)
        self.preorder._i(y)
        return self.ring.zero()

    def diagonal_part(self) -> "IncidenceFunction":
        """Restriction to pairs inside one equivalence class."""
        cls = self.preorder.quotient().class_of
        kept = {p: v for p, v in self.entries.items() if cls[p[0]] == cls[p[1]]}
        return IncidenceFunction(self.preorder, self.ring, kept)

    def strict_part(self) -> "IncidenceFunction":
        """Restriction to pairs across distinct classes."""
        cls = self.preorder.quotient().class_of
        kept = {p: v for p, v in self.entries.items() if cls[p[0]] != cls[p[1]]}
        return IncidenceFunction(self.preorder, self.ring, kept)

    def __add__(self, other):
        _same_carrier(self, other)
        ring = self.ring
        zero = ring.zero()
        out = dict(self.entries)
        for p, v in other.entries.items():
            cur = out.get(p)
            w = v if cur is None else ring.add(cur, v)
            if w == zero:
                out.pop(p, None)
            else:
                out[p] = w
        return IncidenceFunction(self.preorder, ring, out)

    def __neg__(self):
        ring = self.ring
        return IncidenceFunction(
            self.preorder, ring, {p: ring.neg(v) for p, v in self.entries.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, IncidenceFunction)
            and other.ring == self.ring
            and other.preorder == self.preorder
            and other.entries == self.entries
        )

    def __repr__(self):
        return f"IncidenceFunction({len(self.entries)} entries over {self.ring})"


def _same_carrier(f, g):
    if f.ring != g.ring or f.preorder != g.preorder:
        raise RingMismatchError("functions live on different carriers")


def _rows(items):
    """First element -> list of (second element, value), from ((x, y), value) items."""
    rows = defaultdict(list)
    for (x, y), v in items:
        rows[x].append((y, v))
    return rows


def _row_product(row, rows):
    """Terms of sum_z a(z) g(z, y) per y, for row = [(z, a(z))] and rows[z] = g(z, .)."""
    terms = defaultdict(list)
    for z, a in row:
        for y, b in rows.get(z, ()):
            terms[y].append((a, b))
    return terms


def convolve(f: IncidenceFunction, g: IncidenceFunction) -> IncidenceFunction:
    """Incidence product of two functions on the same carrier."""
    _same_carrier(f, g)
    ring = f.ring
    dot = ring.dot
    zero = ring.zero()
    g_rows = _rows(g.entries.items())
    out = {}
    for x, row in _rows(f.entries.items()).items():
        for y, terms in _row_product(row, g_rows).items():
            v = dot(terms)
            if v != zero:
                out[(x, y)] = v
    return IncidenceFunction(f.preorder, ring, out)


def delta(preorder, ring) -> IncidenceFunction:
    """Multiplicative identity: one on the diagonal."""
    one = ring.one()
    return IncidenceFunction(preorder, ring, {(x, x): one for x in preorder.elements})


def zeta(preorder, ring) -> IncidenceFunction:
    """One on every comparable pair."""
    one = ring.one()
    return IncidenceFunction(preorder, ring, {p: one for p in preorder.comparable_pairs()})


def _component(rows, i):
    """Factor i of a matrix over a product ring, as a matrix over that factor."""
    return [[a[i] for a in row] for row in rows]


def _flatten(k, rows):
    """An s x s matrix of k x k blocks as one sk x sk matrix: M_s(M_k(R)) = M_sk(R)."""
    return [[a[i][j] for a in row for j in range(k)] for row in rows for i in range(k)]


def _block_inverse(ring, rows):
    """Inverse of a square matrix over the coefficient ring, as row
    lists, or None when there is none.

    Over a product ring the factors are inverted one by one; over
    M(k,Z/n) the matrix of blocks is flattened to one over Z/n and the
    inverse cut back into blocks; over Z/n it is :func:`det_inverse`.
    """
    s = len(rows)
    if isinstance(ring, ProductRing):
        parts = [_block_inverse(r, _component(rows, i)) for i, r in enumerate(ring.factors)]
        if None in parts:
            return None
        return [[tuple(p[a][b] for p in parts) for b in range(s)] for a in range(s)]
    if isinstance(ring, MatrixRing):
        k = ring.size
        flat = det_inverse(ring.base.n, _flatten(k, rows))[1]
        if flat is None:
            return None
        return [
            [tuple(tuple(flat[a * k + i][b * k:(b + 1) * k]) for i in range(k)) for b in range(s)]
            for a in range(s)
        ]
    return det_inverse(ring.n, rows)[1]


def matrix_is_invertible(ring, rows) -> bool:
    """Invertibility of a square matrix over the coefficient ring."""
    return _block_inverse(ring, rows) is not None


def _diagonal_inverse(f: IncidenceFunction) -> IncidenceFunction:
    """Blockwise inverse of the class-diagonal part of f."""
    quotient = f.preorder.quotient()
    ring = f.ring
    zero = ring.zero()
    entries = {}
    for ci, members in enumerate(quotient.classes):
        inv = _block_inverse(ring, [[f.value(s, t) for t in members] for s in members])
        if inv is None:
            raise NonInvertibleError(
                f"diagonal block of class {quotient.reps[ci]!r} is not invertible"
            )
        for a, s in enumerate(members):
            for b, t in enumerate(members):
                v = inv[a][b]
                if v != zero:
                    entries[(s, t)] = v
    return IncidenceFunction(f.preorder, ring, entries)


def is_unit_function(f: IncidenceFunction) -> bool:
    """A function is invertible iff every diagonal class block is."""
    try:
        _diagonal_inverse(f)
    except NonInvertibleError:
        return False
    return True


def invert(f: IncidenceFunction) -> IncidenceFunction:
    """Two-sided inverse of a unit.

    The class-diagonal blocks are inverted first (v^-1).  For x in a class
    X, f g = 1 then gives g(x, y) = v^-1(x, y) inside X and, above it,

        g(x, y) = sum over [z] > X of d(x, z) g(z, y),
        d(x, z) = -sum over x' in X of v^-1(x, x') f(x', z),

    with factors kept left to right, so noncommutative rings work too.
    Rows are solved top class first, with no recursion.  Each entry is
    one ``ring.dot``; the whole pass costs about one convolution.
    """
    quotient = f.preorder.quotient()
    ring = f.ring
    v_inv = _diagonal_inverse(f).entries
    cls = quotient.class_of
    strict = _rows((p, a) for p, a in f.entries.items() if cls[p[0]] != cls[p[1]])
    dot, neg, zero = ring.dot, ring.neg, ring.zero()
    rows = {}  # z -> [(y, g(z, y))], filled top class first
    for ci in quotient.top_down():
        members = quotient.classes[ci]
        for x in members:
            d_terms = _row_product(
                [(xp, neg(v_inv[x, xp])) for xp in members if (x, xp) in v_inv], strict)
            d_row = [(z, v) for z, terms in d_terms.items() if (v := dot(terms)) != zero]
            row = [(y, v_inv[x, y]) for y in members if (x, y) in v_inv]
            row += [(y, v) for y, terms in _row_product(d_row, rows).items()
                    if (v := dot(terms)) != zero]
            rows[x] = row
    return IncidenceFunction(
        f.preorder, ring, {(x, y): v for x, row in rows.items() for y, v in row})


def unit_decompose(u: IncidenceFunction):
    """Split a unit as u = (1 + d) v: v class-diagonal, d strict.

    Returns (d, v) where v is the diagonal part of u and
    d = strict(u) v^-1.
    """
    v = u.diagonal_part()
    v_inv = _diagonal_inverse(u)
    d = convolve(u.strict_part(), v_inv)
    return d, v


def hadamard(m: IncidenceFunction, f: IncidenceFunction) -> IncidenceFunction:
    """Pointwise product (m f)(x, y) = m(x, y) f(x, y)."""
    _same_carrier(m, f)
    ring = f.ring
    zero = ring.zero()
    out = {}
    for pair, v in f.entries.items():
        w = m.entries.get(pair)
        if w is None:
            continue
        prod = ring.mul(w, v)
        if prod != zero:
            out[pair] = prod
    return IncidenceFunction(f.preorder, ring, out)


def function_to_json(f: IncidenceFunction) -> str:
    pairs = sorted(f.entries)
    values = format_values(f.ring, list(map(f.entries.__getitem__, pairs)))
    return write_records({}, "entries", ("from", "to", "value"),
                         (map(itemgetter(0), pairs), map(itemgetter(1), pairs), values))


def format_values(ring, values):
    """The texts of a sequence of ring elements, ``format_element``
    called once per distinct value."""
    text = {v: ring.format_element(v) for v in set(values)}
    return map(text.__getitem__, values)


def parse_values(ring, texts):
    """The elements of a column of value texts, and the set of them.

    Each distinct text is parsed and checked once, in first-occurrence
    order, so the first row whose text does not parse raises, as a
    row-by-row parse would.
    """
    parsed = {t: ring.parse_element(t) for t in dict.fromkeys(texts)}
    distinct = set(parsed.values())
    for v in distinct:
        ring.check(v)
    return list(map(parsed.__getitem__, texts)), distinct


def write_records(header, list_key, fields, columns) -> str:
    """Text of a ``{list_key: [...], **header}`` file, the inverse of
    :func:`read_records`.

    ``header`` maps names to strings, and ``columns`` holds one iterable
    of strings per name in ``fields``, in that order; record r takes
    item r of each.  Each column is encoded by one ``map`` and each
    record is one ``%`` of a fixed template.  The text is byte for byte
    what ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` writes.
    """
    enc = encode_basestring_ascii
    order = sorted(range(len(fields)), key=fields.__getitem__)
    record = "    {\n" + ",\n".join(f"      {enc(fields[i])}: %s" for i in order) + "\n    }"
    body = ",\n".join(map(record.__mod__, zip(*[map(enc, columns[i]) for i in order])))
    top = {name: enc(value) for name, value in header.items()}
    top[list_key] = "[\n" + body + "\n  ]" if body else "[]"
    return "{\n" + ",\n".join(f"  {enc(name)}: {top[name]}" for name in sorted(top)) + "\n}\n"


def read_records(text: str, what: str, list_key: str, fields, error):
    """Top-level object and string columns of a JSON ``{list_key: [...]}`` file.

    Each record must be an object holding a string under every name in
    ``fields``; the records come back as one list per field, in record
    order.  The columns are taken with ``itemgetter`` and their types
    checked by one set test; only when either fails does a loop over the
    records run, to name the first bad one.  Bad JSON (nesting too deep
    for the parser included), a missing list and any bad record raise
    ``error``.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"bad {what} file: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get(list_key), list):
        raise error(f'{what} file needs a "{list_key}" list')
    records = obj[list_key]
    try:  # a record that is no object raises TypeError, a missing field KeyError
        columns = [list(map(itemgetter(name), records)) for name in fields]
    except (KeyError, TypeError):
        columns = None
    if columns is None or not set(map(type, chain.from_iterable(columns))) <= {str}:
        strings = (str,) * len(fields)
        for rec in records:
            row = tuple(map(rec.get, fields)) if isinstance(rec, dict) else None
            if row is None or tuple(map(type, row)) != strings:
                raise error(
                    f"malformed {what} entry {rec!r}: needs string fields {', '.join(fields)}")
    return obj, columns


def function_from_json(text: str, preorder, ring) -> IncidenceFunction:
    """Read a function file.

    Values are parsed once per distinct text (:func:`parse_values`).
    When every label is known, no pair repeats and every pair is
    comparable (one bit test of the up row each), the entries are taken
    as they are; otherwise :meth:`IncidenceFunction.from_entries` runs
    on the parsed rows and raises the error of the first faulty one.
    """
    _, (xs, ys, texts) = read_records(
        text, "function", "entries", ("from", "to", "value"), SupportError)
    values, _ = parse_values(ring, texts)
    index, up = preorder._index, preorder._up
    if index.keys() >= set(xs).union(ys):
        pairs = list(zip(xs, ys))
        if len(set(pairs)) == len(pairs) and all(up[index[x]] >> index[y] & 1 for x, y in pairs):
            zero = ring.zero()
            return IncidenceFunction(
                preorder, ring, {p: v for p, v in zip(pairs, values) if v != zero})
    return IncidenceFunction.from_entries(preorder, ring, zip(xs, ys, values))


def load_function(path, preorder, ring) -> IncidenceFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(fh.read(), preorder, ring)
