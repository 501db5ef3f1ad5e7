"""Incidence algebra of a finite preorder over a finite coefficient ring.

Elements are functions on the comparable pairs of the preorder, stored
sparsely (absent pair = zero) by element index pair (positions in
``preorder.elements``).  Multiplication is convolution,

    (fg)(x, y) = sum of f(x, z) g(z, y) over x <= z <= y,

which under a linear extension is just structural matrix multiplication.
Both products and inverses run on the scalar view of the ring
(``coeff_rings.scalar_view``): Z/n itself, M(k,Z/n) as Z/n with k scalar
rows and columns per element (M_s(M_k(R)) = M_sk(R)), and a product
ring one factor at a time.  Over each, a row of a function is one packed
int with a fixed-width field per column (Kronecker substitution), so a
row of fg is the sum of f(x, z) times the packed rows z of g, one big-int
multiply-add per term, and every field is reduced mod n once.  One field
map places each pair's entry, for packing and reading back alike
(``_Kernel.at``), one kernel per preorder and scalar ring; the pairs are
the preorder's one pair list, ``index_pairs``, which also keys :func:`zeta`.
Functions split into a class-diagonal part (pairs inside one class) and
a strict part (pairs across classes).  :func:`invert` inverts the
diagonal blocks, each by one row reduction over Z/n (``det_inverse``),
and then solves f g = 1 row by row, top class first (Rota's Moebius
recursion), for the cost of about one convolution.

``IncidenceFunction(...)`` trusts its arguments and is what the algebra
uses internally.  Labels appear only at the boundary: ``from_entries``
and the JSON reader map them to indices and validate support and
encoding once; ``value``, ``items`` and the JSON writer map back.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import partial
from itertools import accumulate, chain, compress, count, pairwise, product, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .coeff_rings import RingMismatchError, det_inverse, scalar_view


class SupportError(ValueError):
    """Entry outside the comparable pairs, or a malformed function file."""


class NonInvertibleError(ArithmeticError):
    """A diagonal class block is singular."""


class IncidenceFunction:
    """Sparse ring-valued function on the comparable pairs of a preorder:
    ``entries`` maps element index pairs (i, j), i <= j, to nonzero values."""

    __slots__ = ("preorder", "ring", "entries")

    def __init__(self, preorder, ring, entries):
        # trusted constructor: callers guarantee support, canonical nonzero values
        self.preorder = preorder
        self.ring = ring
        self.entries = entries

    @classmethod
    def from_entries(cls, preorder, ring, entries):
        """Build from (x, y, value) triples of labels, validating support
        and encoding; a pair may occur once, even with the value zero."""
        index, up = preorder._i, preorder._up
        out = {}
        for x, y, value in entries:
            i, j = index(x), index(y)
            if not up[i] >> j & 1:
                raise SupportError(f"pair ({x}, {y}) is not comparable: support violation")
            ring.check(value)
            if (i, j) in out:
                raise SupportError(f"duplicate entry for pair ({x}, {y})")
            out[i, j] = value
        zero = ring.zero()
        return cls(preorder, ring, {p: v for p, v in out.items() if v != zero})

    def value(self, x, y):
        index = self.preorder._i
        return self.entries.get((index(x), index(y)), self.ring.zero())

    def items(self):
        """((x, y), value) for the nonzero entries, in sorted pair order."""
        labels = self.preorder.elements
        out = list(zip([(labels[i], labels[j]) for i, j in self.entries], self.entries.values()))
        out.sort(key=itemgetter(0))  # the pairs are distinct: values are never compared
        return out

    def diagonal_part(self) -> "IncidenceFunction":
        """Restriction to pairs inside one equivalence class."""
        cls = self.preorder.quotient().elem_class
        kept = {p: v for p, v in self.entries.items() if cls[p[0]] == cls[p[1]]}
        return IncidenceFunction(self.preorder, self.ring, kept)

    def strict_part(self) -> "IncidenceFunction":
        """Restriction to pairs across distinct classes."""
        cls = self.preorder.quotient().elem_class
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


def _kernel(preorder, n, k):
    """The :class:`_Kernel` of a preorder over Z/n, k x k blocks per pair, built once."""
    kernel = preorder._kernels.get((n, k))
    if kernel is None:
        kernel = preorder._kernels[n, k] = _Kernel(preorder, n, k)
    return kernel


_FORMATS = {array(c).itemsize: c for c in "BHILQ"} if sys.byteorder == "little" else {}


class _Kernel:
    """Rows of one preorder over Z/n (one factor of the scalar view), each
    packed into one int with one fixed-width field per column.

    Element row x spans the columns from the least index in its up-set to
    the greatest, k scalar rows of k times as many columns over M(k,Z/n):
    scalar row r spans ``width[r]`` columns from ``lo[r]``.  Column c
    sits at bit ``bits * (c - lo[r])`` of its int, so a row z whose
    columns start later moves into row r's frame by a left shift of
    ``shift[z] - shift[r]``, with ``shift[r] = bits * lo[r]``.  Every
    field has room for the largest unreduced sum it can take, the terms
    of one entry of a product (at most k times the largest up-set) times
    (n - 1)^2, so a sum of multiples of packed rows adds every field at
    once with no carry between them.  Fields of 1, 2, 4 or 8 bytes are
    packed and read through ``array`` and ``memoryview`` casts; wider
    ones (large moduli) one at a time.

    Pair (x, y)'s entry is packed into and read from one field, ``at[x]
    + y``, or over M(k,Z/n) block entry (i, j) from ``at[x*k+i] + y*k +
    j``; ``cells`` lists these per (i, j), row-major, in ``index_pairs`` order.
    """

    def __init__(self, preorder, n, k):
        up, per = preorder._up, k or 1  # scalar rows (and columns) per element
        need = -(-(max(map(int.bit_count, up)) * per * (n - 1) ** 2).bit_length() // 8)
        size = min((s for s in _FORMATS if s >= need), default=need)
        fmt = _FORMATS.get(size)
        if fmt:
            self.fields = lambda data: memoryview(data).cast(fmt)
            self.data = bytes if size == 1 else partial(array, fmt)
        else:
            self.fields = lambda data: [int.from_bytes(data[i:i + size], "little")
                                        for i in range(0, len(data), size)]
            self.data = lambda fields: b"".join(
                map(int.to_bytes, fields, repeat(size), repeat("little")))
        self.n, self.bits = n, 8 * size
        lo = [(row & -row).bit_length() - 1 for row in up]
        self.lo = [x * per for x in lo for _ in range(per)]
        self.width = [(row.bit_length() - x) * per for row, x in zip(up, lo) for _ in range(per)]
        self.shift = [self.bits * lo for lo in self.lo]
        self.length = [w * size for w in self.width]  # bytes of a row
        self.bounds = list(pairwise(accumulate(self.length, initial=0)))
        # field of row r's column 0 when the rows are laid end to end; then their field count
        self.at = [s - lo for s, lo in zip(accumulate(self.width, initial=0), self.lo)]
        self.at.append(sum(self.width))
        self.cells = [[self.at[x * per + i] + y * per + j for x, y in preorder.index_pairs]
                      for i in range(per) for j in range(per)]

    def pack_rows(self, entries):
        """One packed int per row, from ((row, column), residue) items."""
        fields = [0] * self.at[-1]
        at = self.at
        for (r, c), v in entries:
            fields[at[r] + c] = v
        data = bytes(self.data(fields))
        return [int.from_bytes(data[a:b], "little") for a, b in self.bounds]

    def reduce(self, accs, lengths):
        """The fields of the packed rows ``accs``, of ``lengths`` bytes,
        laid end to end, each reduced mod n once."""
        n = self.n
        data = b"".join(map(int.to_bytes, accs, lengths, repeat("little")))
        return [v % n for v in self.fields(data)]


def _scalar_entries(items, k, part):
    """Entry items ((row, column), value) over the ring as the nonzero
    ((scalar row, scalar column), residue) items of one factor of the
    scalar view; over Z/n, the items themselves."""
    if part is not None:
        items = [(p, v[part]) for p, v in items]
    if not k:
        return items if part is None else [t for t in items if t[1]]
    return [((x * k + i, y * k + j), v)
            for (x, y), a in items for i, row in enumerate(a) for j, v in enumerate(row) if v]


def _function(f, view, parts):
    """The function over f's carrier whose scalar rows per factor are
    ``parts``, laid end to end: each factor's values are read at the
    fields of the pairs (``_Kernel.cells``), over M(k,Z/n) grouped into
    a k x k tuple per pair; a product ring zips its factors, and the
    nonzero values are the entries."""
    pairs, cols = f.preorder.index_pairs, []
    for (n, k, _), flat in zip(view, parts):
        got = [list(map(flat.__getitem__, cells)) for cells in _kernel(f.preorder, n, k).cells]
        cols.append(list(zip(*[zip(*got[i:i + k]) for i in range(0, k * k, k)])) if k else got[0])
    vals = cols[0] if len(cols) == 1 else list(zip(*cols))
    zero = f.ring.zero()  # 0 over Z/n, where a value is its own truth; a tuple otherwise
    keep = map(zero.__ne__, vals) if zero else vals
    return IncidenceFunction(f.preorder, f.ring, dict(compress(zip(pairs, vals), keep)))


def convolve(f: IncidenceFunction, g: IncidenceFunction) -> IncidenceFunction:
    """Incidence product of two functions on the same carrier.

    Per factor of the scalar view, every row of g is packed into one int
    (:class:`_Kernel`), and row x of fg is the sum of f(x, z) times row z
    of g, shifted into row x's frame: one big-int multiply-add per entry
    of f, then one reduction mod n per field.
    """
    _same_carrier(f, g)
    view = scalar_view(f.ring)
    parts = []
    for n, k, part in view:
        kernel = _kernel(f.preorder, n, k)
        packed, shift = kernel.pack_rows(_scalar_entries(g.entries.items(), k, part)), kernel.shift
        accs = [0] * len(shift)
        for (r, c), a in _scalar_entries(f.entries.items(), k, part):
            accs[r] += a * packed[c] << shift[c] - shift[r]
        parts.append(kernel.reduce(accs, kernel.length))
    return _function(f, view, parts)


def delta(preorder, ring) -> IncidenceFunction:
    """Multiplicative identity: one on the diagonal."""
    one = ring.one()
    return IncidenceFunction(preorder, ring, {(i, i): one for i in range(len(preorder.elements))})


def zeta(preorder, ring) -> IncidenceFunction:
    """One on every comparable pair."""
    return IncidenceFunction(preorder, ring, dict.fromkeys(preorder.index_pairs, ring.one()))


def _flatten(k, rows):
    """An s x s matrix of k x k blocks as one sk x sk matrix: M_s(M_k(R)) = M_sk(R)."""
    return [[a[i][j] for a in row for j in range(k)] for row in rows for i in range(k)]


def _scalar_inverses(view, rows):
    """Per factor of the scalar view, the inverse over Z/n of a square
    matrix over the ring (flattened, over M(k,Z/n)) by
    :func:`det_inverse`, as row lists; None when one factor has none."""
    out = []
    for n, k, part in view:
        block = rows if part is None else [[a[part] for a in row] for row in rows]
        inv = det_inverse(n, _flatten(k, block) if k else block)[1]
        if inv is None:
            return None
        out.append(inv)
    return out


def _class_inverses(f: IncidenceFunction, view):
    """Per class, in class order, its element indices (members as in the
    class tuple) and the scalar inverses of f's diagonal block
    (:func:`_scalar_inverses`); raises NonInvertibleError for the first
    class whose block has none."""
    quotient, index = f.preorder.quotient(), f.preorder._index
    get, zero = f.entries.get, f.ring.zero()
    out = []
    for rep, members in zip(quotient.reps, quotient.classes):
        block = [index[x] for x in members]
        parts = _scalar_inverses(view, [[get((s, t), zero) for t in block] for s in block])
        if parts is None:
            raise NonInvertibleError(f"diagonal block of class {rep!r} is not invertible")
        out.append((block, parts))
    return out


def is_unit_function(f: IncidenceFunction) -> bool:
    """A function is invertible iff every diagonal class block is."""
    try:
        _class_inverses(f, scalar_view(f.ring))
    except NonInvertibleError:
        return False
    return True


def invert(f: IncidenceFunction) -> IncidenceFunction:
    """Two-sided inverse of a unit.

    The class-diagonal blocks are inverted first (v^-1), in class order.
    For x in a class X, f g = 1 then gives g(x, y) = v^-1(x, y) inside X
    and, above it,

        g(x, y) = sum over [z] > X of d(x, z) g(z, y),
        d(x, z) = -sum over x' in X of v^-1(x, x') f(x', z),

    with factors kept left to right, so noncommutative rings work too.
    Per factor of the scalar view, rows are solved top class first, with
    no recursion, on packed ints (:class:`_Kernel`).  The rows of X share
    their columns, so row x of d is the sum of the multiples
    n - v^-1(x, x') of the packed strict rows x' of f, reduced once per
    field; row x of g is the sum of d(x, z) times the packed row z of g,
    plus v^-1 on the columns of X, reduced once per field and packed for
    the rows below.  The whole pass costs about one convolution.
    """
    view = scalar_view(f.ring)
    inverses = _class_inverses(f, view)
    quotient = f.preorder.quotient()
    top_down, cls = quotient.top_down(), quotient.elem_class
    strict = [t for t in f.entries.items() if cls[t[0][0]] != cls[t[0][1]]]
    parts = []
    for fi, (n, k, part) in enumerate(view):
        kernel = _kernel(f.preorder, n, k)
        lo, shift, length, bits = kernel.lo, kernel.shift, kernel.length, kernel.bits
        s_packed = kernel.pack_rows(_scalar_entries(strict, k, part))
        packed, rows = [0] * len(lo), [None] * len(lo)
        for ci in top_down:
            members, v_inv = inverses[ci]
            block = [x * k + i for x in members for i in range(k)] if k else members
            for r, v_row in zip(block, v_inv[fi]):
                d = 0
                for v, s in zip(v_row, block):
                    if v:
                        d += (n - v) * s_packed[s]
                acc, base = 0, shift[r]
                if d:
                    d = kernel.reduce((d,), (length[r],))
                    for c, t in compress(zip(count(lo[r]), d), d):
                        acc += t * packed[c] << shift[c] - base
                for v, s in zip(v_row, block):  # v^-1 on the columns of X
                    if v:
                        acc += v << bits * (s - lo[r])
                rows[r] = row = kernel.reduce((acc,), (length[r],))
                packed[r] = int.from_bytes(kernel.data(row), "little")
        parts.append(list(chain.from_iterable(rows)))
    return _function(f, view, parts)


def unit_decompose(u: IncidenceFunction):
    """Split a unit as u = (1 + d) v: v class-diagonal, d strict.

    Returns (d, v) where v is the diagonal part of u and
    d = strict(u) v^-1.
    """
    v = u.diagonal_part()
    v_inv = invert(v)
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
    table = sorted(labels := f.preorder.elements)
    at = list(map({x: r for r, x in enumerate(table)}.__getitem__, labels))  # index -> rank
    rows = sorted(zip(*[map(at.__getitem__, map(itemgetter(k), f.entries)) for k in (0, 1)],
                      f.entries.values()))  # the pairs are distinct: values are never compared
    return write_records({}, "entries", ("from", "to", "value"),
                         [(table, map(itemgetter(0), rows)), (table, map(itemgetter(1), rows)),
                          (format_values(f.ring, f.entries.values()), map(itemgetter(2), rows))])


def format_values(ring, values):
    """The text of each distinct value of a sequence of ring elements,
    ``{value: text}``, ``format_element`` called once per value."""
    return {v: ring.format_element(v) for v in set(values)}


def parse_values(ring, texts):
    """The elements of a column of value texts, and the set of them.

    Each distinct text is parsed once, in first-occurrence order, so the
    first row whose text does not parse raises, as a row-by-row parse
    would.  ``parse_element`` returns canonical elements only (it reduces
    every residue mod n), so nothing it returns is checked again.
    """
    parsed = {t: ring.parse_element(t) for t in dict.fromkeys(texts)}
    return list(map(parsed.__getitem__, texts)), set(parsed.values())


def write_records(header, list_key, fields, columns) -> str:
    """Text of a ``{list_key: [...], **header}`` file, the inverse of
    :func:`read_records`.

    ``header`` maps names to strings.  ``columns`` holds one ``(table,
    keys)`` per name in ``fields``, in that order: record r's string for
    the field is ``table[key r]``, a label table indexed by position or a
    dict of value texts.  Each table entry is encoded once, into a
    snippet with the text before it in a record; the file is one join of
    the records' snippets, chained in C.  The text is byte for byte what
    ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` writes.
    """
    enc, snips = encode_basestring_ascii, []
    order = sorted(range(len(fields)), key=fields.__getitem__)
    for q, i in enumerate(order):
        (table, keys), end = columns[i], "\n    }" if q == len(order) - 1 else ""
        lead = (",\n    {\n" if q == 0 else ",\n") + f"      {enc(fields[i])}: "
        text = {k: lead + enc(t) + end for k, t in (
            table.items() if isinstance(table, dict) else enumerate(table))}
        snips.append(map(text.__getitem__, keys))
    names = sorted([*header, list_key])
    lines = [f"  {enc(name)}: " + (enc(header[name]) if name in header else "[") for name in names]
    at = names.index(list_key) + 1
    head, tail = "{\n" + ",\n".join(lines[:at]), "".join(f",\n{line}" for line in lines[at:])
    records = chain.from_iterable(zip(*snips))
    first = next(records, None)  # its lead loses the "," that separates records
    if first is None:
        return head + "]" + tail + "\n}\n"
    return "".join(chain((head, first[1:]), records, ("\n  ]", tail, "\n}\n")))


def read_records(text: str, what: str, list_key: str, fields, error):
    """Top-level object and string columns of a JSON ``{list_key: [...]}`` file.

    Each record must be an object holding a string under every name in
    ``fields``; the records come back as one list per field, in record
    order.  The columns are taken with ``itemgetter`` and their types
    checked by ``str.join`` over slices (JSON strings are exact ``str``);
    only when either fails does a loop over the records run, to name the
    first bad one.  Bad JSON (nesting too deep for the parser included),
    a missing list and any bad record raise ``error``.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"bad {what} file: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get(list_key), list):
        raise error(f'{what} file needs a "{list_key}" list')
    records = obj[list_key]
    try:  # a record that is no object, or a field that is no string, raises TypeError
        columns = [list(map(itemgetter(name), records)) for name in fields]
        for column, start in product(columns, range(0, len(records), 8192)):
            "".join(column[start:start + 8192])  # in slices: no copy of a whole column
    except (KeyError, TypeError):  # KeyError: a missing field
        columns = None
    if columns is None:
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
    When every label is known, no index pair repeats and every pair is
    comparable (one bit test of the up row each), the entries are taken
    as they are; otherwise :meth:`IncidenceFunction.from_entries` runs
    on the parsed rows and raises the error of the first faulty one.
    """
    _, (xs, ys, texts) = read_records(
        text, "function", "entries", ("from", "to", "value"), SupportError)
    values, _ = parse_values(ring, texts)
    index, up = preorder._index, preorder._up
    if index.keys() >= set(xs).union(ys):
        pairs = list(zip(map(index.__getitem__, xs), map(index.__getitem__, ys)))
        if len(set(pairs)) == len(pairs) and all(up[i] >> j & 1 for i, j in pairs):
            zero = ring.zero()
            return IncidenceFunction(
                preorder, ring, {p: v for p, v in zip(pairs, values) if v != zero})
    return IncidenceFunction.from_entries(preorder, ring, zip(xs, ys, values))


def load_function(path, preorder, ring) -> IncidenceFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(fh.read(), preorder, ring)
