"""Incidence algebra of a finite preorder over a finite coefficient ring.

Elements are functions on the comparable pairs of the preorder, stored
sparsely (absent pair = zero).  Multiplication is convolution,

    (fg)(x, y) = sum of f(x, z) g(z, y) over x <= z <= y,

which under a linear extension is just structural matrix multiplication.
Functions split into a class-diagonal part (pairs inside one equivalence
class) and a strict part (pairs across classes); the strict part of any
function is nilpotent, which gives the finite inversion series used by
:func:`invert`.

``IncidenceFunction(...)`` trusts its arguments and is what the algebra
uses internally; :meth:`IncidenceFunction.from_entries` and the JSON
reader validate support and encoding once, at the boundary.
"""

from __future__ import annotations

import json

from .coeff_rings import NonUnitError, RingMismatchError, adjugate_inverse, determinant


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

    def support(self):
        return sorted(self.entries)

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

    def scale(self, k: int) -> "IncidenceFunction":
        """Integer multiple, entrywise."""
        ring = self.ring
        zero = ring.zero()
        out = {}
        for p, v in self.entries.items():
            w = ring.int_scale(k, v)
            if w != zero:
                out[p] = w
        return IncidenceFunction(self.preorder, ring, out)

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


def convolve(f: IncidenceFunction, g: IncidenceFunction) -> IncidenceFunction:
    """Incidence product of two functions on the same carrier."""
    _same_carrier(f, g)
    ring = f.ring
    by_first = {}
    for (z, y), b in g.entries.items():
        by_first.setdefault(z, []).append((y, b))
    acc = {}
    for (x, z), a in f.entries.items():
        for y, b in by_first.get(z, ()):
            pair = (x, y)
            term = ring.mul(a, b)
            cur = acc.get(pair)
            acc[pair] = term if cur is None else ring.add(cur, term)
    zero = ring.zero()
    return IncidenceFunction(f.preorder, ring, {p: v for p, v in acc.items() if v != zero})


def delta(preorder, ring) -> IncidenceFunction:
    """Multiplicative identity: one on the diagonal."""
    one = ring.one()
    return IncidenceFunction(preorder, ring, {(x, x): one for x in preorder.elements})


def zeta(preorder, ring) -> IncidenceFunction:
    """One on every comparable pair."""
    one = ring.one()
    return IncidenceFunction(preorder, ring, {p: one for p in preorder.comparable_pairs()})


def matrix_unit(preorder, ring, x, y) -> IncidenceFunction:
    """Single entry one at (x, y); requires x strictly below y."""
    if not preorder.lt(x, y):
        raise SupportError(f"matrix unit needs {x!r} strictly below {y!r}")
    return IncidenceFunction(preorder, ring, {(x, y): ring.one()})


def _require_commutative(ring):
    if not ring.commutative:
        raise NotImplementedError(
            "block inversion over a noncommutative coefficient ring needs singleton classes"
        )


def matrix_is_invertible(ring, rows) -> bool:
    """Invertibility of a square matrix over the coefficient ring."""
    if len(rows) == 1:
        return ring.is_unit(rows[0][0])
    _require_commutative(ring)
    return ring.is_unit(determinant(ring, rows))


def invert_matrix(ring, rows):
    """Inverse by adjugate over a commutative ring (any ring for 1x1)."""
    if len(rows) == 1:
        return [[ring.inverse(rows[0][0])]]
    _require_commutative(ring)
    return adjugate_inverse(ring, rows)


def _diagonal_inverse(f: IncidenceFunction) -> IncidenceFunction:
    """Blockwise inverse of the class-diagonal part of f."""
    quotient = f.preorder.quotient()
    ring = f.ring
    zero = ring.zero()
    entries = {}
    for ci, members in enumerate(quotient.classes):
        mat = [[f.value(s, t) for t in members] for s in members]
        try:
            inv = invert_matrix(ring, mat)
        except NonUnitError:
            raise NonInvertibleError(
                f"diagonal block of class {quotient.reps[ci]!r} is not invertible"
            ) from None
        for a, s in enumerate(members):
            for b, t in enumerate(members):
                v = inv[a][b]
                if v != zero:
                    entries[(s, t)] = v
    return IncidenceFunction(f.preorder, ring, entries)


def is_unit_function(f: IncidenceFunction) -> bool:
    """A function is invertible iff every diagonal class block is."""
    quotient = f.preorder.quotient()
    for members in quotient.classes:
        mat = [[f.value(s, t) for t in members] for s in members]
        if not matrix_is_invertible(f.ring, mat):
            return False
    return True


def invert(f: IncidenceFunction) -> IncidenceFunction:
    """Two-sided inverse of a unit.

    The class-diagonal part is inverted blockwise; writing f = (1 + d) v
    with v that diagonal part, d = strict(f) v^-1 is nilpotent, so
    (1 + d)^-1 is the alternating sum of its powers up to the height of
    the quotient.
    """
    quotient = f.preorder.quotient()
    ring = f.ring
    v_inv = _diagonal_inverse(f)
    strict = f.strict_part()
    if not strict.entries:
        return v_inv
    d = convolve(strict, v_inv)
    series = delta(f.preorder, ring)
    power = d
    sign = -1
    for _ in range(quotient.height()):
        if not power.entries:
            break
        series = series + power.scale(sign)
        sign = -sign
        power = convolve(power, d)
    return convolve(v_inv, series)


def unit_decompose(u: IncidenceFunction):
    """Split a unit as u = (1 + d) v: v class-diagonal, d strict.

    Returns (d, v) where v is the diagonal part of u and
    d = strict(u) v^-1.
    """
    v = u.diagonal_part()
    v_inv = _diagonal_inverse(u)
    d = convolve(u.strict_part(), v_inv)
    return d, v


def conjugate(f: IncidenceFunction, u: IncidenceFunction) -> IncidenceFunction:
    """u^-1 f u for a unit u."""
    u_inv = invert(u)
    return convolve(convolve(u_inv, f), u)


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
    records = [
        {"from": x, "to": y, "value": f.ring.format_element(v)}
        for (x, y), v in sorted(f.entries.items())
    ]
    return json.dumps({"entries": records}, indent=2, sort_keys=True) + "\n"


def read_records(text: str, what: str, list_key: str, fields, error):
    """Top-level object and string records of a JSON ``{list_key: [...]}`` file.

    Each record must be an object holding a string under every name in
    ``fields``; it comes back as the tuple of those strings.  Bad JSON, a
    missing list and any other record raise ``error``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"bad {what} file: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get(list_key), list):
        raise error(f'{what} file needs a "{list_key}" list')
    strings = (str,) * len(fields)
    rows = []
    for rec in obj[list_key]:
        row = tuple(map(rec.get, fields)) if isinstance(rec, dict) else None
        if row is None or tuple(map(type, row)) != strings:
            raise error(f"malformed {what} entry {rec!r}: needs string fields {', '.join(fields)}")
        rows.append(row)
    return obj, rows


def function_from_json(text: str, preorder, ring) -> IncidenceFunction:
    _, rows = read_records(text, "function", "entries", ("from", "to", "value"), SupportError)
    return IncidenceFunction.from_entries(
        preorder, ring, [(x, y, ring.parse_element(v)) for x, y, v in rows]
    )


def load_function(path, preorder, ring) -> IncidenceFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(fh.read(), preorder, ring)
