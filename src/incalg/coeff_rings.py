"""Finite coefficient rings with enumerable carriers.

Three families are supported: integers modulo n ("Z/12"), finite direct
products ("Z/2 x Z/3"), and square matrix rings over a modular base
("M(2,Z/3)").  Elements are plain hashable Python values in a canonical
encoding:

* ``Z/n``       residue ``int`` in ``range(n)``
* products      tuple of component elements, left to right
* ``M(k,Z/n)``  tuple of k row tuples of residues, row major

Canonical encodings make element equality plain ``==``, which the file
formats and the enumeration code rely on.  A ring keeps only its scalar
codec.  :func:`scalar_view` is the one place that splits a ring into its
Z/n factors; the algebra kernel, the central-unit count, the oracle's
enumeration guard and the weight layer's scalars (:func:`scalar_codec`)
read it.  Every matrix unit test and inverse over Z/n, here and for the
class blocks of the incidence algebra, is one row reduction,
:func:`det_inverse`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re


class RingParseError(ValueError):
    """Ring spec or element text that does not match the grammar."""


class NonUnitError(ArithmeticError):
    """Inverse requested for an element without a two-sided inverse."""


class RingMismatchError(ValueError):
    """Carriers or encodings from different rings were mixed."""


class Ring:
    """Interface shared by all coefficient rings.

    Subclasses provide zero/one/add/neg/mul, a deterministic
    ``elements()`` enumeration and its size ``order``, unit testing and
    inversion, the central units and a test for one canonical element
    (``is_central_unit``, which never lists them), and text encoding of
    elements (``parse_element`` returns only what ``check`` accepts).
    ``scalars`` is the ring's :func:`scalar_codec`, built on first use
    and the one thing a ring keeps.  A ring is identified by its spec,
    the text ``str`` gives.
    """

    @functools.cached_property
    def scalars(self):
        return scalar_codec(self)

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and str(other) == str(self))

    def __hash__(self):
        return hash(str(self))

    def __repr__(self):
        return str(self)


class ZMod(Ring):
    """Integers modulo n, elements encoded as residues in range(n)."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise RingParseError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n

    def check(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.n:
            raise RingMismatchError(f"{a!r} is not a canonical element of {self}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def elements(self):
        return range(self.n)

    @property
    def order(self) -> int:
        return self.n

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.n) == 1

    is_central_unit = is_unit

    def inverse(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:  # what pow raises on a non-unit
            raise NonUnitError(f"{a} is not invertible in {self}") from None

    def central_units(self):
        return tuple(a for a in range(self.n) if math.gcd(a, self.n) == 1)

    def parse_element(self, text: str):
        t = text.strip()
        if _INT_RE.fullmatch(t):
            try:
                return int(t) % self.n
            except ValueError:  # more digits than int() converts
                pass
        raise RingParseError(f"cannot parse {_excerpt(text)} as an element of {self}")

    def format_element(self, a) -> str:
        return str(a)

    def __str__(self):
        return f"Z/{self.n}"


class ProductRing(Ring):
    """Direct product of two or more rings; elements are flat tuples."""

    def __init__(self, factors):
        flat = [g for f in factors for g in (f.factors if isinstance(f, ProductRing) else (f,))]
        if len(flat) < 2:
            raise RingParseError("product needs at least two factors")
        self.factors = tuple(flat)

    def check(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise RingMismatchError(f"{a!r} is not a canonical element of {self}")
        for f, c in zip(self.factors, a):
            f.check(c)

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def elements(self):
        return tuple(itertools.product(*(f.elements() for f in self.factors)))

    @property
    def order(self) -> int:
        return math.prod(f.order for f in self.factors)

    def is_unit(self, a) -> bool:
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def is_central_unit(self, a) -> bool:
        return all(f.is_central_unit(x) for f, x in zip(self.factors, a))

    def inverse(self, a):
        if not self.is_unit(a):
            raise NonUnitError(f"{self.format_element(a)} is not invertible in {self}")
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def central_units(self):
        return tuple(itertools.product(*(f.central_units() for f in self.factors)))

    def parse_element(self, text: str):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise RingParseError(f"cannot parse {_excerpt(text)} as an element of {self}")
        parts = split_top_level(t[1:-1])
        if len(parts) != len(self.factors):
            raise RingParseError(
                f"{_excerpt(text)} has {len(parts)} components, {self} expects {len(self.factors)}"
            )
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))

    def format_element(self, a) -> str:
        return "(" + ",".join(f.format_element(x) for f, x in zip(self.factors, a)) + ")"

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


class MatrixRing(Ring):
    """k x k matrices over Z/n; elements are row-major tuples of row tuples."""

    def __init__(self, size: int, base: ZMod):
        if not isinstance(size, int) or size < 1:
            raise RingParseError(f"matrix size must be an integer >= 1, got {size!r}")
        if not isinstance(base, ZMod):
            raise RingParseError("matrix rings are supported over Z/n bases only")
        self.size = size
        self.base = base

    def check(self, a):
        n = self.base.n
        if not (_square(a, self.size, tuple) and all(0 <= v < n for row in a for v in row)):
            raise RingMismatchError(f"{a!r} is not a canonical element of {self}")

    def zero(self):
        return scalar_matrix(self.size, 0)

    def one(self):
        return scalar_matrix(self.size, 1)

    def add(self, a, b):
        n = self.base.n
        return tuple(tuple((x + y) % n for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def neg(self, a):
        n = self.base.n
        return tuple(tuple((-x) % n for x in row) for row in a)

    def mul(self, a, b):
        n, cols = self.base.n, tuple(zip(*b))
        return tuple(tuple(sum(map(operator.mul, row, col)) % n for col in cols) for row in a)

    def elements(self):
        k, n = self.size, self.base.n
        return tuple(tuple(flat[i * k:(i + 1) * k] for i in range(k))
                     for flat in itertools.product(range(n), repeat=k * k))

    @property
    def order(self) -> int:
        return self.base.n ** (self.size * self.size)

    def is_unit(self, a) -> bool:
        return det_inverse(self.base.n, a)[1] is not None

    def is_central_unit(self, a) -> bool:
        """A scalar matrix with a unit on the diagonal (see central_units)."""
        return self.base.is_unit(a[0][0]) and a == scalar_matrix(self.size, a[0][0])

    def inverse(self, a):
        det, inv = det_inverse(self.base.n, a)
        if inv is None:
            raise NonUnitError(
                f"{self.format_element(a)} has non-unit determinant {det} in {self}")
        return tuple(map(tuple, inv))

    def central_units(self):
        # center of a full matrix ring over a commutative base: scalar matrices
        return tuple(scalar_matrix(self.size, u) for u in self.base.central_units())

    def parse_element(self, text: str):
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError):  # bad JSON, or an int with too many digits
            raise RingParseError(f"cannot parse {_excerpt(text)} as an element of {self}") from None
        k, n = self.size, self.base.n
        if not _square(raw, k, list):
            raise RingParseError(f"{_excerpt(text)} is not a {k}x{k} integer matrix for {self}")
        return tuple(tuple(v % n for v in row) for row in raw)

    def format_element(self, a) -> str:
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in a) + "]"

    def __str__(self):
        return f"M({self.size},{self.base})"


def _square(a, k, kind):
    """Whether a is k rows of k ints (no bools), rows and a of type kind."""
    return isinstance(a, kind) and len(a) == k and all(
        isinstance(row, kind) and len(row) == k
        and all(isinstance(v, int) and not isinstance(v, bool) for v in row) for row in a)


def scalar_view(ring):
    """The ring as Z/n factors, one ``(n, k, part)`` each: k = 0 for Z/n
    itself, k for M(k,Z/n) (k x k blocks of residues), and ``part`` the
    factor's place in the tuple of a product ring (None outside one)."""
    if isinstance(ring, ProductRing):
        return [scalar_view(f)[0][:2] + (i,) for i, f in enumerate(ring.factors)]
    if isinstance(ring, MatrixRing):
        return [(ring.base.n, ring.size, None)]
    return [(ring.n, 0, None)]


def element_residues(ring) -> int:
    """The residues that encode one element: k*k per factor M(k,Z/n), one per Z/n."""
    return sum(k * k or 1 for _, k, _ in scalar_view(ring))


def scalar_matrix(k, u):
    """u times the k x k identity matrix, in the canonical encoding."""
    return tuple((0,) * i + (u,) + (0,) * (k - 1 - i) for i in range(k))


def scalar_codec(ring):
    """``(split, join)`` between tuples of central units and Z/n scalars.

    ``split`` gives one ``(n, residues)`` per factor of the scalar view
    and ``join`` maps one residue tuple per factor back, building each
    distinct lambda I of a column once.  A unit of Z/n is its own scalar
    (both return the tuple they are given), lambda I of M(k,Z/n) is
    lambda, and a product has one scalar per factor.
    """
    view = scalar_view(ring)
    if view[0][1:] == (0, None):  # Z/n itself: nothing to convert
        return (lambda units, n=view[0][0]: [(n, units)]), operator.itemgetter(0)

    def split(units):
        return [(n, tuple([(a if part is None else a[part])[0][0] if k else a[part]
                           for a in units])) for n, k, part in view]

    def join(columns):
        parts = [tuple(map({u: scalar_matrix(k, u) for u in set(col)}.__getitem__, col)) if k
                 else col for (_, k, _), col in zip(view, columns)]
        return parts[0] if view[0][2] is None else tuple(zip(*parts))

    return split, join


def count_central_units(ring, cap) -> int:
    """min(cap, number of central units of the ring), listing none.

    A central unit is one unit of Z/n per factor of the scalar view
    (:func:`scalar_view`), a scalar matrix over M(k,Z/n).  For Z/n,
    phi(n) >= n prod (1 - 1/p) over the primes p < 100 dividing n, times
    1 - t/100 for its t < log_101 n other prime factors; only when that
    bound is below cap are the units of Z/n walked, up to cap."""
    total = 1
    for n, _, _ in scalar_view(ring):
        low = rest = n
        for p in range(2, 100):  # a composite p no longer divides rest
            if rest % p == 0:
                low = low // p * (p - 1)
                while rest % p == 0:
                    rest //= p
        if low * (99 - rest.bit_length() // 6) >= 100 * cap:
            total *= cap
        else:
            total *= sum(1 for _ in itertools.islice(filter(ZMod(n).is_unit, range(n)), cap))
    return min(cap, total)


def det_inverse(n, rows):
    """Determinant of a square integer matrix over Z/n, and its inverse.

    Returns ``(det, inverse)`` with ``det`` in ``range(n)`` and the
    inverse as a list of row lists, or ``(det, None)`` when det is no
    unit mod n.  One pass reduces ``[A | I]`` to upper triangular form by
    Euclid's algorithm on pairs of rows (the Hermite form step): a swap
    flips the sign of det and subtracting a multiple of one row from
    another keeps it, so det is +-prod(diagonal).  No pivot has to be a
    unit and n is never factored.  When det is a unit, so is every
    pivot, and back substitution finishes the inverse.  O(s^3) row steps
    times O(log n) Euclid steps for an s x s matrix.
    """
    s = len(rows)
    if s == 1:  # the block of a one-element class: its entry is its determinant
        det = rows[0][0] % n
        return det, ([[pow(det, -1, n)]] if math.gcd(det, n) == 1 else None)
    aug = [[x % n for x in row] + [0] * s for row in rows]
    for i, row in enumerate(aug):
        row[s + i] = 1
    sign = 1
    for c in range(s):
        for r in range(c + 1, s):
            a, b = aug[c], aug[r]
            while b[c]:
                q = a[c] // b[c]
                a, b = b, [(x - q * y) % n for x, y in zip(a, b)]
                sign = -sign
            aug[c], aug[r] = a, b
    det = sign * math.prod([aug[c][c] for c in range(s)]) % n
    if math.gcd(det, n) != 1:
        return det, None
    for c in reversed(range(s)):
        p = pow(aug[c][c], -1, n)
        pivot = aug[c] = [x * p % n for x in aug[c]]
        for r in range(c):
            f = aug[r][c]
            if f:
                aug[r] = [(x - f * y) % n for x, y in zip(aug[r], pivot)]
    return det, [row[s:] for row in aug]


def _excerpt(text):
    """``repr(text)`` for an error message, cut after 60 characters with
    "..." so that a huge input is not echoed whole."""
    shown = repr(text)
    return shown if len(shown) <= 60 else shown[:60] + "..."


def split_top_level(text: str):
    """Split on commas that are not nested inside parentheses or brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise RingParseError(f"unbalanced brackets in {_excerpt(text)}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise RingParseError(f"unbalanced brackets in {_excerpt(text)}")
    parts.append(text[start:])
    return parts


_INT_RE = re.compile(r"[+-]?\d+")
_ZMOD_RE = re.compile(r"Z/(\d+)\Z")
_MATRIX_RE = re.compile(r"M\((\d+),Z/(\d+)\)\Z")


def _parse_atom(token: str) -> Ring:
    t = token.strip()
    m = _ZMOD_RE.fullmatch(t) or _MATRIX_RE.fullmatch(t)
    if not m:
        raise RingParseError(f"cannot parse ring spec token {_excerpt(t)}")
    *k, n = map(int, m.groups())
    if k and k[0] < 1:
        raise RingParseError(f"matrix size below 1 in spec token {t!r}")
    if n < 2:
        raise RingParseError(f"modulus below 2 in spec token {t!r}")
    return MatrixRing(k[0], ZMod(n)) if k else ZMod(n)


def parse_ring_spec(text: str) -> Ring:
    """Parse "Z/n", "M(k,Z/n)", or " x "-joined products of those."""
    if not isinstance(text, str):
        raise RingParseError(f"ring spec {_excerpt(text)} is not a string")
    if not text.strip():
        raise RingParseError(f"empty ring spec {text!r}")
    parts = text.strip().split(" x ")
    if len(parts) == 1:
        return _parse_atom(parts[0])
    return ProductRing(tuple(_parse_atom(p) for p in parts))
