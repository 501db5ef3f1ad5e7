"""Ring arithmetic for the benchmark's own output checks.

Deliberately independent of ``incalg.coeff_rings``: the checks must not
trust the code they judge.  Only the rings the workloads use are
covered: Z/n, products of Z/n factors, and 2x2 matrices over Z/n.
Elements use the incalg file encodings on the way in and out
("3", "(1,2)", "[[1,0],[0,1]]") and plain ints / tuples inside.
"""

from __future__ import annotations

import json
import math
import re


class Zn:
    def __init__(self, n):
        self.n = n
        self.spec = f"Z/{n}"
        self.one = 1
        self.zero = 0

    def mul(self, a, b):
        return a * b % self.n

    def inv(self, a):
        return pow(a, -1, self.n)

    def central_units(self):
        return [a for a in range(1, self.n) if math.gcd(a, self.n) == 1]

    def random(self, rng):
        return rng.randrange(self.n)

    def parse(self, text):
        if not re.fullmatch(r"\d+", text):
            raise ValueError(f"bad Z/{self.n} element {text!r}")
        value = int(text)
        if value >= self.n:
            raise ValueError(f"non-canonical Z/{self.n} element {text!r}")
        return value

    def fmt(self, a):
        return str(a)

    def to_block(self, a):
        """Integer matrix of the element, for dense products mod n."""
        return ((a,),)


class Product:
    def __init__(self, factors):
        self.factors = tuple(factors)
        self.spec = " x ".join(f.spec for f in self.factors)
        self.one = tuple(f.one for f in self.factors)
        self.zero = tuple(f.zero for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def central_units(self):
        out = [()]
        for f in self.factors:
            out = [u + (v,) for u in out for v in f.central_units()]
        return out

    def random(self, rng):
        return tuple(f.random(rng) for f in self.factors)

    def parse(self, text):
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad product element {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != len(self.factors):
            raise ValueError(f"wrong arity in {text!r}")
        return tuple(f.parse(p) for f, p in zip(self.factors, parts))

    def fmt(self, a):
        return "(" + ",".join(f.fmt(x) for f, x in zip(self.factors, a)) + ")"


class Mat2:
    """2x2 matrices over Z/n, encoded row major as (a, b, c, d)."""

    def __init__(self, n):
        self.n = n
        self.spec = f"M(2,Z/{n})"
        self.one = (1, 0, 0, 1)
        self.zero = (0, 0, 0, 0)

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        n = self.n
        return ((a * e + b * g) % n, (a * f + b * h) % n,
                (c * e + d * g) % n, (c * f + d * h) % n)

    def inv(self, x):
        a, b, c, d = x
        n = self.n
        k = pow((a * d - b * c) % n, -1, n)
        return (d * k % n, -b * k % n, -c * k % n, a * k % n)

    def central_units(self):
        return [(u, 0, 0, u) for u in range(1, self.n) if math.gcd(u, self.n) == 1]

    def random(self, rng):
        return tuple(rng.randrange(self.n) for _ in range(4))

    def parse(self, text):
        rows = json.loads(text)
        flat = tuple(v for row in rows for v in row)
        if (len(rows) != 2 or any(len(r) != 2 for r in rows)
                or not all(type(v) is int and 0 <= v < self.n for v in flat)):
            raise ValueError(f"bad {self.spec} element {text!r}")
        return flat

    def fmt(self, x):
        return f"[[{x[0]},{x[1]}],[{x[2]},{x[3]}]]"

    def to_block(self, x):
        return ((x[0], x[1]), (x[2], x[3]))


def ring_from_spec(spec):
    parts = spec.split(" x ")
    if len(parts) > 1:
        return Product(ring_from_spec(p) for p in parts)
    m = re.fullmatch(r"M\(2,Z/(\d+)\)", spec)
    if m:
        return Mat2(int(m.group(1)))
    m = re.fullmatch(r"Z/(\d+)", spec)
    if m:
        return Zn(int(m.group(1)))
    raise ValueError(f"ring {spec!r} is not covered by the benchmark's arithmetic")


def dense_product(ring, order_pos, span, f, g):
    """Dense product of two incidence functions as integer matrices mod n.

    ``f`` and ``g`` map (x, y) to ring elements (absent = zero).
    ``order_pos`` numbers the elements along a linear extension whose
    classes are contiguous, and ``span[i]`` is the last position of the
    class of position i.  Entries lead from a class to itself or to a
    class above it, so entry (i, j) of the product sums over the positions
    from the start of i's class to the end of j's class.  Every element
    expands to its integer block (1x1 for Z/n, 2x2 for M(2,Z/n)), so this
    is one plain integer matrix product.  Returns the nonzero entries,
    keyed like the inputs.
    """
    n = ring.n
    labels = sorted(order_pos, key=order_pos.get)
    size = len(labels)
    k = len(ring.to_block(ring.one))
    dim = size * k
    fm = [[0] * dim for _ in range(dim)]
    gt = [[0] * dim for _ in range(dim)]  # transposed, so columns are rows
    for src, dst, transpose in ((f, fm, False), (g, gt, True)):
        for (x, y), v in src.items():
            i, j = order_pos[x], order_pos[y]
            block = ring.to_block(v)
            for a in range(k):
                for b in range(k):
                    if transpose:
                        dst[j * k + b][i * k + a] = block[a][b]
                    else:
                        dst[i * k + a][j * k + b] = block[a][b]
    first = [0] * size
    for i in range(1, size):
        first[i] = i if span[i - 1] != span[i] else first[i - 1]
    out = {}
    zero = ring.zero
    for i in range(size):
        lo = first[i] * k
        for j in range(first[i], size):
            hi = (span[j] + 1) * k
            block = [
                [sum(map(int.__mul__, fm[i * k + a][lo:hi], gt[j * k + b][lo:hi])) % n
                 for b in range(k)]
                for a in range(k)
            ]
            value = block[0][0] if k == 1 else tuple(v for row in block for v in row)
            if value != zero:
                out[(labels[i], labels[j])] = value
    return out
