"""Seeded inputs for the benchmark, written in the incalg file formats.

The families are built from their definitions here, not through incalg:
chains, Boolean lattices, a circular crown times a chain ("tower"), the
same with some classes inflated to 2 or 3 mutually related elements, and
every connected poset on at most five points up to isomorphism.  Weight
systems, potentials and incidence functions are drawn from a
``random.Random`` so the same seed always gives the same files.
"""

from __future__ import annotations

import itertools
import json
import math


class Poset:
    """A preorder given by its classes and the order on them.

    ``classes`` lists the member labels of each class along a linear
    extension, least label first (that label is the class representative
    incalg uses).  ``up[i]`` is the bitmask of classes j with class i <=
    class j.  ``covers`` are the class pairs written as ``rel`` lines.
    """

    def __init__(self, classes, up, covers):
        self.classes = [tuple(c) for c in classes]
        self.up = list(up)
        self.covers = list(covers)
        self.reps = [c[0] for c in self.classes]
        self.class_index = {lab: i for i, c in enumerate(self.classes) for lab in c}

    @property
    def labels(self):
        return [lab for c in self.classes for lab in c]

    def lt(self, i, j):
        return i != j and bool(self.up[i] >> j & 1)

    def strict_pairs(self):
        """Strict class pairs (i, j) as index pairs."""
        k = len(self.classes)
        return [(i, j) for i in range(k) for j in range(k) if i != j and self.up[i] >> j & 1]

    def comparable_elements(self):
        """All element pairs (s, t) with s <= t in the preorder."""
        out = []
        for i, ci in enumerate(self.classes):
            for j in range(len(self.classes)):
                if self.up[i] >> j & 1:
                    out.extend((s, t) for s in ci for t in self.classes[j])
        return out

    def layout(self):
        """Element positions along the linear extension, and for each
        position the last position of its class (for dense products)."""
        pos, span = {}, []
        for c in self.classes:
            last = len(pos) + len(c) - 1
            for lab in c:
                pos[lab] = len(pos)
                span.append(last)
        return pos, span

    def text(self):
        lines = ["elements " + " ".join(self.labels)]
        for c in self.classes:
            if len(c) > 1:
                lines.extend(f"rel {a} {b}" for a, b in zip(c, c[1:] + c[:1]))
        lines.extend(f"rel {self.reps[i]} {self.reps[j]}" for i, j in self.covers)
        return "\n".join(lines) + "\n"


def _close(k, covers):
    """Upward closure masks of the cover relation (covers go up in index)."""
    above = [[] for _ in range(k)]
    for a, b in covers:
        above[a].append(b)
    up = [1 << i for i in range(k)]
    for i in range(k - 1, -1, -1):
        for b in above[i]:
            up[i] |= up[b]
    return up


def chain(k, prefix="c"):
    covers = [(i, i + 1) for i in range(k - 1)]
    return Poset([(f"{prefix}{i:03d}",) for i in range(k)], _close(k, covers), covers)


def boolean_lattice(bits):
    masks = sorted(range(1 << bits), key=lambda s: (bin(s).count("1"), s))
    index = {s: i for i, s in enumerate(masks)}
    covers = [(index[s], index[s | 1 << b]) for s in masks for b in range(bits) if not s >> b & 1]
    covers.sort()
    labels = [("b" + format(s, f"0{bits}b"),) for s in masks]
    return Poset(labels, _close(len(masks), covers), covers)


def crown_tower(half=6, height=8):
    """Circular crown on 2*half points times a chain of the given height.

    Crown minima a_p lie below maxima b_p and b_{p+1 mod half}; the
    product order is componentwise.  Classes are laid out level by
    level, so the index order is a linear extension.
    """
    points = [("a", p) for p in range(half)] + [("b", p) for p in range(half)]
    crown_lt = {(("a", p), ("b", p)) for p in range(half)}
    crown_lt |= {(("a", p), ("b", (p + 1) % half)) for p in range(half)}
    nodes = sorted(
        ((pt, lvl) for pt in points for lvl in range(height)),
        key=lambda n: (n[1] + (n[0][0] == "b"), n[1], n[0]),
    )
    index = {n: i for i, n in enumerate(nodes)}
    covers = []
    for (pt, lvl), i in index.items():
        if lvl + 1 < height:
            covers.append((i, index[(pt, lvl + 1)]))
        for lo, hi in crown_lt:
            if lo == pt:
                covers.append((i, index[(hi, lvl)]))
    covers.sort()
    labels = [(f"{pt[0]}{pt[1]}_{lvl}",) for pt, lvl in nodes]
    return Poset(labels, _close(len(nodes), covers), covers), nodes


def inflate(poset, rng, count):
    """Copy of the poset with ``count`` seeded classes grown to 2 or 3
    members (alternately, so the element count is the same for every
    seed); extra members are the representative plus a letter."""
    chosen = sorted(rng.sample(range(len(poset.classes)), count))
    extra = {ci: "xy"[: 1 + n % 2] for n, ci in enumerate(chosen)}
    classes = [c + tuple(c[0] + s for s in extra.get(ci, "")) for ci, c in enumerate(poset.classes)]
    return Poset(classes, poset.up, poset.covers)


def double_classes(poset, which):
    """Copy of the poset with the classes at the given indices doubled."""
    which = set(which)
    classes = [c + (c[0] + "x",) if ci in which else c for ci, c in enumerate(poset.classes)]
    return Poset(classes, poset.up, poset.covers)


# ---------------------------------------------------------------- small posets

def connected_small_posets(max_n=5):
    """Every connected poset on 1..max_n points, one per isomorphism class.

    Each is returned as (n, relation) with the relation a sorted tuple of
    strict pairs over 0..n-1, canonical (least over all relabellings), and
    the list is in a fixed order: by size, relation count, then relation.
    """
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        perms = list(itertools.permutations(range(n)))
        closures = set()
        for bits in range(1 << len(pairs)):
            up = [1 << i for i in range(n)]
            for t, (i, j) in enumerate(pairs):
                if bits >> t & 1:
                    up[i] |= 1 << j
            for i in range(n - 1, -1, -1):
                for j in range(i + 1, n):
                    if up[i] >> j & 1:
                        up[i] |= up[j]
            closures.add(tuple(up))
        keys = set()
        for up in closures:
            rel = [(i, j) for i in range(n) for j in range(n) if i != j and up[i] >> j & 1]
            if not _connected(n, rel):
                continue
            keys.add(min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms))
        out.extend((n, key) for key in sorted(keys, key=lambda r: (len(r), r)))
    return out


def _connected(n, rel):
    seen, stack = {0}, [0]
    while stack:
        a = stack.pop()
        for i, j in rel:
            for x, y in ((i, j), (j, i)):
                if x == a and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


def small_poset_text(n, rel):
    """File text for a small poset, points 0..n-1 named a..e."""
    lines = ["elements " + " ".join("abcde"[:n])]
    lines.extend(f"rel {'abcde'[i]} {'abcde'[j]}" for i, j in rel)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- weights and functions

def coboundary(poset, ring, potential):
    """c[x, y] = v[x]^-1 v[y] on every strict class pair."""
    return {
        (i, j): ring.mul(ring.inv(potential[i]), potential[j]) for i, j in poset.strict_pairs()
    }


def random_potential(poset, ring, rng):
    units = ring.central_units()
    return [rng.choice(units) for _ in poset.classes]


def crown_cocycle_pullback(poset, nodes, ring, rng):
    """Weights pulled back from a crown system with holonomy != 1.

    A pair whose crown points differ gets the crown edge weight; a pair
    over one crown point gets one.  The crown has height one, so every
    such assignment satisfies the chain condition on the tower, and the
    crown cycle's nontrivial weight makes the system non-inner.
    """
    units = ring.central_units()
    crown_edges = sorted({(nodes[i][0], nodes[j][0]) for i, j in poset.strict_pairs()
                          if nodes[i][0] != nodes[j][0]})
    half = len(crown_edges) // 2
    w = {e: rng.choice(units) for e in crown_edges}
    closing = (("a", 0), ("b", 1 % half))

    def holonomy():
        h = ring.one
        for p in range(half):
            q = (p + 1) % half
            h = ring.mul(h, ring.mul(w[(("a", p), ("b", q))], ring.inv(w[(("a", q), ("b", q))])))
        return h

    w[closing] = ring.one
    base = holonomy()
    w[closing] = rng.choice([u for u in units if ring.mul(base, u) != ring.one])
    return {
        (i, j): ring.one if nodes[i][0] == nodes[j][0] else w[(nodes[i][0], nodes[j][0])]
        for i, j in poset.strict_pairs()
    }


def multiply(ring, a, b):
    return {p: ring.mul(v, b[p]) for p, v in a.items()}


def corrupt(poset, ring, weights, rng):
    """Copy with one weight on a non-cover pair times a unit != 1, which
    breaks the chain condition through the class between the pair."""
    covers = set(poset.covers)
    pair = rng.choice(sorted(p for p in weights if p not in covers))
    bad = dict(weights)
    bad[pair] = ring.mul(bad[pair], rng.choice([u for u in ring.central_units() if u != ring.one]))
    return bad


def random_unit_function(poset, ring, rng, density=0.5):
    """Invertible diagonal blocks, and nonzero values on a seeded choice of
    ``density`` of the cross-class pairs: the same size for every seed."""
    entries = {}
    for c in poset.classes:
        while True:
            block = {(s, t): ring.random(rng) for s in c for t in c}
            if _block_invertible(ring, c, block):
                break
        entries.update(block)
    cross = [(s, t) for i, j in poset.strict_pairs()
             for s in poset.classes[i] for t in poset.classes[j]]
    for pair in rng.sample(cross, round(density * len(cross))):
        value = ring.zero
        while value == ring.zero:
            value = ring.random(rng)
        entries[pair] = value
    return {p: v for p, v in entries.items() if v != ring.zero}


def _block_invertible(ring, members, block):
    """Invertibility of a class block: the integer determinant of the
    expanded block matrix is a unit mod n."""
    k = len(ring.to_block(ring.one))
    size = len(members) * k
    rows = [[0] * size for _ in range(size)]
    for a, s in enumerate(members):
        for b, t in enumerate(members):
            m = ring.to_block(block[(s, t)])
            for u in range(k):
                for v in range(k):
                    rows[a * k + u][b * k + v] = m[u][v]
    return math.gcd(_int_det(rows), ring.n) == 1


def _int_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0]) if a
    )


def zeta_function(poset, ring):
    return {p: ring.one for p in poset.comparable_elements()}


# ---------------------------------------------------------------- file writers

def weights_json(poset, ring, weights):
    records = [
        {"from": poset.reps[i], "to": poset.reps[j], "value": ring.fmt(v)}
        for (i, j), v in sorted(weights.items())
    ]
    return json.dumps({"ring": ring.spec, "weights": records}) + "\n"


def function_json(ring, entries):
    records = [{"from": s, "to": t, "value": ring.fmt(v)} for (s, t), v in sorted(entries.items())]
    return json.dumps({"entries": records}) + "\n"
