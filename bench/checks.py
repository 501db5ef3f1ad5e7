"""Output checks, computed with the benchmark's own arithmetic.

Each check parses what an incalg command printed or wrote and raises
:class:`CheckFailed` unless it is right.  Weights are dicts from class
index pairs (i, j) to ring elements; functions are dicts from element
label pairs to nonzero ring elements; posets are ``gen.Poset``.
"""

from __future__ import annotations

import json
from collections import deque

from arith import dense_product


class CheckFailed(Exception):
    """An op printed or wrote a wrong result."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _index_of(poset, label):
    i = poset.class_index.get(label)
    require(i is not None and poset.reps[i] == label, f"{label!r} is not a class representative")
    return i


def parse_potential(poset, ring, text):
    doc = json.loads(text)
    require(doc.get("ring") == ring.spec, f"potential ring {doc.get('ring')!r}")
    values = {_index_of(poset, r["class"]): ring.parse(r["value"]) for r in doc["values"]}
    require(len(values) == len(poset.classes) == len(doc["values"]), "potential is not total")
    units = set(ring.central_units())
    require(all(v in units for v in values.values()), "potential value is not a central unit")
    return values


def parse_weights(poset, ring, text):
    doc = json.loads(text)
    require(doc.get("ring") == ring.spec, f"weight ring {doc.get('ring')!r}")
    return {
        (_index_of(poset, r["from"]), _index_of(poset, r["to"])): ring.parse(r["value"])
        for r in doc["weights"]
    }


def parse_function(ring, text):
    out = {}
    for r in json.loads(text)["entries"]:
        value = ring.parse(r["value"])
        require(value != ring.zero, f"explicit zero at ({r['from']}, {r['to']})")
        out[(r["from"], r["to"])] = value
    return out


def check_potential(poset, ring, weights, text):
    """A returned potential reproduces every weight: v[x]^-1 v[y] = c[x, y]."""
    v = parse_potential(poset, ring, text)
    for (i, j), c in weights.items():
        require(ring.mul(ring.inv(v[i]), v[j]) == c,
                f"potential misses weight at ({poset.reps[i]}, {poset.reps[j]})")


def check_witness(poset, ring, weights, cycle_text, weight_text):
    """A returned witness is a closed semi-path whose weight is not one.

    Either traversal direction is accepted for the reported weight; the
    two differ by inversion, and both are one or neither is.
    """
    seq = [_index_of(poset, lab) for lab in cycle_text.split("-")]
    require(len(seq) >= 4 and seq[0] == seq[-1], f"witness {cycle_text!r} is not a cycle")
    acc = ring.one
    for a, b in zip(seq, seq[1:]):
        if poset.lt(a, b):
            acc = ring.mul(acc, weights[(a, b)])
        else:
            require(poset.lt(b, a), f"witness step {poset.reps[a]}-{poset.reps[b]} is no edge")
            acc = ring.mul(acc, ring.inv(weights[(b, a)]))
    require(acc != ring.one, f"witness {cycle_text!r} has weight one")
    require(ring.parse(weight_text) in (acc, ring.inv(acc)),
            f"witness weight {weight_text} does not match the cycle")


def bfs_tree_edges(poset):
    """Tree edges of the documented spanning tree: breadth first from the
    least representative, neighbours in label order."""
    k = len(poset.classes)
    nbrs = [sorted((j for j in range(k) if poset.lt(i, j) or poset.lt(j, i)),
                   key=lambda j: poset.reps[j]) for i in range(k)]
    root = min(range(k), key=lambda i: poset.reps[i])
    seen, queue, edges = {root}, deque([root]), []
    while queue:
        a = queue.popleft()
        for b in nbrs[a]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
                edges.append((a, b) if poset.lt(a, b) else (b, a))
    return root, edges


def check_decompose(poset, ring, weights, w1_text, w0_text, potential_text):
    """w1 * w0 recomposes the input, w1 is one on the tree edges, and w0 is
    the coboundary of the returned potential, which is one at the root."""
    w1 = parse_weights(poset, ring, w1_text)
    w0 = parse_weights(poset, ring, w0_text)
    require(set(w1) == set(w0) == set(weights), "decomposition factors are not total")
    for p, c in weights.items():
        require(ring.mul(w1[p], w0[p]) == c, f"w1 * w0 differs from the input at {p}")
    root, edges = bfs_tree_edges(poset)
    require(all(w1[e] == ring.one for e in edges), "w1 is not one on the tree edges")
    v = parse_potential(poset, ring, potential_text)
    require(v[root] == ring.one, "potential is not one at the root")
    for (i, j), c in w0.items():
        require(ring.mul(ring.inv(v[i]), v[j]) == c, f"w0 is not the coboundary at {(i, j)}")


def check_violations(poset, ring, weights, listed):
    """Every reported chain-condition violation (x, z, y) is real."""
    require(listed, "no violation reported for a corrupted system")
    for x, z, y in listed:
        i, k, j = (_index_of(poset, lab) for lab in (x, z, y))
        require(poset.lt(i, k) and poset.lt(k, j), f"({x}, {z}, {y}) is not a chain")
        require(weights[(i, j)] != ring.mul(weights[(i, k)], weights[(k, j)]),
                f"({x}, {z}, {y}) satisfies the chain condition")


def check_product(poset, ring, f, g, text):
    """Convolution output equals the dense matrix product f g."""
    pos, span = poset.layout()
    require(parse_function(ring, text) == dense_product(ring, pos, span, f, g),
            "convolution differs from the dense product")


def check_inverse(poset, ring, f, text):
    """Inverse output g satisfies f g = delta (the dense product)."""
    pos, span = poset.layout()
    g = parse_function(ring, text)
    identity = {(s, s): ring.one for s in pos}
    require(dense_product(ring, pos, span, f, g) == identity, "f * inverse is not delta")


def check_apply(poset, ring, weights, f, text):
    """Apply scales each cross-class entry by its class-pair weight."""
    cls = poset.class_index
    expected = {}
    for (s, t), v in f.items():
        i, j = cls[s], cls[t]
        w = v if i == j else ring.mul(weights[(i, j)], v)
        if w != ring.zero:
            expected[(s, t)] = w
    require(parse_function(ring, text) == expected, "apply output differs from scaled input")


def check_verify(text, reports, seed):
    """Every report line passes; returns the summed ``mult=`` counts."""
    lines = text.splitlines()
    require(lines and lines[-1] == f"PASS suite reports={len(lines) - 1} seed={seed}",
             f"bad verify summary {lines[-1:]!r}")
    require(reports is None or len(lines) - 1 == reports, "wrong number of verify reports")
    require(all(line.startswith("PASS ") for line in lines), "a verify report failed")
    return sum(int(tok[5:]) for line in lines for tok in line.split() if tok.startswith("mult="))
