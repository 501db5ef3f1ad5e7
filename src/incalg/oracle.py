"""Exhaustive oracles for small instances.

Everything here recomputes results the long way: weight systems by
filtering all central-unit assignments against the chain condition,
coboundaries by running through every vertex potential, automorphisms by
conjugating with every unit of the algebra, bimodule endomorphisms by
enumerating additive maps on the matrix-unit basis.  The fast structural
code is then compared against these enumerations.

Enumeration sizes are guarded; pass force=True to exceed a guard
knowingly.  All randomness is seeded and the seed lands in the report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .coeff_rings import ZMod
from .comparability import tree_of
from .incidence_algebra import (
    IncidenceFunction,
    NonInvertibleError,
    convolve,
    invert,
    matrix_is_invertible,
)
from .mult_automorphisms import (
    NotInnerWitness,
    Potential,
    WeightSystem,
    decompose,
    find_potential,
    from_potential,
    is_inner_cycles,
)
from .preorder_core import Preorder, close_relations, preorder_descriptor

GUARD_VECTORS = 10 ** 7
GUARD_ALGEBRA = 10 ** 6


class GuardExceeded(RuntimeError):
    """Enumeration would exceed the configured guard; pass force=True to run."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    instance: dict
    counts: dict
    checks: list
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "counts": self.counts,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def _instance(poset, ring) -> dict:
    return {"poset": preorder_descriptor(poset.source), "ring": str(ring)}


def enumerate_mult(poset, ring, limit=GUARD_VECTORS, force=False):
    """All weight systems satisfying the chain condition.

    Exhaustive filter over central-unit assignments to the strict pairs,
    organised as a depth-first search that rejects a partial assignment as
    soon as a fully assigned chain triple fails.  Output order equals the
    plain product-then-filter order: lexicographic in the sorted pair list
    with central units ascending.
    """
    pairs = poset.strict_pairs()
    units = ring.central_units()
    if not force and len(units) ** len(pairs) > limit:
        raise GuardExceeded(
            f"{len(units)}^{len(pairs)} candidate vectors exceed the guard {limit}"
        )
    index = {p: i for i, p in enumerate(pairs)}
    triples_at = [[] for _ in pairs]
    for x, y in pairs:
        for z in poset.reps:
            if poset.lt(x, z) and poset.lt(z, y):
                spots = (index[(x, z)], index[(z, y)], index[(x, y)])
                triples_at[max(spots)].append(spots)
    out = []
    chosen = [None] * len(pairs)
    mul = ring.mul

    def search(k):
        if k == len(pairs):
            out.append(WeightSystem(poset, ring, dict(zip(pairs, chosen))))
            return
        for u in units:
            chosen[k] = u
            if all(mul(chosen[i], chosen[j]) == chosen[t] for i, j, t in triples_at[k]):
                search(k + 1)

    search(0)
    return out


def enumerate_inner(poset, ring, limit=GUARD_VECTORS, force=False):
    """All coboundary systems, by running through every vertex potential.

    Deduplicated and sorted; the count must come out to |G|^(m - lambda)
    which the structure checks assert.
    """
    units = ring.central_units()
    k = poset.n_classes
    if not force and len(units) ** k > limit:
        raise GuardExceeded(f"{len(units)}^{k} potentials exceed the guard {limit}")
    seen = {}
    for combo in itertools.product(units, repeat=k):
        ws = from_potential(Potential(poset, ring, dict(zip(poset.reps, combo))))
        seen.setdefault(ws.key(), ws)
    return [seen[key] for key in sorted(seen)]


def verify_structure(poset, ring, root=None, limit=GUARD_VECTORS, force=False) -> VerificationReport:
    """Cross-check the structural machinery against raw enumeration.

    Runs on one connected instance: decomposition recomposes and lands in
    the advertised factors, the factors intersect trivially, the
    coboundary count matches |G|^(m - lambda), the group sizes multiply,
    and the three innerness tests (cycle weights, potential
    reconstruction, enumerated membership) agree on every system.
    """
    mult = enumerate_mult(poset, ring, limit, force)
    inner = enumerate_inner(poset, ring, limit, force)
    inner_keys = {w.key() for w in inner}
    tree = tree_of(poset, root)
    graph = tree.graph
    one = ring.one()
    identity_key = WeightSystem.identity(poset, ring).key()
    checks = []

    decompose_failures = []
    tree_trivial = []
    for ws in mult:
        w1, w0, potential = decompose(ws, root)
        ok = (
            (w1 * w0).key() == ws.key()
            and all(w1.values[e] == one for e in tree.tree_edges)
            and w1.is_valid()
            and w0.key() in inner_keys
            and from_potential(potential).key() == w0.key()
        )
        if not ok:
            decompose_failures.append(ws.items())
        if all(ws.values[e] == one for e in tree.tree_edges):
            tree_trivial.append(ws)
    checks.append(
        CheckResult(
            "decompose-recompose",
            not decompose_failures,
            {"failures": decompose_failures[:3]},
        )
    )

    crossing = [w.key() for w in tree_trivial if w.key() in inner_keys]
    checks.append(
        CheckResult(
            "factor-intersection-trivial",
            crossing == [identity_key],
            {"intersection_size": len(crossing)},
        )
    )

    expected_inner = len(ring.central_units()) ** (graph.m - graph.cyclomatic)
    checks.append(
        CheckResult(
            "inner-count",
            len(inner) == expected_inner,
            {"got": len(inner), "expected": expected_inner},
        )
    )

    checks.append(
        CheckResult(
            "size-product",
            len(mult) == len(tree_trivial) * len(inner),
            {"mult": len(mult), "tree_trivial": len(tree_trivial), "inner": len(inner)},
        )
    )

    disagreements = []
    for ws in mult:
        by_cycles, _ = is_inner_cycles(ws, root)
        by_potential = not isinstance(find_potential(ws, root), NotInnerWitness)
        member = ws.key() in inner_keys
        if not (by_cycles == by_potential == member):
            disagreements.append(ws.items())
    checks.append(
        CheckResult(
            "inner-test-agreement", not disagreements, {"failures": disagreements[:3]}
        )
    )

    checks.append(
        CheckResult(
            "all-inner-iff-trivial-complement",
            (len(mult) == len(inner)) == (len(tree_trivial) == 1),
            {},
        )
    )

    counts = {
        "mult": len(mult),
        "inner": len(inner),
        "tree_trivial": len(tree_trivial),
        "edges": graph.m,
        "cyclomatic": graph.cyclomatic,
    }
    return VerificationReport(instance=_instance(poset, ring), counts=counts, checks=checks)


def verify_inner_conjugations(preorder, ring, limit=GUARD_ALGEBRA, force=False) -> VerificationReport:
    """Conjugation sweep over every unit of the incidence algebra.

    A unit's conjugation counts when it fixes each single-entry
    within-class function and scales each cross-class block by one central
    unit.  The weight systems collected that way must coincide exactly
    with the coboundary enumeration.
    """
    pairs = preorder.comparable_pairs()
    if not force and ring.order ** len(pairs) > limit:
        raise GuardExceeded(
            f"{ring.order}^{len(pairs)} algebra elements exceed the guard {limit}"
        )
    quotient = preorder.quotient()
    zero = ring.zero()
    one = ring.one()
    nonzero = [r for r in ring.elements() if r != zero]
    cls = quotient.class_of
    within = [(s, t) for s, t in pairs if cls[s] == cls[t]]
    cross = {}
    for s, t in pairs:
        if cls[s] != cls[t]:
            cross.setdefault((quotient.reps[cls[s]], quotient.reps[cls[t]]), []).append((s, t))

    units = 0
    multiplicative = 0
    induced = {}
    for combo in itertools.product(ring.elements(), repeat=len(pairs)):
        entries = {p: v for p, v in zip(pairs, combo) if v != zero}
        u = IncidenceFunction(preorder, ring, entries)
        try:
            u_inv = invert(u)
        except NonInvertibleError:
            continue
        units += 1

        def conj(g):
            return convolve(convolve(u_inv, g), u)

        fixes_diagonal = all(
            conj(IncidenceFunction(preorder, ring, {(s, t): r}))
            == IncidenceFunction(preorder, ring, {(s, t): r})
            for s, t in within
            for r in nonzero
        )
        if not fixes_diagonal:
            continue
        weights = {}
        scales = True
        for class_pair, block_pairs in sorted(cross.items()):
            base = block_pairs[0]
            image = conj(IncidenceFunction(preorder, ring, {base: one}))
            c = image.entries.get(base, zero)
            if set(image.entries) != {base} or not ring.is_central_unit(c):
                scales = False
                break
            for s, t in block_pairs:
                for r in nonzero:
                    got = conj(IncidenceFunction(preorder, ring, {(s, t): r}))
                    if got != IncidenceFunction(preorder, ring, {(s, t): ring.mul(c, r)}):
                        scales = False
                        break
                if not scales:
                    break
            if not scales:
                break
            weights[class_pair] = c
        if not scales:
            continue
        multiplicative += 1
        ws = WeightSystem.from_values(quotient, ring, weights)
        induced.setdefault(ws.key(), ws)

    expected = {w.key() for w in enumerate_inner(quotient, ring)}
    checks = [
        CheckResult(
            "induced-equals-coboundaries",
            set(induced) == expected,
            {"induced": len(induced), "coboundaries": len(expected)},
        )
    ]
    counts = {"units": units, "multiplicative": multiplicative, "induced": len(induced)}
    return VerificationReport(instance=_instance(quotient, ring), counts=counts, checks=checks)


def _matmul_mod(a, b, n):
    rows, mid, cols = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(mid)) % n for j in range(cols))
        for i in range(rows)
    )


def verify_bimodule_scalars(nrows, ncols, ring, limit=GUARD_ALGEBRA, force=False) -> VerificationReport:
    """Bimodule endomorphisms of rectangular matrices over Z/n.

    Enumerates every additive self-map of M(nrows x ncols) determined on
    the matrix-unit basis, keeps those commuting with the left and right
    matrix actions, and compares the survivors with the central
    multiplications v -> c v.  Bijective survivors must match the units.
    """
    if not isinstance(ring, ZMod):
        raise NotImplementedError("bimodule sweep is implemented for Z/n bases")
    n = ring.n
    dim = nrows * ncols
    space = tuple(
        tuple(flat[i * ncols:(i + 1) * ncols] for i in range(nrows))
        for flat in itertools.product(range(n), repeat=dim)
    )
    if not force and len(space) ** dim > limit:
        raise GuardExceeded(f"{len(space)}^{dim} additive maps exceed the guard {limit}")
    left = tuple(
        tuple(flat[i * nrows:(i + 1) * nrows] for i in range(nrows))
        for flat in itertools.product(range(n), repeat=nrows * nrows)
    )
    right = tuple(
        tuple(flat[i * ncols:(i + 1) * ncols] for i in range(ncols))
        for flat in itertools.product(range(n), repeat=ncols * ncols)
    )

    def apply_map(images, v):
        acc = [[0] * ncols for _ in range(nrows)]
        for i in range(nrows):
            for j in range(ncols):
                coeff = v[i][j]
                if coeff:
                    img = images[i * ncols + j]
                    for a in range(nrows):
                        for b in range(ncols):
                            acc[a][b] += coeff * img[a][b]
        return tuple(tuple(x % n for x in row) for row in acc)

    survivors = []
    for images in itertools.product(space, repeat=dim):
        ok = all(
            apply_map(images, _matmul_mod(p, v, n)) == _matmul_mod(p, apply_map(images, v), n)
            for p in left
            for v in space
        ) and all(
            apply_map(images, _matmul_mod(v, q, n)) == _matmul_mod(apply_map(images, v), q, n)
            for q in right
            for v in space
        )
        if ok:
            survivors.append(images)

    def scalar_images(c):
        return tuple(
            tuple(
                tuple((c if (a, b) == (i, j) else 0) for b in range(ncols))
                for a in range(nrows)
            )
            for i in range(nrows)
            for j in range(ncols)
        )

    expected = {scalar_images(c) for c in range(n)}
    expected_autos = {scalar_images(c) for c in range(n) if ring.is_unit(c)}
    bijective = {
        images for images in survivors if len({apply_map(images, v) for v in space}) == len(space)
    }
    checks = [
        CheckResult(
            "endomorphisms-are-central-multiplications",
            set(survivors) == expected,
            {"survivors": len(survivors), "expected": len(expected)},
        ),
        CheckResult(
            "automorphisms-are-central-unit-multiplications",
            bijective == expected_autos,
            {"bijective": len(bijective), "expected": len(expected_autos)},
        ),
    ]
    counts = {
        "additive_maps": len(space) ** dim,
        "endomorphisms": len(survivors),
        "automorphisms": len(bijective),
    }
    instance = {"bimodule": f"M({nrows}x{ncols},{ring})", "ring": str(ring)}
    return VerificationReport(instance=instance, counts=counts, checks=checks)


def linear_extension(preorder):
    """Element order compatible with the preorder: classes topologically
    sorted with lexicographic tie-break, members in label order."""
    quotient = preorder.quotient()
    k = quotient.n_classes
    remaining = set(range(k))
    order = []
    while remaining:
        ready = sorted(
            quotient.reps[ci]
            for ci in remaining
            if not any(
                cj in remaining and cj != ci and quotient.lt(quotient.reps[cj], quotient.reps[ci])
                for cj in remaining
            )
        )
        pick = quotient.class_of[ready[0]]
        order.extend(quotient.classes[pick])
        remaining.remove(pick)
    return order


def matrix_oracle(f: IncidenceFunction, g: IncidenceFunction) -> bool:
    """Convolution against plain matrix multiplication under a linear extension."""
    order = linear_extension(f.preorder)
    ring = f.ring
    size = len(order)
    fm = [[f.value(order[i], order[j]) for j in range(size)] for i in range(size)]
    gm = [[g.value(order[i], order[j]) for j in range(size)] for i in range(size)]
    conv = convolve(f, g)
    zero = ring.zero()
    for i in range(size):
        for j in range(size):
            acc = zero
            for t in range(size):
                acc = ring.add(acc, ring.mul(fm[i][t], gm[t][j]))
            if acc != conv.value(order[i], order[j]):
                return False
    return True


def random_function(preorder, ring, rng, density=0.6) -> IncidenceFunction:
    elements = ring.elements()
    entries = []
    for pair in preorder.comparable_pairs():
        if rng.random() < density:
            entries.append((pair[0], pair[1], elements[rng.randrange(len(elements))]))
    return IncidenceFunction.from_entries(preorder, ring, entries)


def random_unit(preorder, ring, rng, density=0.6) -> IncidenceFunction:
    """Random invertible function: invertible diagonal blocks, random strict part."""
    quotient = preorder.quotient()
    elements = ring.elements()
    units = [u for u in elements if ring.is_unit(u)]
    entries = []
    for members in quotient.classes:
        size = len(members)
        if size == 1:
            entries.append((members[0], members[0], units[rng.randrange(len(units))]))
            continue
        while True:
            mat = [
                [elements[rng.randrange(len(elements))] for _ in range(size)]
                for _ in range(size)
            ]
            if matrix_is_invertible(ring, mat):
                break
        for i, s in enumerate(members):
            for j, t in enumerate(members):
                entries.append((s, t, mat[i][j]))
    zero = ring.zero()
    cls = quotient.class_of
    for x, y in preorder.comparable_pairs():
        if cls[x] != cls[y] and rng.random() < density:
            entries.append((x, y, elements[rng.randrange(len(elements))]))
    return IncidenceFunction.from_entries(
        preorder, ring, [(x, y, v) for x, y, v in entries if v != zero]
    )


def automorphism_check(ws: WeightSystem, trials=100, seed=0) -> VerificationReport:
    """Random-sample test that ws.apply is a diagonal-fixing automorphism.

    Runs on any weight system, valid or not: a corrupted system is
    expected to fail here, and the failing pair is kept as a witness.
    """
    rng = random.Random(seed)
    preorder = ws.poset.source
    ring = ws.ring
    mult_failures = []
    diag_failures = []
    for trial in range(trials):
        f = random_function(preorder, ring, rng)
        g = random_function(preorder, ring, rng)
        left = ws.apply(convolve(f, g))
        right = convolve(ws.apply(f), ws.apply(g))
        if left != right:
            mult_failures.append(
                {
                    "trial": trial,
                    "f": [[x, y, ring.format_element(v)] for (x, y), v in sorted(f.entries.items())],
                    "g": [[x, y, ring.format_element(v)] for (x, y), v in sorted(g.entries.items())],
                }
            )
        if ws.apply(f).diagonal_part() != f.diagonal_part():
            diag_failures.append({"trial": trial})
    checks = [
        CheckResult("apply-multiplicative", not mult_failures, {"witness": mult_failures[:1]}),
        CheckResult("apply-fixes-diagonal", not diag_failures, {"witness": diag_failures[:1]}),
    ]
    counts = {"trials": trials, "failures": len(mult_failures) + len(diag_failures)}
    return VerificationReport(
        instance=_instance(ws.poset, ring), counts=counts, checks=checks, seed=seed
    )


def matrix_embedding_check(preorder, ring, trials=50, seed=0) -> VerificationReport:
    """Random-sample agreement of convolution with the matrix embedding."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        f = random_function(preorder, ring, rng)
        g = random_function(preorder, ring, rng)
        if not matrix_oracle(f, g):
            failures += 1
    checks = [CheckResult("matrix-embedding-agrees", failures == 0, {"failures": failures})]
    return VerificationReport(
        instance=_instance(preorder.quotient(), ring),
        counts={"trials": trials},
        checks=checks,
        seed=seed,
    )


_LABELS = "abcdefg"


@lru_cache(maxsize=None)
def all_posets(n: int):
    """All posets on n elements, one representative per isomorphism class.

    Generated as transitive closures of subsets of the upper triangle
    (every finite poset admits such a labelling), deduplicated by the
    minimum of the relation tuple over all label permutations.
    """
    if not 1 <= n <= 5:
        raise ValueError("poset generation supports 1 to 5 elements")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        key = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            close_relations(
                _LABELS[:n], [(_LABELS[i], _LABELS[j]) for i, j in sorted(rel)]
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def connected_posets(max_n: int):
    """All connected posets with at most max_n elements, up to isomorphism."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(p for p in all_posets(n) if p.quotient().is_connected())
    return tuple(out)


def inflate(poset: Preorder, sizes) -> Preorder:
    """Preorder whose classes have the given sizes over the given poset.

    Element i of the class over base label x is named x followed by its
    one-based index; members of one class are related both ways.
    """
    if len(sizes) != len(poset.elements):
        raise ValueError("need one class size per base element")
    members = {}
    labels = []
    for x, size in zip(poset.elements, sizes):
        if size < 1:
            raise ValueError("class sizes must be positive")
        members[x] = [f"{x}{i}" for i in range(1, size + 1)]
        labels.extend(members[x])
    gens = []
    for x in poset.elements:
        chain = members[x]
        for a, b in zip(chain, chain[1:]):
            gens.append((a, b))
        if len(chain) > 1:
            gens.append((chain[-1], chain[0]))
    for x, y in poset.comparable_pairs():
        if x != y:
            gens.append((members[x][0], members[y][0]))
    return close_relations(labels, gens)


DEFAULT_SUITE_RINGS = ("Z/2", "Z/3", "Z/4", "Z/5", "Z/12")


def run_structure_sweep(max_classes=5, ring_specs=DEFAULT_SUITE_RINGS, root=None,
                        limit=GUARD_VECTORS, force=False):
    """Structure verification over every connected generated poset."""
    from .coeff_rings import parse_ring_spec

    rings = [parse_ring_spec(s) for s in ring_specs]
    reports = []
    for poset in connected_posets(max_classes):
        quotient = poset.quotient()
        for ring in rings:
            reports.append(verify_structure(quotient, ring, root, limit, force))
    return reports


def run_full_suite(seed=0, max_classes=5, ring_specs=DEFAULT_SUITE_RINGS,
                   limit=GUARD_VECTORS, force=False):
    """The complete oracle battery: structure sweep, conjugation sweep on
    the two chains over Z/2 and Z/3, the four bimodule instances, and
    seeded spot checks of apply and the matrix embedding."""
    reports = run_structure_sweep(max_classes, ring_specs, None, limit, force)
    chain2 = close_relations("ab", [("a", "b")])
    chain3 = close_relations("abc", [("a", "b"), ("b", "c")])
    for preorder in (chain2, chain3):
        for ring in (ZMod(2), ZMod(3)):
            reports.append(verify_inner_conjugations(preorder, ring))
    for nrows, ncols, ring in ((1, 1, ZMod(2)), (1, 1, ZMod(3)), (2, 1, ZMod(2)), (1, 2, ZMod(2))):
        reports.append(verify_bimodule_scalars(nrows, ncols, ring))
    crown = close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    ring5 = ZMod(5)
    for ws in enumerate_mult(crown.quotient(), ring5)[:3]:
        reports.append(automorphism_check(ws, trials=40, seed=seed))
    reports.append(matrix_embedding_check(chain3, ZMod(12), trials=40, seed=seed))
    reports.append(matrix_embedding_check(crown, ring5, trials=40, seed=seed))
    return reports
