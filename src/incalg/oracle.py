"""Exhaustive oracles for small instances.

Everything here recomputes results the long way: weight systems by
filtering all central-unit assignments against the chain condition,
coboundaries by running through every vertex potential that is one at
the least class, automorphisms by conjugating with every unit of the
algebra, bimodule endomorphisms by enumerating additive maps on the
matrix-unit basis, convolution as a dense matrix product in the
preorder's own element order (no linear extension).  The fast structural
code is then compared against these enumerations; the structure judge
(:func:`verify_structure`) uses only ``ring`` arithmetic and the two
weight-system enumerations.

Sizes are guarded by module constants, read at call time and tested
before anything is built: ``GUARD_VECTORS`` for the count of weight
systems and potentials (``force=True`` lifts only this), the residues of
their central units and of one incidence function (:func:`guard_functions`),
and the comparable pairs of a preorder before the CLI builds its quotient
(the pair guard); ``GUARD_ALGEBRA`` for the conjugation and bimodule
sweeps.  All randomness is seeded and the seed lands in the report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce

from .coeff_rings import ZMod, count_central_units, element_residues, parse_ring_spec
from .comparability import fundamental_cycles, tree_of
from .incidence_algebra import (
    IncidenceFunction,
    NonInvertibleError,
    convolve,
    invert,
)
from .mult_automorphisms import (
    NotInnerWitness,
    WeightSystem,
    decompose,
    find_potential,
)
from .preorder_core import close_relations, preorder_descriptor

GUARD_VECTORS = 10 ** 7
GUARD_ALGEBRA = 10 ** 6
SPOT_TRIALS = 40  # random trials per spot check


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its guard."""


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
        return {**asdict(self), "passed": self.passed}


def _instance(poset, ring) -> dict:
    return {"poset": preorder_descriptor(poset.source), "ring": str(ring)}


def guard_functions(preorder, ring):
    """Refuse, before any is built, incidence functions of over ``GUARD_VECTORS``
    residues: a ring element's residues for each comparable pair."""
    pairs, cells = sum(map(int.bit_count, preorder._up)), element_residues(ring)
    if pairs * cells > GUARD_VECTORS:
        raise GuardExceeded(f"a function on {pairs} comparable pairs over {ring} takes "
                            f"{pairs * cells} residues, over the guard {GUARD_VECTORS}")


def guard_units(ring, exponent, force, what):
    """The number |U| of central units for an enumeration of |U|^exponent ``what``.

    Refused over ``GUARD_VECTORS`` of those unless ``force``, stating the
    lower bound r + 1, r = floor(GUARD_VECTORS^(1/exponent)); and always
    over ``GUARD_VECTORS`` residues of U, cells per unit (k*k for
    M(k,Z/n)), after counting at most min(r, GUARD_VECTORS // cells) + 1
    units (no r under ``force``).  At exponent 0 none are listed (1 is
    returned), but each system holds one unit, whose residues are guarded."""
    cells, count = element_residues(ring), 1
    if exponent:
        r = cap = GUARD_VECTORS // cells
        if not force:
            r = int(GUARD_VECTORS ** (1 / exponent))  # a float root, made exact
            r += (r + 1) ** exponent <= GUARD_VECTORS
            r -= r ** exponent > GUARD_VECTORS
        count = count_central_units(ring, min(r, cap) + 1)
        if count > r and not force:
            power = f"^{exponent}" * (exponent > 1)
            raise GuardExceeded(f"at least {r + 1}{power} {what} exceed the guard {GUARD_VECTORS}")
    if count * cells > GUARD_VECTORS:
        raise GuardExceeded(f"listing the central units of {ring} takes over "
                            f"{GUARD_VECTORS} residues ({cells} per unit)")
    return count


def enumerate_mult(poset, ring, force=False):
    """All weight systems satisfying the chain condition.

    Exhaustive filter over central-unit assignments to the strict pairs,
    organised as a depth-first search on an explicit stack (one iterator
    of units per assigned slot, so no depth limit) that rejects a partial
    assignment as soon as a fully assigned chain triple fails.  The
    triples i < z < j come from bit tests of the up rows.  Output order
    equals the plain product-then-filter order: lexicographic in the slot
    order with central units ascending.
    """
    pairs, up, slot_of = poset.index_pairs, poset._up, poset.slot_of
    guard_units(ring, len(pairs), force, "candidate vectors")
    units = ring.central_units() if pairs else ()
    closing = [[] for _ in pairs]  # closing[s]: the triples whose last slot is s
    for s, (i, j) in enumerate(pairs):
        for z in range(poset.n_classes):
            if z != i and z != j and up[i] >> z & 1 and up[z] >> j & 1:
                spots = (slot_of[i][z], slot_of[z][j], s)
                closing[max(spots)].append(spots)
    out, chosen, mul = [], [None] * len(pairs), ring.mul
    stack = [iter(units)]  # stack[s]: the units still to try at slot s
    while stack:
        s = len(stack) - 1
        if s == len(pairs):
            out.append(WeightSystem(poset, ring, tuple(chosen)))
            stack.pop()
            continue
        for u in stack[s]:
            chosen[s] = u
            for a, b, t in closing[s]:
                if mul(chosen[a], chosen[b]) != chosen[t]:
                    break
            else:
                stack.append(iter(units))
                break
        else:
            stack.pop()
    return out


def enumerate_inner(poset, ring, force=False):
    """All coboundary systems, by running through the vertex potentials
    with value one at the least class.

    Multiplying a whole potential by one central unit u leaves every
    v[x]^-1 u^-1 u v[y] = v[x]^-1 v[y] unchanged, so these |G|^(k - 1)
    potentials already give every coboundary.  Each v[x]^-1 v[y] is
    formed with ``ring.inverse`` and ``ring.mul``, not the library's
    coboundary code.  Deduplicated and sorted; no component data from the
    structural code is used, so the count |G|^(m - lambda) that the
    structure checks assert stays independent.
    """
    guard_units(ring, poset.n_classes - 1, force, "potentials")
    units = ring.central_units() if poset.n_classes > 1 else ()
    inverse, mul, one = {u: ring.inverse(u) for u in units}, ring.mul, (ring.one(),)
    seen = set()
    for combo in itertools.product(units, repeat=poset.n_classes - 1):
        v = one + combo
        seen.add(tuple([mul(inverse[v[i]], v[j]) for i, j in poset.index_pairs]))
    return [WeightSystem(poset, ring, key) for key in sorted(seen)]


def verify_structure(poset, ring, root=None, force=False) -> VerificationReport:
    """Cross-check the structural machinery against raw enumeration.

    Runs on one instance, connected or not: decomposition recomposes and
    lands in the advertised factors, the factors intersect trivially, the
    coboundary count matches |G|^(m - lambda), the group sizes multiply,
    and three innerness judges agree on every system: ``find_potential``
    (the library's walk of the spanning forest, one tree per component),
    membership in the enumerated coboundaries, and the oracle's own cycle
    product.

    The judge uses only ``ring`` arithmetic and the two enumerations: it
    recomposes w1 w0 with ``ring.mul`` slot by slot, accepts w1 by
    membership in the enumerated Mult and w0 in the enumerated
    coboundaries, and multiplies c around every fundamental cycle of the
    forest with ``ring.mul``, inverting the weight of each descending step,
    so it shares no arithmetic with the library's Z/n scalars.
    """
    tree = tree_of(poset, root)  # an unknown root is refused before the enumerations
    mult = enumerate_mult(poset, ring, force)
    inner = enumerate_inner(poset, ring, force)
    mult_keys, inner_keys = {w.values for w in mult}, {w.values for w in inner}
    tree_slots = [slot for _, _, slot, _ in tree.steps]
    one, mul, inverse = ring.one(), ring.mul, ring.inverse
    ones = [one] * len(tree_slots)
    cls, slot_of = poset._c, poset.slot_of
    walks = [[(cls(x), cls(y)) for x, y in zip(c.sequence, c.sequence[1:])]
             for c in fundamental_cycles(tree.graph, tree)]
    cycles = [[(slot_of[a][b], True) if b in slot_of[a] else (slot_of[b][a], False)
               for a, b in walk] for walk in walks]

    def by_cycles(c):
        """Whether c multiplies to one around every fundamental cycle,
        inverting the weight of each descending step."""
        for steps in cycles:
            acc = one
            for slot, up in steps:
                acc = mul(acc, c[slot] if up else inverse(c[slot]))
            if acc != one:
                return False
        return True

    decompose_failures, tree_trivial, disagreements = [], [], []
    for ws in mult:
        w1, w0, _ = decompose(ws, root)
        ok = (
            tuple(map(mul, w1.values, w0.values)) == ws.values
            and [w1.values[s] for s in tree_slots] == ones
            and w1.values in mult_keys
            and w0.values in inner_keys
        )
        if not ok:
            decompose_failures.append(ws.items())
        if [ws.values[s] for s in tree_slots] == ones:
            tree_trivial.append(ws)
        by_potential = not isinstance(find_potential(ws, root), NotInnerWitness)
        if not (by_cycles(ws.values) == by_potential == (ws.values in inner_keys)):
            disagreements.append(ws.items())

    crossing = [w.values for w in tree_trivial if w.values in inner_keys]
    identity_key = (one,) * tree.graph.m
    rank = len(tree_slots)  # no units listed for a one-class poset
    expected_inner = len(ring.central_units()) ** rank if rank else 1
    checks = [
        CheckResult("decompose-recompose", not decompose_failures,
                    {"failures": decompose_failures[:3]}),
        CheckResult("factor-intersection-trivial", crossing == [identity_key],
                    {"intersection_size": len(crossing)}),
        CheckResult("inner-count", len(inner) == expected_inner,
                    {"got": len(inner), "expected": expected_inner}),
        CheckResult("size-product", len(mult) == len(tree_trivial) * len(inner),
                    {"mult": len(mult), "tree_trivial": len(tree_trivial), "inner": len(inner)}),
        CheckResult("inner-test-agreement", not disagreements, {"failures": disagreements[:3]}),
        CheckResult("all-inner-iff-trivial-complement",
                    (len(mult) == len(inner)) == (len(tree_trivial) == 1), {}),
    ]
    counts = {
        "mult": len(mult),
        "inner": len(inner),
        "tree_trivial": len(tree_trivial),
        "edges": tree.graph.m,
        "cyclomatic": len(tree.non_tree_slots),
    }
    return VerificationReport(instance=_instance(poset, ring), counts=counts, checks=checks)


def verify_inner_conjugations(preorder, ring) -> VerificationReport:
    """Conjugation sweep over every unit of the incidence algebra.

    A unit's conjugation counts when it fixes each single-entry
    within-class function and scales each cross-class block by one central
    unit.  The weight systems collected that way must coincide exactly
    with the coboundary enumeration.
    """
    pairs = preorder.index_pairs
    if ring.order ** len(pairs) > GUARD_ALGEBRA:
        raise GuardExceeded(
            f"{ring.order}^{len(pairs)} algebra elements exceed the guard {GUARD_ALGEBRA}"
        )
    quotient = preorder.quotient()
    zero, one = ring.zero(), ring.one()
    nonzero = [r for r in ring.elements() if r != zero]
    cls, slot_of = quotient.elem_class, quotient.slot_of
    within = [(s, t) for s, t in pairs if cls[s] == cls[t]]
    cross = {}  # slot of a class pair -> its element pairs
    for s, t in pairs:
        if cls[s] != cls[t]:
            cross.setdefault(slot_of[cls[s]][cls[t]], []).append((s, t))

    units = 0
    multiplicative = 0
    induced = set()
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

        if any(conj(IncidenceFunction(preorder, ring, {p: r}))
               != IncidenceFunction(preorder, ring, {p: r}) for p in within for r in nonzero):
            continue
        weights = []
        for _, block_pairs in sorted(cross.items()):  # slot order: a weight system's values
            base = block_pairs[0]
            image = conj(IncidenceFunction(preorder, ring, {base: one}))
            c = image.entries.get(base, zero)
            if set(image.entries) != {base} or not ring.is_central_unit(c) or any(
                    conj(IncidenceFunction(preorder, ring, {p: r}))
                    != IncidenceFunction(preorder, ring, {p: ring.mul(c, r)})
                    for p in block_pairs for r in nonzero):
                break
            weights.append(c)
        else:
            multiplicative += 1
            induced.add(tuple(weights))

    expected = {w.values for w in enumerate_inner(quotient, ring)}
    checks = [
        CheckResult(
            "induced-equals-coboundaries",
            induced == expected,
            {"induced": len(induced), "coboundaries": len(expected)},
        )
    ]
    counts = {"units": units, "multiplicative": multiplicative, "induced": len(induced)}
    return VerificationReport(instance=_instance(quotient, ring), counts=counts, checks=checks)


def _matrices(rows, cols, n):
    """Every rows x cols matrix over Z/n, row tuples of residues, in
    lexicographic order of the row-major entries."""
    return [tuple(zip(*[iter(flat)] * cols))
            for flat in itertools.product(range(n), repeat=rows * cols)]


def _matmul_mod(a, b, n):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)) for row in a)


def verify_bimodule_scalars(nrows, ncols, ring) -> VerificationReport:
    """Bimodule endomorphisms of rectangular matrices over Z/n.

    Enumerates every additive self-map of M(nrows x ncols) determined on
    the matrix-unit basis, keeps those commuting with the left and right
    matrix actions, and compares the survivors with the central
    multiplications v -> c v.  Bijective survivors must match the units.
    The guard is tested before any matrix is built.
    """
    if not isinstance(ring, ZMod):
        raise NotImplementedError("bimodule sweep is implemented for Z/n bases")
    n, dim = ring.n, nrows * ncols
    if n ** (dim * dim) > GUARD_ALGEBRA:
        raise GuardExceeded(f"{n ** dim}^{dim} additive maps exceed the guard {GUARD_ALGEBRA}")
    space, left, right = (_matrices(nrows, ncols, n), _matrices(nrows, nrows, n),
                          _matrices(ncols, ncols, n))

    def apply_map(images, v):
        coeffs = [c for row in v for c in row]  # images[k] is the image of the k-th matrix unit
        return tuple(tuple(sum(c * img[a][b] for c, img in zip(coeffs, images)) % n
                           for b in range(ncols)) for a in range(nrows))

    survivors = [
        images for images in itertools.product(space, repeat=dim)
        if all(apply_map(images, _matmul_mod(p, v, n)) == _matmul_mod(p, apply_map(images, v), n)
               for p in left for v in space)
        and all(apply_map(images, _matmul_mod(v, q, n)) == _matmul_mod(apply_map(images, v), q, n)
                for q in right for v in space)
    ]
    # c id sends the k-th matrix unit to c times it: space[c * n^(dim - 1 - k)]
    scaled = [tuple(space[c * n ** (dim - 1 - k)] for k in range(dim)) for c in range(n)]
    bijective = {images for images in survivors
                 if len({apply_map(images, v) for v in space}) == len(space)}
    expected_autos = {scaled[c] for c in range(n) if ring.is_unit(c)}
    checks = [
        CheckResult("endomorphisms-are-central-multiplications", set(survivors) == set(scaled),
                    {"survivors": len(survivors), "expected": len(scaled)}),
        CheckResult("automorphisms-are-central-unit-multiplications", bijective == expected_autos,
                    {"bijective": len(bijective), "expected": len(expected_autos)}),
    ]
    counts = {"additive_maps": n ** (dim * dim), "endomorphisms": len(survivors),
              "automorphisms": len(bijective)}
    instance = {"bimodule": f"M({nrows}x{ncols},{ring})", "ring": str(ring)}
    return VerificationReport(instance=instance, counts=counts, checks=checks)


def matrix_oracle(f: IncidenceFunction, g: IncidenceFunction) -> bool:
    """Convolution against plain matrix multiplication, rows and columns
    in the preorder's element order.  The dense product sums f(x,t) g(t,y)
    over every element t, and that term is zero unless x <= t <= y, so no
    linear extension is needed: any simultaneous order of rows and columns
    gives the same verdict."""
    elements, ring = f.preorder.elements, f.ring
    rows = [[f.value(x, t) for t in elements] for x in elements]
    cols = [[g.value(t, y) for t in elements] for y in elements]
    conv = convolve(f, g)
    return all(
        reduce(ring.add, map(ring.mul, row, col), ring.zero()) == conv.value(x, y)
        for x, row in zip(elements, rows) for y, col in zip(elements, cols))


def random_function(preorder, ring, rng) -> IncidenceFunction:
    elements = ring.elements()
    entries = []
    for pair in preorder.comparable_pairs():
        if rng.random() < 0.6:
            entries.append((pair[0], pair[1], elements[rng.randrange(len(elements))]))
    return IncidenceFunction.from_entries(preorder, ring, entries)


def automorphism_check(ws: WeightSystem, seed=0) -> VerificationReport:
    """Random-sample test that ws.apply is a diagonal-fixing automorphism.

    Runs on any weight system, valid or not: a corrupted system is
    expected to fail here, and the failing pair is kept as a witness.
    """
    rng = random.Random(seed)
    preorder = ws.poset.source
    ring = ws.ring
    mult_failures = []
    diag_failures = []
    for trial in range(SPOT_TRIALS):
        f = random_function(preorder, ring, rng)
        g = random_function(preorder, ring, rng)
        left = ws.apply(convolve(f, g))
        right = convolve(ws.apply(f), ws.apply(g))
        if left != right:
            mult_failures.append(
                {
                    "trial": trial,
                    "f": [[x, y, ring.format_element(v)] for (x, y), v in f.items()],
                    "g": [[x, y, ring.format_element(v)] for (x, y), v in g.items()],
                }
            )
        if ws.apply(f).diagonal_part() != f.diagonal_part():
            diag_failures.append({"trial": trial})
    checks = [
        CheckResult("apply-multiplicative", not mult_failures, {"witness": mult_failures[:1]}),
        CheckResult("apply-fixes-diagonal", not diag_failures, {"witness": diag_failures[:1]}),
    ]
    counts = {"trials": SPOT_TRIALS, "failures": len(mult_failures) + len(diag_failures)}
    return VerificationReport(
        instance=_instance(ws.poset, ring), counts=counts, checks=checks, seed=seed
    )


def matrix_embedding_check(preorder, ring, seed=0) -> VerificationReport:
    """Random-sample agreement of convolution with the matrix embedding."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(SPOT_TRIALS):
        f = random_function(preorder, ring, rng)
        g = random_function(preorder, ring, rng)
        if not matrix_oracle(f, g):
            failures += 1
    checks = [CheckResult("matrix-embedding-agrees", failures == 0, {"failures": failures})]
    return VerificationReport(
        instance=_instance(preorder.quotient(), ring),
        counts={"trials": SPOT_TRIALS},
        checks=checks,
        seed=seed,
    )


_LABELS = "abcdefg"


@lru_cache(maxsize=None)
def all_posets(n: int):
    """All posets on n elements, one representative per isomorphism class.

    Generated as transitive closures of subsets of the upper triangle
    (every finite poset admits such a labelling), deduplicated by the
    minimum of the closed relation tuple over all label permutations.
    """
    if not 1 <= n <= 5:
        raise ValueError("poset generation supports 1 to 5 elements")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        gens = [(_LABELS[i], _LABELS[j]) for k, (i, j) in enumerate(pairs) if bits >> k & 1]
        poset = close_relations(_LABELS[:n], gens)
        rel = [(i, j) for i, j in pairs if poset._up[i] >> j & 1]
        key = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms)
        if key not in seen:
            seen.add(key)
            out.append(poset)
    return tuple(out)


@lru_cache(maxsize=None)
def connected_posets(max_n: int):
    """All connected posets with at most max_n elements, up to isomorphism."""
    if max_n < 1:
        raise ValueError("poset generation supports 1 to 5 elements")
    out = []
    for n in range(1, max_n + 1):
        out.extend(p for p in all_posets(n) if len(tree_of(p.quotient()).components) == 1)
    return tuple(out)


DEFAULT_SUITE_RINGS = ("Z/2", "Z/3", "Z/4", "Z/5", "Z/12")


def run_structure_sweep(max_classes=5):
    """Structure verification over every connected generated poset and
    every ring of ``DEFAULT_SUITE_RINGS``."""
    rings = [parse_ring_spec(s) for s in DEFAULT_SUITE_RINGS]
    reports = []
    for poset in connected_posets(max_classes):
        quotient = poset.quotient()
        for ring in rings:
            reports.append(verify_structure(quotient, ring))
    return reports


def run_full_suite(seed=0, max_classes=5):
    """The complete oracle battery: structure sweep, conjugation sweep on
    the two chains over Z/2 and Z/3, the four bimodule instances, and
    seeded spot checks of apply and the matrix embedding."""
    reports = run_structure_sweep(max_classes)
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
        reports.append(automorphism_check(ws, seed=seed))
    reports.append(matrix_embedding_check(chain3, ZMod(12), seed=seed))
    reports.append(matrix_embedding_check(crown, ring5, seed=seed))
    return reports
