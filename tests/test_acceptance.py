"""Acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line
(visible with -s or in captured output) and fails hard when its
condition does not hold.  Everything is exact: all arithmetic happens in
finite rings, so there are no tolerances anywhere.
"""

import itertools
import json
import random
import time

from incalg.coeff_rings import ZMod, parse_ring_spec
from incalg.comparability import ComparabilityGraph, path_weight
from incalg.incidence_algebra import convolve, delta, invert, unit_decompose
from incalg.mult_automorphisms import to_mult_function
from incalg.incidence_algebra import hadamard
from incalg import oracle
from incalg.preorder_core import close_relations
from reference import as_preorder, class_members, inflate, interval, random_unit, simple_semi_paths

_CACHE = {}


def _sweep():
    if "reports" not in _CACHE:
        started = time.perf_counter()
        _CACHE["reports"] = oracle.run_structure_sweep(max_classes=5)
        _CACHE["seconds"] = time.perf_counter() - started
    return _CACHE["reports"], _CACHE["seconds"]


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_01_decomposition_sweep():
    """Every weight system on every connected poset with at most 5
    classes splits into a tree-trivial factor times a coboundary, the
    factors meet only in the identity, and the sizes multiply."""
    reports, seconds = _sweep()
    relevant = ("decompose-recompose", "factor-intersection-trivial", "size-product")
    bad = [
        (r.instance, c.name)
        for r in reports
        for c in r.checks
        if c.name in relevant and not c.passed
    ]
    ok = not bad and len(reports) == 59 * 5 and seconds <= 600.0
    _verdict(
        1,
        "tree-trivial x inner decomposition",
        ok,
        f"{len(reports)} instances, {seconds:.1f}s, failures={bad[:2]}",
    )


def test_criterion_02_coboundary_count():
    """|coboundaries| = |G|^(m - lambda) on the whole sweep, with the
    three spot counts recomputed directly."""
    reports, _ = _sweep()
    bad = [r.instance for r in reports if not _check(r, "inner-count").passed]
    crown = close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    diamond = close_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    chain3 = close_relations("abc", [("a", "b"), ("b", "c")])
    spots = (
        len(oracle.enumerate_inner(crown.quotient(), ZMod(5))),
        len(oracle.enumerate_inner(diamond.quotient(), ZMod(5))),
        len(oracle.enumerate_inner(chain3.quotient(), ZMod(12))),
    )
    ok = not bad and spots == (64, 64, 16)
    _verdict(2, "coboundary count formula", ok, f"spots={spots}, failures={bad[:2]}")


def test_criterion_03_inner_test_agreement():
    """Cycle-weight test, potential reconstruction and enumerated
    membership agree everywhere; for inner systems all simple semi-path
    weights between any two vertices coincide (instances up to 6
    classes)."""
    reports, _ = _sweep()
    bad = [r.instance for r in reports if not _check(r, "inner-test-agreement").passed]

    path_instances = [
        (p, spec)
        for p in oracle.connected_posets(5)
        for spec in ("Z/2", "Z/5")
    ]
    crown6 = close_relations(
        "abcdef",
        [("a", "d"), ("a", "e"), ("b", "d"), ("b", "f"), ("c", "e"), ("c", "f")],
    )
    chain6 = close_relations("abcdef", list(zip("abcde", "bcdef")))
    path_instances.append((crown6, "Z/5"))
    path_instances.append((chain6, "Z/2"))
    mismatches = 0
    systems = 0
    for poset, spec in path_instances:
        quotient = poset.quotient()
        ring = parse_ring_spec(spec)
        graph = ComparabilityGraph(quotient)
        all_paths = {
            (x, y): simple_semi_paths(graph, x, y)
            for x, y in itertools.combinations(graph.vertices, 2)
        }
        for ws in oracle.enumerate_inner(quotient, ring):
            systems += 1
            for paths in all_paths.values():
                weights = {path_weight(ws, p) for p in paths}
                if len(weights) > 1:
                    mismatches += 1
    ok = not bad and mismatches == 0 and systems > 0
    _verdict(
        3,
        "innerness test equivalence",
        ok,
        f"systems={systems}, path mismatches={mismatches}, failures={bad[:2]}",
    )


def test_criterion_04_conjugation_induces_coboundaries():
    """Full unit-group conjugation sweep on the 2- and 3-chain over Z/2
    and Z/3 induces exactly the coboundary systems."""
    started = time.perf_counter()
    chain2 = close_relations("ab", [("a", "b")])
    chain3 = close_relations("abc", [("a", "b"), ("b", "c")])
    failures = []
    for preorder in (chain2, chain3):
        for ring in (ZMod(2), ZMod(3)):
            report = oracle.verify_inner_conjugations(preorder, ring)
            if not report.passed:
                failures.append(report.instance)
    seconds = time.perf_counter() - started
    ok = not failures and seconds <= 30.0
    _verdict(4, "inner automorphisms from conjugation", ok, f"{seconds:.1f}s")


def test_criterion_05_bimodule_scalars():
    """Bimodule endomorphism sweep: survivors are exactly the central
    multiplications, bijective ones the central unit multiplications."""
    started = time.perf_counter()
    failures = []
    for nrows, ncols, n in ((1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2)):
        report = oracle.verify_bimodule_scalars(nrows, ncols, ZMod(n))
        if not report.passed:
            failures.append(report.instance)
    seconds = time.perf_counter() - started
    ok = not failures and seconds <= 30.0
    _verdict(5, "bimodule scalar characterization", ok, f"{seconds:.1f}s")


def test_criterion_06_algebra_laws():
    """Associativity, identity, inversion and the unit decomposition on
    random data over ten varied instances."""
    rng = random.Random(1729)
    posets = list(oracle.connected_posets(5))
    instances = [
        (posets[4], ZMod(2)),
        (posets[9], ZMod(3)),
        (posets[20], ZMod(4)),
        (posets[35], ZMod(5)),
        (posets[54], ZMod(12)),
        (posets[42], parse_ring_spec("Z/2 x Z/3")),
        (inflate(close_relations("ab", [("a", "b")]), (2, 1)), ZMod(3)),
        (inflate(close_relations("ab", [("a", "b")]), (1, 2)), ZMod(5)),
        (inflate(close_relations("abc", [("a", "b"), ("b", "c")]), (2, 1, 1)), ZMod(2)),
        (inflate(close_relations("abc", [("a", "c"), ("b", "c")]), (1, 1, 2)), ZMod(4)),
    ]
    assert len(instances) == 10
    triples = units_checked = decompositions = nilpotents = 0
    ok = True
    for preorder, ring in instances:
        d = delta(preorder, ring)
        for _ in range(20):
            f = oracle.random_function(preorder, ring, rng)
            g = oracle.random_function(preorder, ring, rng)
            h = oracle.random_function(preorder, ring, rng)
            triples += 1
            if convolve(convolve(f, g), h) != convolve(f, convolve(g, h)):
                ok = False
            if convolve(d, f) != f or convolve(f, d) != f:
                ok = False
            if not oracle.matrix_oracle(f, g):
                ok = False
        for _ in range(5):
            u = random_unit(preorder, ring, rng)
            units_checked += 1
            if convolve(u, invert(u)) != d or convolve(invert(u), u) != d:
                ok = False
            du, v = unit_decompose(u)
            decompositions += 1
            if convolve(d + du, v) != u:
                ok = False
            m = oracle.random_function(preorder, ring, rng).strict_part()
            nilpotents += 1
            w = d + m
            if convolve(w, invert(w)) != d:
                ok = False
    ok = ok and triples == 200 and units_checked == 50 and nilpotents == 50
    _verdict(
        6,
        "algebra laws on random data",
        ok,
        f"triples={triples}, units={units_checked}, nilpotents={nilpotents}",
    )


def test_criterion_07_automorphism_action():
    """apply is a diagonal-fixing algebra automorphism and agrees with
    the Hadamard action of the associated multiplicative function."""
    rng = random.Random(271828)
    crown = close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    diamond = close_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    chain3 = close_relations("abc", [("a", "b"), ("b", "c")])
    pre21 = inflate(close_relations("ab", [("a", "b")]), (2, 1))
    fence = close_relations("wxyz", [("w", "x"), ("y", "x"), ("y", "z")])
    instances = [
        (crown, ZMod(5)),
        (diamond, ZMod(5)),
        (chain3, ZMod(12)),
        (pre21, ZMod(3)),
        (fence, parse_ring_spec("Z/2 x Z/3")),
    ]
    ok = True
    checked = 0
    for preorder, ring in instances:
        quotient = preorder.quotient()
        systems = oracle.enumerate_mult(quotient, ring)[:20]
        for ws in systems:
            m = to_mult_function(ws)
            for _ in range(100):
                f = oracle.random_function(preorder, ring, rng)
                g = oracle.random_function(preorder, ring, rng)
                checked += 1
                if ws.apply(convolve(f, g)) != convolve(ws.apply(f), ws.apply(g)):
                    ok = False
                if ws.apply(f).diagonal_part() != f.diagonal_part():
                    ok = False
                if ws.apply(f) != hadamard(m, f):
                    ok = False
    _verdict(7, "automorphism action and Hadamard form", ok, f"pairs={checked}")


def _interval_property(preorder):
    quotient = preorder.quotient()
    for members in quotient.classes:
        for y in members:
            for z in members:
                if interval(preorder, y, z) != members:
                    return False
    return True


def _strictness_property(preorder):
    quotient = preorder.quotient()
    for x, y in quotient.strict_pairs():
        for s in class_members(quotient, x):
            for t in class_members(quotient, y):
                if not (preorder.lt(s, t) and not preorder.leq(t, s)):
                    return False
    return True


def test_criterion_08_quotient_properties():
    """Interval and strictness properties of the class decomposition,
    exhaustively: every preorder on up to 6 points arises (up to
    isomorphism) as a class inflation of a poset with at most 5 classes
    or as a labeled 6-point poset, and both families are generated in
    full."""
    checked = 0
    ok = True

    for k in range(1, 6):
        for base in oracle.all_posets(k):
            for sizes in itertools.product(range(1, 7), repeat=k):
                if sum(sizes) > 6:
                    continue
                preorder = inflate(base, sizes)
                checked += 1
                if not _interval_property(preorder) or not _strictness_property(preorder):
                    ok = False
                if all(s == 1 for s in sizes):
                    quotient = preorder.quotient()
                    if as_preorder(quotient) != preorder:
                        ok = False

    labels = "abcdef"
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    six_point = 0
    for bits in range(1 << len(pairs)):
        gens = [
            (labels[i], labels[j])
            for k, (i, j) in enumerate(pairs)
            if bits >> k & 1
        ]
        poset = close_relations(labels, gens)
        six_point += 1
        quotient = poset.quotient()
        if quotient.n_classes != 6 or as_preorder(quotient) != poset:
            ok = False
        if not _interval_property(poset) or not _strictness_property(poset):
            ok = False

    ok = ok and six_point == 32768 and checked > 700
    _verdict(
        8,
        "quotient interval and strictness properties",
        ok,
        f"inflations={checked}, labeled 6-posets={six_point}",
    )


def test_criterion_09_cli_determinism(tmp_path, capsys, monkeypatch):
    """Byte-identical CLI output under a fixed seed, and the verify exit
    code tracks the suite outcome in both directions."""
    from incalg.cli import run_command

    crown_file = tmp_path / "crown.txt"
    crown_file.write_text("elements a b c d\nrel a c\nrel a d\nrel b c\nrel b d\n")
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps(
            {
                "ring": "Z/5",
                "weights": [
                    {"from": "a", "to": "c", "value": "2"},
                    {"from": "a", "to": "d", "value": "1"},
                    {"from": "b", "to": "c", "value": "1"},
                    {"from": "b", "to": "d", "value": "1"},
                ],
            }
        )
    )
    ok = True

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    codes = []
    texts = []
    for out in (out1, out2):
        codes.append(
            run_command(
                ["verify", "--max-classes", "3", "--seed", "11", "--out", str(out)]
            )
        )
        texts.append(capsys.readouterr().out)
    if codes != [0, 0] or texts[0] != texts[1]:
        ok = False
    if out1.read_bytes() != out2.read_bytes():
        ok = False

    runs = []
    for _ in range(2):
        code = run_command(
            ["is-inner", "--poset", str(crown_file), "--weights", str(weights)]
        )
        runs.append((code, capsys.readouterr().out))
    if runs[0] != runs[1] or runs[0][0] != 1:
        ok = False

    import incalg.cli as cli
    from incalg.oracle import CheckResult, VerificationReport

    def failing_suite(**kwargs):
        return [
            VerificationReport(
                instance={"poset": "stub", "ring": "Z/2"},
                counts={},
                checks=[CheckResult("stub", False, {})],
            )
        ]

    monkeypatch.setattr(cli, "run_full_suite", failing_suite)
    failing_code = run_command(["verify"])
    capsys.readouterr()
    if failing_code != 1:
        ok = False

    _verdict(9, "CLI determinism and exit codes", ok, f"verify codes={codes}+{failing_code}")
