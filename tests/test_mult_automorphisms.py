import json
import random
from collections import Counter

import pytest

from incalg import mult_automorphisms
from incalg.cli import run_command
from incalg.coeff_rings import ZMod, parse_ring_spec
from incalg.comparability import (
    ComparabilityGraph,
    path_weight,
    spanning_tree,
    tree_of,
)
from incalg.incidence_algebra import (
    IncidenceFunction,
    convolve,
    function_to_json,
    hadamard,
    zeta,
)
from incalg.mult_automorphisms import (
    NotInnerWitness,
    Potential,
    WeightSystem,
    WeightSystemError,
    _checked,
    decompose,
    find_potential,
    from_mult_function,
    from_potential,
    is_inner_cycles,
    load_weight_system,
    potential_to_json,
    to_mult_function,
    weight_system_from_json,
    weight_system_to_json,
)
from incalg.oracle import (
    DEFAULT_SUITE_RINGS,
    connected_posets,
    enumerate_inner,
    enumerate_mult,
    random_function,
    verify_structure,
)
from incalg.preorder_core import close_relations, load_preorder_text, preorder_to_text
from reference import class_members, cycle_weight, inflate


def _tree_edges(tree):
    """The label pairs of the tree's edges, read off its steps."""
    pairs = tree.graph.poset.strict_pairs()
    return {pairs[slot] for _, _, slot, _ in tree.steps}


def from_tree(tree, ring, tree_values) -> WeightSystem:
    """Definitional reference: extend central-unit values on the
    spanning-tree edges to a full system.  Each pair gets the product of
    the step weights along its tree semi-path, which is the coboundary of
    the tree propagation."""
    q, edges = tree.graph.poset, sorted(_tree_edges(tree))
    weights = _checked(ring, tree_values, lambda p: (q.rep(p[0]), q.rep(p[1])),
                       edges, "a tree edge")
    c = [None] * len(q.index_pairs)
    for (x, y), u in zip(edges, weights):
        c[q.slot_of[q._c(x)][q._c(y)]] = u
    return from_potential(_ref_propagate(c, tree, ring))


def _ref_propagate(c, tree, ring) -> Potential:
    """Reference tree propagation on ring.mul: one at the root, pushed
    along the tree steps, inverting the weight of a descending step."""
    v = [ring.one()] * tree.graph.poset.n_classes
    for i, j, slot, up in tree.steps:
        v[j] = ring.mul(v[i], c[slot] if up else ring.inverse(c[slot]))
    return Potential(tree.graph.poset, ring, tuple(v))


def crown_ws(crown, bd):
    return WeightSystem.from_values(
        crown.quotient(),
        ZMod(5),
        {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): bd},
    )


def test_weight_system_validation(crown, chain3):
    q = crown.quotient()
    with pytest.raises(WeightSystemError):
        WeightSystem.from_values(q, ZMod(5), {("a", "c"): 2})  # missing pairs
    with pytest.raises(WeightSystemError):
        WeightSystem.from_values(
            q, ZMod(4), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 1})
    with pytest.raises(WeightSystemError):
        WeightSystem.from_values(
            q, ZMod(5), {("c", "a"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 1})
    ws = WeightSystem.from_values(
        chain3.quotient(), ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 1})
    assert ws.value("a", "c") == 1


def test_chain_condition(chain3):
    q = chain3.quotient()
    good = WeightSystem.from_values(q, ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 1})
    assert good.is_valid() and good.violations() == []
    bad = WeightSystem.from_values(q, ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 2})
    assert not bad.is_valid()
    assert bad.violations() == [("a", "b", "c")]


def test_group_structure(crown):
    q = crown.quotient()
    ws = crown_ws(crown, 3)
    ident = WeightSystem.identity(q, ZMod(5))
    assert ws * ident == ws
    assert ws * ws.inverse() == ident
    prod = ws * ws
    assert prod.value("a", "c") == 4


def test_systems_on_separately_loaded_equal_preorders_compare_by_value():
    """A quotient equals the quotient of an equal preorder loaded apart, so
    systems on the two multiply, compare and hash by value; a different
    preorder's quotient is another carrier."""
    text = "elements a b c d\nrel a c\nrel a d\nrel b c\nrel b d\n"
    q1, q2 = (load_preorder_text(text).quotient() for _ in range(2))
    other = load_preorder_text(text + "rel c d\n").quotient()
    assert q1 is not q2 and q1 == q2 and q1 != other
    ring = ZMod(5)
    w1 = WeightSystem.from_values(q1, ring, {p: 2 for p in q1.strict_pairs()})
    w2 = WeightSystem.from_values(q2, ring, {p: 3 for p in q2.strict_pairs()})
    assert w1 * w2 == WeightSystem.identity(q2, ring)
    twin = WeightSystem.from_values(q2, ring, w1.items())
    assert twin == w1 and hash(twin) == hash(w1) and len({w1, twin}) == 1
    with pytest.raises(WeightSystemError, match="different carriers"):
        w1 * WeightSystem.identity(other, ring)
    for x, y in (("a", "a"), ("a", "b"), ("c", "a")):
        with pytest.raises(WeightSystemError, match=f"no weight for pair \\({x}, {y}\\)"):
            w1.value(x, y)


def test_identity_is_valid_everywhere(diamond):
    ws = WeightSystem.identity(diamond.quotient(), ZMod(12))
    assert ws.is_valid()


def test_potential_round_trip(crown):
    q = crown.quotient()
    v = Potential.from_values(q, ZMod(5), {"a": 1, "b": 2, "c": 2, "d": 1})
    ws = from_potential(v)
    assert ws.value("b", "c") == 1  # inv(2) * 2
    assert ws.value("b", "d") == 3  # inv(2) * 1
    assert ws.is_valid()
    found = find_potential(ws)
    assert isinstance(found, Potential)
    assert from_potential(found) == ws


def test_find_potential_crown_example(crown):
    """The inner crown example propagates to the known potential."""
    ws = crown_ws(crown, 3)
    found = find_potential(ws)
    assert isinstance(found, Potential)
    assert dict(found.items()) == {"a": 1, "b": 2, "c": 2, "d": 1}


def test_find_potential_witness(crown):
    ws = crown_ws(crown, 1)
    found = find_potential(ws)
    assert isinstance(found, NotInnerWitness)
    assert str(found.cycle) == "b-d-a-c-b"
    assert found.weight == 3
    ok, cycles = is_inner_cycles(ws)
    assert not ok
    assert [(str(c), w) for c, w in cycles] == [("b-d-a-c-b", 3)]


def test_find_potential_rejects_invalid(chain3):
    bad = WeightSystem.from_values(
        chain3.quotient(), ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 2})
    with pytest.raises(WeightSystemError):
        find_potential(bad)
    with pytest.raises(WeightSystemError):
        decompose(bad)


def test_decompose_crown_example(crown):
    ws = crown_ws(crown, 1)
    w1, w0, potential = decompose(ws)
    assert dict(w1.items()) == {("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 2}
    assert dict(w0.items()) == {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 3}
    assert w1 * w0 == ws
    assert from_potential(potential) == w0
    ok, _ = is_inner_cycles(w0)
    assert ok


def test_decompose_root_choice(crown):
    ws = crown_ws(crown, 1)
    w1, w0, _ = decompose(ws, root="b")
    assert w1 * w0 == ws
    tree = spanning_tree(ComparabilityGraph(ws.poset), "b")
    for e in _tree_edges(tree):
        assert w1.value(*e) == 1


def test_from_tree_extends_uniquely(crown):
    q = crown.quotient()
    g = ComparabilityGraph(q)
    t = spanning_tree(g)
    ws = from_tree(t, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1})
    assert ws.value("b", "d") == 3
    assert ws.is_valid()
    with pytest.raises(WeightSystemError):
        from_tree(t, ZMod(5), {("a", "c"): 2})
    with pytest.raises(WeightSystemError):
        from_tree(t, ZMod(5), {("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 1})


def _tree_path(tree, x, y):
    """Labels of the tree semi-path from x to y: both climb the parent
    list to the root, and the common part above their meeting is cut."""
    q = tree.graph.poset

    def to_root(i):
        chain = [i]
        while tree.parent[chain[-1]] is not None:
            chain.append(tree.parent[chain[-1]])
        return chain

    left, right = to_root(q._c(x)), to_root(q._c(y))
    while len(left) > 1 and len(right) > 1 and left[-2] == right[-2]:
        left.pop()
        right.pop()
    return tuple(q.reps[i] for i in left + right[-2::-1])


@pytest.mark.parametrize("spec", ["Z/5", "Z/2 x Z/3"])
def test_from_tree_matches_tree_path_products(spec, seed=2024):
    """The propagation-based extension equals the defining product of
    step weights along each pair's tree semi-path."""
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units = ring.central_units()
    for poset in connected_posets(4):
        q = poset.quotient()
        tree = spanning_tree(ComparabilityGraph(q))
        given = {e: rng.choice(units) for e in sorted(_tree_edges(tree))}
        ws = from_tree(tree, ring, given)
        assert ws.is_valid()
        # on tree edges ws is the input, so path_weight(ws, .) multiplies input values
        assert all(ws.value(*e) == c for e, c in given.items())
        for x, y in q.strict_pairs():
            assert ws.value(x, y) == path_weight(ws, _tree_path(tree, x, y))


def test_decompose_alternating_roots(crown):
    """Each root keeps its own cached tree: w1 is trivial on that tree."""
    q = crown.quotient()
    for ws in enumerate_mult(q, ZMod(5))[::37]:
        for root in (None, "b", None):
            w1, w0, _ = decompose(ws, root)
            assert w1 * w0 == ws
            tree = spanning_tree(ComparabilityGraph(q), root)
            assert all(w1.value(*e) == 1 for e in _tree_edges(tree))


@pytest.mark.parametrize("spec, points, with_duals", [
    ("Z/5", 4, True), ("Z/2 x Z/3", 4, True), ("M(2,Z/3)", 4, True), ("Z/3", 5, False),
], ids=["Z/5", "Z/2 x Z/3", "M(2,Z/3)", "Z/3 on 5 points"])
def test_tree_walk_matches_reference_products(spec, points, with_duals):
    """Cycle reports, witnesses and w1 from the one tree walk equal the
    step-by-step products of the definitional ``cycle_weight`` and the
    quotient of ws by the coboundary, for every system and every root.
    The duals put the lexicographically smaller label on top, so cycles
    cross their non-tree edge both ways."""
    ring = parse_ring_spec(spec)
    posets = connected_posets(points)
    duals = [close_relations(p.elements, [(y, x) for x, y in p.comparable_pairs()])
             for p in posets] if with_duals else []
    for poset in posets + tuple(duals):
        q = poset.quotient()
        for ws in enumerate_mult(q, ring):
            for root in (None,) + tuple(q.reps):
                _, report = is_inner_cycles(ws, root)
                assert all(w == cycle_weight(ws, c) for c, w in report)
                found = find_potential(ws, root)
                if isinstance(found, NotInnerWitness):
                    assert found.weight == cycle_weight(ws, found.cycle)
                w1, _, v = decompose(ws, root)
                assert w1 == ws * from_potential(v).inverse()


def _chain_violations_by_definition(ws):
    """Every x < z < y with c[x,y] != c[x,z] c[z,y], scanning all reps."""
    q, mul = ws.poset, ws.ring.mul
    return [(x, z, y) for x, y in q.strict_pairs() for z in q.reps
            if q.lt(x, z) and q.lt(z, y)
            and ws.value(x, y) != mul(ws.value(x, z), ws.value(z, y))]


def test_slot_chain_check_matches_definition(seed=8):
    """violations() over the up/down rows gives the definitional triples
    in the same order, on valid systems and on copies with one slot
    changed, for every connected poset <= 5 points and its dual."""
    rng = random.Random(seed)
    r = ZMod(3)
    posets = connected_posets(5)
    duals = [close_relations(p.elements, [(y, x) for x, y in p.comparable_pairs()])
             for p in posets]
    checked = broken = 0
    for poset in posets + tuple(duals):
        q = poset.quotient()
        for ws in enumerate_mult(q, r):
            assert ws.violations() == _chain_violations_by_definition(ws) == []
            if not ws.values:
                continue
            slot = rng.randrange(len(ws.values))
            values = list(ws.values)
            values[slot] = 3 - values[slot]  # the other unit of Z/3
            bad = WeightSystem(q, r, tuple(values))
            assert bad.violations() == _chain_violations_by_definition(bad)
            checked += 1
            broken += bool(bad.violations())
    assert checked > 1000 and broken > checked // 2


@pytest.mark.parametrize("spec", ["Z/3", "M(2,Z/3)", "Z/2 x Z/3", "Z/4 x M(2,Z/3)"])
def test_gated_violations_match_definition(gate_posets, spec, seed=10):
    """The cover-gated violations() and is_valid() agree with the
    definitional scan over all reps, on valid systems and on copies with
    slots changed: a random one, a cover slot (j covers i), and three at
    once, whose failures in one row interleave, so that slot order and
    middle-first order differ.  Over a product the failures of every
    factor are listed.  violations(limit) is the head of the full list."""
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units = ring.central_units()
    checked = broken = interleaved = 0
    for poset in gate_posets:
        q = poset.quotient()
        if not q.index_pairs:
            continue
        rank = {x: r for r, x in enumerate(q.reps)}
        cover_slots = [s for s, (i, j) in enumerate(q.index_pairs) if q._covers[i] >> j & 1]
        for _ in range(3):
            ws = from_potential(Potential(q, ring, tuple(rng.choice(units) for _ in q.reps)))
            assert ws.is_valid()
            assert ws.violations() == _chain_violations_by_definition(ws) == []
            for slots in ([rng.randrange(len(ws.values))], [rng.choice(cover_slots)],
                          rng.sample(range(len(ws.values)), min(3, len(ws.values)))):
                values = list(ws.values)
                for slot in slots:
                    values[slot] = rng.choice([u for u in units if u != values[slot]])
                bad = WeightSystem(q, ring, tuple(values))
                expected = _chain_violations_by_definition(bad)
                assert bad.is_valid() == (not expected)
                assert bad.violations() == expected
                for limit in (1, 5, 10):
                    assert bad.violations(limit) == expected[:limit]
                checked += 1
                broken += bool(expected)
                interleaved += sorted(expected, key=lambda t: tuple(map(rank.get, t))) != expected
    assert checked > 1000 and broken > checked // 2 and interleaved > 10


def test_cover_triples_are_the_chain_triples_through_a_cover(gate_posets):
    """zip(S, T, U) of ``_cover_triples`` holds, as a multiset, exactly the
    slot triples (slot(i, j), slot(i, z), slot(z, j)) with z covering i and
    z < j, by definition: i < z with no class strictly between.  Their
    order is free; the gate's answer does not depend on it.  Over all
    strict middles, ``triples(i, middles)`` lists every i < z < j, by z
    ascending and then j ascending."""
    for poset in gate_posets:
        q = poset.quotient()
        k, pos = q.n_classes, {p: s for s, p in enumerate(q.index_pairs)}
        lt = [[q.lt(x, y) for y in q.reps] for x in q.reps]
        covers = [[z for z in range(k) if lt[i][z]
                   and not any(lt[i][w] and lt[w][z] for w in range(k))] for i in range(k)]
        expected = Counter((pos[i, j], pos[i, z], pos[z, j])
                           for i in range(k) for z in covers[i] for j in range(k) if lt[z][j])
        assert Counter(zip(*q._cover_triples)) == expected
        for i in range(k):
            middles = sum(1 << z for z in range(k) if lt[i][z])
            assert list(zip(*q.triples(i, middles))) == [
                (pos[i, j], pos[i, z], pos[z, j])
                for z in range(k) if lt[i][z] for j in range(k) if lt[z][j]]


def test_tuples_follow_pair_and_class_order(seed=9):
    """from_values lays label-keyed input out along strict_pairs() and
    reps, whatever member labels and item order it gets; items() gives
    the sorted label pairs back."""
    rng = random.Random(seed)
    r = ZMod(5)
    units = r.central_units()
    for poset in connected_posets(4):
        sizes = [rng.choice((1, 2)) for _ in poset.elements]
        for p in (poset, inflate(poset, sizes)):
            q = p.quotient()
            given = {pair: rng.choice(units) for pair in q.strict_pairs()}
            items = [((rng.choice(class_members(q, x)), rng.choice(class_members(q, y))), v)
                     for (x, y), v in given.items()]
            rng.shuffle(items)
            ws = WeightSystem.from_values(q, r, items)
            assert ws.values == tuple(given[pair] for pair in q.strict_pairs())
            assert ws.items() == sorted(given.items())
            assert all(ws.value(x, y) == v for (x, y), v in items)
            point = {x: rng.choice(units) for x in q.reps}
            pot_items = [(rng.choice(class_members(q, x)), v) for x, v in point.items()]
            rng.shuffle(pot_items)
            v = Potential.from_values(q, r, pot_items)
            assert v.values == tuple(point[x] for x in q.reps)
            assert v.items() == sorted(point.items())


def test_potential_from_values_validation(preorder_21):
    q = preorder_21.quotient()
    r = ZMod(5)
    v = Potential.from_values(q, r, {"a2": 2, "b1": 3})
    assert dict(v.items()) == {"a1": 2, "b1": 3}
    with pytest.raises(WeightSystemError, match="missing"):
        Potential.from_values(q, r, {"a1": 2})
    with pytest.raises(WeightSystemError, match="duplicate"):
        Potential.from_values(q, r, {"a1": 2, "a2": 2, "b1": 3})
    with pytest.raises(WeightSystemError, match="central unit"):
        Potential.from_values(q, r, {"a1": 0, "b1": 3})


def test_apply_scales_cross_blocks(preorder_21):
    q = preorder_21.quotient()
    r = ZMod(3)
    ws = WeightSystem.from_values(q, r, {("a1", "b1"): 2})
    f = IncidenceFunction.from_entries(
        preorder_21, r, [("a1", "a2", 1), ("a1", "b1", 1), ("a2", "b1", 2), ("b1", "b1", 1)]
    )
    g = ws.apply(f)
    assert g.value("a1", "a2") == 1
    assert g.value("b1", "b1") == 1
    assert g.value("a1", "b1") == 2
    assert g.value("a2", "b1") == 1


def test_apply_is_multiplicative(crown, seed=424):
    rng = random.Random(seed)
    r = ZMod(5)
    for ws in enumerate_mult(crown.quotient(), r)[:10]:
        for _ in range(10):
            f = random_function(crown, r, rng)
            g = random_function(crown, r, rng)
            assert ws.apply(convolve(f, g)) == convolve(ws.apply(f), ws.apply(g))
            assert ws.apply(f).diagonal_part() == f.diagonal_part()


def test_apply_carrier_mismatch(crown, chain3):
    ws = crown_ws(crown, 3)
    f = zeta(chain3, ZMod(5))
    with pytest.raises(WeightSystemError):
        ws.apply(f)


def test_mult_function_round_trip(preorder_21):
    q = preorder_21.quotient()
    r = ZMod(3)
    ws = WeightSystem.from_values(q, r, {("a1", "b1"): 2})
    m = to_mult_function(ws)
    # within-class entries are one, cross entries carry the weight
    assert m.value("a1", "a2") == 1
    assert m.value("a2", "b1") == 2
    assert from_mult_function(m) == ws


def test_from_mult_function_rejects_bad(chain3):
    r = ZMod(5)
    z = zeta(chain3, r)
    doubled = hadamard(z, z)  # still fine: all ones
    assert from_mult_function(doubled) == WeightSystem.identity(chain3.quotient(), r)
    broken = IncidenceFunction.from_entries(
        chain3, r, [("a", "a", 1), ("b", "b", 1), ("c", "c", 1),
                    ("a", "b", 2), ("b", "c", 3), ("a", "c", 2)]
    )
    with pytest.raises(WeightSystemError):
        from_mult_function(broken)
    missing = IncidenceFunction.from_entries(
        chain3, r, [("a", "a", 1), ("b", "b", 1), ("c", "c", 1)]
    )
    with pytest.raises(WeightSystemError):
        from_mult_function(missing)


def test_hadamard_equivalence_of_apply(crown, seed=75):
    rng = random.Random(seed)
    r = ZMod(5)
    for ws in enumerate_mult(crown.quotient(), r)[:8]:
        m = to_mult_function(ws)
        for _ in range(6):
            f = random_function(crown, r, rng)
            assert ws.apply(f) == hadamard(m, f)


def test_weight_json_round_trip(crown, tmp_path):
    ws = crown_ws(crown, 3)
    text = weight_system_to_json(ws)
    again = weight_system_from_json(text, ws.poset)
    assert again == ws
    path = tmp_path / "w.json"
    path.write_text(text)
    assert load_weight_system(str(path), ws.poset, ZMod(5)) == ws
    with pytest.raises(WeightSystemError):
        weight_system_from_json(text, ws.poset, ZMod(7))
    with pytest.raises(WeightSystemError):
        weight_system_from_json('{"weights": []}', ws.poset)
    doubled = json.loads(text)
    doubled["weights"].append(doubled["weights"][0])
    with pytest.raises(WeightSystemError, match="duplicate"):
        weight_system_from_json(json.dumps(doubled), ws.poset)


def test_weight_json_label_must_be_representative(preorder_21):
    q = preorder_21.quotient()
    text = (
        '{"ring": "Z/3", "weights": ['
        '{"from": "a2", "to": "b1", "value": "2"}]}'
    )
    with pytest.raises(WeightSystemError) as err:
        weight_system_from_json(text, q)
    assert "representative" in str(err.value)


def test_potential_json_round_trip(crown):
    """A written potential names its ring and every class representative
    with its value's text, which read back give the same potential."""
    q = crown.quotient()
    v = Potential.from_values(q, ZMod(5), {"a": 1, "b": 2, "c": 2, "d": 1})
    doc = json.loads(potential_to_json(v))
    ring = parse_ring_spec(doc["ring"])
    assert [rec["class"] for rec in doc["values"]] == list(q.reps)
    again = Potential.from_values(
        q, ring, [(rec["class"], ring.parse_element(rec["value"])) for rec in doc["values"]])
    assert again == v


def test_inner_iff_coboundary_small_product_ring(crown):
    q = crown.quotient()
    r = parse_ring_spec("Z/2 x Z/3")
    inner_keys = {w.values for w in enumerate_inner(q, r)}
    for ws in enumerate_mult(q, r):
        ok, _ = is_inner_cycles(ws)
        assert ok == (ws.values in inner_keys)


SCALAR_VIEW_RINGS = ["Z/2 x Z/3", "M(2,Z/3)", "Z/4 x M(2,Z/3)"]


@pytest.mark.parametrize("spec", SCALAR_VIEW_RINGS)
def test_verify_structure_over_products_and_matrix_rings(crown, diamond, chain3, spec):
    """Every structure check passes over rings whose central units the
    weight layer computes on as one Z/n scalar per factor."""
    ring = parse_ring_spec(spec)
    for poset in (crown, diamond, chain3):
        report = verify_structure(poset.quotient(), ring)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def _ref_tree_split(ws, root):
    """Reference on ring.mul and ring.inverse: the tree potential v and
    w1[x,y] = c[x,y] v[x] v[y]^-1."""
    ring, q = ws.ring, ws.poset
    v = _ref_propagate(ws.values, tree_of(q, root), ring)
    inv = [ring.inverse(a) for a in v.values]
    w1 = tuple(ring.mul(ring.mul(c, v.values[i]), inv[j])
               for c, (i, j) in zip(ws.values, q.index_pairs))
    return v, WeightSystem(q, ring, w1)


def _ref_coboundary(v):
    """Reference c[x,y] = v[x]^-1 v[y] on ring.mul and ring.inverse."""
    ring, q = v.ring, v.poset
    return WeightSystem(q, ring, tuple(ring.mul(ring.inverse(v.values[i]), v.values[j])
                                       for i, j in q.index_pairs))


@pytest.mark.parametrize("spec", SCALAR_VIEW_RINGS)
def test_scalar_weight_layer_matches_ring_arithmetic(spec, seed=31):
    """On seeded systems of every connected poset <= 4 points and its
    dual, from two roots, decompose, find_potential, from_potential, *,
    inverse and is_valid (on seeded single-slot mutants too) equal the
    same operations computed with the ring's own mul and inverse."""
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units, one = ring.central_units(), ring.one()
    posets = connected_posets(4)
    duals = [close_relations(p.elements, [(y, x) for x, y in p.comparable_pairs()])
             for p in posets]
    mutants = broken = 0
    for poset in posets + tuple(duals):
        q = poset.quotient()
        mult = enumerate_mult(q, ring)
        for ws in rng.sample(mult, min(6, len(mult))):
            for root in (None, q.reps[-1]):
                v, w1 = _ref_tree_split(ws, root)
                assert decompose(ws, root) == (w1, _ref_coboundary(v), v)
                found = find_potential(ws, root)
                if all(w == one for w in w1.values):
                    assert found == v
                else:
                    assert isinstance(found, NotInnerWitness)
            other = rng.choice(mult)
            assert (ws * other).values == tuple(map(ring.mul, ws.values, other.values))
            assert ws.inverse().values == tuple(map(ring.inverse, ws.values))
            pot = Potential(q, ring, tuple(rng.choice(units) for _ in q.reps))
            assert from_potential(pot) == _ref_coboundary(pot)
            if not ws.values:
                continue
            values = list(ws.values)
            slot = rng.randrange(len(values))
            values[slot] = rng.choice([u for u in units if u != values[slot]])
            bad = WeightSystem(q, ring, tuple(values))
            assert bad.is_valid() == (not _chain_violations_by_definition(bad))
            mutants += 1
            broken += not bad.is_valid()
    assert mutants > 100 and 0 < broken < mutants


def _check_walks(ws, root):
    """find_potential and decompose, each on a fresh copy of ws: a walk
    sets ``_valid`` exactly where the full cover-triple gate accepts (it
    raises WeightSystemError where the gate rejects), its result equals
    the reference walk, and violations(limit) then reads as on a copy no
    walk touched.  Returns "invalid", "outer" or "inner"."""
    q, ring = ws.poset, ws.ring
    gate = WeightSystem(q, ring, ws.values).is_valid()
    expected = WeightSystem(q, ring, ws.values).violations()
    tree = tree_of(q, root)
    v, w1 = _ref_tree_split(ws, root)
    outer = [s for s in tree.non_tree_slots if w1.values[s] != ring.one()]
    for walk in (find_potential, decompose):
        copy = WeightSystem(q, ring, ws.values)
        try:
            got = walk(copy, root)
        except WeightSystemError:
            got = None
        assert copy._valid is gate is (got is not None)
        for limit in (1, 5, None):
            assert copy.violations(limit) == expected[:limit]
        if got is None:
            continue
        if walk is decompose:
            assert got == (w1, _ref_coboundary(v), v)
        elif outer:
            i, j = q.index_pairs[outer[0]]
            w = w1.values[outer[0]]
            assert got.cycle == tree.cycle(outer[0])
            assert got.weight == (w if j < i else ring.inverse(w)) == cycle_weight(copy, got.cycle)
        else:
            assert got == v
    return "invalid" if not gate else "outer" if outer else "inner"


@pytest.mark.parametrize("spec", DEFAULT_SUITE_RINGS)
def test_walk_certificate_on_every_enumerated_system(spec):
    """Every system enumerate_mult lists on the connected posets of at
    most 4 points, from the least and the greatest class."""
    ring = parse_ring_spec(spec)
    seen = Counter()
    for poset in connected_posets(4):
        q = poset.quotient()
        for ws in enumerate_mult(q, ring):
            for root in (None, q.reps[-1]):
                seen[_check_walks(ws, root)] += 1
    assert seen["invalid"] == 0 and seen["inner"] >= 30
    assert (seen["outer"] > 0) == (len(ring.central_units()) > 1)


@pytest.mark.parametrize("spec", ["Z/7", "Z/2 x Z/3", "M(2,Z/3)"])
def test_walk_certificate_on_corrupted_coboundaries(gate_posets, boolean6, spec, seed=41):
    """Seeded coboundaries on the gate posets and B_6, and copies with 1,
    2 and 3 slots changed: the walks certify only what the gate accepts."""
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units = ring.central_units()
    seen = Counter()
    for poset in [*gate_posets, boolean6]:
        q = poset.quotient()
        if not q.index_pairs:
            continue
        ws = from_potential(Potential(q, ring, tuple(rng.choice(units) for _ in q.reps)))
        assert _check_walks(ws, None) == "inner"
        for k in (1, 2, 3):
            values = list(ws.values)
            for slot in rng.sample(range(len(values)), min(k, len(values))):
                values[slot] = rng.choice([u for u in units if u != values[slot]])
            seen[_check_walks(WeightSystem(q, ring, tuple(values)), rng.choice(q.reps))] += 1
    assert seen["invalid"] > 150 and seen["outer"] > 20


def _count_walks(monkeypatch):
    """Wrap the tree walk; returns a counter of the fresh walks it made.  A
    walk taken from ``_handed`` comes back as the same tuple, and every
    walk is kept, so the distinct tuples are the walks made."""
    walks, walk = [], mult_automorphisms._walk
    monkeypatch.setattr(mult_automorphisms, "_walk",
                        lambda ws, root: walks.append(walk(ws, root)) or walks[-1])
    return lambda: len({id(w) for w in walks})


@pytest.mark.parametrize("spec", ["Z/5", "Z/2 x Z/3"])
def test_decompose_hands_its_walk_to_find_potential(spec, monkeypatch):
    """On every system enumerate_mult lists on the connected posets of at
    most 4 points, decompose then find_potential with the same root (None,
    then the least class by name) walk once and leave no walk on the
    system; with another root, find_potential walks again and leaves its
    walk."""
    ring, fresh = parse_ring_spec(spec), _count_walks(monkeypatch)
    systems = 0
    for poset in connected_posets(4):
        q = poset.quotient()
        for ws in enumerate_mult(q, ring):
            made = fresh()
            decompose(ws)
            find_potential(ws, q.reps[0])
            assert (fresh(), ws._handed) == (made + 1, None)
            if q.n_classes > 1:
                decompose(ws)
                find_potential(ws, q.reps[-1])
                assert fresh() == made + 3 and ws._handed[0] is tree_of(q, q.reps[-1])
            systems += 1
    assert systems == {"Z/5": 885, "Z/2 x Z/3": 103}[spec]


def test_cli_walks_an_invalid_system_once(capsys, tmp_path, monkeypatch):
    """is-inner, decompose and check --expect-inner on an invalid system
    (one slot of the identity changed) make one walk each: the walk that
    meets the failing gate is handed to violations, which every later
    report reads.  Each prints the first violations of a fresh scan."""
    ring = ZMod(5)
    cases = 0
    for poset in connected_posets(4):
        q = poset.quotient()
        for slot in range(len(q.index_pairs)):
            values = list(WeightSystem.identity(q, ring).values)
            values[slot] = 2
            bad = WeightSystem(q, ring, tuple(values)).violations()
            if not bad:
                continue
            cases += 1
            (tmp_path / "p.txt").write_text(preorder_to_text(poset))
            (tmp_path / "w.json").write_text(weight_system_to_json(
                WeightSystem(q, ring, tuple(values))))
            files = ["--poset", str(tmp_path / "p.txt"), "--weights", str(tmp_path / "w.json")]
            with monkeypatch.context() as m:
                fresh = _count_walks(m)
                for argv in (["is-inner", *files], ["decompose", *files]):
                    made = fresh()
                    assert run_command(argv) == 1 and fresh() == made + 1
                    assert capsys.readouterr() == (
                        "", f"not a weight system: chain condition fails at {bad[0]}\n")
                made = fresh()
                assert run_command(["check", *files, "--expect-inner"]) == 1
                assert fresh() == made + 1
                assert json.loads(capsys.readouterr().out) == {
                    "ring": "Z/5", "pairs": len(values), "valid": False,
                    "violations": [list(t) for t in bad[:10]]}
    assert cases >= 10


def _random_poset(rng, labels, density):
    """A seeded poset: labels[i] < labels[j] for a random choice of i < j, closed."""
    return close_relations(labels, [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]
                                    if rng.random() < density])


def _crown_pullback(q, ring, rng):
    """A valid non-inner system on a tower over the 4-crown a0, a1 < b0, b1
    (labels ``<point>_<level>``): a pair across two crown points takes that
    crown edge's weight, a pair over one point takes one.  The crown has
    height one, so the chain condition holds; the edge weights are drawn
    until the crown cycle's weight is not one."""
    point, units, one = {x: x.split("_")[0] for x in q.reps}, ring.central_units(), ring.one()
    while True:
        w = {(a, b): rng.choice(units) for a in ("a0", "a1") for b in ("b0", "b1")}
        ws = WeightSystem(q, ring, tuple(one if point[x] == point[y] else w[point[x], point[y]]
                                         for x, y in q.strict_pairs()))
        if isinstance(find_potential(WeightSystem(q, ring, ws.values)), NotInnerWitness):
            return ws


@pytest.mark.parametrize("spec", ["Z/7", "Z/2 x Z/3", "M(2,Z/3)"])
def test_localised_scan_matches_definition(spec, seed=47):
    """violations() equals the definitional scan on both of its paths, the
    triples around F = {w1 != 1} and, past its budget, the gate and the
    row scan; violations(l) is the head of the full list.  Seeded posets
    of 3 to 9 points, one of them disconnected, and a crown tower carry
    coboundaries and crown pullbacks (valid and non-inner), each with 0 to
    3 slots changed, one edge of the walk's forest changed, or every slot
    changed.  The gate runs exactly where ``_cover_triples`` gets
    built, which tells the paths apart; each is taken."""
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units = ring.central_units()
    posets = [_random_poset(rng, [f"p{i}" for i in range(n)], density)
              for n in range(3, 10) for density in (0.3, 0.7)]
    posets.append(close_relations([*"abcdefg"], [("a", "b"), ("b", "c"), ("a", "d"),
                                                  ("e", "f"), ("e", "g")]))  # two components
    tower = close_relations(
        [f"{p}_{h}" for p in ("a0", "a1", "b0", "b1") for h in (0, 1)],
        [(f"{p}_0", f"{p}_1") for p in ("a0", "a1", "b0", "b1")]
        + [(f"{a}_{h}", f"{b}_{h}") for a in ("a0", "a1") for b in ("b0", "b1") for h in (0, 1)])
    paths = Counter()
    for poset in [*posets, tower]:
        q = poset.quotient()
        if not q.index_pairs:
            continue
        bases = [from_potential(Potential(q, ring, tuple(rng.choice(units) for _ in q.reps)))
                 for _ in range(2)]
        if poset is tower:
            bases += [_crown_pullback(q, ring, rng) for _ in range(3)]
        steps = [slot for _, _, slot, _ in tree_of(q).steps]
        for base, k in ((base, k) for base in bases for k in range(6)):
            values = list(base.values)  # k = 4: a forest edge, which moves v below it; 5: all
            for slot in ([rng.choice(steps)] if k == 4 else range(len(values)) if k == 5
                         else rng.sample(range(len(values)), min(k, len(values)))):
                values[slot] = rng.choice([u for u in units if u != values[slot]])
            expected = _chain_violations_by_definition(WeightSystem(q, ring, tuple(values)))
            q.__dict__.pop("_cover_triples", None)
            ws = WeightSystem(q, ring, tuple(values))
            assert ws.violations() == expected
            assert ws.is_valid() == (not expected)
            paths["gate" if "_cover_triples" in q.__dict__ else "F"] += 1
            for limit in (1, 5, 10):
                assert WeightSystem(q, ring, tuple(values)).violations(limit) == expected[:limit]
    assert paths["F"] > 100 and paths["gate"] >= 10, paths


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec", ["Z/12", "M(2,Z/3)", "Z/2 x Z/3"])
def test_writers_match_json_dumps(spec, seed=29):
    """The three file writers give json.dumps's indented bytes, escapes
    included: labels that need escaping at both ends of a pair, in either
    label order, columns with one distinct value (zeta, the all-ones
    potential and its system), empty lists, and files of over 1,000
    records (a 46-chain's 1,035 strict pairs, an antichain of 1,000)."""
    rng = random.Random(seed)
    r = parse_ring_spec(spec)
    fmt = r.format_element
    odd = close_relations(['a"1', "b\\2", "cé", "d"], [('a"1', "b\\2"), ('a"1', "cé")])
    escaped = close_relations(['a"1', "b\\2", "cé"], [("b\\2", 'a"1'), ("b\\2", "cé")])
    chain = close_relations([f"c{i:02d}" for i in range(46)],
                            [(f"c{i:02d}", f"c{i + 1:02d}") for i in range(45)])
    crowd = close_relations([f"p{i:04d}" for i in range(1000)], [])
    for p in (odd, escaped, close_relations(["solo"], []), chain, crowd):
        q = p.quotient()
        for f in (IncidenceFunction(p, r, {}), random_function(p, r, rng), zeta(p, r)):
            assert function_to_json(f) == _dumps({"entries": [
                {"from": x, "to": y, "value": fmt(v)} for (x, y), v in sorted(f.items())]})
        units = r.central_units()
        for pot in (Potential.from_values(q, r, {x: rng.choice(units) for x in q.reps}),
                    Potential(q, r, (r.one(),) * len(q.reps))):
            ws = from_potential(pot)
            assert weight_system_to_json(ws) == _dumps({"ring": str(r), "weights": [
                {"from": x, "to": y, "value": fmt(v)} for (x, y), v in ws.items()]})
            assert potential_to_json(pot) == _dumps({"ring": str(r), "values": [
                {"class": x, "value": fmt(v)} for x, v in pot.items()]})


def test_from_mult_function_rejects_non_block_functions(preorder_21):
    """Multiplicative-looking values that are not one inside a class, or
    not constant on a class block, have no weight system."""
    r = ZMod(5)
    base = {("a1", "a1"): 1, ("a2", "a2"): 1, ("b1", "b1"): 1,
            ("a1", "a2"): 1, ("a2", "a1"): 1, ("a1", "b1"): 2, ("a2", "b1"): 2}

    def function(values):
        return IncidenceFunction.from_entries(
            preorder_21, r, [(x, y, v) for (x, y), v in values.items()])

    assert from_mult_function(function(base)) == WeightSystem.from_values(
        preorder_21.quotient(), r, {("a1", "b1"): 2})
    for pair, value in ((("a1", "a2"), 4), (("a2", "b1"), 3)):
        bad = function({**base, pair: value})
        with pytest.raises(WeightSystemError):
            from_mult_function(bad)
