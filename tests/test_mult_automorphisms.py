import json
import random

import pytest

from incalg.coeff_rings import ZMod, parse_ring_spec
from incalg.comparability import ComparabilityGraph, cycle_weight, path_weight, spanning_tree
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
    decompose,
    find_potential,
    from_mult_function,
    from_point_map,
    from_potential,
    from_tree,
    is_inner_cycles,
    load_weight_system,
    potential_from_json,
    potential_to_json,
    to_mult_function,
    weight_system_from_json,
    weight_system_to_json,
)
from incalg.oracle import connected_posets, enumerate_inner, enumerate_mult, random_function
from incalg.preorder_core import close_relations


def crown_ws(crown, bd):
    return WeightSystem(
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
    good = WeightSystem(q, ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 1})
    assert good.is_valid() and good.violations() == []
    bad = WeightSystem(q, ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 2})
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


def test_identity_is_valid_everywhere(diamond):
    ws = WeightSystem.identity(diamond.quotient(), ZMod(12))
    assert ws.is_valid()


def test_potential_round_trip(crown):
    q = crown.quotient()
    v = Potential(q, ZMod(5), {"a": 1, "b": 2, "c": 2, "d": 1})
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
    bad = WeightSystem(chain3.quotient(), ZMod(5), {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 2})
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
    for e in tree.tree_edges:
        assert w1.values[e] == 1


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
        given = {e: rng.choice(units) for e in sorted(tree.tree_edges)}
        ws = from_tree(tree, ring, given)
        assert ws.is_valid()
        # on tree edges ws is the input, so path_weight(ws, .) multiplies input values
        assert all(ws.values[e] == c for e, c in given.items())
        for x, y in q.strict_pairs():
            assert ws.value(x, y) == path_weight(ws, tree.path(x, y))


def test_decompose_alternating_roots(crown):
    """Each root keeps its own cached tree: w1 is trivial on that tree."""
    q = crown.quotient()
    for ws in enumerate_mult(q, ZMod(5))[::37]:
        for root in (None, "b", None):
            w1, w0, _ = decompose(ws, root)
            assert w1 * w0 == ws
            tree = spanning_tree(ComparabilityGraph(q), root)
            assert all(w1.values[e] == 1 for e in tree.tree_edges)


@pytest.mark.parametrize("spec", ["Z/5", "Z/2 x Z/3", "M(2,Z/3)"])
def test_tree_walk_matches_reference_products(spec):
    """Cycle reports, witnesses and w1 from the one tree walk equal the
    step-by-step products of the definitional ``cycle_weight`` and the
    quotient of ws by the coboundary, for every system and every root.
    The duals put the lexicographically smaller label on top, so cycles
    cross their non-tree edge both ways."""
    ring = parse_ring_spec(spec)
    posets = connected_posets(4)
    duals = [close_relations(p.elements, [(y, x) for x, y in p.comparable_pairs()])
             for p in posets]
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


def test_potential_from_values_validation(preorder_21):
    q = preorder_21.quotient()
    r = ZMod(5)
    v = Potential.from_values(q, r, {"a2": 2, "b1": 3})
    assert v.values == {"a1": 2, "b1": 3}
    with pytest.raises(WeightSystemError, match="missing"):
        Potential.from_values(q, r, {"a1": 2})
    with pytest.raises(WeightSystemError, match="duplicate"):
        Potential.from_values(q, r, {"a1": 2, "a2": 2, "b1": 3})
    with pytest.raises(WeightSystemError, match="central unit"):
        Potential.from_values(q, r, {"a1": 0, "b1": 3})


def test_apply_scales_cross_blocks(preorder_21):
    q = preorder_21.quotient()
    r = ZMod(3)
    ws = WeightSystem(q, r, {("a1", "b1"): 2})
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
    ws = WeightSystem(q, r, {("a1", "b1"): 2})
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


def test_from_point_map(crown):
    q = crown.quotient()
    v = Potential(q, ZMod(5), {"a": 1, "b": 2, "c": 2, "d": 1})
    ws = from_potential(v)
    m = from_point_map(v)
    assert m == to_mult_function(ws)


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
    q = crown.quotient()
    v = Potential(q, ZMod(5), {"a": 1, "b": 2, "c": 2, "d": 1})
    text = potential_to_json(v)
    again = potential_from_json(text, q)
    assert again == v
    with pytest.raises(WeightSystemError):
        potential_from_json('{"ring": "Z/5", "values": []}', q)


def test_inner_iff_coboundary_small_product_ring(crown):
    q = crown.quotient()
    r = parse_ring_spec("Z/2 x Z/3")
    inner_keys = {w.key() for w in enumerate_inner(q, r)}
    for ws in enumerate_mult(q, r):
        ok, _ = is_inner_cycles(ws)
        assert ok == (ws.key() in inner_keys)


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec", ["Z/12", "M(2,Z/3)", "Z/2 x Z/3"])
def test_writers_match_json_dumps(spec, seed=29):
    """The three file writers give json.dumps's indented bytes, escapes included."""
    rng = random.Random(seed)
    r = parse_ring_spec(spec)
    fmt = r.format_element
    odd = close_relations(['a"1', "b\\2", "cé", "d"], [('a"1', "b\\2"), ('a"1', "cé")])
    for p in (odd, close_relations(["solo"], [])):
        q = p.quotient()
        for f in (IncidenceFunction(p, r, {}), random_function(p, r, rng)):
            assert function_to_json(f) == _dumps({"entries": [
                {"from": x, "to": y, "value": fmt(v)} for (x, y), v in sorted(f.entries.items())]})
        units = r.central_units()
        pot = Potential.from_values(q, r, {x: rng.choice(units) for x in q.reps})
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
    assert from_mult_function(IncidenceFunction(preorder_21, r, base)) == WeightSystem(
        preorder_21.quotient(), r, {("a1", "b1"): 2})
    for pair, value in ((("a1", "a2"), 4), (("a2", "b1"), 3)):
        bad = IncidenceFunction(preorder_21, r, {**base, pair: value})
        with pytest.raises(WeightSystemError):
            from_mult_function(bad)
