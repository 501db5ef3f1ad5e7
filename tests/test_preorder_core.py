import random
import time
import tracemalloc

import pytest

from incalg import preorder_core
from incalg.comparability import tree_of
from incalg.oracle import all_posets
from incalg.preorder_core import (
    PreorderError,
    close_relations,
    load_preorder_text,
    _bits,
    preorder_descriptor,
    preorder_to_text,
)
from reference import as_preorder, inflate, interval, leq, lt


def test_close_relations_transitivity(chain3):
    assert leq(chain3, "a", "c")
    assert lt(chain3, "a", "c")
    assert not leq(chain3, "c", "a")
    assert leq(chain3, "b", "b")


def test_close_relations_rejects_bad_labels():
    with pytest.raises(PreorderError):
        close_relations(["a", "a"], [])
    with pytest.raises(PreorderError):
        close_relations(["a", "b c"], [])
    with pytest.raises(PreorderError):
        close_relations(["a", "#b"], [])
    with pytest.raises(PreorderError):
        close_relations([], [])
    with pytest.raises(PreorderError):
        close_relations(["a"], [("a", "z")])


def test_interval_and_comparable_pairs(chain3):
    assert interval(chain3, "a", "c") == ("a", "b", "c")
    assert interval(chain3, "a", "b") == ("a", "b")
    pairs = chain3.comparable_pairs()
    assert ("a", "a") in pairs
    assert ("a", "c") in pairs
    assert ("c", "a") not in pairs
    assert len(pairs) == 6


def test_equivalence_and_quotient(preorder_21):
    assert leq(preorder_21, "a1", "a2") and leq(preorder_21, "a2", "a1")
    assert not leq(preorder_21, "b1", "a1")
    q = preorder_21.quotient()
    assert q.classes == (("a1", "a2"), ("b1",))
    assert q.reps == ("a1", "b1")
    assert q.rep("a2") == "a1"
    assert q.lt("a2", "b1")
    assert q.strict_pairs() == [("a1", "b1")]


def test_label_pair_lists_are_new_on_each_call(crown):
    """The label-pair lists are built on demand: a caller that reorders
    one changes neither the quotient nor the next list."""
    q = crown.quotient()
    for get in (crown.comparable_pairs, q.strict_pairs):
        first = get()
        first.reverse()
        assert get() == sorted(first) and get() is not get()
    assert q.strict_pairs() == [(q.reps[i], q.reps[j]) for i, j in q.index_pairs]


def test_classes_and_reps_follow_labels_not_declaration_order():
    """Members and classes are ordered by label, whatever the order the
    elements are declared in; the element-to-class index follows."""
    p = load_preorder_text("elements y x c\nrel x y\nrel y x\nrel c x\n")
    q = p.quotient()
    assert q.classes == (("c",), ("x", "y")) and q.reps == ("c", "x")
    assert q.elem_class == [1, 1, 0] and [q._c(x) for x in "cxy"] == [0, 1, 1]
    with pytest.raises(PreorderError, match="unknown label 'z'"):
        q.rep("z")


def test_quotient_of_poset_is_identity(crown):
    q = crown.quotient()
    assert q.n_classes == len(crown.elements)
    assert as_preorder(q) == crown


def test_quotient_interval_within_class():
    """Inside one equivalence class every interval is the whole class."""
    p = close_relations("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
    assert interval(p, "x", "y") == ("x", "y", "z")
    q = p.quotient()
    assert q.n_classes == 1
    assert q.height() == 0


def test_quotient_classwise_strictness(preorder_21):
    # a strict class relation holds between every pair of members
    for s in ("a1", "a2"):
        assert lt(preorder_21, s, "b1")
        assert not leq(preorder_21, "b1", s)


def test_height(chain3, crown):
    assert chain3.quotient().height() == 2
    assert crown.quotient().height() == 1


def _longest_chain(q, ci, cj):
    """Reference: longest strict chain from class ci to class cj, by recursion."""
    if ci == cj:
        return 0
    return max(1 + _longest_chain(q, b, cj) for b in range(q.n_classes)
               if b != ci and q._up[ci] >> b & 1 and q._up[b] >> cj & 1)


def test_height_matches_recursion():
    for n in range(1, 6):
        for p in all_posets(n):
            q = p.quotient()
            lengths = {(x, y): _longest_chain(q, q._c(x), q._c(y))
                       for x, y in p.comparable_pairs()}
            assert q.height() == max(lengths.values())


def test_height_of_long_chain(chain1100):
    start = time.process_time()
    q = chain1100.quotient()
    assert q.height() == 1099
    assert time.process_time() - start < 10


def test_connected_components():
    p = close_relations("abcd", [("a", "b")])
    q = p.quotient()
    assert tree_of(q).components == [("a", "b"), ("c",), ("d",)]  # not connected


def test_load_preorder_text_round_trip(crown):
    text = preorder_to_text(crown)
    again = load_preorder_text(text)
    assert again == crown
    assert preorder_to_text(again) == text


def test_load_preorder_text_comments_and_errors():
    p = load_preorder_text("# header\nelements a b  # trailing\nrel a b\n\n")
    assert lt(p, "a", "b")
    with pytest.raises(PreorderError) as err:
        load_preorder_text("elements a b\nrel a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(PreorderError) as err:
        load_preorder_text("elements a b\nrel a z\n")
    assert "z" in str(err.value)
    with pytest.raises(PreorderError):
        load_preorder_text("elements a b\nelements c\n")
    with pytest.raises(PreorderError):
        load_preorder_text("rel a b\n")
    with pytest.raises(PreorderError):
        load_preorder_text("elements a b\nfoo a b\n")


def test_element_guard_refuses_before_the_closure(monkeypatch):
    """A file over GUARD_ELEMENTS elements is refused, naming its size,
    before close_relations runs; one at the bound loads."""
    monkeypatch.setattr(preorder_core, "GUARD_ELEMENTS", 4)
    assert len(load_preorder_text("elements a b c d\nrel a b\n").elements) == 4

    def closure(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(preorder_core, "close_relations", closure)
    with pytest.raises(PreorderError, match="^a preorder with 5 elements is over the guard 4$"):
        load_preorder_text("elements a b c d e\nrel a b\n")


def test_descriptor_is_one_line(crown, preorder_21):
    for p in (crown, preorder_21):
        d = preorder_descriptor(p)
        assert "\n" not in d
        assert d.startswith("elements")


def test_random_closure_is_transitive(seed=414):
    rng = random.Random(seed)
    labels = ["p", "q", "r", "s", "t"]
    for _ in range(100):
        gens = [
            (labels[rng.randrange(5)], labels[rng.randrange(5)]) for _ in range(6)
        ]
        p = close_relations(labels, gens)
        for x in labels:
            assert leq(p, x, x)
            for y in labels:
                for z in labels:
                    if leq(p, x, y) and leq(p, y, z):
                        assert leq(p, x, z)


def test_quotient_equivalence_classes_partition(seed=98):
    rng = random.Random(seed)
    labels = ["u", "v", "w", "x"]
    for _ in range(60):
        gens = [
            (labels[rng.randrange(4)], labels[rng.randrange(4)]) for _ in range(5)
        ]
        q = close_relations(labels, gens).quotient()
        seen = [lab for cls in q.classes for lab in cls]
        assert sorted(seen) == sorted(labels)


def _hasse_by_definition(q):
    """Per class, the bitmask of the classes y > x with nothing strictly between."""
    reps = q.reps
    return [sum(1 << j for j, y in enumerate(reps)
                if q.lt(x, y) and not any(q.lt(x, z) and q.lt(z, y) for z in reps))
            for x in reps]


def test_covers_are_the_hasse_diagram(gate_posets):
    for poset in gate_posets:
        q = poset.quotient()
        assert q._covers == _hasse_by_definition(q)


def test_slot_of_inverts_index_pairs(seed=37):
    """slot_of[i] lists the classes strictly above i, ascending, and
    slot_of[i][j] == s exactly when index_pairs[s] == (i, j): on every
    poset of at most 5 points and on preorders inflated over them."""
    rng = random.Random(seed)
    posets = [p for n in range(1, 6) for p in all_posets(n)]
    posets += [inflate(p, [rng.randint(1, 3) for _ in p.elements]) for p in posets[::7]]
    for poset in posets:
        q = poset.quotient()
        k, pairs = q.n_classes, q.index_pairs
        assert len(q.slot_of) == k and sum(map(len, q.slot_of)) == len(pairs)
        for i, row in enumerate(q.slot_of):
            assert list(row) == [j for j in range(k) if j != i and q._up[i] >> j & 1]
            assert all(pairs[s] == (i, j) for j, s in row.items())
        assert all(q.slot_of[i][j] == s for s, (i, j) in enumerate(pairs))


def test_bits_match_binary_digits(seed=11):
    """The byte-table walk gives the set bits of bin(mask) for every width
    0..1,100, 4,090..4,100 (across the last tabled byte) and 16,384:
    empty, full, top bit only, and seeded dense and sparse masks."""
    rng = random.Random(seed)
    for width in [*range(1101), *range(4090, 4101), 16384]:
        masks = {0, (1 << width) - 1, rng.getrandbits(width),
                 rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)}
        if width:
            masks.add(1 << width - 1)
        for m in masks:
            assert _bits(m) == [i for i, ch in enumerate(reversed(bin(m))) if ch == "1"]


def test_bits_of_a_sparse_mask_on_both_sides_of_the_table_limit():
    """The zero bytes of a sparse mask are skipped, below and above the
    4,096 bits the per-position tables cover."""
    bits = [0, 7, 8, 1000, 4087, 4088, 4095, 4096, 4103, 4104, 6000, 16383]
    assert _bits(sum(1 << b for b in bits)) == bits


def test_bit_tables_are_bounded():
    """A 16,384-bit mask builds tables for the first 4,096 bits only."""
    saved = list(preorder_core._BIT_TABLES)
    preorder_core._BIT_TABLES.clear()
    try:
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        assert len(_bits((1 << 16384) - 1)) == 16384
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert len(preorder_core._BIT_TABLES) <= 512
        assert grown < 11 * 2**20
    finally:
        preorder_core._BIT_TABLES[:] = saved


def _warshall_rows(labels, gens):
    """Reference closure: Warshall's algorithm on bitmask rows."""
    index = {x: i for i, x in enumerate(labels)}
    up = [1 << i for i in range(len(labels))]
    for x, y in gens:
        up[index[x]] |= 1 << index[y]
    for k in range(len(labels)):
        bit = 1 << k
        for i in range(len(labels)):
            if up[i] & bit:
                up[i] |= up[k]
    return up


def _generators(p):
    """Shortest generators of a preorder: a cycle through each class and
    the covers of its quotient, between representatives."""
    q = p.quotient()
    gens = [(c[k], c[(k + 1) % len(c)]) for c in q.classes if len(c) > 1 for k in range(len(c))]
    return gens + [(q.reps[i], q.reps[z]) for i, row in enumerate(q._covers) for z in _bits(row)]


def test_closure_matches_warshall(gate_posets, chain1100, seed=16):
    """The component-wise closure equals Warshall's on every poset with at
    most 5 points, the gate posets and the 1,100-chain, each rebuilt from
    shuffled shortest generators, and on seeded random digraphs with
    cycles, self-loops and repeated edges."""
    rng = random.Random(seed)
    posets = [p for n in range(1, 6) for p in all_posets(n)] + list(gate_posets) + [chain1100]
    for p in posets:
        gens = _generators(p)
        rng.shuffle(gens)
        assert close_relations(p.elements, gens)._up == _warshall_rows(p.elements, gens) == p._up
    for _ in range(2000):
        labels = [f"v{i}" for i in range(rng.randint(1, 9))]
        gens = [(rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randint(0, 3 * len(labels)))]
        assert close_relations(labels, gens)._up == _warshall_rows(labels, gens)


def _comparable_pairs_by_shifts(p):
    """Reference: the n^2 test of every (i, j) bit that comparable_pairs
    made before it read each row's set bits."""
    return sorted((x, y) for i, x in enumerate(p.elements) for j, y in enumerate(p.elements)
                  if p._up[i] >> j & 1)


def test_comparable_pairs_match_the_quadratic_scan(gate_posets, seed=21):
    """On every poset with at most 5 points, the gate posets and seeded
    random preorders with classes of several members, labels shuffled."""
    rng = random.Random(seed)
    posets = [p for n in range(1, 6) for p in all_posets(n)] + list(gate_posets)
    for _ in range(200):
        labels = [f"v{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(labels)
        gens = [(rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randint(0, 2 * len(labels)))]
        posets.append(close_relations(labels, gens))
    assert any(len(c) > 1 for p in posets[-200:] for c in p.quotient().classes)
    for p in posets:
        assert p.comparable_pairs() == _comparable_pairs_by_shifts(p)
