"""The bulk file readers against the row-by-row readers they replaced.

The reference readers below are the earlier definitions, kept here: one
record at a time, each value parsed where it stands, everything checked
by the validating constructors.  Seeded mutations of valid files must
give an equal result, or the same exception class with the same message.
"""

import json
import random

import pytest

from incalg.cli import run_command
from incalg.coeff_rings import RingParseError, parse_ring_spec
from incalg.incidence_algebra import IncidenceFunction, SupportError, function_from_json
from incalg.mult_automorphisms import (
    Potential,
    WeightSystem,
    WeightSystemError,
    from_potential,
    weight_system_from_json,
)
from incalg.oracle import random_function
from incalg.preorder_core import PreorderError, close_relations, preorder_to_text
from reference import class_members, inflate

RINGS = ("Z/7", "Z/2 x Z/3", "M(2,Z/3)")


def _ref_read_records(text, what, list_key, fields, error):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"bad {what} file: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get(list_key), list):
        raise error(f'{what} file needs a "{list_key}" list')
    strings = (str,) * len(fields)
    rows = []
    for rec in obj[list_key]:
        row = tuple(map(rec.get, fields)) if isinstance(rec, dict) else None
        if row is None or tuple(map(type, row)) != strings:
            raise error(f"malformed {what} entry {rec!r}: needs string fields {', '.join(fields)}")
        rows.append(row)
    return obj, rows


def _ref_read_ring_records(text, what, list_key, fields, poset, ring):
    obj, rows = _ref_read_records(text, what, list_key, fields, WeightSystemError)
    if "ring" not in obj:
        raise WeightSystemError(f'{what} file needs a "ring"')
    file_ring = parse_ring_spec(obj["ring"])
    if ring is not None and ring != file_ring:
        raise WeightSystemError(f"file ring {file_ring} does not match expected ring {ring}")
    for lab in dict.fromkeys(lab for row in rows for lab in row[:-1]):
        if poset.rep(lab) != lab:
            raise WeightSystemError(
                f"label {lab!r} is not a class representative (expected {poset.rep(lab)!r})"
            )
    return (file_ring if ring is None else ring), rows


def ref_weight_system_from_json(text, poset, ring=None):
    use, rows = _ref_read_ring_records(text, "weight-system", "weights",
                                       ("from", "to", "value"), poset, ring)
    return WeightSystem.from_values(
        poset, use, [((x, y), use.parse_element(v)) for x, y, v in rows])


def ref_function_from_json(text, preorder, ring):
    _, rows = _ref_read_records(text, "function", "entries", ("from", "to", "value"), SupportError)
    return IncidenceFunction.from_entries(
        preorder, ring, [(x, y, ring.parse_element(v)) for x, y, v in rows]
    )


def _outcome(read, text, *args):
    """What a reader makes of a file: its result's contents, or the class
    and message of what it raised."""
    try:
        got = read(text, *args)
    except Exception as e:  # noqa: BLE001 - the exception itself is compared
        return type(e), str(e)
    if isinstance(got, IncidenceFunction):
        return "read", got.ring, list(got.entries.items())
    return "read", type(got), got.ring, got.values


def _posets():
    """A crown with doubled classes (aliases, incomparable pairs), a
    3-chain with a tripled middle class and a 7-chain."""
    crown = close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    chain = close_relations("xyz", [("x", "y"), ("y", "z")])
    long = close_relations("abcdefg", list(zip("abcdef", "bcdefg")))
    return [inflate(crown, [2, 1, 1, 2]), inflate(chain, [1, 3, 1]), long]


def _spellings(ring, text):
    """Other texts of the same element: spaces, a plus sign, a leading zero."""
    if ring.startswith("Z/7"):
        return [f" {text} ", f"+{text}", f"0{text}"]
    if ring.startswith("Z/2"):
        a, b = text[1:-1].split(",")
        return [f" ({a}, {b}) ", f"(+{a},0{b})"]
    return [" " + text.replace(",", ", ") + " "]


def _non_central(ring):
    return {"Z/7": "0", "Z/2 x Z/3": "(1,0)", "M(2,Z/3)": "[[1,1],[0,1]]"}[ring]


def _mutants(rng, records, labels, fields, ring, members, unknown):
    """Seeded faults, and harmless changes, in a list of records.

    ``labels`` names the label fields, ``members`` maps a label to the
    other labels of its class (aliases), ``unknown`` is no label at all.
    Each single-row fault is applied alone and, for the order in which
    faults are reported, in pairs on two rows.  Yields (kind, records).
    """
    field = rng.choice(labels)
    others = [m for ms in members.values() for m in ms]

    def alias(rec):
        rec[field] = rng.choice(members[rec[field]] or [unknown])

    def non_representative(rec):
        rec[field] = rng.choice(others or [unknown])

    def unknown_label(rec):
        rec[field] = unknown

    def swapped(rec):  # (y, x) for (x, y): not a strict pair, or not comparable
        rec[labels[0]], rec[labels[-1]] = rec[labels[-1]], rec[labels[0]]

    def diagonal(rec):  # (x, x): no weight has it; a function entry may
        rec[labels[-1]] = rec[labels[0]]

    def non_central(rec):
        rec["value"] = _non_central(ring)

    def unparsable(rec):
        rec["value"] = rng.choice(["x", "", "[[1]]", "(1,2,3)", "1/2"])

    def non_string(rec):
        rec[rng.choice(fields)] = rng.choice([3, None, ["a"], {"a": 1}])

    faults = {"alias label": alias, "non-representative label": non_representative,
              "unknown label": unknown_label, "non-central value": non_central,
              "unparsable value": unparsable, "non-string field": non_string,
              "non-comparable pair": swapped, "diagonal pair": diagonal}

    def copy():
        return [dict(r) for r in records]

    def at():
        return rng.randrange(len(records))

    for kind, fault in faults.items():
        out = copy()
        fault(out[at()])
        yield kind, out
    out = copy()
    del out[at()]
    yield "dropped row", out
    out = copy()
    out.insert(at(), dict(records[at()]))
    yield "duplicated row", out
    out = copy()
    out[at()] = rng.choice([["a", "b", "1"], "a", 7])
    yield "non-object record", out
    out = copy()
    for r in rng.sample(range(len(records)), min(3, len(records))):
        out[r]["value"] = rng.choice(_spellings(ring, out[r]["value"]))
    yield "spellings", out
    out = copy()
    rng.shuffle(out)
    yield "shuffled rows", out
    out = copy()
    first, second = rng.sample(range(len(records)), 2)
    out[first]["value"], out[second]["value"] = "x", "y"
    yield "two unparsable values", out
    for _ in range(6):
        out = copy()
        kinds = rng.sample(sorted(faults), 2)
        for kind, r in zip(kinds, rng.sample(range(len(records)), 2)):
            faults[kind](out[r])
        yield " and ".join(kinds), out


@pytest.mark.parametrize("spec", RINGS)
def test_bulk_readers_match_row_readers(spec, seed=13):
    rng = random.Random(seed)
    ring = parse_ring_spec(spec)
    units = ring.central_units()
    seen = set()
    for preorder in _posets():
        q = preorder.quotient()
        members = {x: [m for m in class_members(q, x) if m != x] for x in q.reps}
        everyone = {x: [m for m in preorder.elements if m != x] for x in preorder.elements}
        for _ in range(4):
            pot = Potential(q, ring, tuple(rng.choice(units) for _ in q.reps))
            ws = from_potential(pot)
            fmt = ring.format_element
            weights = [{"from": x, "to": y, "value": fmt(v)} for (x, y), v in ws.items()]
            f = random_function(preorder, ring, rng)
            entries = [{"from": x, "to": y, "value": fmt(v)} for (x, y), v in f.items()]
            files = [
                (weight_system_from_json, ref_weight_system_from_json, "weights", weights,
                 ("from", "to"), ("from", "to", "value"), members, (q,)),
                (function_from_json, ref_function_from_json, "entries", entries,
                 ("from", "to"), ("from", "to", "value"), everyone, (preorder, ring)),
            ]
            for new, ref, key, records, labels, fields, mem, args in files:
                head = {} if key == "entries" else {"ring": spec}
                cases = [("valid", records)]
                cases += _mutants(rng, records, labels, fields, spec, mem, "nobody")
                for kind, recs in cases:
                    text = json.dumps({**head, key: recs})
                    expected = _outcome(ref, text, *args)
                    assert _outcome(new, text, *args) == expected, (kind, key)
                    seen.add(expected[0])
    assert seen == {"read", WeightSystemError, SupportError, PreorderError, RingParseError}


def test_mutated_files_exit_cleanly(capsys, tmp_path, seed=14):
    """Through the command line every mutant exits 0, 1 or 2 with no traceback."""
    rng = random.Random(seed)
    preorder = _posets()[0]
    q = preorder.quotient()
    poset_path = tmp_path / "p.txt"
    poset_path.write_text(preorder_to_text(preorder))
    members = {x: [m for m in class_members(q, x) if m != x] for x in q.reps}
    everyone = {x: [m for m in preorder.elements if m != x] for x in preorder.elements}
    for spec in RINGS:
        ring = parse_ring_spec(spec)
        ws = from_potential(Potential(q, ring, tuple(rng.choice(ring.central_units())
                                                    for _ in q.reps)))
        weights = [{"from": x, "to": y, "value": ring.format_element(v)} for (x, y), v in ws.items()]
        f = random_function(preorder, ring, rng)
        entries = [{"from": x, "to": y, "value": ring.format_element(v)}
                   for (x, y), v in f.items()]
        path = tmp_path / "in.json"
        for kind, recs in _mutants(rng, weights, ("from", "to"), ("from", "to", "value"),
                                   spec, members, "nobody"):
            path.write_text(json.dumps({"ring": spec, "weights": recs}))
            code = run_command(["check", "--poset", str(poset_path), "--weights", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, kind
        for kind, recs in _mutants(rng, entries, ("from", "to"), ("from", "to", "value"),
                                   spec, everyone, "nobody"):
            path.write_text(json.dumps({"entries": recs}))
            code = run_command(["convolve", "--poset", str(poset_path), "--ring", spec,
                                str(path), "zeta"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, kind
