import hashlib
import json
import random
import time

import pytest

from incalg import cli, oracle
from incalg.cli import _dump, run_command
from incalg.coeff_rings import MatrixRing, NonUnitError, ProductRing, ZMod, parse_ring_spec
from incalg.incidence_algebra import NonInvertibleError
from incalg.mult_automorphisms import (
    WeightSystemError,
    decompose,
    find_potential,
    load_weight_system,
    potential_to_json,
    weight_system_to_json,
)
from incalg.oracle import enumerate_inner, enumerate_mult
from incalg.preorder_core import (
    Preorder,
    close_relations,
    load_preorder,
    preorder_descriptor,
    preorder_to_text,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_weights(tmp_path, name, ring, weights):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "ring": ring,
                "weights": [
                    {"from": x, "to": y, "value": v} for (x, y), v in sorted(weights.items())
                ],
            }
        )
    )
    return str(path)


NON_INNER = {("a", "c"): "2", ("a", "d"): "1", ("b", "c"): "1", ("b", "d"): "1"}
INNER = {("a", "c"): "2", ("a", "d"): "1", ("b", "c"): "1", ("b", "d"): "3"}


def test_info_crown(capsys, crown_txt):
    code, out, _ = run(capsys, "info", "--poset", crown_txt)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["m"] == 4
    assert doc["lambda"] == 1
    assert doc["connected"] is True


def test_info_with_ring(capsys, crown_txt):
    code, out, _ = run(capsys, "info", "--poset", crown_txt, "--ring", "Z/5")
    assert code == 0
    doc = json.loads(out)
    assert doc["central_units"] == ["1", "2", "3", "4"]
    assert doc["inner_count"] == 64


def test_info_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "info", "--poset", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_check_valid_and_invalid(capsys, crown_txt, tmp_path):
    good = write_weights(tmp_path, "good.json", "Z/5", INNER)
    code, out, _ = run(capsys, "check", "--poset", crown_txt, "--weights", good)
    assert code == 0
    assert json.loads(out)["valid"] is True

    bad = write_weights(
        tmp_path, "bad.json", "Z/12",
        {("a", "b"): "5", ("b", "c"): "5", ("a", "c"): "7"},
    )
    chain = tmp_path / "chain3.txt"
    chain.write_text("elements a b c\nrel a b\nrel b c\n")
    code, out, _ = run(capsys, "check", "--poset", str(chain), "--weights", bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"] == [["a", "b", "c"]]


def test_check_expect_inner(capsys, crown_txt, tmp_path):
    noninner = write_weights(tmp_path, "ni.json", "Z/5", NON_INNER)
    code, out, _ = run(
        capsys, "check", "--poset", crown_txt, "--weights", noninner, "--expect-inner"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is True and doc["inner"] is False
    assert doc["witness"]["cycle"] == "b-d-a-c-b"
    # without the flag the same file checks clean
    code, _, _ = run(capsys, "check", "--poset", crown_txt, "--weights", noninner)
    assert code == 0


def test_is_inner_witness(capsys, crown_txt, tmp_path):
    noninner = write_weights(tmp_path, "ni.json", "Z/5", NON_INNER)
    code, out, _ = run(
        capsys, "is-inner", "--poset", crown_txt, "--ring", "Z/5", "--weights", noninner
    )
    assert code == 1
    doc = json.loads(out)
    assert doc == {"cycle": "b-d-a-c-b", "inner": False, "weight": "3"}


def test_is_inner_potential(capsys, crown_txt, tmp_path):
    inner = write_weights(tmp_path, "in.json", "Z/5", INNER)
    code, out, _ = run(capsys, "is-inner", "--poset", crown_txt, "--weights", inner)
    assert code == 0
    doc = json.loads(out)
    got = {rec["class"]: rec["value"] for rec in doc["values"]}
    assert got == {"a": "1", "b": "2", "c": "2", "d": "1"}


def test_is_inner_ring_mismatch(capsys, crown_txt, tmp_path):
    inner = write_weights(tmp_path, "in.json", "Z/5", INNER)
    code, _, err = run(
        capsys, "is-inner", "--poset", crown_txt, "--ring", "Z/7", "--weights", inner
    )
    assert code == 2
    assert "does not match" in err


def test_decompose_files_and_roundtrip(capsys, crown_txt, tmp_path):
    noninner = write_weights(tmp_path, "ni.json", "Z/5", NON_INNER)
    prefix = str(tmp_path / "dec")
    code, out, _ = run(
        capsys, "decompose", "--poset", crown_txt, "--weights", noninner, "--out", prefix
    )
    assert code == 0
    paths = json.loads(out)
    w1 = json.load(open(paths["w1"]))
    w0 = json.load(open(paths["w0"]))
    assert {(r["from"], r["to"]): r["value"] for r in w1["weights"]} == {
        ("a", "c"): "1", ("a", "d"): "1", ("b", "c"): "1", ("b", "d"): "2"
    }
    assert {(r["from"], r["to"]): r["value"] for r in w0["weights"]} == {
        ("a", "c"): "2", ("a", "d"): "1", ("b", "c"): "1", ("b", "d"): "3"
    }
    # both parts check clean, the coboundary part is inner
    assert run(capsys, "check", "--poset", crown_txt, "--weights", paths["w1"])[0] == 0
    assert run(
        capsys, "check", "--poset", crown_txt, "--weights", paths["w0"], "--expect-inner"
    )[0] == 0
    # stdout mode carries all three documents
    code, out, _ = run(capsys, "decompose", "--poset", crown_txt, "--weights", noninner)
    doc = json.loads(out)
    assert set(doc) == {"tree_trivial", "coboundary", "potential"}


def test_enumerate_counts(capsys, crown_txt):
    code, out, _ = run(capsys, "enumerate", "--poset", crown_txt, "--ring", "Z/5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mult"] == 256 and doc["inner"] == 64 and doc["tree_trivial"] == 4


def test_enumerate_listing(capsys, chain3_txt):
    code, out, _ = run(
        capsys, "enumerate", "--poset", chain3_txt, "--ring", "Z/3", "--list", "inner"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["inner"] == 4
    assert len(doc["systems"]) == 4


@pytest.mark.parametrize("spec", ["M(2,Z/3)", "Z/2 x Z/3"])
def test_nested_stdout_is_the_dump_of_its_parts(capsys, tmp_path, crown, spec):
    """decompose without --out and enumerate --list write exactly the
    _dump of the documents they are made of, parsed back."""
    ring = parse_ring_spec(spec)
    poset, weights = tmp_path / "poset.txt", tmp_path / "w.json"
    for preorder in (crown, close_relations("a", [])):  # the one-class poset has no pairs
        q = preorder.quotient()
        poset.write_text(preorder_to_text(preorder))
        mult, inner = enumerate_mult(q, ring), enumerate_inner(q, ring)
        for name, listed in (("mult", mult), ("inner", inner)):
            doc = {"ring": spec, "mult": len(mult), "inner": len(inner),
                   "tree_trivial": len(mult) // len(inner),
                   "systems": [json.loads(weight_system_to_json(w))["weights"] for w in listed]}
            got = run(capsys, "enumerate", "--poset", str(poset), "--ring", spec, "--list", name)
            assert got == (0, _dump(doc), "")
        for ws in mult[::5]:
            weights.write_text(weight_system_to_json(ws))
            w1, w0, potential = decompose(ws)
            doc = {"tree_trivial": json.loads(weight_system_to_json(w1)),
                   "coboundary": json.loads(weight_system_to_json(w0)),
                   "potential": json.loads(potential_to_json(potential))}
            got = run(capsys, "decompose", "--poset", str(poset), "--weights", str(weights))
            assert got == (0, _dump(doc), "")


def test_enumerate_guard(capsys, tmp_path):
    chain = tmp_path / "chain6.txt"
    chain.write_text(
        "elements a b c d e f\nrel a b\nrel b c\nrel c d\nrel d e\nrel e f\n"
    )
    code, _, err = run(capsys, "enumerate", "--poset", str(chain), "--ring", "Z/1009")
    assert code == 2
    assert "guard" in err


def test_enumerate_list_is_refused_over_its_output_bound(capsys, crown_txt, monkeypatch):
    """--list is refused (exit 2, one error line, nothing on stdout) when
    the listed systems x strict pairs x residues per element pass
    GUARD_VECTORS // 100; a listing at that bound is printed, and the
    counts alone are printed either way."""
    argv = ("enumerate", "--poset", crown_txt, "--ring")
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 25600)
    assert run(capsys, *argv, "Z/5", "--list", "mult") == (
        2, "", "error: listing 256 systems on 4 strict pairs over Z/5 takes 1024 residues, "
        "over the guard 256\n")
    code, out, _ = run(capsys, *argv, "Z/5", "--list", "inner")  # 64 x 4 x 1, at the bound
    assert code == 0 and len(json.loads(out)["systems"]) == 64
    code, out, _ = run(capsys, *argv, "M(2,Z/3)", "--list", "mult")  # 16 x 4 x 4
    assert code == 0 and len(json.loads(out)["systems"]) == 16
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 12799)
    assert run(capsys, *argv, "M(2,Z/3)", "--list", "inner") == (
        2, "", "error: listing 8 systems on 4 strict pairs over M(2,Z/3) takes 128 residues, "
        "over the guard 127\n")
    code, out, _ = run(capsys, *argv, "M(2,Z/3)")
    assert code == 0 and json.loads(out) == {"inner": 8, "mult": 16, "ring": "M(2,Z/3)",
                                             "tree_trivial": 2}
    assert run(capsys, *argv, "Z/5")[0] == 0


@pytest.mark.parametrize("error", [NonUnitError, NonInvertibleError])
def test_arithmetic_errors_exit_1_on_one_error_line(capsys, crown_txt, monkeypatch, error):
    """An arithmetic error that escapes a handler exits 1 with one error
    line on stderr, nothing on stdout and no traceback."""
    def fail(args):
        raise error("no inverse here")

    monkeypatch.setattr(cli, "_cmd_info", fail)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a parser that binds the patched handler
    assert run(capsys, "info", "--poset", crown_txt) == (1, "", "error: no inverse here\n")


def test_convolve_and_invert(capsys, chain3_txt):
    code, out, _ = run(
        capsys, "convolve", "--poset", chain3_txt, "--ring", "Z/5", "zeta", "zeta"
    )
    assert code == 0
    doc = json.loads(out)
    entries = {(r["from"], r["to"]): r["value"] for r in doc["entries"]}
    assert entries[("a", "c")] == "3"

    code, out, _ = run(capsys, "invert", "--poset", chain3_txt, "--ring", "Z/5", "zeta")
    assert code == 0
    entries = {(r["from"], r["to"]): r["value"] for r in json.loads(out)["entries"]}
    assert entries[("a", "b")] == "4"
    assert ("a", "c") not in entries


def _chain_file(tmp_path, n):
    chain = tmp_path / f"chain{n}.txt"
    chain.write_text("elements " + " ".join(f"x{i}" for i in range(n)) + "\n"
                     + "".join(f"rel x{i} x{i + 1}\n" for i in range(n - 1)))
    return str(chain)


def _identity_weights(tmp_path, n, spec):
    """A weight file of ones over ``spec`` on every pair of the n-chain."""
    ring = parse_ring_spec(spec)
    one = ring.format_element(ring.one())
    return write_weights(tmp_path, "w.json", spec, {(f"x{i}", f"x{j}"): one
                                                    for i in range(n) for j in range(i + 1, n)})


M5_REFUSAL = ("error: a function on 55 comparable pairs over M(5,Z/2) takes 1375 residues, "
              "over the guard 1000\n")


@pytest.mark.parametrize("command", ["convolve", "invert", "apply"])
def test_algebra_commands_refuse_functions_over_the_guard(capsys, tmp_path, monkeypatch, command):
    """A function on a 10-chain over M(5,Z/2) holds 55 * 25 = 1,375
    residues, over a guard of 1,000 that its 55 comparable pairs are
    under; one point over M(20,Z/2) holds 400 residues, over a guard of
    100.  Both are refused before any function is built, and either input
    is small enough that a command which skips the guard finishes at once
    and fails the test."""
    point = tmp_path / "point.txt"
    point.write_text("elements a\n")
    weights = write_weights(tmp_path, "w.json", "M(20,Z/2)", {})
    huge = {"convolve": ["--ring", "M(20,Z/2)", "zeta", "zeta"],
            "invert": ["--ring", "M(20,Z/2)", "zeta"], "apply": ["--weights", weights, "zeta"]}
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 100)
    code, out, err = run(capsys, command, "--poset", str(point), *huge[command])
    assert (code, out, err) == (2, "", "error: a function on 1 comparable pairs over M(20,Z/2) "
                                "takes 400 residues, over the guard 100\n")
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 1000)
    small = {"convolve": ["--ring", "M(5,Z/2)", "zeta", "zeta"],
             "invert": ["--ring", "M(5,Z/2)", "zeta"],
             "apply": ["--weights", _identity_weights(tmp_path, 10, "M(5,Z/2)"), "zeta"]}
    code, out, err = run(capsys, command, "--poset", _chain_file(tmp_path, 10), *small[command])
    assert (code, out, err) == (2, "", M5_REFUSAL)


@pytest.mark.parametrize("command", [["is-inner"], ["decompose"], ["check"],
                                     ["check", "--expect-inner"]], ids=" ".join)
def test_weight_commands_refuse_functions_over_the_guard(capsys, tmp_path, monkeypatch, command):
    """The weight commands test the function guard once the weight file is
    read, as apply does: a system of ones on a 10-chain over M(5,Z/2)
    spans 55 comparable pairs, under a guard of 1,000, and 1,375
    residues, over it."""
    weights = _identity_weights(tmp_path, 10, "M(5,Z/2)")
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 1000)
    code, out, err = run(capsys, *command, "--poset", _chain_file(tmp_path, 10),
                         "--weights", weights)
    assert (code, out, err) == (2, "", M5_REFUSAL)


@pytest.mark.parametrize("command", [["info"], ["check"], ["is-inner"], ["decompose"],
                                     ["apply"], ["enumerate"], ["verify"]], ids=" ".join)
def test_quotient_commands_refuse_preorders_over_the_pair_guard(capsys, tmp_path, monkeypatch,
                                                                command):
    """Every command that builds a quotient refuses, before it is built, a
    preorder of more comparable pairs than ``GUARD_VECTORS``: a 60-chain
    has 1,830, over a guard of 1,000."""
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 1000)
    monkeypatch.setattr(Preorder, "quotient", lambda self: pytest.fail("a quotient was built"))
    weights = write_weights(tmp_path, "w.json", "Z/2", {})
    extra = {"check": ["--weights", weights], "is-inner": ["--weights", weights],
             "decompose": ["--weights", weights], "apply": ["--weights", weights, "zeta"],
             "enumerate": ["--ring", "Z/2"], "verify": ["--ring", "Z/2"]}
    code, out, err = run(capsys, *command, "--poset", _chain_file(tmp_path, 60),
                         *extra.get(command[0], []))
    assert (code, out, err) == (2, "", "error: a preorder with 1830 comparable pairs is over "
                                "the guard 1000\n")


def test_invert_non_unit(capsys, chain3_txt, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"entries": [{"from": "a", "to": "a", "value": "2"}]}))
    code, _, err = run(
        capsys, "invert", "--poset", chain3_txt, "--ring", "Z/4", str(f)
    )
    assert code == 1
    assert "not invertible" in err


@pytest.mark.parametrize("values", [("0", "2"), ("2", "0")])
def test_duplicate_function_pair_exits_2(capsys, tmp_path, values):
    """A pair given twice exits 2 whichever of its values is zero."""
    poset = tmp_path / "chain2.txt"
    poset.write_text("elements a b\nrel a b\n")
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"entries": [{"from": "a", "to": "b", "value": v} for v in values]}))
    code, out, err = run(capsys, "invert", "--poset", str(poset), "--ring", "Z/5", str(f))
    assert (code, out) == (2, "")
    assert err == "error: duplicate entry for pair (a, b)\n"


# the crown with a tail: d ~ e, and f covering c only; reps a b c d f
TAILED = "rel a c\nrel a d\nrel b c\nrel b d\nrel c f\nrel d e\nrel e d\n"
TAILED_INNER = {("a", "c"): "3", ("a", "d"): "4", ("a", "f"): "2", ("b", "c"): "4",
                ("b", "d"): "2", ("b", "f"): "1", ("c", "f"): "4"}


def test_output_order_does_not_depend_on_declaration_order(capsys, crown_txt, tmp_path):
    """The same preorder declared with its labels backwards gives
    byte-identical output: records are written in label order, classes
    listed by least member, witnesses and roots found in class order, not
    in element order.  The function commands run on the crown declared
    as d c b a; every command that builds a quotient also runs on a
    crown with a tail whose two-element class {d, e} is declared e d
    (verify's poset= field, which replays the declaration, aside)."""
    backwards = tmp_path / "backwards.txt"
    backwards.write_text("elements d c b a\nrel a c\nrel a d\nrel b c\nrel b d\n")
    f = _write_function(tmp_path / "f.json", {
        ("a", "a"): "2", ("b", "b"): "3", ("c", "c"): "4", ("d", "d"): "1",
        ("a", "c"): "1", ("a", "d"): "3", ("b", "c"): "2"})
    g = _write_function(tmp_path / "g.json", {
        ("a", "a"): "1", ("b", "b"): "2", ("c", "c"): "1", ("d", "d"): "3",
        ("b", "d"): "4", ("a", "c"): "2"})
    weights = write_weights(tmp_path, "w.json", "Z/5", INNER)
    for args in (["convolve", "--ring", "Z/5", f, g], ["invert", "--ring", "Z/5", f],
                 ["apply", "--weights", weights, g]):
        outs = [run(capsys, args[0], "--poset", path, *args[1:]) for path in (crown_txt,
                                                                             str(backwards))]
        assert outs[0][0] == 0 and outs[0][1].count('"from"') >= 6
        assert outs[1] == outs[0], args[0]
    tailed = [tmp_path / "tailed.txt", tmp_path / "tailed_backwards.txt"]
    tailed[0].write_text("elements a b c d e f\n" + TAILED)
    tailed[1].write_text("elements f e d c b a\n" + TAILED)
    cases = {
        "crown": ([crown_txt, str(backwards)], INNER, NON_INNER, NON_INNER),
        "tailed": (list(map(str, tailed)), TAILED_INNER, {**TAILED_INNER, ("a", "d"): "3"},
                   {**TAILED_INNER, ("a", "f"): "3"}),
    }
    for name, (paths, inner, outer, bad) in cases.items():
        inner, outer, bad = (write_weights(tmp_path, f"{name}_{kind}.json", "Z/5", w)
                             for kind, w in (("inner", inner), ("outer", outer), ("bad", bad)))
        for args, code in ((["info", "--ring", "Z/5"], 0), (["is-inner", "--weights", inner], 0),
                           (["is-inner", "--weights", outer], 1),
                           (["decompose", "--weights", outer], 0),
                           (["check", "--weights", bad], int(name == "tailed")),
                           (["check", "--expect-inner", "--weights", outer], 1),
                           (["enumerate", "--ring", "Z/3", "--list", "mult"], 0),
                           (["verify", "--ring", "Z/3"], 0)):
            outs = [run(capsys, args[0], "--poset", path, *args[1:]) for path in paths]
            outs = [(c, out.replace(preorder_descriptor(load_preorder(path)), "P"), err)
                    for (c, out, err), path in zip(outs, paths)]
            assert outs[0][0] == code and outs[0][1], (name, args)
            assert outs[1] == outs[0], (name, args)


def test_apply_builtin_function(capsys, crown_txt, tmp_path):
    inner = write_weights(tmp_path, "in.json", "Z/5", INNER)
    code, out, _ = run(
        capsys, "apply", "--poset", crown_txt, "--weights", inner, "zeta"
    )
    assert code == 0
    entries = {(r["from"], r["to"]): r["value"] for r in json.loads(out)["entries"]}
    assert entries[("a", "c")] == "2"
    assert entries[("b", "d")] == "3"
    assert entries[("a", "a")] == "1"


def test_verify_single_instance(capsys, crown_txt):
    """--ring splits on top-level commas only, so matrix rings are listed too."""
    for specs in (["Z/3", "Z/5"], ["M(2,Z/3)", "Z/2 x Z/3"]):
        code, out, err = run(capsys, "verify", "--poset", crown_txt, "--ring", ",".join(specs))
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)
        assert [f"ring={spec} " in line for spec, line in zip(specs, lines)] == [True, True]
        assert "suite" in lines[-1]


def test_verify_suite_deterministic(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, text1, _ = run(
        capsys, "verify", "--max-classes", "3", "--seed", "7", "--out", str(out1)
    )
    code2, text2, _ = run(
        capsys, "verify", "--max-classes", "3", "--seed", "7", "--out", str(out2)
    )
    assert code1 == code2 == 0
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["passed"] is True and doc["seed"] == 7


def test_verify_exit_reflects_failure(capsys, monkeypatch):
    """Wiring test: a failing report must turn into exit code 1."""
    import incalg.cli as cli
    from incalg.oracle import CheckResult, VerificationReport

    def fake_suite(**kwargs):
        return [
            VerificationReport(
                instance={"poset": "stub", "ring": "Z/2"},
                counts={},
                checks=[CheckResult("stub-check", False, {})],
            )
        ]

    monkeypatch.setattr(cli, "run_full_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--max-classes", "1")
    assert code == 1
    assert out.startswith("FAIL")
    assert "failed=stub-check" in out


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_verify_refuses_max_classes_below_one(capsys, bound):
    """No poset has fewer than one element: refused like a bound above 5."""
    code, out, err = run(capsys, "verify", "--max-classes", bound)
    assert (code, out) == (2, "")
    assert err == "error: poset generation supports 1 to 5 elements\n"


@pytest.mark.parametrize("options", [["--ring", "Z/7"], ["--root", "a"],
                                     ["--ring", "Z/7", "--root", "a"], ["--ring", ""],
                                     ["--force"]])
def test_verify_refuses_instance_options_without_poset(capsys, options):
    """--ring, --root and --force choose the rings, the tree and the guard
    of the --poset instance; without one they are refused, not ignored by
    the suite."""
    code, out, err = run(capsys, "verify", "--max-classes", "1", *options)
    assert (code, out) == (2, "")
    assert err == f"error: {options[0]} needs --poset\n"


def test_check_refuses_root_without_expect_inner(capsys, crown_txt, tmp_path):
    """--root chooses the tree of the --expect-inner test; without it the
    root is refused, not ignored, even when it names no class."""
    inner = write_weights(tmp_path, "in.json", "Z/5", INNER)
    check = ["check", "--poset", crown_txt, "--weights", inner]
    for root in ("zzz", "a"):
        code, out, err = run(capsys, *check, "--root", root)
        assert (code, out, err) == (2, "", "error: --root needs --expect-inner\n")
    code, out, err = run(capsys, *check, "--root", "b", "--expect-inner")
    assert (code, err) == (0, "")
    assert json.loads(out)["inner"] is True
    code, out, err = run(capsys, *check, "--root", "zzz", "--expect-inner")
    assert (code, out, err) == (2, "", "error: unknown label 'zzz'\n")


@pytest.mark.parametrize("options", [["--max-classes", "5"], ["--seed", "0"],
                                     ["--max-classes", "0", "--seed", "5"]])
def test_verify_refuses_sweep_options_with_poset(capsys, chain3_txt, options):
    """--max-classes and --seed shape the sweep; with --poset they are
    refused, not ignored, even at their default values.  Without them the
    instance run still reports seed 0."""
    code, out, err = run(capsys, "verify", "--poset", chain3_txt, "--ring", "Z/3", *options)
    assert (code, out) == (2, "")
    assert err == f"error: {options[0]} is for the sweep, not --poset\n"
    code, out, err = run(capsys, "verify", "--poset", chain3_txt, "--ring", "Z/3")
    assert (code, err) == (0, "")
    assert out.endswith("\nPASS suite reports=1 seed=0\n")


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_oracle_commands_on_a_120_chain(capsys, tmp_path, command):
    """The oracle's search has no recursion: a 120-chain (7,140 strict
    pairs) over Z/2 has one weight system, found without a traceback."""
    labels = [f"c{i:03d}" for i in range(120)]
    path = tmp_path / "chain120.txt"
    path.write_text(preorder_to_text(close_relations(labels, list(zip(labels, labels[1:])))))
    start = time.process_time()
    code, out, err = run(capsys, command, "--poset", str(path), "--ring", "Z/2")
    assert time.process_time() - start < 5
    assert (code, err) == (0, "")
    if command == "enumerate":
        doc = json.loads(out)
        assert (doc["mult"], doc["inner"]) == (1, 1)
    else:
        assert out.startswith("PASS ") and " inner=1 mult=1 " in out


@pytest.mark.parametrize("command, spec", [(c, "") for c in (
    "verify", "info", "check", "is-inner", "decompose", "apply")] + [("verify", "Z/3,")])
def test_empty_ring_spec_is_refused(capsys, crown_txt, tmp_path, monkeypatch, command, spec):
    """An empty --ring is a malformed spec, not an absent one, and verify
    parses every listed spec before it runs any."""
    import incalg.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("verify ran an instance before every spec parsed")

    monkeypatch.setattr(cli, "verify_structure", never)
    weights = write_weights(tmp_path, "w.json", "Z/5", INNER)
    rest = {"verify": [], "info": [], "apply": ["--weights", weights, "zeta"]}
    code, out, err = run(capsys, command, "--poset", crown_txt, "--ring", spec,
                         *rest.get(command, ["--weights", weights]))
    assert (code, out) == (2, "")
    assert err == "error: empty ring spec ''\n"


def test_malformed_weight_file(capsys, crown_txt, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "is-inner", "--poset", crown_txt, "--weights", str(bad))
    assert code == 2
    assert "error" in err


def write_raw_weights(tmp_path, records):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"ring": "Z/5", "weights": records}))
    return str(path)


def test_weight_file_int_value_exits_2(capsys, crown_txt, tmp_path):
    records = [{"from": x, "to": y, "value": v} for (x, y), v in sorted(INNER.items())]
    records[0]["value"] = 2
    bad = write_raw_weights(tmp_path, records)
    code, _, err = run(capsys, "is-inner", "--poset", crown_txt, "--weights", bad)
    assert code == 2
    assert "string fields" in err


@pytest.mark.parametrize("ring", [5, ["Z/5"]])
def test_weight_file_non_string_ring_exits_2(capsys, crown_txt, tmp_path, ring):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"ring": ring, "weights": []}))
    code, out, err = run(capsys, "is-inner", "--poset", crown_txt, "--weights", str(path))
    assert (code, out, err) == (2, "", f"error: ring spec {ring!r} is not a string\n")


def test_weight_file_list_label_exits_2(capsys, crown_txt, tmp_path):
    records = [{"from": x, "to": y, "value": v} for (x, y), v in sorted(INNER.items())]
    records[0]["from"] = ["a"]
    bad = write_raw_weights(tmp_path, records)
    code, _, err = run(capsys, "is-inner", "--poset", crown_txt, "--weights", bad)
    assert code == 2
    assert "string fields" in err


@pytest.mark.parametrize("record", [
    {"from": "a", "to": "c", "value": 2},
    {"from": ["a"], "to": "c", "value": "2"},
])
def test_function_file_non_string_field_exits_2(capsys, crown_txt, tmp_path, record):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps({"entries": [record]}))
    code, _, err = run(capsys, "convolve", "--poset", crown_txt, "--ring", "Z/5", str(bad), "zeta")
    assert code == 2
    assert "string fields" in err


DEEP = "[" * 200_000


@pytest.mark.parametrize("case", ["weight-file", "function-file", "matrix-value"])
def test_deeply_nested_json_exits_2(capsys, crown_txt, tmp_path, case):
    """JSON nested past the parser's recursion limit is a parse error."""
    path = tmp_path / "deep.json"
    if case == "matrix-value":
        records = [{"from": x, "to": y, "value": DEEP} for x, y in sorted(INNER)]
        path.write_text(json.dumps({"ring": "M(2,Z/3)", "weights": records}))
    else:
        path.write_text(DEEP)
    if case == "function-file":
        argv = ("convolve", "--poset", crown_txt, "--ring", "Z/5", str(path), "zeta")
    else:
        argv = ("is-inner", "--poset", crown_txt, "--weights", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert len(err.encode()) < 300  # the offending text is quoted in part only


def test_reported_violations_are_the_first_of_the_scan(capsys, tmp_path, seed=12):
    """check lists violations()[:10], is-inner names violations()[0] and
    the library error quotes violations()[:5], each scanning no further."""
    labels = [f"c{i}" for i in range(8)]
    chain = close_relations(labels, list(zip(labels, labels[1:])))
    poset = tmp_path / "chain8.txt"
    poset.write_text(preorder_to_text(chain))
    rng = random.Random(seed)
    path = write_weights(tmp_path, "w.json", "Z/5",
                         {p: str(rng.randrange(1, 5)) for p in chain.quotient().strict_pairs()})
    bad = load_weight_system(path, chain.quotient()).violations()
    assert len(bad) > 10
    code, out, _ = run(capsys, "check", "--poset", str(poset), "--weights", path)
    assert code == 1
    assert json.loads(out)["violations"] == [list(t) for t in bad[:10]]
    code, out, err = run(capsys, "is-inner", "--poset", str(poset), "--weights", path)
    assert (code, out) == (1, "")
    assert err == f"not a weight system: chain condition fails at {bad[0]}\n"
    with pytest.raises(WeightSystemError) as e:
        decompose(load_weight_system(path, chain.quotient()))
    assert str(e.value) == f"chain condition fails at triples {bad[:5]}"


def test_check_reads_its_verdict_off_the_walk(capsys, tmp_path, monkeypatch):
    """check walks first and reads F = {w1 != 1} off the walk.  A valid
    system (F empty) and one with a single slot off the walk's potential
    (|F| = 1) get their verdict and violations without the gate: their
    quotient never builds ``_cover_triples``.  A changed forest edge moves
    v at its end, and the four slots of F then touch as many triples as
    there are strict pairs, so the gate runs."""
    labels = [f"c{i}" for i in range(6)]
    chain = close_relations(labels, list(zip(labels, labels[1:])))
    poset = tmp_path / "chain6.txt"
    poset.write_text(preorder_to_text(chain))
    built, load = [], cli._quotient
    monkeypatch.setattr(cli, "_quotient", lambda path: built.append(load(path)) or built[-1])
    v = dict(zip(labels, (1, 3, 2, 6, 4, 5)))  # c[x, y] = v[x]^-1 v[y] over Z/7
    inner = {(x, y): str(pow(v[x], -1, 7) * v[y] % 7) for x, y in chain.quotient().strict_pairs()}
    cases = [({}, False, []),
             ({("c2", "c4"): "1"}, False,
              [["c0", "c2", "c4"], ["c1", "c2", "c4"], ["c2", "c3", "c4"], ["c2", "c4", "c5"]]),
             ({("c0", "c3"): "1"}, True,  # (c0, c3) is an edge of the star from c0
              [["c0", "c1", "c3"], ["c0", "c2", "c3"], ["c0", "c3", "c4"], ["c0", "c3", "c5"]])]
    for change, gate, bad in cases:
        assert all(inner[pair] != value for pair, value in change.items())
        path = write_weights(tmp_path, "w.json", "Z/7", {**inner, **change})
        code, out, _ = run(capsys, "check", "--poset", str(poset), "--weights", path)
        assert (code, json.loads(out)["violations"]) == (1 if bad else 0, bad)
        assert ("_cover_triples" in built[-1].__dict__) is gate


def _refuse_listing(self):
    raise AssertionError("central units listed")


def test_check_over_a_huge_modulus_lists_no_units(capsys, chain3_txt, tmp_path, monkeypatch):
    """Validating values over Z/99999999999 tests each one, never the unit list."""
    monkeypatch.setattr(ZMod, "central_units", _refuse_listing)
    path = write_weights(tmp_path, "w.json", "Z/99999999999",
                         {("a", "b"): "5", ("b", "c"): "7", ("a", "c"): "35"})
    start = time.process_time()
    code, out, _ = run(capsys, "check", "--poset", chain3_txt, "--weights", path)
    assert code == 0 and json.loads(out)["valid"] is True
    assert time.process_time() - start < 5


INFO_REFUSALS = {
    "Z/99999999999": "at least 10000001 central units exceed the guard 10000000",
    **{spec: f"listing the central units of {spec} takes over 10000000 residues "
             f"({cells} per unit)"
       for spec, cells in (("M(4000,Z/2)", 16000000), ("M(4000,Z/3)", 16000000),
                           ("M(2237,Z/3)", 5004169))},
}


@pytest.mark.parametrize("spec", INFO_REFUSALS)
def test_info_refuses_rings_over_the_guard(capsys, crown_txt, spec, monkeypatch):
    """info lists central units through the enumerations' guard: refused
    before any listing (which would exhaust memory) for too many units,
    or for units whose k x k scalar matrices hold too many residues."""
    for cls in (ZMod, ProductRing, MatrixRing):
        monkeypatch.setattr(cls, "central_units", _refuse_listing)
    start = time.process_time()
    code, out, err = run(capsys, "info", "--poset", crown_txt, "--ring", spec)
    assert time.process_time() - start < 1
    assert (code, out, err) == (2, "", f"error: {INFO_REFUSALS[spec]}\n")


def test_info_lists_units_up_to_its_output_bound(capsys, crown_txt, monkeypatch):
    """info lists the central units only while their residues stay within
    GUARD_VECTORS // 10: past it, exit 2 on one error line and nothing
    listed (Z/1000003 at the real guard; then at a guard of 100); at or
    under it, the units are listed."""
    argv = ("info", "--poset", crown_txt, "--ring")
    monkeypatch.setattr(ZMod, "central_units", _refuse_listing)
    assert run(capsys, *argv, "Z/1000003") == (
        2, "", "error: listing 1000002 central units of Z/1000003 takes 1000002 residues, "
        "over the guard 1000000\n")
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 1000)
    for spec, units in (("Z/101", 100), ("M(2,Z/11)", 10), ("Z/2 x Z/5", 4)):
        code, out, _ = run(capsys, *argv, spec)
        assert code == 0 and len(json.loads(out)["central_units"]) == units
    for cls in (ZMod, ProductRing, MatrixRing):
        monkeypatch.setattr(cls, "central_units", _refuse_listing)
    for spec, units, size in (("Z/103", 102, 102), ("Z/11 x Z/13", 120, 240),
                              ("M(6,Z/5)", 4, 144)):
        assert run(capsys, *argv, spec) == (
            2, "", f"error: listing {units} central units of {spec} takes {size} residues, "
            "over the guard 100\n")


@pytest.mark.parametrize("spec, units, inner", [("M(3,Z/7)", 6, 216),
                                                ("M(40,Z/1000)", 400, 400 ** 3)])
def test_info_counts_units_not_ring_elements(capsys, crown_txt, spec, units, inner):
    """A matrix ring of over 10^7 elements with few central units answers:
    M(3,Z/7) has 7^9 elements, M(40,Z/1000) 1000^1600."""
    code, out, _ = run(capsys, "info", "--poset", crown_txt, "--ring", spec)
    doc = json.loads(out)
    assert code == 0 and len(doc["central_units"]) == units and doc["inner_count"] == inner


def test_enumerations_refuse_listing_huge_scalar_matrices(capsys, tmp_path, monkeypatch):
    """Two central units of M(4000,Z/3) pass the count, but listing them
    would build two 4000 x 4000 matrices: enumerate and verify --poset
    refuse before any unit is listed.  Z/99999999999 is refused by the
    count, one candidate per unit, with no exponent in the bound."""
    for cls in (ZMod, ProductRing, MatrixRing):
        monkeypatch.setattr(cls, "central_units", _refuse_listing)
    chain = tmp_path / "chain2.txt"
    chain.write_text("elements a b\nrel a b\n")
    refusals = {"M(4000,Z/3)": "listing the central units of M(4000,Z/3) takes over 10000000 "
                               "residues (16000000 per unit)",
                "Z/99999999999": "at least 10000001 candidate vectors exceed the guard 10000000"}
    for command in ("enumerate", "verify"):
        for spec, refusal in refusals.items():
            start = time.process_time()
            code, out, err = run(capsys, command, "--poset", str(chain), "--ring", spec)
            assert time.process_time() - start < 1
            assert (code, out, err) == (2, "", f"error: {refusal}\n")


@pytest.mark.parametrize("spec", ["Z/20000003", "Z/99999999999999999999999",
                                  "Z/2 x Z/99999999999999999999999", "M(2,Z/20000003)"])
def test_enumeration_guards_count_units_without_listing(capsys, tmp_path, spec, monkeypatch):
    """enumerate and verify --poset refuse a ring with too many central
    units after counting at most floor(10^7^(1/e)) + 1 of them, e the
    exponent of the enumeration, and state that lower bound; a one-class
    poset needs no units and runs."""
    for cls in (ZMod, ProductRing, MatrixRing):
        monkeypatch.setattr(cls, "central_units", _refuse_listing)
    files = {}
    for name, text in (("chain3", "elements a b c\nrel a b\nrel b c\n"),
                       ("antichain3", "elements a b c\n"), ("point", "elements a\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    expected = {"chain3": "at least 216^3 candidate vectors",
                "antichain3": "at least 3163^2 potentials"}
    for command in ("enumerate", "verify"):
        for name, refusal in expected.items():
            start = time.process_time()
            code, out, err = run(capsys, command, "--poset", str(files[name]), "--ring", spec)
            assert time.process_time() - start < 1
            assert (code, out, err) == (2, "", f"error: {refusal} exceed the guard 10000000\n")
        code, out, err = run(capsys, command, "--poset", str(files["point"]), "--ring", spec)
        assert (code, err) == (0, "")
    assert json.loads(run(capsys, "enumerate", "--poset", str(files["point"]), "--ring", spec)[1]) == {
        "inner": 1, "mult": 1, "ring": spec, "tree_trivial": 1}


def test_enumerations_refuse_unit_residues_under_force_and_at_exponent_0(capsys, tmp_path,
                                                                         monkeypatch):
    """--force lifts only the count of systems: the residues of the listed
    central units stay guarded, four per unit of M(2,Z/5).  A one-class
    poset lists no unit, but each system holds one, refused when one
    unit's residues pass the guard."""
    chain, point, chain6 = (tmp_path / f"{name}.txt" for name in ("chain2", "point", "chain6"))
    chain.write_text("elements a b\nrel a b\n")
    point.write_text("elements a\n")
    chain6.write_text("elements a b c d e f\nrel a b\nrel b c\nrel c d\nrel d e\nrel e f\n")
    code, out, _ = run(capsys, "enumerate", "--poset", str(chain6), "--ring", "Z/5", "--force")
    assert code == 0 and json.loads(out)["mult"] == json.loads(out)["inner"] == 4 ** 5
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 10)
    code, out, err = run(capsys, "enumerate", "--poset", str(chain), "--ring", "M(2,Z/5)",
                         "--force")
    assert (code, out, err) == (2, "", "error: listing the central units of M(2,Z/5) takes "
                                "over 10 residues (4 per unit)\n")
    monkeypatch.setattr(oracle, "GUARD_VECTORS", 3)
    for command in ("enumerate", "verify"):
        code, out, err = run(capsys, command, "--poset", str(point), "--ring", "M(2,Z/3)")
        assert (code, out, err) == (2, "", "error: listing the central units of M(2,Z/3) "
                                    "takes over 3 residues (4 per unit)\n")


def test_verify_refuses_an_unknown_root_before_enumerating(capsys, tmp_path, monkeypatch):
    """verify --poset --root names an unknown root before any enumeration runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_mult ran before the root was checked")

    monkeypatch.setattr(oracle, "enumerate_mult", refuse)
    poset = tmp_path / "k33.txt"
    poset.write_text("elements a b c x y z\n"
                     + "".join(f"rel {lo} {hi}\n" for lo in "abc" for hi in "xyz"))
    code, out, err = run(capsys, "verify", "--poset", str(poset), "--ring", "Z/5", "--root", "zzz")
    assert (code, out, err) == (2, "", "error: unknown label 'zzz'\n")


def _potential(out):
    return {r["class"]: r["value"] for r in json.loads(out)["values"]}


def test_disconnected_poset_is_inner_decompose_and_counts(capsys, tmp_path):
    """On a<b, c<d every system is inner: the forest has one tree per
    component, v = 1 at each tree root, and the counts of info and
    enumerate agree."""
    poset = tmp_path / "two_chains.txt"
    poset.write_text("elements a b c d\nrel a b\nrel c d\n")
    weights = write_weights(tmp_path, "w.json", "Z/5", {("a", "b"): "2", ("c", "d"): "3"})
    base = ["--poset", str(poset), "--weights", weights]
    code, out, _ = run(capsys, "is-inner", *base)
    assert code == 0 and _potential(out) == {"a": "1", "b": "2", "c": "1", "d": "3"}
    code, out, _ = run(capsys, "is-inner", *base, "--root", "d")
    assert code == 0 and _potential(out) == {"a": "1", "b": "2", "c": "2", "d": "1"}
    code, out, _ = run(capsys, "decompose", *base)
    assert code == 0
    assert {r["value"] for r in json.loads(out)["tree_trivial"]["weights"]} == {"1"}
    code, out, _ = run(capsys, "check", *base, "--expect-inner")
    assert code == 0 and json.loads(out)["inner"] is True
    _, info, _ = run(capsys, "info", "--poset", str(poset), "--ring", "Z/5")
    _, counts, _ = run(capsys, "enumerate", "--poset", str(poset), "--ring", "Z/5")
    assert json.loads(info)["inner_count"] == json.loads(counts)["inner"] == 16


def test_disconnected_poset_witness_stays_in_its_component(capsys, tmp_path):
    """The crown plus an isolated point: the non-inner crown system is
    still refused, with the crown's cycle as witness."""
    poset = tmp_path / "crown_point.txt"
    poset.write_text("elements a b c d e\nrel a c\nrel a d\nrel b c\nrel b d\n")
    noninner = write_weights(tmp_path, "ni.json", "Z/5", NON_INNER)
    code, out, _ = run(capsys, "is-inner", "--poset", str(poset), "--weights", noninner)
    assert code == 1
    assert json.loads(out) == {"cycle": "b-d-a-c-b", "inner": False, "weight": "3"}


def _fence(tmp_path, n):
    """x0 < x1 > x2 < x3 ...: n - 1 tree edges and no cycle."""
    rels = [f"rel x{i} x{i + 1}" if i % 2 == 0 else f"rel x{i + 1} x{i}" for i in range(n - 1)]
    path = tmp_path / f"fence{n}.txt"
    path.write_text("\n".join(["elements " + " ".join(f"x{i}" for i in range(n))] + rels) + "\n")
    return str(path)


def test_info_writes_inner_counts_past_4300_digits_as_powers(capsys, tmp_path):
    """An int of more than 4300 digits has no decimal text, so such a count
    is written base^exponent; one of 4300 digits stays a JSON integer."""
    code, out, _ = run(capsys, "info", "--poset", _fence(tmp_path, 6000), "--ring", "Z/7")
    assert code == 0 and json.loads(out)["inner_count"] == "6^5999"
    # 1000 and 10^4 central units: 10^4299 has 4300 digits, 10^4300 one more
    for points, ring, count in ((1434, "Z/11 x Z/11 x Z/11", 10 ** 4299),
                                (1076, "Z/11 x Z/11 x Z/11 x Z/11", "10000^1075")):
        code, out, _ = run(capsys, "info", "--poset", _fence(tmp_path, points), "--ring", ring)
        assert code == 0 and json.loads(out)["inner_count"] == count


def test_verify_golden_digest(capsys, tmp_path):
    """The small oracle battery's JSON report, pinned byte for byte."""
    out = tmp_path / "report.json"
    code, text, _ = run(capsys, "verify", "--max-classes", "4", "--seed", "0", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "57b2bac1abb489fdf848f8fdd02d3cd13a0469ebea1e90ac2f04216a90ed8428"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "68944bf1a30a2d99b6cf082609f844bfceb60e60dec3540ea368d6c337ef454f"
    )


def test_invalid_system_is_inner_exits_1(capsys, tmp_path):
    chain = tmp_path / "chain3.txt"
    chain.write_text("elements a b c\nrel a b\nrel b c\n")
    bad = write_weights(
        tmp_path, "bad.json", "Z/5",
        {("a", "b"): "2", ("b", "c"): "3", ("a", "c"): "2"},
    )
    code, _, err = run(capsys, "is-inner", "--poset", str(chain), "--weights", bad)
    assert code == 1
    assert "chain condition" in err


def test_invalid_system_is_refused_before_an_unknown_root(capsys, tmp_path, chain3):
    """An invalid system is reported as such before --root is resolved:
    the walks refuse an unknown root only for a system the gate accepts."""
    chain = tmp_path / "chain3.txt"
    chain.write_text("elements a b c\nrel a b\nrel b c\n")
    weights = {("a", "b"): "2", ("b", "c"): "3", ("a", "c"): "2"}
    bad = write_weights(tmp_path, "bad.json", "Z/5", weights)
    base = ["--poset", str(chain), "--weights", bad, "--root", "zz"]
    for command in ("is-inner", "decompose"):
        assert run(capsys, command, *base) == (
            1, "", "not a weight system: chain condition fails at ('a', 'b', 'c')\n")
    code, out, err = run(capsys, "check", *base, "--expect-inner")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"pairs": 3, "ring": "Z/5", "valid": False,
                               "violations": [["a", "b", "c"]]}
    ws = load_weight_system(bad, chain3.quotient())
    for walk in (find_potential, decompose):
        with pytest.raises(WeightSystemError):
            walk(ws, "zz")
    weights[("a", "c")] = "1"  # 2 * 3 mod 5: valid, so the root is refused
    good = write_weights(tmp_path, "good.json", "Z/5", weights)
    for command in (["is-inner"], ["decompose"], ["check", "--expect-inner"]):
        assert run(capsys, *command, "--poset", str(chain), "--weights", good, "--root", "zz") == (
            2, "", "error: unknown label 'zz'\n")


def test_run_command_calls_share_no_state(capsys, crown_txt, tmp_path):
    """One parser serves every call in a process: options of one call do
    not leak into the next, and a parse error leaves it as it was."""
    from incalg import cli

    noninner = write_weights(tmp_path, "ni.json", "Z/5", NON_INNER)
    base = ["check", "--poset", crown_txt, "--weights", noninner]
    code, out, _ = run(capsys, *base, "--expect-inner", "--root", "b")
    assert code == 1 and json.loads(out)["inner"] is False
    plain = run(capsys, *base)
    assert plain == (0, _dump({"pairs": 4, "ring": "Z/5", "valid": True, "violations": []}), "")
    error = run(capsys, *base, "--bogus")
    assert error[:2] == (2, "") and "unrecognized arguments: --bogus" in error[2]
    assert run(capsys, *base) == plain
    assert run(capsys, *base, "--bogus") == error
    assert cli._parser() is cli._parser()


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "info")[0] == 2
    assert run(capsys)[0] == 2


def test_out_flag_writes_file(capsys, crown_txt, tmp_path):
    target = tmp_path / "info.json"
    code, out, _ = run(capsys, "info", "--poset", crown_txt, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 4


# A doubled bottom class under a diamond (Z/12) and a plain diamond (M(2,Z/3)):
# (preorder text, ring, left function, right function), values as file text.
ALGEBRA_FIXTURES = {
    "Z/12": (
        "elements a1 a2 b c d\nrel a1 a2\nrel a2 a1\nrel a1 b\nrel a1 c\nrel b d\nrel c d\n",
        {("a1", "a1"): "1", ("a1", "a2"): "2", ("a2", "a1"): "3", ("a2", "a2"): "5",
         ("b", "b"): "7", ("c", "c"): "11", ("d", "d"): "5", ("a1", "b"): "4",
         ("a2", "c"): "9", ("a1", "d"): "6", ("b", "d"): "10", ("c", "d"): "3"},
        {("a1", "a1"): "8", ("a2", "a1"): "1", ("a2", "b"): "2", ("a1", "c"): "7",
         ("b", "d"): "5", ("c", "d"): "11", ("d", "d"): "1", ("a2", "d"): "4"},
    ),
    "M(2,Z/3)": (
        "elements a b c d\nrel a b\nrel a c\nrel b d\nrel c d\n",
        {("a", "a"): "[[1,1],[0,1]]", ("b", "b"): "[[0,1],[2,0]]", ("c", "c"): "[[2,1],[1,1]]",
         ("d", "d"): "[[1,0],[1,2]]", ("a", "b"): "[[1,2],[0,1]]", ("a", "c"): "[[0,0],[1,2]]",
         ("a", "d"): "[[2,2],[1,0]]", ("b", "d"): "[[1,0],[2,2]]", ("c", "d"): "[[0,1],[1,1]]"},
        {("a", "a"): "[[2,0],[1,1]]", ("a", "b"): "[[0,1],[1,0]]", ("b", "d"): "[[1,1],[1,2]]",
         ("c", "c"): "[[1,2],[2,2]]", ("a", "d"): "[[0,2],[0,1]]", ("d", "d"): "[[1,1],[0,1]]"},
    ),
}

ALGEBRA_DIGESTS = {
    ("Z/12", "convolve"): "5a4de0b0a0220130b7e6c5e6f023600e6fbb6314b691c69b48234479fdf6e35e",
    ("Z/12", "invert"): "ed1f3bd26ba5d2fcfda98a0b4fb8937aa63d1a255086bfc1429da42ac291c38c",
    ("M(2,Z/3)", "convolve"): "083c71c437c707c49f6f9d5e699af241b6ec01edd3d7a7f5f13aaa5d0b30cf45",
    ("M(2,Z/3)", "invert"): "17ec033f4368f616c0f194882e4b9119b78703930692b71d4751c844a9033f5e",
}


def _write_function(path, entries):
    path.write_text(json.dumps(
        {"entries": [{"from": x, "to": y, "value": v} for (x, y), v in sorted(entries.items())]}))
    return str(path)


@pytest.mark.parametrize("ring,command", sorted(ALGEBRA_DIGESTS))
def test_algebra_golden_digest(capsys, tmp_path, ring, command):
    """convolve and invert stdout, pinned byte for byte."""
    text, left, right = ALGEBRA_FIXTURES[ring]
    poset = tmp_path / "poset.txt"
    poset.write_text(text)
    f = _write_function(tmp_path / "f.json", left)
    args = [f, _write_function(tmp_path / "g.json", right)] if command == "convolve" else [f]
    code, out, _ = run(capsys, command, "--poset", str(poset), "--ring", ring, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALGEBRA_DIGESTS[ring, command]
