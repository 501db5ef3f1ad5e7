"""Each output check accepts a real incalg output and flags a corrupted one."""

import json
import random

import pytest

import checks
import gen
from arith import ring_from_spec
from incalg.cli import run_command


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = run_command([str(a) for a in argv])
        return code, capsys.readouterr().out
    return go


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _system(tmp_path, inner, spec="Z/7"):
    """A small inflated tower with an inner or a non-inner weight system."""
    rng = random.Random(5)
    tower, nodes = gen.crown_tower(3, 3)
    poset = gen.inflate(tower, rng, 5)
    ring = ring_from_spec(spec)
    w = gen.coboundary(poset, ring, gen.random_potential(poset, ring, rng))
    if not inner:
        w = gen.multiply(ring, w, gen.crown_cocycle_pullback(poset, nodes, ring, rng))
    ppath = _write(tmp_path, "p.txt", poset.text())
    wpath = _write(tmp_path, "w.json", gen.weights_json(poset, ring, w))
    return poset, ring, w, ppath, wpath


def _bump(text, key):
    """Change the first value of a JSON record list to another unit."""
    doc = json.loads(text)
    rec = doc[key][0]
    rec["value"] = str((int(rec["value"]) % 6) + 1)  # Z/7 units 1..6, shifted
    return json.dumps(doc)


def test_potential_check(tmp_path, run):
    poset, ring, w, ppath, wpath = _system(tmp_path, inner=True)
    code, out = run("is-inner", "--poset", ppath, "--weights", wpath)
    assert code == 0
    checks.check_potential(poset, ring, w, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_potential(poset, ring, w, _bump(out, "values"))


def test_witness_check(tmp_path, run):
    poset, ring, w, ppath, wpath = _system(tmp_path, inner=False)
    code, out = run("is-inner", "--poset", ppath, "--weights", wpath)
    assert code == 1
    doc = json.loads(out)
    checks.check_witness(poset, ring, w, doc["cycle"], doc["weight"])
    with pytest.raises(checks.CheckFailed):  # wrong reported weight
        checks.check_witness(poset, ring, w, doc["cycle"], "1")
    inner = gen.coboundary(poset, ring, gen.random_potential(poset, ring, random.Random(2)))
    with pytest.raises(checks.CheckFailed):  # the cycle has weight one here
        checks.check_witness(poset, ring, inner, doc["cycle"], doc["weight"])
    with pytest.raises(checks.CheckFailed):  # not closed
        checks.check_witness(poset, ring, w, doc["cycle"].rsplit("-", 1)[0], doc["weight"])


def test_decompose_check(tmp_path, run):
    poset, ring, w, ppath, wpath = _system(tmp_path, inner=False)
    code, _ = run("decompose", "--poset", ppath, "--weights", wpath, "--out", tmp_path / "d")
    assert code == 0
    w1, w0, pot = (_read(tmp_path / f"d.{p}.json") for p in ("w1", "w0", "potential"))
    checks.check_decompose(poset, ring, w, w1, w0, pot)
    with pytest.raises(checks.CheckFailed):  # factors swapped: w1 is not tree-trivial
        checks.check_decompose(poset, ring, w, w0, w1, pot)
    with pytest.raises(checks.CheckFailed):  # does not recompose
        checks.check_decompose(poset, ring, w, _bump(w1, "weights"), w0, pot)
    with pytest.raises(checks.CheckFailed):  # potential no longer matches w0
        checks.check_decompose(poset, ring, w, w1, w0, _bump(pot, "values"))


def _read(path):
    return path.read_text()


def test_violations_check(tmp_path, run):
    poset, ring, w, ppath, _ = _system(tmp_path, inner=True)
    bad = gen.corrupt(poset, ring, w, random.Random(3))
    bpath = _write(tmp_path, "bad.json", gen.weights_json(poset, ring, bad))
    code, out = run("check", "--poset", ppath, "--weights", bpath)
    assert code == 1
    listed = json.loads(out)["violations"]
    checks.check_violations(poset, ring, bad, listed)
    with pytest.raises(checks.CheckFailed):  # the same triples hold in the intact system
        checks.check_violations(poset, ring, w, listed)
    with pytest.raises(checks.CheckFailed):
        checks.check_violations(poset, ring, bad, [])


CARRIERS = [
    (gen.chain(6), "Z/12"),
    (gen.double_classes(gen.chain(4), range(4)), "Z/12"),
    (gen.boolean_lattice(3), "M(2,Z/3)"),
]


def _corrupt_function(ring, text):
    doc = json.loads(text)
    doc["entries"].pop()
    return json.dumps(doc)


@pytest.mark.parametrize("poset,spec", CARRIERS)
def test_inverse_and_product_checks(tmp_path, run, poset, spec):
    ring = ring_from_spec(spec)
    rng = random.Random(11)
    f = gen.random_unit_function(poset, ring, rng)
    g = gen.random_unit_function(poset, ring, rng)
    ppath = _write(tmp_path, "p.txt", poset.text())
    fpath = _write(tmp_path, "f.json", gen.function_json(ring, f))
    gpath = _write(tmp_path, "g.json", gen.function_json(ring, g))
    code, out = run("invert", "--poset", ppath, "--ring", spec, fpath)
    if code == 0:
        checks.check_inverse(poset, ring, f, out)
        with pytest.raises(checks.CheckFailed):
            checks.check_inverse(poset, ring, f, _corrupt_function(ring, out))
    code, out = run("convolve", "--poset", ppath, "--ring", spec, fpath, gpath)
    assert code == 0
    checks.check_product(poset, ring, f, g, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_product(poset, ring, f, g, _corrupt_function(ring, out))
    with pytest.raises(checks.CheckFailed):
        checks.check_product(poset, ring, g, f, out)


def test_apply_check(tmp_path, run):
    poset, spec = CARRIERS[1]
    ring = ring_from_spec(spec)
    rng = random.Random(4)
    f = gen.random_unit_function(poset, ring, rng)
    w = gen.coboundary(poset, ring, gen.random_potential(poset, ring, rng))
    w[next(iter(w))] = 5  # still a unit of Z/12, so the file is accepted
    ppath = _write(tmp_path, "p.txt", poset.text())
    fpath = _write(tmp_path, "f.json", gen.function_json(ring, f))
    wpath = _write(tmp_path, "w.json", gen.weights_json(poset, ring, w))
    code, out = run("apply", "--poset", ppath, "--weights", wpath, fpath)
    assert code == 0
    checks.check_apply(poset, ring, w, f, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_apply(poset, ring, w, f, _corrupt_function(ring, out))


def test_verify_check(tmp_path, run):
    ppath = _write(tmp_path, "p.txt", gen.small_poset_text(4, ((0, 2), (0, 3), (1, 2), (1, 3))))
    code, out = run("verify", "--poset", ppath, "--ring", "Z/2,Z/3")
    assert code == 0
    assert checks.check_verify(out, 2, 0) == 1 + 2 ** 4  # height one: every unit assignment
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(out.replace("PASS", "FAIL", 1), 2, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(out, 3, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(out, 2, 1)
