"""Seeded fuzzing of the command line, in-process through ``run_command``.

Random poset texts (some malformed), ring specs (some malformed, some
with far too many central units to list) and weight and function files
(valid ones, mutated ones and noise) go through every subcommand, some
commands with one stray flag: another subcommand's, a repeat of their
own, one without its value, or an unknown one.
Whatever the input, the exit code is 0, 1 or 2, stderr holds no
traceback, and an error is reported on one short line.
"""

import json
import random
import time

import pytest

from incalg.cli import run_command
from incalg.coeff_rings import parse_ring_spec
from incalg.incidence_algebra import function_to_json
from incalg.mult_automorphisms import Potential, from_potential, weight_system_to_json
from incalg.oracle import random_function
from incalg.preorder_core import load_preorder_text

SMALL_RINGS = ("Z/2", "Z/3", "Z/5", "Z/12", "Z/2 x Z/3", "M(2,Z/3)")
HUGE_RINGS = ("Z/20000003", "Z/99999999999999999999999", "Z/2 x Z/99999999999999999999999",
              "M(2,Z/20000003)")
BAD_RINGS = ("", " ", "Z/1", "Z/0", "Z/", "Z/-3", "M(0,Z/3)", "M(2,Z/1)", "M(2,M(2,Z/3))", "Q",
             "Z/2 x", "x Z/2", "z/5", "Z/5 x x Z/3", "Z/2,Z/3", "Z/" + "9" * 5000)

# every flag, with a value for those that take one, and the flags each subcommand owns
FLAG_VALUES = {"--poset": "p0.txt", "--ring": "Z/2", "--weights": "w0.json", "--root": "p0",
               "--out": "out", "--list": "mult", "--max-classes": "2", "--seed": "1",
               "--expect-inner": None, "--force": None}
_WEIGHTED = ("--poset", "--ring", "--weights", "--root", "--out")
OWN_FLAGS = {"info": ("--poset", "--ring", "--out"), "check": _WEIGHTED + ("--expect-inner",),
             "is-inner": _WEIGHTED, "decompose": _WEIGHTED,
             "enumerate": ("--poset", "--ring", "--out", "--list", "--force"),
             "verify": ("--poset", "--ring", "--root", "--max-classes", "--seed", "--force",
                        "--out"),
             "apply": ("--poset", "--ring", "--weights", "--out"),
             "convolve": ("--poset", "--ring", "--out"), "invert": ("--poset", "--ring", "--out")}


def _ring_spec(rng):
    """A small ring most of the time, else one too large to list or no ring."""
    return rng.choice(rng.choice([SMALL_RINGS] * 4 + [HUGE_RINGS, BAD_RINGS]))


def _poset_text(rng):
    """Elements p0..p(n-1), each but p0 related to an earlier one, mostly,
    plus random relations (cycles make classes), and now and then one fault."""
    labels = [f"p{i}" for i in range(rng.randint(1, 5))]
    lines = ["elements " + " ".join(labels)]
    for i, x in enumerate(labels[1:]):
        if rng.random() < 0.9:
            lines.append(" ".join(["rel", *rng.sample([x, rng.choice(labels[:i + 1])], 2)]))
    lines += [f"rel {rng.choice(labels)} {rng.choice(labels)}" for _ in range(rng.randint(0, 3))]
    fault = rng.randrange(36)
    if fault == 0:
        lines.append("rel p0")
    elif fault == 1:
        lines.append("elements q")
    elif fault == 2:
        lines.append("rel p0 nobody")
    elif fault == 3:
        lines.insert(0, "order p0 p1")
    elif fault == 4:
        lines = lines[1:]
    elif fault == 5:
        lines = ["elements p0 p0"]
    elif fault == 6:
        lines.append("# only a comment")
    return "\n".join(lines) + "\n"


def _noise(rng):
    return rng.choice([
        "", "{", "[]", "null", '{"ring": "Z/5"}', '{"ring": 5, "weights": []}',
        '{"weights": [], "entries": []}', '{"ring": "Z/5", "weights": [1, 2]}',
        '{"entries": [{"from": "p0", "to": "p0", "value": 3}]}', "[" * 5000,
    ])


def _weight_text(rng, poset_text, spec):
    """A coboundary over the poset's quotient, or a system of random
    units, perhaps with one value or label changed or one record dropped;
    noise when none can be built."""
    try:
        q = load_preorder_text(poset_text).quotient()
        ring = parse_ring_spec(spec)
        units = ring.central_units() if ring.order < 10 ** 4 else (ring.one(),)
    except Exception:  # noqa: BLE001 - an input the commands must refuse themselves
        return _noise(rng)
    doc = json.loads(weight_system_to_json(
        from_potential(Potential(q, ring, tuple(rng.choice(units) for _ in q.reps)))))
    if rng.random() < 0.3:  # any units: often invalid, else often not inner
        for rec in doc["weights"]:
            rec["value"] = ring.format_element(rng.choice(units))
    if doc["weights"] and rng.random() < 0.25:
        rec = rng.choice(doc["weights"])
        key = rng.choice(["from", "to", "value", "value"])
        rec[key] = rng.choice(["p0", "p1", "nobody", "0", "1", "2", "x", "[[1,0],[0,1]]", 7])
    if doc["weights"] and rng.random() < 0.1:
        doc["weights"].pop()
    return json.dumps(doc)


def _function_text(rng, poset_text, spec):
    try:
        preorder = load_preorder_text(poset_text)
        ring = parse_ring_spec(spec)
        if ring.order > 10 ** 4:
            raise ValueError
    except Exception:  # noqa: BLE001 - an input the commands must refuse themselves
        return _noise(rng)
    return function_to_json(random_function(preorder, ring, rng))


def _argv(rng, tmp_path, n):
    poset_text = _poset_text(rng)
    poset = tmp_path / f"p{n}.txt"
    poset.write_text(poset_text)
    spec, weight_spec = _ring_spec(rng), rng.choice(SMALL_RINGS + HUGE_RINGS[:1])
    weights = tmp_path / f"w{n}.json"
    weights.write_text(_weight_text(rng, poset_text, weight_spec))
    function = tmp_path / f"f{n}.json"
    function.write_text(_function_text(rng, poset_text, spec))
    base = ["--poset", str(poset)]
    root = ["--root", rng.choice(["p0", "p1", "p4", "nobody"])] if rng.random() < 0.3 else []
    out = ["--out", str(tmp_path / f"out{n}")] if rng.random() < 0.2 else []
    ring = ["--ring", rng.choice([spec, weight_spec, weight_spec])] if rng.random() < 0.4 else []
    funcs = [rng.choice(["zeta", "delta", str(function), str(function), str(tmp_path / "none")])
             for _ in range(2)]
    command = rng.choice(["info", "check", "is-inner", "decompose", "enumerate", "verify",
                          "apply", "convolve", "invert", "garbage"])
    if command == "info":
        return ["info", *base, *ring, *out]
    if command in ("check", "is-inner", "decompose"):
        extra = ["--expect-inner"] if command == "check" and rng.random() < 0.5 else []
        return [command, *base, "--weights", str(weights), *ring, *root, *out, *extra]
    if command == "enumerate":
        listed = ["--list", rng.choice(["mult", "inner"])] if rng.random() < 0.3 else []
        return ["enumerate", *base, "--ring", spec, *listed, *out]
    if command == "verify":
        if rng.random() < 0.1:
            return ["verify", "--max-classes", str(rng.randint(-1, 3)), "--seed", "1"]
        return ["verify", *base, *ring, *root]
    if command == "apply":
        return ["apply", *base, "--weights", str(weights), *ring, funcs[0]]
    if command in ("convolve", "invert"):
        return [command, *base, "--ring", spec, *funcs[:2 if command == "convolve" else 1]]
    return rng.choice([[], ["check"], ["info", "--poset"], ["enumerate", "--poset", str(poset)],
                       ["verify", "--max-classes", "x"], ["--help-me"]])


def _stray_flag(rng, argv):
    """argv with one more flag: another subcommand's (with its value), a
    repeat of one already given, one without its value, or an unknown one."""
    kind = rng.randrange(4)
    if kind == 0:
        flag = rng.choice([f for f in FLAG_VALUES if f not in OWN_FLAGS[argv[0]]])
        return argv + [flag] + [FLAG_VALUES[flag]] * (FLAG_VALUES[flag] is not None)
    if kind == 1:
        i = rng.choice([i for i, a in enumerate(argv) if a in FLAG_VALUES])
        return argv + argv[i:i + 1 + (FLAG_VALUES[argv[i]] is not None)]
    if kind == 2:
        return argv + [rng.choice([f for f, v in FLAG_VALUES.items() if v is not None])]
    return argv + [rng.choice(["--bogus", "-z", "--verbose", "--ring-spec"])]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_command_line_fuzz(capsys, tmp_path, seed):
    rng, stray = random.Random(seed), random.Random(-seed)  # strays leave the commands' draws alone
    codes = set()
    start = time.process_time()
    for n in range(200):
        argv = _argv(rng, tmp_path, n)
        if argv and argv[0] in OWN_FLAGS and stray.random() < 0.25:
            argv = _stray_flag(stray, argv)
        code = run_command(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, argv
        assert len(err) < 1000, argv
        codes.add(code)
    assert codes == {0, 1, 2}
    assert time.process_time() - start < 5
