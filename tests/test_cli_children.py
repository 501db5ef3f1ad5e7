"""The command line in child processes, under a memory and a CPU limit.

Each case runs ``python -m incalg`` in a child of its own, one at a
time, with ``RLIMIT_AS`` = 1 GiB and ``RLIMIT_CPU`` = 20 s set on the
child only, on an input that is large, deep or malformed: a 20,000-element
chain (200,010,000 comparable pairs), a 120,000-element chain and
antichain (over the element guard), rings with far too many residues or
units to list, listings of 100,002 systems and of 9,999,990 central
units, a weight value nested 200,000 brackets deep, bad weight records,
a root in another component and an ``--out`` that names a directory or
lies under a missing one.
Whatever the input, the child exits 0, 1 or 2 (not by a signal), stderr
holds no traceback, and a refusal is reported on one ``error:`` line.
The cases in ``REFUSED`` must be refused so: exit 2 and one line of
stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incalg

resource = pytest.importorskip("resource")

LIMIT_AS = 1 << 30
LIMIT_CPU = 20
DEEP = 200_000
CHAIN = 20_000
HUGE = 120_000  # elements, over preorder_core.GUARD_ELEMENTS


def _limits():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS, LIMIT_AS))
    resource.setrlimit(resource.RLIMIT_CPU, (LIMIT_CPU, LIMIT_CPU))


def _weights(ring, records):
    return json.dumps({"ring": ring, "weights": [{"from": x, "to": y, "value": v}
                                                 for x, y, v in records]})


FILES = {
    "chain.txt": "elements " + " ".join(f"x{i}" for i in range(CHAIN)) + "\n"
                 + "".join(f"rel x{i} x{i + 1}\n" for i in range(CHAIN - 1)),
    "chain120k.txt": "elements " + " ".join(f"x{i}" for i in range(HUGE)) + "\n"
                     + "".join(f"rel x{i} x{i + 1}\n" for i in range(HUGE - 1)),
    "antichain120k.txt": "elements " + " ".join(f"x{i}" for i in range(HUGE)) + "\n",
    "point.txt": "elements a\n",
    "crown.txt": "elements a b c d\nrel a c\nrel a d\nrel b c\nrel b d\n",
    "pair.txt": "elements a b\nrel a b\n",
    "class.txt": "elements a1 a2 b\nrel a1 a2\nrel a2 a1\nrel a2 b\n",
    "apart.txt": "elements a b c d\nrel a b\nrel c d\n",
    "z2.json": _weights("Z/2", []),
    "pair.json": _weights("Z/2", [("a", "b", "1")]),
    "huge.json": _weights("M(30000,Z/2)", []),
    "deep_matrix.json": _weights("M(2,Z/3)", [("a", "b", "[" * DEEP + "]" * DEEP)]),
    "deep_product.json": _weights("Z/2 x Z/3", [("a", "b", "(" * DEEP + ")" * DEEP)]),
    "ring_int.json": json.dumps({"ring": 5, "weights": []}),
    "empty.json": _weights("Z/5", []),
    "twice.json": _weights("Z/5", [("a", "b", "2"), ("a", "b", "3")]),
    "member.json": _weights("Z/5", [("a2", "b", "2")]),
    "apart.json": _weights("Z/5", [("a", "b", "2"), ("c", "d", "3")]),
}

WEIGHT_COMMANDS = (["is-inner"], ["decompose"], ["check"], ["check", "--expect-inner"])
_QUOTIENT = [*WEIGHT_COMMANDS, ["info"], ["enumerate", "--ring", "Z/2"],
             ["verify", "--ring", "Z/2"]]
_M30000 = ["--ring", "M(30000,Z/2)"]
_M4000 = ["--ring", "M(4000,Z/3)"]
_TO_DIR = ["--out", "outdir"]  # a directory the fixture makes

REFUSED = (
    [("chain120k.txt", ["info"]), ("chain120k.txt", ["convolve", "--ring", "Z/2", "zeta", "zeta"]),
     ("antichain120k.txt", ["info"])]
    + [("pair.txt", argv) for argv in (["info", *_M4000], ["enumerate", *_M4000],
                                       ["convolve", *_M4000, "zeta", "zeta"])]
    + [("pair.txt", [*argv, *_TO_DIR]) for argv in (
        ["info"], ["is-inner", "--weights", "pair.json"],
        ["enumerate", "--ring", "Z/2", "--list", "mult"], ["verify", "--ring", "Z/2"],
        ["convolve", "--ring", "Z/2", "zeta", "zeta"], ["invert", "--ring", "Z/2", "zeta"],
        ["apply", "--weights", "pair.json", "zeta"])]
    + [("pair.txt", ["decompose", "--weights", "pair.json", "--out", "missing/prefix"]),
       ("pair.txt", ["enumerate", "--ring", "Z/100003", "--list", "mult"]),
       ("pair.txt", ["info", "--ring", "Z/9999991"])]
)

CASES = (
    [("chain.txt", [*c, "--weights", "z2.json"] if c in WEIGHT_COMMANDS else c) for c in _QUOTIENT]
    + [("chain.txt", ["apply", "--weights", "z2.json", "zeta"]),
       ("chain.txt", ["convolve", "--ring", "Z/2", "zeta", "zeta"]),
       ("chain.txt", ["invert", "--ring", "Z/2", "zeta"])]
    + [("point.txt", [*c, "--weights", "huge.json"]) for c in WEIGHT_COMMANDS]
    + [("point.txt", ["apply", "--weights", "huge.json", "zeta"]),
       ("point.txt", ["convolve", *_M30000, "zeta", "zeta"]),
       ("point.txt", ["invert", *_M30000, "zeta"]),
       ("point.txt", ["info", *_M30000])]
    + [("point.txt", [c, *_M30000, *force]) for c in ("enumerate", "verify")
       for force in ([], ["--force"])]
    + [("crown.txt", [c, "--ring", "Z/99999999999"]) for c in ("info", "enumerate")]
    + [("pair.txt", [*c, "--weights", w]) for w in ("deep_matrix.json", "deep_product.json")
       for c in (["is-inner"], ["check"])]
    + [("point.txt", ["check", "--weights", "ring_int.json"]),
       ("pair.txt", ["check", "--weights", "empty.json"]),
       ("pair.txt", ["is-inner", "--weights", "twice.json"]),
       ("class.txt", ["decompose", "--weights", "member.json"])]
    + [("apart.txt", [*c, "--weights", "apart.json", "--root", "c"]) for c in WEIGHT_COMMANDS]
    + [("apart.txt", ["verify", "--ring", "Z/3", "--root", "c"])]
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("children")
    for name, text in FILES.items():
        (folder / name).write_text(text)
    (folder / "outdir").mkdir()
    return folder


def _child(folder, poset, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(incalg.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "incalg", argv[0], "--poset", poset, *argv[1:]],
                          cwd=folder, env=env, capture_output=True, text=True,
                          preexec_fn=_limits, timeout=120)


def _ids(cases):
    return [f"{p[:-4]}:{' '.join(a)}" for p, a in cases]


@pytest.mark.parametrize("poset, argv", CASES, ids=_ids(CASES))
def test_child_exits_cleanly(inputs, poset, argv):
    done = _child(inputs, poset, argv)
    assert done.returncode in (0, 1, 2), (done.returncode, done.stderr[-500:])
    assert "Traceback" not in done.stderr, done.stderr[-2000:]
    if done.returncode == 2:
        assert sum(line.startswith("error:") for line in done.stderr.splitlines()) <= 1


@pytest.mark.parametrize("poset, argv", REFUSED, ids=_ids(REFUSED))
def test_child_refuses_on_one_error_line(inputs, poset, argv):
    done = _child(inputs, poset, argv)
    assert done.returncode == 2, (done.returncode, done.stderr[-500:])
    assert [line.startswith("error:") for line in done.stderr.splitlines()] == [True]
