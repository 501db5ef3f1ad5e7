"""The three workloads: their inputs, their ops and each op's expected result.

``build(name, seed, workdir, write)`` regenerates a workload's inputs from
the seed (writing the files when ``write`` is true) and returns the op
cycle.  One op is one ``incalg.cli.run_command`` call; its ``check``
judges the captured stdout (and any files the op wrote) and returns the
number of weight systems the op processed.

Why these workloads, and which layers each should and should not stress,
is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import checks
import gen
from arith import ring_from_spec

NAMES = ("verify-sweep", "large-inner", "algebra")
SWEEP_RINGS = "Z/2,Z/3,Z/4,Z/5,Z/12"
SWEEP_SYSTEMS = 49363  # weight systems over the 59 connected posets x 5 rings
STRIDE = 23  # visits the size-sorted posets in a low-discrepancy order


@dataclass
class Op:
    key: str
    argv: list
    expect: int
    check: object  # callable(stdout) -> systems processed
    outputs: list = field(default_factory=list)
    sweep_part: bool = False  # one of the per-poset verify ops


@dataclass
class Workload:
    ops: list
    pass_s: float  # seconds one pass took at the baseline, which sets the passes per run
    pass_check: object = None  # callable(list of per-op systems) for a full pass


def _writer(workdir, write):
    def put(name, text=None):
        """Path of a work file, written first when text is given."""
        path = os.path.join(workdir, name)
        if write and text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return path
    return put


def build(name, seed, workdir, write=True):
    builder = {"verify-sweep": verify_sweep, "large-inner": large_inner, "algebra": algebra}[name]
    return builder(random.Random(seed), seed, _writer(workdir, write))


# ---------------------------------------------------------------- verify-sweep

def verify_sweep(rng, seed, put):
    posets = gen.connected_small_posets(5)
    order = [(i * STRIDE) % len(posets) for i in range(len(posets))]
    # Labels stay canonical: relabelling changes how well the oracle's
    # search prunes, which would make the seed reshuffle the slowest ops.
    # The seed drives the randomized spot checks of the max-classes op.
    texts = [gen.small_poset_text(n, rel) for n, rel in posets]
    ops = [Op("verify-max3", ["verify", "--max-classes", "3", "--seed", str(seed)], 0,
              lambda out: checks.check_verify(out, None, seed))]
    for i in order:
        path = put(f"p{i:02d}.txt", texts[i])
        ops.append(Op(f"verify-p{i:02d}", ["verify", "--poset", path, "--ring", SWEEP_RINGS], 0,
                      lambda out: checks.check_verify(out, 5, 0), sweep_part=True))

    def pass_check(systems):
        checks.require(sum(systems) == SWEEP_SYSTEMS,
                       f"sweep verified {sum(systems)} systems, expected {SWEEP_SYSTEMS}")

    return Workload(ops, 20.0, pass_check)


# ---------------------------------------------------------------- large-inner

def _system_ops(key, path, weights_path, poset, ring, weights, inner, bad_path, bad, put):
    """is-inner, decompose, check --expect-inner, and check on a corrupted copy."""
    base = ["--poset", path, "--weights", weights_path]
    prefix = put(f"{key}.dec")

    def is_inner(out):
        doc = json.loads(out)
        if inner:
            checks.check_potential(poset, ring, weights, out)
        else:
            checks.require(doc.get("inner") is False, "non-inner system reported inner")
            checks.check_witness(poset, ring, weights, doc["cycle"], doc["weight"])
        return 1

    def decompose(out):
        paths = json.loads(out)
        texts = []
        for part in ("w1", "w0", "potential"):
            checks.require(paths[part] == f"{prefix}.{part}.json", f"bad {part} path")
            with open(paths[part], encoding="utf-8") as fh:
                texts.append(fh.read())
        checks.check_decompose(poset, ring, weights, *texts)
        return 1

    def expect_inner(out):
        doc = json.loads(out)
        checks.require(doc["valid"] is True and doc["pairs"] == len(weights), "bad check summary")
        checks.require(doc["inner"] is inner, "wrong innerness verdict")
        if not inner:
            checks.check_witness(poset, ring, weights, doc["witness"]["cycle"],
                                 doc["witness"]["weight"])
        return 1

    def corrupted(out):
        doc = json.loads(out)
        checks.require(doc["valid"] is False, "corrupted system reported valid")
        checks.check_violations(poset, ring, bad, doc["violations"])
        return 1

    code = 0 if inner else 1
    return [
        Op(f"{key}-is-inner", ["is-inner", *base], code, is_inner),
        Op(f"{key}-decompose", ["decompose", *base, "--out", prefix], 0, decompose,
           outputs=[f"{prefix}.{p}.json" for p in ("w1", "w0", "potential")]),
        Op(f"{key}-check-inner", ["check", *base, "--expect-inner"], code, expect_inner),
        Op(f"{key}-check-corrupt", ["check", "--poset", path, "--weights", bad_path], 1,
           corrupted),
    ]


LARGE_SYSTEMS = (
    # (poset, ring, inner); a third are non-inner, all on the tower
    ("chain", "Z/7", True),
    ("tower", "Z/2 x Z/3", False),
    ("tower", "M(2,Z/3)", True),
    ("boolean", "Z/7", True),
    ("tower", "Z/7", False),
    ("tower", "Z/2 x Z/3", True),
)


def large_inner(rng, seed, put):
    tower, nodes = gen.crown_tower(6, 8)
    posets = {
        "chain": gen.inflate(gen.chain(120), rng, 12),
        "boolean": gen.inflate(gen.boolean_lattice(8), rng, 12),
        "tower": gen.inflate(tower, rng, 12),
    }
    paths = {name: put(f"{name}.txt", p.text()) for name, p in posets.items()}
    ops = []
    for n, (pname, spec, inner) in enumerate(LARGE_SYSTEMS):
        poset, ring = posets[pname], ring_from_spec(spec)
        weights = gen.coboundary(poset, ring, gen.random_potential(poset, ring, rng))
        if not inner:
            weights = gen.multiply(ring, weights, gen.crown_cocycle_pullback(poset, nodes, ring, rng))
        bad = gen.corrupt(poset, ring, weights, rng)
        key = f"s{n}-{pname}"
        wpath = put(f"{key}.json", gen.weights_json(poset, ring, weights))
        bpath = put(f"{key}.bad.json", gen.weights_json(poset, ring, bad))
        ops += _system_ops(key, paths[pname], wpath, poset, ring, weights, inner, bpath, bad, put)
    return Workload(ops, 15.0)


# ---------------------------------------------------------------- algebra

ALGEBRA_CARRIERS = (
    # (poset, ring, with invert ops); inverting over M(2,Z/3) on the
    # 60-chain would take two thirds of a pass and every slow sample
    ("chain60", "Z/12", True),
    ("boolean7", "Z/12", True),
    ("chain40x2", "Z/12", True),
    ("chain60", "M(2,Z/3)", False),
    ("boolean7", "M(2,Z/3)", True),
)


def algebra(rng, seed, put):
    posets = {
        "chain60": gen.chain(60),
        "boolean7": gen.boolean_lattice(7),
        "chain40x2": gen.double_classes(gen.chain(40), range(40)),
        "chain6x": gen.double_classes(gen.chain(6, "d"), [2]),
    }
    paths = {name: put(f"{name}.txt", p.text()) for name, p in posets.items()}

    def unit_file(name, poset, ring):
        f = gen.random_unit_function(poset, ring, rng)
        return f, put(name, gen.function_json(ring, f))

    # first in the cycle: a unit over M(2,Z/3) with a 2-element class.
    # incalg raises NotImplementedError on it today; the op stays in the
    # mix and counts as a failure until invert supports it.
    poset, ring = posets["chain6x"], ring_from_spec("M(2,Z/3)")
    f, fpath = unit_file("chain6x-M23-f.json", poset, ring)
    ops = [Op("chain6x-M23-inv-f", ["invert", "--poset", paths["chain6x"], "--ring", ring.spec,
                                     fpath], 0, _counted(checks.check_inverse, poset, ring, f))]
    # a non-unit on the diagonal: invert must exit 1
    poset, ring = posets["chain60"], ring_from_spec("Z/12")
    singular = gen.random_unit_function(poset, ring, rng)
    singular[(poset.reps[30], poset.reps[30])] = 2
    spath = put("chain60-Z12-singular.json", gen.function_json(ring, singular))
    ops.append(Op("chain60-Z12-inv-singular", ["invert", "--poset", paths["chain60"], "--ring",
                                               ring.spec, spath], 1, lambda out: 0))

    for pname, spec, inverts in ALGEBRA_CARRIERS:
        poset, ring = posets[pname], ring_from_spec(spec)
        key = f"{pname}-{'M23' if spec.startswith('M') else 'Z12'}"
        zeta = gen.zeta_function(poset, ring)
        f, fpath = unit_file(f"{key}-f.json", poset, ring)
        g, gpath = unit_file(f"{key}-g.json", poset, ring)
        w = gen.coboundary(poset, ring, gen.random_potential(poset, ring, rng))
        wpath = put(f"{key}-w.json", gen.weights_json(poset, ring, w))
        base = ["--poset", paths[pname], "--ring", spec]
        # zeta is a unit only when every class is a singleton
        h, hname = (zeta, "zeta") if len(poset.labels) == len(poset.classes) else (g, gpath)
        ops += [
            Op(f"{key}-conv-fg", ["convolve", *base, fpath, gpath], 0,
               _counted(checks.check_product, poset, ring, f, g)),
            Op(f"{key}-conv-zf", ["convolve", *base, "zeta", fpath], 0,
               _counted(checks.check_product, poset, ring, zeta, f)),
            Op(f"{key}-apply", ["apply", "--poset", paths[pname], "--weights", wpath, gpath], 0,
               _counted(checks.check_apply, poset, ring, w, g, systems=1)),
        ]
        if inverts:
            ops += [
                Op(f"{key}-inv-f", ["invert", *base, fpath], 0,
                   _counted(checks.check_inverse, poset, ring, f)),
                Op(f"{key}-inv-h", ["invert", *base, hname], 0,
                   _counted(checks.check_inverse, poset, ring, h)),
            ]
    return Workload(ops, 4.0)


def _counted(check, *args, systems=0):
    def run(out):
        check(*args, out)
        return systems
    return run
