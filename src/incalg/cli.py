"""Command line front end.

Exit codes are stable for CI use: 0 on success, 1 when a verification
fails (invalid weight system, system not inner, non-invertible function,
failed oracle suite), 2 when an input does not parse or a guard refuses
a preorder file too large to close, an enumeration, a quotient or an
incidence function too large to build, or an ``enumerate --list`` too
large to print.
All output is deterministic: JSON with sorted keys and a trailing
newline, identical bytes for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import oracle
from .coeff_rings import NonUnitError, element_residues, parse_ring_spec, split_top_level
from .comparability import tree_of
from .incidence_algebra import (
    NonInvertibleError,
    convolve,
    delta,
    format_values,
    function_to_json,
    invert,
    load_function,
    zeta,
)
from .mult_automorphisms import (
    NotInnerWitness,
    WeightSystemError,
    decompose,
    find_potential,
    load_weight_system,
    potential_to_json,
    weight_system_to_json,
)
from .oracle import (
    DEFAULT_SUITE_RINGS,
    GuardExceeded,
    enumerate_inner,
    enumerate_mult,
    guard_functions,
    guarded_units,
    run_full_suite,
    verify_structure,
)
from .preorder_core import load_preorder

_INPUT_ERRORS = (ValueError, GuardExceeded, OSError)  # every input error class is a ValueError


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ring_of(args):
    return None if args.ring is None else parse_ring_spec(args.ring)


def _function_arg(name, preorder, ring):
    if name == "zeta":
        return zeta(preorder, ring)
    if name == "delta":
        return delta(preorder, ring)
    return load_function(name, preorder, ring)


def _quotient(path):
    """The quotient of the preorder file at path, refused before it is built
    over ``GUARD_VECTORS`` comparable pairs, the count ``guard_functions`` takes."""
    preorder = load_preorder(path)
    if (pairs := sum(map(int.bit_count, preorder._up))) > oracle.GUARD_VECTORS:
        raise GuardExceeded(f"a preorder with {pairs} comparable pairs is over the guard "
                            f"{oracle.GUARD_VECTORS}")
    return preorder.quotient()


def _load_weights(args):
    ws = load_weight_system(args.weights, _quotient(args.poset), _ring_of(args))
    guard_functions(ws.poset.source, ws.ring)  # before any command computes with it
    return ws


def _walked(args, walk):
    """The --weights system and walk(ws, --root), None without a walk or when
    the walk's gate fails (it runs only where w1 is not one) and it raises."""
    ws = _load_weights(args)
    try:
        return ws, walk(ws, args.root) if walk else None
    except WeightSystemError:
        return ws, None


def _invalid(ws) -> int:
    print(f"not a weight system: chain condition fails at {ws.violations(1)[0]}", file=sys.stderr)
    return 1


def _witness(ws, found):
    return {"cycle": str(found.cycle), "weight": ws.ring.format_element(found.weight)}


def _cmd_info(args) -> int:
    quotient = _quotient(args.poset)
    tree = tree_of(quotient)  # one graph and one forest per quotient
    doc = {
        "elements": len(quotient.source.elements),
        "n": quotient.n_classes,
        "classes": [list(c) for c in quotient.classes],
        "m": tree.graph.m,
        "lambda": len(tree.non_tree_slots),
        "components": len(tree.components),
        "connected": len(tree.components) <= 1,
        "height": quotient.height(),
    }
    if args.ring is not None:
        ring = parse_ring_spec(args.ring)
        units = guarded_units(ring, 1, False, "central units")
        doc["ring"] = str(ring)
        doc["central_units"] = [ring.format_element(u) for u in units]
        base, exp = len(units), len(tree.steps)
        count = base ** exp  # an int past 4300 digits has no decimal text: base^exponent
        doc["inner_count"] = count if count < 10 ** 4300 else f"{base}^{exp}"
    _emit(args, _dump(doc))
    return 0


def _cmd_check(args) -> int:
    if args.root is not None and not args.expect_inner:
        raise ValueError("--root needs --expect-inner")
    ws, found = _walked(args, find_potential if args.expect_inner else None)
    bad = ws.violations(10)  # at once when the walk showed ws a coboundary
    doc = {
        "ring": str(ws.ring),
        "pairs": len(ws.values),
        "valid": not bad,
        "violations": [list(t) for t in bad],
    }
    ok = not bad
    if args.expect_inner and ok:
        inner = not isinstance(found, NotInnerWitness)
        doc["inner"] = inner
        if not inner:
            doc["witness"] = _witness(ws, found)
        ok = inner
    _emit(args, _dump(doc))
    return 0 if ok else 1


def _cmd_is_inner(args) -> int:
    ws, found = _walked(args, find_potential)
    if found is None:
        return _invalid(ws)
    if isinstance(found, NotInnerWitness):
        _emit(args, _dump({"inner": False, **_witness(ws, found)}))
        return 1
    _emit(args, potential_to_json(found))
    return 0


def _cmd_decompose(args) -> int:
    ws, found = _walked(args, decompose)
    if found is None:
        return _invalid(ws)
    w1, w0, potential = found
    texts = {
        "w1": weight_system_to_json(w1),
        "w0": weight_system_to_json(w0),
        "potential": potential_to_json(potential),
    }
    if args.out:
        paths = {name: f"{args.out}.{name}.json" for name in texts}
        for name, text in texts.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(_dump(paths))
    else:
        # each text is a _dump document: nested one level deep, under keys in the
        # sorted order _dump writes, by indenting its lines one text at a time
        names = {"coboundary": "w0", "potential": "potential", "tree_trivial": "w1"}
        for sep, (key, name) in zip("{,,", names.items()):
            nested = texts.pop(name).rstrip("\n").replace("\n", "\n  ")
            sys.stdout.write(f'{sep}\n  "{key}": {nested}')
        sys.stdout.write("\n}\n")
    return 0


def _cmd_enumerate(args) -> int:
    quotient = _quotient(args.poset)
    ring = parse_ring_spec(args.ring)
    mult = enumerate_mult(quotient, ring, force=args.force)
    inner = enumerate_inner(quotient, ring, force=args.force)
    doc = {
        "ring": str(ring),
        "mult": len(mult),
        "inner": len(inner),
        "tree_trivial": len(mult) // len(inner),  # inner holds the all-ones system
    }
    if args.list:
        listed = mult if args.list == "mult" else inner
        pairs, bound = quotient.strict_pairs(), oracle.GUARD_VECTORS // 100  # ~1.2 KB a record
        if (size := len(listed) * len(pairs) * element_residues(ring)) > bound:
            raise GuardExceeded(f"listing {len(listed)} systems on {len(pairs)} strict pairs over "
                                f"{ring} takes {size} residues, over the guard {bound}")
        doc["systems"] = [[{"from": x, "to": y, "value": v}
                           for (x, y), v in zip(pairs, format_values(ring, w.values))]
                          for w in listed]
    _emit(args, _dump(doc))
    return 0


def _report_line(report) -> str:
    verdict = "PASS" if report.passed else "FAIL"
    inst = " ".join(f"{k}={v}" for k, v in sorted(report.instance.items()))
    counts = " ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
    line = f"{verdict} {inst} {counts}"
    if not report.passed:
        failed = ",".join(c.name for c in report.checks if not c.passed)
        line += f" failed={failed}"
    return line


def _cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed  # None tells an absent option from a default
    if args.poset is not None:
        if args.max_classes is not None or args.seed is not None:
            raise ValueError(
                f"--{'max-classes' if args.max_classes is not None else 'seed'} is for the "
                "sweep, not --poset")
        quotient = _quotient(args.poset)
        specs = DEFAULT_SUITE_RINGS if args.ring is None else split_top_level(args.ring)
        rings = [parse_ring_spec(spec) for spec in specs]  # all parse before any runs
        reports = [verify_structure(quotient, ring, args.root, force=args.force) for ring in rings]
    elif args.ring is not None or args.root is not None or args.force:
        option = "ring" if args.ring is not None else "root" if args.root is not None else "force"
        raise ValueError(f"--{option} needs --poset")
    else:
        max_classes = 5 if args.max_classes is None else args.max_classes
        reports = run_full_suite(seed=seed, max_classes=max_classes)
    lines = [_report_line(r) for r in reports]
    passed = all(r.passed for r in reports)
    lines.append(f"{'PASS' if passed else 'FAIL'} suite reports={len(reports)} seed={seed}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        doc = {
            "seed": seed,
            "passed": passed,
            "reports": [r.to_dict() for r in reports],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(doc))
    return 0 if passed else 1


def _cmd_apply(args) -> int:
    ws = _load_weights(args)
    f = _function_arg(args.function, ws.poset.source, ws.ring)
    _emit(args, function_to_json(ws.apply(f)))
    return 0


def _cmd_convolve(args) -> int:
    preorder = load_preorder(args.poset)
    ring = parse_ring_spec(args.ring)
    guard_functions(preorder, ring)
    f = _function_arg(args.left, preorder, ring)
    g = _function_arg(args.right, preorder, ring)
    _emit(args, function_to_json(convolve(f, g)))
    return 0


def _cmd_invert(args) -> int:
    preorder = load_preorder(args.poset)
    ring = parse_ring_spec(args.ring)
    guard_functions(preorder, ring)
    f = _function_arg(args.function, preorder, ring)
    try:
        _emit(args, function_to_json(invert(f)))
    except (NonInvertibleError, NonUnitError) as e:
        print(f"not invertible: {e}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incalg",
        description="Incidence algebras of finite preorders: "
        "multiplicative automorphisms, innerness tests, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=False, ring_required=False, weights=False, root=False, out=True):
        p.add_argument("--poset", required=True, help="poset/preorder text file")
        if ring or ring_required:
            p.add_argument(
                "--ring",
                required=ring_required,
                help="coefficient ring spec, e.g. Z/5, M(2,Z/3), Z/2 x Z/3",
            )
        if weights:
            p.add_argument("--weights", required=True, help="weight-system JSON file")
        if root:
            p.add_argument("--root", help="spanning-tree root class (default: least label)")
        if out:
            p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("info", help="poset and comparability-graph summary")
    common(p, ring=True)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("check", help="validate a weight system")
    common(p, ring=True, weights=True, root=True)
    p.add_argument(
        "--expect-inner",
        action="store_true",
        help="also require the system to be inner (exit 1 otherwise)",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("is-inner", help="decide innerness; print potential or witness cycle")
    common(p, ring=True, weights=True, root=True)
    p.set_defaults(handler=_cmd_is_inner)

    p = sub.add_parser("decompose", help="split into tree-trivial and coboundary parts")
    common(p, ring=True, weights=True, root=True, out=False)
    p.add_argument("--out", help="prefix for .w1.json/.w0.json/.potential.json files")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("enumerate", help="count (and list) weight systems exhaustively")
    common(p, ring_required=True)
    p.add_argument("--list", choices=("mult", "inner"), help="include the systems themselves")
    p.add_argument("--force", action="store_true", help="ignore enumeration guards")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the oracle suite (exit 0 iff all checks pass)")
    p.add_argument("--poset", help="restrict to one poset file")
    p.add_argument("--ring", help="comma-separated ring specs for --poset mode")
    p.add_argument("--root", help="spanning-tree root class")
    p.add_argument("--max-classes", type=int,
                   help="poset size bound for the sweep (default 5)")
    p.add_argument("--seed", type=int, help="seed for randomized spot checks")
    p.add_argument("--force", action="store_true", help="ignore enumeration guards")
    p.add_argument("--out", help="write the full JSON report here")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("apply", help="apply a weight system to an incidence function")
    common(p, ring=True, weights=True)
    p.add_argument("function", help="function JSON file, or zeta/delta")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("convolve", help="convolution product of two functions")
    common(p, ring_required=True)
    p.add_argument("left", help="function JSON file, or zeta/delta")
    p.add_argument("right", help="function JSON file, or zeta/delta")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("invert", help="convolution inverse of a function")
    common(p, ring_required=True)
    p.add_argument("function", help="function JSON file, or zeta/delta")
    p.set_defaults(handler=_cmd_invert)

    return parser


_parser = functools.cache(build_parser)  # built on first use, once per process


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.handler(args)
    except (NonInvertibleError, NonUnitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
