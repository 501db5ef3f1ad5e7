"""incalg benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 -m pytest bench/tests        # the benchmark's own tests

Run from the root of a source tree that holds ``src/incalg``.  Set-up
(a fresh import of incalg, input generation and file writing) is timed
several times in this process and the median reported; the ops then run
in one fresh child process (``loop.py``) for about ``--seconds``, whose
peak memory is reported.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer ones.  Each metric is printed on its own line with its
unit, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
the run completed (``correct`` says whether the outputs were right) and
2 when it could not run at all, e.g. without ``src/incalg``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 5
CHILD_GRACE_S = 120  # whole passes may overrun --seconds; checks and reporting follow

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def setup(name, seed):
    """Import incalg afresh, generate the inputs and write the files;
    returns the CPU seconds it took (as for the ops, see loop.py) and the
    work directory."""
    workdir = os.path.join(WORK, name)
    start = time.process_time()
    for mod in [m for m in sys.modules if m == "incalg" or m.startswith("incalg.")]:
        del sys.modules[mod]
    importlib.import_module("incalg.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workloads.build(name, seed, workdir, write=True)
    return time.process_time() - start, workdir


def run_workload(name, seed, seconds, trace):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        took, workdir = setup(name, seed)
        setup_s.append(took)
    cmd = [sys.executable, os.path.join(HERE, "loop.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--src", SRC]
    # String hashing is randomized per process by default, and with it op
    # costs move by up to a tenth from one process to the next; fix it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement process failed:\n{proc.stderr}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    if not raw["latencies"]:
        raise RuntimeError(f"no op succeeded: {raw['outcomes']}")
    return raw, statistics.median(setup_s)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights a Beta
    distribution puts on the intervals ((i-1)/n, i/n].  Unlike the plain
    sample quantile it does not jump when the one or two ops next to the
    quantile run a little slower, which matters with some 50 ops per run.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # midpoint-rule cells per interval
    grid = [(k + 0.5) / (n * steps) for k in range(n * steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in grid]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(raw, setup_s):
    lat = raw["latencies"]
    ok = len(lat)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / raw["busy_s"], "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1000, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1000, "ms"),
        "success_rate": (ok / raw["attempted"], "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "systems_per_s": (raw["systems"] / raw["busy_s"], "1/s"),
    }


def per_layer(raw):
    layers = raw["layers"]
    return {name: (layers[name], unit) for name, unit in spans.metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "incalg", "__init__.py")):
        print(f"error: no incalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            raw, setup_s = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ImportError) as e:
            print(f"error: workload {name}: {e}", file=sys.stderr)
            return 2
        found = per_layer(raw) if args.trace else end_to_end(raw, setup_s)
        samples = len(raw["latencies"])
        for metric, (value, unit) in found.items():
            note = f"  (n={samples})" if metric.startswith("latency") else ""
            print(f"{name:12s} {metric:48s} {value:14.6g} {unit}{note}")
        print(f"{name:12s} ops: {raw['attempted']} attempted in {raw.get('passes', 1)} passes, "
              f"{raw['failed']} failed {raw['failures']}, exit codes {raw['outcomes']}")
        for line in raw["wrong"]:
            print(f"{name:12s} WRONG {line}", file=sys.stderr)
        correct = correct and not raw["wrong"]
        attempted += raw["attempted"]
        failed += raw["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
