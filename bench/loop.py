"""Measurement loop: one fresh process per benchmark run.

Regenerates the workload's op cycle from the seed (the files are already
on disk), then runs ops one after another, a closed loop with one client
and no threads.  It runs whole passes over the cycle, as many as fit in
``--seconds`` at the baseline speed (``Workload.pass_s``), so every run
does the same work and weighs the ops alike.  Every op's exit code is
compared with its expected code; the first output of each op is checked
by the benchmark's own arithmetic and later outputs of the same op must
be byte-identical to it.  With ``--trace 1`` the loop runs one pass, each
op twice in a row, untraced and then traced: the per-layer counts then
repeat exactly from run to run, and the overhead of tracing is measured
on the same work.  Prints one JSON object with the raw results."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time

import checks
import workloads
from spans import Tracer


class Loop:
    def __init__(self, cli, caches, workload):
        self.cli = cli
        self.caches = caches
        self.ops = workload.ops
        self.pass_check = workload.pass_check
        self.first = {}  # op key -> (digest, systems) of its first checked output
        self.latencies = []  # CPU seconds, successful ops only
        self.busy = 0.0  # CPU seconds, all ops
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.systems = 0
        self.outcomes = {}  # exit code or exception name -> ops
        self.failures = {}  # op key -> failed runs

    def run_op(self, op):
        """Run one op; returns (wall seconds, ok, systems).

        An op's latency is the CPU time the process spent on it.  The op
        is single-threaded and never waits, so on an idle machine that is
        its wall time; on a shared virtual machine it leaves out the time
        the host gave the CPU to someone else, which otherwise dominates
        the run-to-run spread.
        """
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()  # every op starts from the same collector state
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_command(op.argv)
        except Exception as e:  # an uncaught exception is a failed op, not a benchmark error
            code = type(e).__name__
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        ok, systems = self._judge(op, code, out.getvalue())
        self.attempted += 1
        self.busy += cpu
        self.outcomes[str(code)] = self.outcomes.get(str(code), 0) + 1
        if ok:
            self.latencies.append(cpu)
            self.systems += systems
        else:
            self.failed += 1
            self.failures[op.key] = self.failures.get(op.key, 0) + 1
        return wall, ok, systems

    def _judge(self, op, code, stdout):
        if code != op.expect:
            if code in (0, 1):  # a definite answer, and the wrong one
                self.wrong.append(f"{op.key}: exit {code}, expected {op.expect}")
            return False, 0
        digest = hashlib.sha256(stdout.encode())
        for path in op.outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        digest = digest.hexdigest()
        seen = self.first.get(op.key)
        if seen is not None:
            if seen[0] != digest:
                self.wrong.append(f"{op.key}: output differs from its first run")
                return False, 0
            return True, seen[1]
        try:
            systems = op.check(stdout)
        except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as e:  # malformed output is a wrong answer
            self.wrong.append(f"{op.key}: {type(e).__name__}: {e}")
            return False, 0
        self.first[op.key] = (digest, systems)
        return True, systems

    def passes(self, count, run):
        """Run whole passes over the op cycle, each checked as a whole."""
        for _ in range(count):
            swept = []
            for op in self.ops:
                ok, systems = run(op)
                if op.sweep_part:
                    swept.append(systems if ok else None)
            if self.pass_check and None not in swept:
                try:
                    self.pass_check(swept)
                except checks.CheckFailed as e:
                    self.wrong.append(f"pass: {e}")
        return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import incalg.cli as cli
    import incalg.oracle as oracle

    caches = [getattr(oracle, name) for name in ("all_posets", "connected_posets")
              if hasattr(getattr(oracle, name, None), "cache_clear")]
    workload = workloads.build(args.workload, args.seed, args.workdir, write=False)
    loop = Loop(cli, caches, workload)
    gc.collect()
    gc.freeze()  # the inputs and checks live for the whole run; keep them out of collections
    result = {}
    if args.trace:
        tracer = Tracer()
        plain, traced = [], []  # wall seconds, like the spans

        def paired(op):
            seconds, ok, systems = loop.run_op(op)
            plain.append(seconds)
            tracer.install()
            try:
                traced.append(loop.run_op(op)[0])
            finally:
                tracer.remove()
            return ok, systems

        loop.passes(1, paired)
        plain, traced = sum(plain), sum(traced)
        result["layers"] = tracer.report()
        result["layers"]["trace.wall_s"] = traced
        result["layers"]["trace.overhead_s"] = traced - plain
        result["layers"]["trace.unwrapped_s"] = traced - tracer.root_coverage()
        result["spans"] = len(tracer.start)
        tracer.dump(f"{args.workdir}/spans")
    else:
        count = max(1, int(args.seconds // workload.pass_s))
        result["passes"] = loop.passes(count, lambda op: loop.run_op(op)[1:])
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        wrong=loop.wrong,
        outcomes=loop.outcomes,
        failures=loop.failures,
        latencies=loop.latencies,
        busy_s=loop.busy,
        systems=loop.systems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
