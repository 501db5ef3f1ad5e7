"""In-memory spans and counters around incalg's public functions.

The tracer wraps functions from the benchmark's side: each wrapped name
is replaced where it is defined and in every incalg module that bound it
with ``from .x import y``; methods are replaced on their class.  Spans
are kept in flat arrays (name, parent, start, end) while the run lasts
and are reduced to calls and self time afterwards.  Ring ``mul`` and
``inverse`` are counted, not timed, because they are called millions of
times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute path, metric name); ComparabilityGraph is timed by its __init__
SPANS = (
    ("comparability", "ComparabilityGraph.__init__", "ComparabilityGraph"),
    ("comparability", "spanning_tree", "spanning_tree"),
    ("comparability", "fundamental_cycles", "fundamental_cycles"),
    ("comparability", "path_weight", "path_weight"),
    ("mult_automorphisms", "WeightSystem.__init__", "WeightSystem.__init__"),
    ("mult_automorphisms", "WeightSystem.violations", "WeightSystem.violations"),
    ("mult_automorphisms", "WeightSystem.apply", "WeightSystem.apply"),
    ("mult_automorphisms", "find_potential", "find_potential"),
    ("mult_automorphisms", "is_inner_cycles", "is_inner_cycles"),
    ("mult_automorphisms", "decompose", "decompose"),
    ("mult_automorphisms", "from_potential", "from_potential"),
    ("mult_automorphisms", "weight_system_from_json", "weight_system_from_json"),
    ("mult_automorphisms", "weight_system_to_json", "weight_system_to_json"),
    ("mult_automorphisms", "potential_to_json", "potential_to_json"),
    ("incidence_algebra", "convolve", "convolve"),
    ("incidence_algebra", "invert", "invert"),
    ("incidence_algebra", "is_unit_function", "is_unit_function"),
    ("incidence_algebra", "function_from_json", "function_from_json"),
    ("incidence_algebra", "function_to_json", "function_to_json"),
    ("oracle", "enumerate_mult", "enumerate_mult"),
    ("oracle", "enumerate_inner", "enumerate_inner"),
    ("oracle", "verify_structure", "verify_structure"),
    ("preorder_core", "load_preorder_text", "load_preorder_text"),
    ("preorder_core", "Preorder.quotient", "Preorder.quotient"),
    ("coeff_rings", "ZMod.central_units", "ZMod.central_units"),
    ("coeff_rings", "ProductRing.central_units", "ProductRing.central_units"),
    ("coeff_rings", "MatrixRing.central_units", "MatrixRing.central_units"),
    ("coeff_rings", "parse_ring_spec", "parse_ring_spec"),
    ("cli", "run_command", "run_command"),
)

COUNTERS = tuple(
    ("coeff_rings", f"{cls}.{method}", f"{cls}.{method}")
    for cls in ("ZMod", "ProductRing", "MatrixRing")
    for method in ("mul", "inverse")
)

TRACE_METRICS = ("trace.overhead_s", "trace.wall_s", "trace.unwrapped_s")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for module, _, name in SPANS:
        out += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_s", "s")]
    out += [(f"{module}.{name}.calls", "count") for module, _, name in COUNTERS]
    out += [(name, "s") for name in TRACE_METRICS]
    return out


class Tracer:
    """Spans and counters for the names in SPANS and COUNTERS.

    The wrappers are built once; :meth:`install` and :meth:`remove` swap
    them in and out, so one run can alternate traced and untraced ops.
    """

    def __init__(self, package="incalg"):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module, path, name in table:
                owner = sys.modules[f"{package}.{module}"]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                wrapper = make(f"{module}.{name}", original)
                self._patches.append((owner, attr, original, wrapper))
                if not cls:  # also where other modules bound it with from-imports
                    self._patches += [(m, alias, original, wrapper) for m in modules
                                      for alias, value in vars(m).items()
                                      if value is original and m is not owner]

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def report(self):
        """Calls and self time per span name, and the counters."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s in zip(self.span_name, self_times(self.parent, self.start, self.end)):
            calls[nid] += 1
            total[nid] += s
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = total[nid]
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        return out

    def root_coverage(self):
        """Seconds covered by the union of the top-level spans."""
        return _covered(self.parent, self.start, self.end)[-1]

    def dump(self, stem):
        """Write the spans: ``stem.json`` names the layout of ``stem.bin``,
        four native-endian arrays of one entry per span."""
        with open(f"{stem}.bin", "wb") as fh:
            for column in (self.span_name, self.parent, self.start, self.end):
                column.tofile(fh)
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "columns": ["name:int32", "parent:int32", "start:float64",
                                   "end:float64"]}, fh)


def _covered(parent, start, end):
    """Part of each span's interval covered by its children.

    Spans are indexed in start order, so each span's children arrive in
    start order and a running cursor merges overlapping children into
    their union, clipped to the parent.  The last slot is a virtual
    parent of the top-level spans, unbounded on both sides.
    """
    n = len(start)
    covered = array("d", bytes(8 * (n + 1)))
    cursor = array("d", start)
    cursor.append(float("-inf"))
    stop = array("d", end)
    stop.append(float("inf"))
    for c in range(n):
        p = parent[c] if parent[c] >= 0 else n
        lo = max(start[c], cursor[p])
        hi = min(end[c], stop[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return covered


def self_times(parent, start, end):
    """Each span's duration minus the part of it its child spans cover."""
    covered = _covered(parent, start, end)
    return array("d", (e - s - c for s, e, c in zip(start, end, covered)))
