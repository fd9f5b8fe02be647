"""Spans around calls into ``osr``, recorded from outside the library.

``install`` wraps the public functions listed in ``LAYERS`` and puts each
wrapper into every ``osr`` module namespace that holds the original, since
``report``, ``cli`` and others import functions by name.  Nothing under
``src/osr`` changes.  Spans are kept in memory in flat arrays: name, start,
end, parent span and op id; ``layer_metrics`` turns them into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

from stats import self_times

# span name, module, function, options.  ``results`` counts the items the
# call returns; ``under`` records the call only when its direct caller is a
# span of that name, so that classify counts search leaves and nothing else.
LAYERS = (
    ("core.validate", "osr.core", "validate", {}),
    ("core.lattice_from_order", "osr.core", "lattice_from_order", {}),
    ("builders.build_from_quantale", "osr.builders", "build_from_quantale", {}),
    ("osrfile.parse_file", "osr.osrfile", "parse_file", {}),
    ("ideals.enumerate_ideals", "osr.ideals", "enumerate_ideals", {}),
    ("ideals.generated_ideal", "osr.ideals", "generated_ideal", {}),
    ("ideals.generated_ideal_by_sums", "osr.ideals", "generated_ideal_by_sums", {}),
    ("ideals.check_product_of_generators", "osr.ideals", "check_product_of_generators", {}),
    ("ideals.check_quantale_universality", "osr.ideals", "check_quantale_universality", {}),
    ("radicals.enumerate_radical_ideals", "osr.radicals", "enumerate_radical_ideals", {}),
    ("radicals.distributive_reflection", "osr.radicals", "distributive_reflection", {}),
    ("radicals.check_frame_universality", "osr.radicals", "check_frame_universality", {}),
    ("radicals.check_coherence", "osr.radicals", "check_coherence", {}),
    ("radicals.check_radical_equals_semiprime", "osr.radicals", "check_radical_equals_semiprime", {}),
    ("spectrum.enumerate_primes", "osr.spectrum", "enumerate_primes", {}),
    ("spectrum.spectrum_space", "osr.spectrum", "spectrum_space", {}),
    ("spectrum.enumerate_maximal", "osr.spectrum", "enumerate_maximal", {}),
    ("spectrum.frame_points", "osr.spectrum", "frame_points", {}),
    ("spectrum.check_spectrum_homeomorphism", "osr.spectrum", "check_spectrum_homeomorphism", {}),
    ("spectrum.check_radical_opens_iso", "osr.spectrum", "check_radical_opens_iso", {}),
    ("spectrum.check_sober", "osr.spectrum", "check_sober", {}),
    ("morphisms.search", "osr.morphisms", "enumerate_subadditive", {"results": True}),
    ("morphisms.search", "osr.morphisms", "enumerate_sub_submul", {"results": True}),
    ("morphisms.classify", "osr.morphisms", "classify", {"under": "morphisms.search"}),
    ("homs.enumerate_quantale_homs", "osr.homs", "enumerate_quantale_homs", {"results": True}),
    ("homs.is_quantale_hom", "osr.homs", "is_quantale_hom", {"under": "homs.enumerate_quantale_homs"}),
    ("homs.check_universal_property", "osr.homs", "check_universal_property", {}),
    ("report.run_checks", "osr.report", "run_checks", {}),
    ("cli.main", "osr.cli", "main", {}),
    ("dot.emit_dot", "osr.dot", "emit_dot", {}),
)

# found / leaves: (span whose results are counted, span whose calls are leaves)
YIELDS = {
    "morphisms": ("morphisms.search", "morphisms.classify"),
    "homs": ("homs.enumerate_quantale_homs", "homs.is_quantale_hom"),
}

# name, unit, better; BENCHMARK.json lists exactly these
PER_LAYER = (
    ("core.validate.calls", "count", "lower"),
    ("core.validate.self_s", "s", "lower"),
    ("core.lattice_from_order.calls", "count", "lower"),
    ("core.lattice_from_order.self_s", "s", "lower"),
    ("builders.build_from_quantale.calls", "count", "lower"),
    ("builders.build_from_quantale.self_s", "s", "lower"),
    ("osrfile.parse_file.self_s", "s", "lower"),
    ("ideals.enumerate_ideals.calls", "count", "lower"),
    ("ideals.enumerate_ideals.self_s", "s", "lower"),
    ("ideals.generated_ideal.calls", "count", "lower"),
    ("ideals.generated_ideal.self_s", "s", "lower"),
    ("ideals.generated_ideal_by_sums.self_s", "s", "lower"),
    ("ideals.check_product_of_generators.calls", "count", "lower"),
    ("ideals.check_product_of_generators.self_s", "s", "lower"),
    ("ideals.check_quantale_universality.self_s", "s", "lower"),
    ("radicals.enumerate_radical_ideals.calls", "count", "lower"),
    ("radicals.enumerate_radical_ideals.self_s", "s", "lower"),
    ("radicals.distributive_reflection.calls", "count", "lower"),
    ("radicals.distributive_reflection.self_s", "s", "lower"),
    ("radicals.check_frame_universality.self_s", "s", "lower"),
    ("radicals.check_coherence.self_s", "s", "lower"),
    ("radicals.check_radical_equals_semiprime.self_s", "s", "lower"),
    ("spectrum.enumerate_primes.calls", "count", "lower"),
    ("spectrum.enumerate_primes.self_s", "s", "lower"),
    ("spectrum.spectrum_space.calls", "count", "lower"),
    ("spectrum.spectrum_space.self_s", "s", "lower"),
    ("spectrum.enumerate_maximal.self_s", "s", "lower"),
    ("spectrum.frame_points.self_s", "s", "lower"),
    ("spectrum.check_spectrum_homeomorphism.self_s", "s", "lower"),
    ("spectrum.check_radical_opens_iso.self_s", "s", "lower"),
    ("spectrum.check_sober.self_s", "s", "lower"),
    ("morphisms.search.calls", "count", "lower"),
    ("morphisms.search.self_s", "s", "lower"),
    ("morphisms.search.max_s", "s", "lower"),
    ("morphisms.classify.calls", "count", "lower"),
    ("morphisms.classify.self_s", "s", "lower"),
    ("morphisms.found", "count", "higher"),
    ("morphisms.yield", "ratio", "higher"),
    ("homs.enumerate_quantale_homs.calls", "count", "lower"),
    ("homs.enumerate_quantale_homs.self_s", "s", "lower"),
    ("homs.is_quantale_hom.calls", "count", "lower"),
    ("homs.found", "count", "higher"),
    ("homs.yield", "ratio", "higher"),
    ("homs.check_universal_property.calls", "count", "lower"),
    ("homs.check_universal_property.self_s", "s", "lower"),
    ("report.run_checks.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("dot.emit_dot.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# per-layer metrics that are measured directly, not read off spans
MEASURED = ("cli.startup_s", "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio")


class Recorder:
    """Spans of one process, in flat arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.found: Counter = Counter()
        self.current_op = -1

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, span: str, fn, results: bool = False, under: str | None = None):
        """A stand-in for ``fn`` that records one span per call."""
        nid = self.intern(span)
        uid = self.intern(under) if under else None
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, found, clock = self.stack, self.found, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if uid is not None and (not stack or names[stack[-1]] != uid):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if results:
                found[span] += len(out)
            return out

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "found": dict(self.found),
        }

    def merge(self, data: dict) -> None:
        """Append another recorder's dump, renumbering names and parents."""
        offset = len(self.name)
        renumber = [self.intern(n) for n in data["names"]]
        self.name.extend(renumber[k] for k in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.op.extend(data["op"])
        self.found.update(data["found"])


def install(rec: Recorder) -> list:
    """Wrap every function in ``LAYERS`` wherever ``osr`` holds it.

    Returns the replaced bindings, for ``uninstall``.
    """
    for module in {m for _, m, _, _ in LAYERS} | {"osr", "osr.cli"}:
        importlib.import_module(module)
    originals = [
        (span, getattr(sys.modules[module], func), opts)
        for span, module, func, opts in LAYERS
    ]
    namespaces = [
        m for name, m in sorted(sys.modules.items())
        if name == "osr" or name.startswith("osr.")
    ]
    patched = []
    for span, fn, opts in originals:
        wrapper = rec.wrap(span, fn, **opts)
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, fn))
    return patched


def uninstall(patched: list) -> None:
    for mod, key, fn in patched:
        setattr(mod, key, fn)


def span_of(metric: str) -> str | None:
    """The span whose calls a per-layer metric is read from, if any."""
    if metric in MEASURED:
        return None
    module, _, rest = metric.partition(".")
    if rest in ("found", "yield"):
        return YIELDS[module][0]
    return metric.rsplit(".", 1)[0]


def span_totals(rec: Recorder, scales=None) -> dict[str, dict]:
    """Calls, summed self time and the longest single span, by span name.

    ``scales[op]``, when given, multiplies the times of the spans of op
    ``op``, as the benchmark scales each op's wall time.
    """
    selfs = self_times(rec.start, rec.end, rec.parent)
    totals = {n: {"calls": 0, "self_s": 0.0, "max_s": 0.0} for n in rec.names}
    for k, nid in enumerate(rec.name):
        factor = scales[rec.op[k]] if scales is not None else 1.0
        t = totals[rec.names[nid]]
        t["calls"] += 1
        t["self_s"] += selfs[k] * factor
        t["max_s"] = max(t["max_s"], (rec.end[k] - rec.start[k]) * factor)
    return totals


def layer_metrics(
    totals: dict, found: Counter, passes: int, measured: dict
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; counts and self times are per pass."""
    zero = {"calls": 0, "self_s": 0.0, "max_s": 0.0}
    out = {}
    for name, _, _ in PER_LAYER:
        if name in MEASURED:
            out[name] = measured[name]
            continue
        module, _, rest = name.partition(".")
        if rest in ("found", "yield"):
            found_span, leaf_span = YIELDS[module]
            hits = found[found_span]
            if rest == "found":
                out[name] = hits / passes
            else:
                leaves = totals.get(leaf_span, zero)["calls"]
                out[name] = hits / leaves if leaves else 0.0
            continue
        span, field = name.rsplit(".", 1)
        value = totals.get(span, zero)[field]
        out[name] = value if field == "max_s" else value / passes
    return out


def unfired(totals: dict, metrics: list[str]) -> list[str]:
    """The metrics among ``metrics`` whose span never fired."""
    return [
        m for m in metrics
        if (span := span_of(m)) is not None
        and totals.get(span, {"calls": 0})["calls"] == 0
    ]
