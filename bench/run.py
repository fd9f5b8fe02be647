"""The osr benchmark: three closed-loop workloads, timed from outside the library.

Usage, from the repository root:

    python3 bench/run.py --workload check-ladder --seed 1 --seconds 25 --trace 0

Without ``--workload`` it runs all three workloads, one after the other.

A run is whole passes over the workload's ops, each pass in an order drawn
from the seed, until the ops have taken ``--seconds`` of scaled time.  Op
and set-up times are wall times scaled by a fixed reference loop timed
around them (see ``reference.py``), because the speed of a core on a shared
machine drifts by tens of percent within a minute; the unscaled figures are
printed too.  The whole run is pinned to one core, so that the loop and the
ops, CLI children included, run on the same one.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced and half with every layer in
``tracing.LAYERS`` wrapped, and reports the per-layer metrics and the
tracing overhead.  Every op's output is checked against the digest recorded
in ``bench/expected.json`` (refresh it with ``--record-expected``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import reference
import stats
import tracing
import workloads
from workloads import ROOT, SRC, WORKLOADS, BenchError, CliRunner, Op

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
PLAN = BENCH / "plan.json"
TMP_PARENT = ROOT / ".bench_tmp"
SETUP_REPEATS = 15

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


@dataclass(frozen=True)
class Sample:
    op: str
    raw: float  # wall time
    latency: float  # wall time scaled to the reference loop's speed
    error: Optional[str]  # None when the op succeeded and its output checked


@dataclass(frozen=True)
class Phase:
    """Whole passes over a workload's ops, every sample in the order run."""

    samples: list
    passes: int

    @property
    def ok(self) -> int:
        return sum(s.error is None for s in self.samples)

    def by_pass(self) -> list:
        size = len(self.samples) // self.passes
        return [self.samples[k * size:(k + 1) * size] for k in range(self.passes)]

    def ops_per_s(self, field: str = "latency") -> float:
        """The median over passes of a pass's verified ops per second of op time.

        Medians over passes, here and in ``op_p50``, keep a burst of load
        from other processes on the machine, shorter than a pass, out of
        the figure.
        """
        return statistics.median(
            sum(s.error is None for s in samples) / sum(getattr(s, field) for s in samples)
            for samples in self.by_pass()
        )

    def op_p50(self, field: str = "latency") -> float:
        """The median over passes of a pass's median op latency."""
        return statistics.median(
            statistics.median(getattr(s, field) for s in samples)
            for samples in self.by_pass()
        )


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def attempt(op: Op, expected: dict) -> tuple[float, Optional[str]]:
    """Run one op and check its output: its wall time and its error, if any.

    Any failure is recorded, not raised.
    """
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an op's failure is a result, e.g. SizeLimit
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if op.golden is not None and out != op.golden:
        return wall, "output differs from the golden file"
    if digest(out) != expected.get(op.id):
        return wall, "output differs from the recorded digest"
    return wall, None


def run_passes(
    ops: list,
    expected: dict,
    rng: random.Random,
    seconds: float,
    min_passes: int,
    max_passes: Optional[int],
    recorder: Optional[tracing.Recorder] = None,
) -> Phase:
    """Whole passes over ``ops``, each in an order drawn from ``rng``.

    A burst of reference loops is timed before the first op and after every
    op, so that each op's wall time can be scaled by the bursts around it.
    Passes go on until the ops have taken ``seconds`` of scaled time, so that
    the pass count, and with it the sample the tail percentile lands on,
    does not follow the machine's speed.
    """
    samples: list = []
    before = reference.burst()
    passes = 0
    spent = 0.0
    while passes < min_passes or (
        spent < seconds and (max_passes is None or passes < max_passes)
    ):
        for k in rng.sample(range(len(ops)), len(ops)):
            if recorder is not None:
                recorder.current_op = len(samples)
            wall, error = attempt(ops[k], expected)
            after = reference.burst()
            scaled = wall * reference.scale(before, after)
            samples.append(Sample(ops[k].id, wall, scaled, error))
            spent += scaled
            before = after
        passes += 1
    return Phase(samples, passes)


def set_up(name: str, runner: CliRunner):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last set of ops.

    Returns the ops, the set-up times and the CLI start-up times, each as
    wall time scaled by the reference loop timed around the set-up.
    """
    times, startups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's modules and instances
        before = reference.burst()
        t0 = time.perf_counter()
        if WORKLOADS[name].library:
            ops = workloads.library_ops(name)
        else:
            ops, startup = workloads.cli_setup(runner)
        wall = time.perf_counter() - t0
        factor = reference.scale(before, reference.burst())
        times.append(wall * factor)
        if not WORKLOADS[name].library:
            startups.append(startup * factor)
    return ops, times, startups


def end_to_end(phase: Phase, setup_times: list, library: bool) -> tuple[dict, list]:
    """The end-to-end metrics of an untraced phase, and a human summary."""
    tail = stats.tail([s.latency for s in phase.samples])
    raw_tail = stats.tail([s.raw for s in phase.samples])
    who = resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN
    attempted = len(phase.samples)
    failed = attempted - phase.ok
    values = {
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": phase.op_p50() * 1000,
        "op_tail_ms": tail.value * 1000,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops_ok_ratio": 1 - stats.failed_ratio(failed, attempted),
    }
    notes = [
        f"op_tail_ms is p{tail.percentile:.1f} of {tail.samples} ops, "
        f"{tail.above} above it",
        f"ops_failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})",
        f"ops_per_s and op_p50_ms are medians over {phase.passes} passes",
        f"setup_s is the median of {len(setup_times)} set-ups",
        "times are scaled to the reference loop's speed; unscaled: "
        f"ops_per_s {phase.ops_per_s('raw'):.6g}, op_p50_ms {phase.op_p50('raw') * 1000:.6g}, "
        f"op_tail_ms {raw_tail.value * 1000:.6g}",
    ]
    by_op: dict = {}
    for s in phase.samples:
        by_op.setdefault(s.op, []).append(s)
    notes.extend(
        f"median {statistics.median(s.latency for s in v) * 1000:9.2f} ms scaled, "
        f"{statistics.median(s.raw for s in v) * 1000:9.2f} ms unscaled, over {len(v)}: {op}"
        for op, v in sorted(by_op.items())
    )
    return values, notes


def predicted(plan: dict, workload: str) -> list[str]:
    """The per-layer metrics that ``plan.json`` predicts to move on ``workload``."""
    return [
        metric
        for metric, entry in plan["per_layer"].items()
        if any(w == workload for _, w in entry["moves"])
    ]


def check_plan(plan: dict, workload: str, ops: list, expected: dict, recording: bool) -> None:
    listed = plan["workloads"][workload]["ops"]
    ids = [op.id for op in ops]
    if listed != ids:
        raise BenchError(f"plan.json lists ops {listed}, the code runs {ids}")
    missing = [i for i in ids if i not in expected]
    if missing and not recording:
        raise BenchError(f"no recorded digest for {missing}; run --record-expected")


def record_expected(workload: str, ops: list) -> None:
    """Run each op once and store its output digest; every op must succeed."""
    digests = {}
    for op in ops:
        out = op.call()
        if op.golden is not None and out != op.golden:
            raise BenchError(f"{op.id}: output differs from the golden file")
        digests[op.id] = digest(out)
    table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    table[workload] = digests
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests for {workload} in {EXPECTED}")


def traced_run(args, plan, ops, expected, rng, runner, startups):
    """Half the time untraced, half traced: the per-layer metrics and the overhead.

    Span times are scaled by the reference loop like the op they belong to.
    """
    spec = WORKLOADS[args.workload]
    half = args.seconds / 2
    plain = run_passes(ops, expected, rng, half, 1, None)
    rec = tracing.Recorder()
    if spec.library:
        tracing.install(rec)
    else:
        runner.recorder = rec
    traced = run_passes(ops, expected, rng, half, 1, None, recorder=rec)
    totals = tracing.span_totals(rec, [s.latency / s.raw for s in traced.samples])
    missing = tracing.unfired(totals, predicted(plan, args.workload))
    if missing:
        raise BenchError(
            f"traced run of {args.workload}: no calls reached the spans of "
            f"{missing}; a wrapper is not where the library calls it"
        )
    measured = {
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
    }
    measured["trace.overhead_ratio"] = (
        measured["trace.untraced_ops_per_s"] / measured["trace.traced_ops_per_s"]
    )
    values = tracing.layer_metrics(totals, rec.found, traced.passes, measured)
    notes = [
        f"per-layer counts and self times are per pass, over {traced.passes} "
        f"traced passes ({len(rec.name)} spans)",
        f"tracing overhead: {measured['trace.untraced_ops_per_s']:.4g} ops/s "
        f"untraced over {plain.passes} passes against "
        f"{measured['trace.traced_ops_per_s']:.4g} ops/s traced",
    ]
    return [plain, traced], values, notes


def run(args, tmp: Path) -> Optional[dict]:
    spec = WORKLOADS[args.workload]
    if not (SRC / "osr" / "__init__.py").is_file():
        raise BenchError(f"no osr package under {SRC}")
    sys.path.insert(0, str(SRC))
    expected_all = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    expected = expected_all.get(args.workload, {})

    runner = CliRunner(tmp)
    ops, setup_times, startups = set_up(args.workload, runner)
    plan = json.loads(PLAN.read_text(encoding="utf-8"))
    check_plan(plan, args.workload, ops, expected, args.record_expected)
    if args.record_expected:
        record_expected(args.workload, ops)
        return None

    rng = random.Random(args.seed)
    if not args.trace:
        phase = run_passes(ops, expected, rng, args.seconds, spec.min_passes, spec.max_passes)
        values, notes = end_to_end(phase, setup_times, spec.library)
        units = dict(END_TO_END)
        phases = [phase]
    else:
        phases, values, notes = traced_run(args, plan, ops, expected, rng, runner, startups)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}

    samples = [s for p in phases for s in p.samples]
    failures = [s for s in samples if s.error is not None]
    for s in failures[:5]:
        print(f"failed op {s.op}: {s.error}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, "
        + ", ".join(f"{p.passes} passes in {sum(s.raw for s in p.samples):.2f} s of op time" for p in phases)
        + f", {len(samples)} ops"
    )
    for note in notes:
        print(f"  {note}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        choices=[*WORKLOADS, "all"],
        help="one workload, or all of them, each in a process of its own",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="store the digest of each op's output in bench/expected.json",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh process, with the same flags."""
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record_expected:
        flags.append("--record-expected")
    codes = [
        subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
        for name in WORKLOADS
    ]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # osr's bytecode is cached in the checkout as an installed osr's would
    # be, so that set-up and CLI times do not depend on the caller's
    # PYTHONDONTWRITEBYTECODE
    sys.dont_write_bytecode = False
    # one core for this process and its children, so that the reference
    # loop is timed on the core the ops, CLI children included, run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        result = run(args, tmp)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still has its directory there
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
