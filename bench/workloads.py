"""The benchmark's three workloads: their ops, their set-up, and one op's run.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  An op returns the bytes its output is checked
by: a ``CheckReport.to_json()`` text for the library ops, the exit code and
standard output for the CLI ops.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_ZMOD6 = ROOT / "tests" / "golden" / "zmod6_check.json"
CHILD = Path(__file__).resolve().parent / "cli_child.py"

LADDER = ("zmod:6", "zmod:8", "bool:3", "chain:9", "truncnat:8", "maxplus:7", "dualq:4")
FAMILY_MAX_SIZE = 6

OSR_FILE = "zmod12.osr"  # rendered at set-up into the run's temp dir
CLI_OPS = tuple(
    [(*cmd, "--builder", "chain:24") for cmd in (
        ("ideals",), ("radicals",), ("primes",), ("spec",), ("pt",),
        ("dot", "idl"), ("dot", "rad"), ("dot", "spec"),
    )]
    + [
        ("pt", "--builder", "chain:20"),
        ("primes", "--builder", "truncnat:23"),
        ("spec", "--builder", "maxplus:22"),
        ("ideals", "--builder", "zmod:12"),
        ("spec", "--builder", "zmod:12"),
        ("validate", OSR_FILE),
        ("ideals", OSR_FILE),
    ]
)
STARTUP_ARGV = ("validate", "--builder", "zmod:2", "--json")
CLI_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result; it exits non-zero without one."""


class OpFailed(Exception):
    """An op that ran but did not succeed, such as a non-zero exit."""


@dataclass(frozen=True)
class Op:
    id: str
    call: Callable[[], bytes]
    golden: Optional[bytes] = None  # output must also equal these bytes


@dataclass(frozen=True)
class Workload:
    name: str
    # whole passes are run until the ops have taken the run's seconds of
    # scaled time, but never fewer than ``min_passes`` nor more than
    # ``max_passes``: the pass count fixes the sample count, and with it
    # which op the tail percentile lands on
    min_passes: int
    max_passes: Optional[int]
    library: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-ladder", min_passes=6, max_passes=9, library=True),
        Workload("family-sweep", min_passes=15, max_passes=None, library=True),
        Workload("cli-structure", min_passes=4, max_passes=None, library=False),
    )
}


def fresh_osr(module: str):
    """Import ``osr`` and ``module`` from ``src`` anew, so set-up pays the import each time."""
    for name in [n for n in sys.modules if n == "osr" or n.startswith("osr.")]:
        del sys.modules[name]
    osr = importlib.import_module("osr")
    if Path(osr.__file__).resolve().parent != SRC / "osr":
        raise BenchError(f"osr imported from {osr.__file__}, not from {SRC}")
    return osr, importlib.import_module(module)


def library_ops(workload: str) -> list[Op]:
    """Import ``osr`` and build and validate the workload's instances."""
    osr, report = fresh_osr("osr.report")
    if workload == "check-ladder":
        instances = [(spec, osr.from_builder_spec(spec)) for spec in LADDER]
    else:
        instances = [(A.name, A) for A in osr.builtin_family(FAMILY_MAX_SIZE)]

    def op(label, A):
        # looked up at call time, so a traced run reaches the wrapper
        return Op(f"run_checks {label}", lambda: report.run_checks(A).to_json().encode())

    ops = [op(label, A) for label, A in instances]
    if workload == "check-ladder":
        ops[0] = Op(ops[0].id, ops[0].call, golden=GOLDEN_ZMOD6.read_bytes())
    return ops


class CliRunner:
    """Runs ``osr.cli`` in a child process, one at a time.

    Untraced children run ``python -m osr.cli``; traced children run
    ``cli_child.py``, which wraps the layers before calling ``osr.cli.main``
    and leaves its spans in a file that is merged into ``recorder``.
    """

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        # children cache bytecode like the parent (see ``run.main``)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.recorder = None  # set to trace the children
        self.calls = 0

    def run(self, argv) -> bytes:
        argv = [str(self.tmp / a) if a == OSR_FILE else a for a in argv]
        if self.recorder is None:
            cmd = [sys.executable, "-m", "osr.cli", *argv]
        else:
            self.calls += 1
            spans = self.tmp / f"spans-{self.calls}.json"
            cmd = [sys.executable, str(CHILD), str(spans), str(self.recorder.current_op), *argv]
        done = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        if self.recorder is not None:
            self.recorder.merge(json.loads(spans.read_text()))
            spans.unlink()
        if done.returncode != 0:
            raise OpFailed(
                f"exit {done.returncode}: {done.stderr.decode(errors='replace').strip()[-300:]}"
            )
        return f"exit {done.returncode}\n".encode() + done.stdout


def cli_setup(runner: CliRunner) -> tuple[list[Op], float]:
    """Render the ``.osr`` file and run one warm-up child.

    Returns the ops and the warm-up child's wall time.
    """
    osr, osrfile = fresh_osr("osr.osrfile")
    text = osrfile.render(osr.build_zmod(12).describe())
    (runner.tmp / OSR_FILE).write_text(text, encoding="utf-8")
    t0 = time.perf_counter()
    runner.run(STARTUP_ARGV)
    startup = time.perf_counter() - t0
    ops = [
        Op(" ".join(argv), lambda argv=argv: runner.run(argv))
        for argv in (cmd + ("--json",) for cmd in CLI_OPS)
    ]
    return ops, startup
