"""Builder output, pinned byte for byte, and the size guardrail's refusal
before any table of an oversized builder argument exists."""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import osr
from osr.radicals import small_distributive_lattices

SRC = str(Path(__file__).resolve().parent.parent / "src")

# sha256 of the repr of every record below, recorded before the builders
# shared one table constructor
BUILDER_DIGEST = "98f0fd7ae596008ffb03f6066ec453d67ac712eaebbaa798f5f807d9a72bbcef"


def _semiring_fields(A):
    return (A.name, A.labels, A.leq, A.zero, A.one, A.add, A.mul, tuple(A.describe()))


def _builder_outputs():
    specs = [
        (osr.build_zmod, range(1, 25)),
        (osr.build_chain_lattice, range(1, 25)),
        (osr.build_boolean_ring, range(1, 4)),
        (osr.build_truncated_naturals, range(1, 24)),
        (osr.build_truncated_maxplus, range(1, 23)),
        (osr.build_dual_chain, range(1, 25)),
    ]
    semirings = [build(k) for build, args in specs for k in args]
    for npoints in range(5):
        semirings.append(osr.build_dlat_from_poset(npoints, []))
        chain = [(i, i + 1) for i in range(npoints - 1)]
        semirings.append(osr.build_dlat_from_poset(npoints, chain))
    semirings += osr.builtin_family(8)
    semirings.append(osr.discretize(osr.build_chain_lattice(4)))
    semirings.append(osr.order_dual(osr.build_dlat_from_poset(3, [(0, 1)])))
    grid = next(L for L in small_distributive_lattices() if L.name == "grid2x3")
    lattices = [osr.chain_frame(k) for k in range(1, 7)]
    lattices += [osr.diamond_frame(), grid, osr.nilpotent_chain_quantale()]
    return [_semiring_fields(A) for A in semirings] + [
        _lattice_fields(L) for L in lattices
    ]


def _lattice_fields(L):
    # the two flags were stored fields when the digest was recorded
    return (*L._values, L.is_distributive, L.is_integral_quantale)


def test_builder_output_matches_recorded_digest():
    text = repr(_builder_outputs()).encode()
    assert hashlib.sha256(text).hexdigest() == BUILDER_DIGEST


def _limit_address_space():
    limit = 512 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "spec, size",
    [("zmod:100000", 100000), ("chain:100000", 100000), ("maxplus:99999999", 100000001)],
)
def test_oversized_builder_is_refused_before_its_tables(spec, size):
    proc = subprocess.run(
        [sys.executable, "-m", "osr.cli", "validate", "--builder", spec],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: validate: carrier has {size} elements; guardrail is 24\n"
    )
