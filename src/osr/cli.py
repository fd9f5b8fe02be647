"""Command-line driver.

Input is an ``.osr`` file path or ``--builder name:arg`` (zmod:6, chain:3,
bool:2, truncnat:2, maxplus:1, dualq:2).  Exit codes: 0 all checks pass,
1 a theorem verdict failed, 2 input error; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import Analysis
from .builders import from_builder_spec
from .core import FiniteOrderedSemiring, bits, validate
from .dot import TARGETS, emit_dot
from .errors import AxiomViolation, OsrError, VerificationFailure
from .osrfile import parse_file
from .report import run_checks
from .spectrum import frame_points

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_INPUT_ERROR = 2


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("source", nargs="?", help="path to an .osr file")
    sub.add_argument(
        "--builder",
        metavar="NAME:ARG",
        help="use a built-in construction instead of a file",
    )
    sub.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def _load(args) -> FiniteOrderedSemiring:
    if (args.source is None) == (args.builder is None):
        raise OsrError("provide exactly one of: an .osr file path, or --builder")
    if args.builder is not None:
        return from_builder_spec(args.builder)
    return validate(parse_file(args.source).description)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(human)


def _member_labels(A: FiniteOrderedSemiring, ideals) -> list[list[str]]:
    return [[A.labels[x] for x in I.members] for I in ideals]


def _cmd_validate(args) -> int:
    A = _load(args)
    _emit(
        args,
        {"name": A.name, "elements": A.n, "valid": True},
        f"ok: {A.name} is a valid ordered semiring on {A.n} elements\n",
    )
    return EXIT_OK


def _ideal_listing(args, kind: str) -> int:
    A = _load(args)
    an = Analysis(A)
    radical = {I.mask for I in an.radicals.ideals}
    prime = {P.mask for P in an.primes}
    maximal = {M.mask for M in an.maximal}
    if kind == "ideals":
        chosen = list(an.ideals.ideals)
    elif kind == "radicals":
        chosen = list(an.radicals.ideals)
    else:
        chosen = an.primes

    def tags(I):
        return [
            tag
            for tag, hit in (
                ("radical", I.mask in radical),
                ("prime", I.mask in prime),
                ("maximal", I.mask in maximal),
            )
            if hit
        ]

    if args.json:
        payload = {
            "name": A.name,
            "count": len(chosen),
            kind: _member_labels(A, chosen),
            "tags": [tags(I) for I in chosen],
        }
        _emit(args, payload, "")
        return EXIT_OK
    lines = []
    for I in chosen:
        suffix = ", ".join(tags(I))
        lines.append(f"{I.label}" + (f"  ({suffix})" if suffix else ""))
    sys.stdout.write("\n".join(lines) + "\n" if lines else f"(no {kind} -- empty listing)\n")
    return EXIT_OK


def _space_listing(args, A, space, title: str, list_opens: bool) -> int:
    """Points and opens of a finite space, shared by ``spec`` and ``pt``."""
    opens = [list(bits(u)) for u in sorted(space.opens)]
    payload = {"name": A.name, "points": list(space.point_labels), "opens": opens}
    human = [f"{title}: {space.n} points, {len(opens)} opens"]
    human.extend(f"point {lab}" for lab in space.point_labels)
    if list_opens:
        human.extend("open {" + ",".join(map(str, u)) + "}" for u in opens)
    _emit(args, payload, "\n".join(human) + "\n")
    return EXIT_OK


def _cmd_spec(args) -> int:
    A = _load(args)
    space = Analysis(A).spectrum
    return _space_listing(args, A, space, f"spectrum of {A.name}", True)


def _cmd_pt(args) -> int:
    A = _load(args)
    space = frame_points(Analysis(A).radicals.lattice)
    title = f"points of the radical frame of {A.name}"
    return _space_listing(args, A, space, title, False)


def _cmd_reflect(args) -> int:
    A = _load(args)
    refl = Analysis(A).reflection
    payload = {
        "name": A.name,
        "lattice_size": refl.lattice.n,
        "universal_map": {
            A.labels[x]: refl.lattice.labels[refl.universal_map[x]]
            for x in range(A.n)
        },
    }
    human = [
        f"distributive reflection of {A.name}: {refl.lattice.n} elements"
    ]
    human.extend(
        f"{A.labels[x]} -> {refl.lattice.labels[refl.universal_map[x]]}"
        for x in range(A.n)
    )
    _emit(args, payload, "\n".join(human) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    A = _load(args)
    report = run_checks(A)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.human())
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAILED


def _cmd_dot(args) -> int:
    A = _load(args)
    sys.stdout.write(emit_dot(args.target, A))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osr",
        description="finite ordered semirings: ideals, radicals, spectra, "
        "and exhaustive theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("validate", "check the ordered-semiring axioms"),
        ("ideals", "list every ideal"),
        ("radicals", "list every radical ideal"),
        ("primes", "list every prime ideal"),
        ("spec", "the spectrum: points and opens"),
        ("reflect", "the distributive-lattice reflection"),
        ("pt", "points of the radical frame"),
        ("check", "run the full theorem suite"),
    ):
        _add_source_args(sub.add_parser(name, help=help_text))

    dot = sub.add_parser("dot", help="DOT diagram of a computed structure")
    dot.add_argument("target", choices=TARGETS)
    _add_source_args(dot)
    return parser


COMMANDS = {
    "validate": _cmd_validate,
    "ideals": lambda a: _ideal_listing(a, "ideals"),
    "radicals": lambda a: _ideal_listing(a, "radicals"),
    "primes": lambda a: _ideal_listing(a, "primes"),
    "spec": _cmd_spec,
    "pt": _cmd_pt,
    "reflect": _cmd_reflect,
    "check": _cmd_check,
    "dot": _cmd_dot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except AxiomViolation as exc:
        for axiom, witness in exc.violations:
            print(f"axiom violation: {axiom} at {witness}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT_FAILED
    except (OsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
