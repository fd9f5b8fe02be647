"""Command-line driver.

Input is an ``.osr`` file path or ``--builder name:arg`` (zmod:6, chain:3,
bool:2, truncnat:2, maxplus:1, dualq:2).  Exit codes: 0 all checks pass,
1 a theorem verdict failed, 2 input error; diagnostics go to stderr.

The grammar is ``osr COMMAND [SOURCE] [--builder NAME:ARG] [--json]``, and
``osr dot TARGET [SOURCE] ...``; options may come anywhere after the
command.  ``parse_args`` reads it without argparse, whose import and parser
build cost every command a few milliseconds of start-up.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, Optional, Sequence

from .analysis import Analysis
from .builders import from_builder_spec
from .core import FiniteOrderedSemiring, bits, refuse_repeated, validate
from .errors import AxiomViolation, OsrError, VerificationFailure
from .spectrum import frame_points

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_INPUT_ERROR = 2

USAGE = """\
usage: osr COMMAND [SOURCE] [--builder NAME:ARG] [--json]
       osr dot TARGET [SOURCE] [--builder NAME:ARG] [--json]
"""


class Args(NamedTuple):
    command: str
    target: Optional[str]  # the dot target; None for every other command
    source: Optional[str]
    builder: Optional[str]
    json: bool


class UsageError(Exception):
    """A command line outside the grammar: ``main`` prints the usage, exit 2."""


def _load(args) -> FiniteOrderedSemiring:
    if (args.source is None) == (args.builder is None):
        raise OsrError("provide exactly one of: an .osr file path, or --builder")
    if args.builder is not None:
        return from_builder_spec(args.builder)
    from .osrfile import parse_file

    return validate(parse_file(args.source))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(human)


def _cmd_validate(args) -> int:
    A = _load(args)
    _emit(
        args,
        {"name": A.name, "elements": A.n, "valid": True},
        f"ok: {A.name} is a valid ordered semiring on {A.n} elements\n",
    )
    return EXIT_OK


def _ideal_listing(args) -> int:
    kind = args.command  # ideals, radicals or primes
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
            kind: [[A.labels[x] for x in I.members] for I in chosen],
            "tags": [tags(I) for I in chosen],
        }
        _emit(args, payload, "")
        return EXIT_OK
    labels = [I.label for I in chosen]
    refuse_repeated(labels, kind, kind)  # JSON lists members, so it needs no check
    lines = []
    for I, label in zip(chosen, labels):
        suffix = ", ".join(tags(I))
        lines.append(label + (f"  ({suffix})" if suffix else ""))
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
    an = Analysis(A)
    an.reflection  # verified first: the reflection is the radical frame
    L = an.radicals.lattice
    images = [L.labels[i] for i in an.radical_principal]
    payload = {
        "name": A.name,
        "lattice_size": L.n,
        "universal_map": dict(zip(A.labels, images)),
    }
    human = [f"distributive reflection of {A.name}: {L.n} elements"]
    human.extend(f"{a} -> {image}" for a, image in zip(A.labels, images))
    _emit(args, payload, "\n".join(human) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    from .report import run_checks

    A = _load(args)
    report = run_checks(A)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.human())
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAILED


def _cmd_dot(args) -> int:
    from .dot import emit_dot

    A = _load(args)
    sys.stdout.write(emit_dot(args.target, A))
    return EXIT_OK


COMMANDS = {
    "validate": (_cmd_validate, "check the ordered-semiring axioms"),
    "ideals": (_ideal_listing, "list every ideal"),
    "radicals": (_ideal_listing, "list every radical ideal"),
    "primes": (_ideal_listing, "list every prime ideal"),
    "spec": (_cmd_spec, "the spectrum: points and opens"),
    "reflect": (_cmd_reflect, "the distributive-lattice reflection"),
    "pt": (_cmd_pt, "points of the radical frame"),
    "check": (_cmd_check, "run the full theorem suite"),
    "dot": (_cmd_dot, "DOT diagram of a computed structure"),
}


def _help_text() -> str:
    from .dot import TARGETS

    width = max(map(len, COMMANDS))
    lines = [
        USAGE,
        "finite ordered semirings: ideals, radicals, spectra, and exhaustive "
        "theorem checks",
        "",
        "commands:",
        *(f"  {name:<{width}}  {text}" for name, (_, text) in COMMANDS.items()),
        "",
        f"TARGET is one of {', '.join(TARGETS)}.",
        "",
        "options, anywhere after the command:",
        "  SOURCE              path to an .osr file",
        "  --builder NAME:ARG  use a built-in construction instead of a file;",
        "                      --builder=NAME:ARG is the same",
        "  --json              machine-readable output",
        "  -h, --help          show this help and exit",
    ]
    return "\n".join(lines) + "\n"


def parse_args(argv: Sequence[str]) -> Optional[Args]:
    """Read one command line of the grammar; None when it asks for help.

    Raises ``UsageError`` for anything outside the grammar.  Options are
    matched whole (no abbreviations), and ``--`` makes every later argument
    positional.
    """
    if not argv:
        raise UsageError("a command is required")
    command, rest = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return None
    if command not in COMMANDS:
        choices = ", ".join(COMMANDS)
        raise UsageError(f"unknown command {command!r}; choose from {choices}")
    positionals: list[str] = []
    builder, as_json = None, False
    for arg in rest:
        if arg == "--":
            positionals.extend(rest)
        elif arg in ("-h", "--help"):
            return None
        elif arg == "--json":
            as_json = True
        elif arg.startswith("--builder="):
            builder = arg[len("--builder="):]
        elif arg == "--builder":
            builder = next(rest, None)
            if builder is None or builder.startswith("-"):
                raise UsageError("--builder needs a value NAME:ARG")
        elif arg.startswith("-"):
            raise UsageError(f"unknown option {arg}")
        else:
            positionals.append(arg)
    target = None
    if command == "dot":
        from .dot import TARGETS

        choices = ", ".join(TARGETS)
        if not positionals:
            raise UsageError(f"dot needs a TARGET: one of {choices}")
        target = positionals.pop(0)
        if target not in TARGETS:
            raise UsageError(f"unknown dot target {target!r}; choose from {choices}")
    if len(positionals) > 1:
        second = positionals[1]
        raise UsageError(f"a second source {second!r}; give one .osr file or --builder")
    source = positionals[0] if positionals else None
    return Args(command, target, source, builder, as_json)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}osr: error: {exc}\n")
        return EXIT_INPUT_ERROR
    if args is None:
        sys.stdout.write(_help_text())
        return EXIT_OK
    try:
        return COMMANDS[args.command][0](args)
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
