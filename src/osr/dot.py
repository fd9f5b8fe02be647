"""DOT rendering of ideal and radical Hasse diagrams and spectra.

Diagrams carry only the cover relation, drawn bottom to top; node names are
the canonical member-set labels, so output is byte-identical across runs.
A diagram in which two nodes would share a name is refused with LabelError.
For a spectrum the edges are the covers of the specialization order, which
for prime ideals is containment.
"""

from __future__ import annotations

from .analysis import Source, analysis
from .core import cover_pairs, inclusion_order
from .errors import LabelError

TARGETS = ("idl", "rad", "spec")


def _digraph(kind: str, labels, covers) -> str:
    if len(set(labels)) < len(labels):  # element labels may hold ','
        clash = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
        raise LabelError(f"dot {kind}: two nodes are named {clash}")
    # a label may hold '"', which a DOT string escapes; nothing else needs it
    names = ['"' + lab.replace('"', '\\"') + '"' for lab in labels]
    lines = [f"digraph {kind} {{", "  rankdir=BT;"]
    lines.extend(f"  {name};" for name in names)
    lines.extend(f"  {names[i]} -> {names[j]};" for i, j in covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(target: str, A: Source) -> str:
    """Render the requested structure of ``A`` as a DOT digraph."""
    an = analysis(A)
    if target in ("idl", "rad"):
        L = an.ideals if target == "idl" else an.radicals
        return _digraph(L.kind, [I.label for I in L.ideals], L.lattice.covers)
    if target == "spec":
        primes = an.primes
        return _digraph(
            "spectrum",
            [P.label for P in primes],
            cover_pairs(inclusion_order([P.mask for P in primes])),
        )
    raise LabelError(f"dot target must be one of {TARGETS}, not {target!r}")
