"""Built-in example constructions.

Every semiring builder gives ``_semiring`` its labels and operations on
element indices; ``_semiring`` checks the size guardrail, builds the label
tables and funnels them through ``validate``, so the exhaustive axiom check
is re-run on each construction rather than assumed; ``build_from_quantale``
funnels a quantale's semiring view (``FiniteLattice.semiring``) through it
the same way.  Builders are deterministic: the same parameters give
identical tables.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Sequence, Union

from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    RawSemiringDescription,
    Table,
    _check_size,
    bits,
    bits_label,
    inclusion_order,
    lattice_from_order,
    lower_masks,
    subset_key,
    transitive_closure,
    validate,
)
from .errors import LabelError, NotAPartialOrder

_Op = Callable[[int, int], int]


def _semiring(
    name: str,
    n: int,
    label: Callable[[int], str],
    le: Union[str, Sequence[int]],
    zero: int,
    one: int,
    add: _Op,
    mul: _Op,
) -> FiniteOrderedSemiring:
    """The validated semiring on elements ``0..n-1``.  ``label``, ``add`` and
    ``mul`` are functions of element indices; ``le`` is an order keyword or
    bitmask order rows.  The size guardrail refuses before any table exists.
    """
    _check_size(n)
    lab = tuple(map(label, range(n)))
    span = range(n)
    if not isinstance(le, str):
        pairs = tuple((lab[i], lab[j]) for i in span for j in bits(le[i]) if i != j)
        le = pairs or "discrete"
    add_table = tuple(tuple(lab[add(i, j)] for j in span) for i in span)
    mul_table = tuple(tuple(lab[mul(i, j)] for j in span) for i in span)
    return validate(
        RawSemiringDescription(name, lab, le, lab[zero], lab[one], add_table, mul_table)
    )


def build_zmod(m: int) -> FiniteOrderedSemiring:
    """The ring of integers mod ``m`` as a discretely ordered semiring."""
    if m < 1:
        raise LabelError("modulus must be >= 1")

    def add(i: int, j: int) -> int:
        return (i + j) % m

    def mul(i: int, j: int) -> int:
        return i * j % m

    return _semiring(f"zmod{m}", m, str, "discrete", 0, 1 % m, add, mul)


def build_chain_lattice(k: int) -> FiniteOrderedSemiring:
    """The k-element chain as a distributive lattice: join adds, meet multiplies.

    ``k=2`` gives the two-element semiring used as the classifying target
    for prime ideals.
    """
    if k < 1:
        raise LabelError("chain length must be >= 1")
    return _semiring(f"chain{k}", k, str, "chain", 0, k - 1, max, min)


@cache
def two() -> FiniteOrderedSemiring:
    """The two-element chain semiring (bottom = 0, top = 1), the classifier
    of prime ideals, built and validated once per process."""
    return build_chain_lattice(2)


def _subset_semiring(
    name: str, subsets: Sequence[int], le: Union[str, Sequence[int]], add: _Op
) -> FiniteOrderedSemiring:
    """The semiring on a family of subsets, listed canonically from the empty
    set to the whole, with order ``le``: ``add`` on masks, intersection as
    multiplication."""
    idx = {s: i for i, s in enumerate(subsets)}
    return _semiring(
        name,
        len(subsets),
        lambda i: bits_label(subsets[i]),
        le,
        0,
        len(subsets) - 1,
        lambda i, j: idx[add(subsets[i], subsets[j])],
        lambda i, j: idx[subsets[i] & subsets[j]],
    )


def build_dlat_from_poset(
    npoints: int, relation: Iterable[tuple[int, int]]
) -> FiniteOrderedSemiring:
    """The lattice of downsets of a finite poset, as an ordered semiring.

    ``relation`` lists pairs ``(a, b)`` meaning ``a <= b``; the
    reflexive-transitive closure is taken and must be antisymmetric.
    Every lattice arising this way is distributive.
    """
    if not 0 <= npoints <= 6:
        raise NotAPartialOrder("poset must have between 0 and 6 points")
    rows = [1 << i for i in range(npoints)]
    for a, b in relation:
        if not (0 <= a < npoints and 0 <= b < npoints):
            raise NotAPartialOrder(f"point pair ({a}, {b}) out of range")
        rows[a] |= 1 << b
    closed = transitive_closure(rows, npoints)
    for i in range(npoints):
        for j in bits(closed[i]):
            if i != j and closed[j] >> i & 1:
                raise NotAPartialOrder(f"cycle through points {i} and {j}")
    strict = "".join(
        f"{i}{j}" for i in range(npoints) for j in bits(closed[i]) if i != j
    )
    lower = lower_masks(closed)
    downs = [s for s in range(1 << npoints) if all(lower[j] & ~s == 0 for j in bits(s))]
    downs.sort(key=subset_key)
    return _subset_semiring(
        f"downsets{npoints}" + (f"-{strict}" if strict else ""),
        downs,
        inclusion_order(downs),
        int.__or__,
    )


def build_boolean_ring(atoms: int) -> FiniteOrderedSemiring:
    """The Boolean ring on ``2^atoms`` elements, discretely ordered.

    Addition is symmetric difference, multiplication is intersection.
    """
    if not 1 <= atoms <= 3:
        raise LabelError("atoms must be between 1 and 3")
    subsets = sorted(range(1 << atoms), key=subset_key)
    return _subset_semiring(f"bool{atoms}", subsets, "discrete", int.__xor__)


def build_truncated_naturals(cap: int) -> FiniteOrderedSemiring:
    """Naturals saturating at ``cap``: x (+) y = min(x+y, cap), likewise for *.

    Distributivity of the truncation is re-checked exhaustively by
    ``validate``, not assumed.
    """
    if cap < 1:
        raise LabelError("cap must be >= 1")

    def add(i: int, j: int) -> int:
        return min(i + j, cap)

    def mul(i: int, j: int) -> int:
        return min(i * j, cap)

    return _semiring(f"truncnat{cap}", cap + 1, str, "chain", 0, 1, add, mul)


def build_truncated_maxplus(cap: int) -> FiniteOrderedSemiring:
    """Max-plus over ``{-inf, 0..cap}`` with addition saturating at ``cap``.

    Semiring addition is max, semiring multiplication is the truncated sum
    extended by ``x * -inf = -inf``; the additive zero is ``-inf`` and the
    multiplicative unit is ``0``.
    """
    if cap < 1:
        raise LabelError("cap must be >= 1")

    def label(i: int) -> str:  # index i > 0 is the number i - 1
        return str(i - 1) if i else "-inf"

    def mul(i: int, j: int) -> int:
        return min(i + j - 2, cap) + 1 if i and j else 0

    return _semiring(f"maxplus{cap}", cap + 2, label, "chain", 0, 1, max, mul)


def build_from_quantale(Q: FiniteLattice) -> FiniteOrderedSemiring:
    """``Q.semiring``, the semiring a quantale is (join adds, mul
    multiplies), validated: for a quantale that enters as an input.
    Index ``i`` in the result is element ``i`` of ``Q``."""
    S = Q.semiring
    _check_size(S.n)
    return validate(S.describe())


def discretize(A: FiniteOrderedSemiring) -> FiniteOrderedSemiring:
    """Same tables, identity order.  Monotonicity becomes vacuous."""
    return validate(A.describe()._replace(name=f"{A.name}.discrete", le="discrete"))


def order_dual(A: FiniteOrderedSemiring) -> FiniteOrderedSemiring:
    """Reverse the order, keep the tables.

    The dual of an ordered semiring is an ordered semiring; duals of
    join-induced semirings satisfy ``1 <= 0`` and so have empty spectra.
    """
    desc = A.describe()
    le = desc.le if desc.le == "discrete" else tuple((b, a) for a, b in desc.le)
    return validate(desc._replace(name=f"{A.name}.dual", le=le))


def build_dual_chain(k: int) -> FiniteOrderedSemiring:
    """Order dual of the k-chain lattice semiring: a carrier where 1 <= 0."""
    return order_dual(build_chain_lattice(k))


# --- lattice-side builders (morphism targets, quantale inputs) ---------------


def _frame(D: FiniteOrderedSemiring, name: str) -> FiniteLattice:
    """A semiring whose addition is join and multiplication meet, as a frame."""
    return lattice_from_order(
        D.labels, D.leq, mul=D.mul, unit=D.one, name=name or D.name
    )


def chain_frame(k: int, name: str = "") -> FiniteLattice:
    """The k-chain as a frame (meet as multiplication, unit = top)."""
    return _frame(build_chain_lattice(k), name)


def downset_frame(
    npoints: int, relation: Iterable[tuple[int, int]], name: str = ""
) -> FiniteLattice:
    """Downset lattice of a finite poset as a frame."""
    return _frame(build_dlat_from_poset(npoints, relation), name)


def diamond_frame() -> FiniteLattice:
    """The four-element Boolean lattice (downsets of a 2-antichain)."""
    return downset_frame(2, [], name="diamond")


def nilpotent_chain_quantale() -> FiniteLattice:
    """A 3-chain integral quantale whose middle element squares to bottom.

    The smallest integral quantale with a nontrivial nilpotent; its
    semiprime elements are a proper subset of the carrier.
    """
    lab = ("0", "m", "1")
    leq = (0b111, 0b110, 0b100)
    mul: Table = ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    return lattice_from_order(lab, leq, mul=mul, unit=2, name="nilq3")


# --- the desk-scale instance family -------------------------------------------


def builtin_family(max_size: int = 8) -> list[FiniteOrderedSemiring]:
    """Representative desk-scale instances of every builder, by carrier size.

    Used by the verification suites; deterministic order.
    """
    out: list[FiniteOrderedSemiring] = []
    for m in range(1, max_size + 1):
        out.append(build_zmod(m))
    for k in range(1, max_size + 1):
        out.append(build_chain_lattice(k))
    posets = [
        (2, [(0, 1)]),  # 2-chain: downsets form a 3-chain
        (2, []),  # 2-antichain: diamond
        (3, [(0, 1)]),  # chain + isolated point: 2x3 grid
        (3, []),  # 3-antichain: Boolean cube
    ]
    for npts, rel in posets:
        D = build_dlat_from_poset(npts, rel)
        if D.n <= max_size:
            out.append(D)
    for atoms in (1, 2, 3):
        if 1 << atoms <= max_size:
            out.append(build_boolean_ring(atoms))
    for cap in range(1, max_size):
        out.append(build_truncated_naturals(cap))
    for cap in range(1, max_size - 1):
        out.append(build_truncated_maxplus(cap))
    for k in range(2, min(4, max_size) + 1):
        out.append(build_dual_chain(k))
    if max_size >= 3:
        out.append(build_from_quantale(nilpotent_chain_quantale()))
    return [A for A in out if A.n <= max_size]


# --- CLI builder registry ------------------------------------------------------

BUILDER_SPECS = {
    "zmod": build_zmod,
    "chain": build_chain_lattice,
    "bool": build_boolean_ring,
    "truncnat": build_truncated_naturals,
    "maxplus": build_truncated_maxplus,
    "dualq": build_dual_chain,
}


def from_builder_spec(text: str) -> FiniteOrderedSemiring:
    """Parse a ``name:arg`` builder request, e.g. ``zmod:6`` or ``chain:3``."""
    name, sep, arg = text.partition(":")
    if name not in BUILDER_SPECS:
        raise LabelError(
            f"unknown builder {name!r}; expected one of {sorted(BUILDER_SPECS)}"
        )
    if not sep or not (arg.isascii() and arg.isdigit()):
        raise LabelError(f"builder {name!r} needs a numeric argument, e.g. {name}:3")
    try:
        k = int(arg)
    except ValueError:  # longer than the interpreter converts
        raise LabelError(
            f"builder {name!r} argument has {len(arg)} digits, too many to read"
        ) from None
    return BUILDER_SPECS[name](k)
