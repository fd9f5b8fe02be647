"""Finite ordered semirings and finite lattices.

Carriers are canonicalized to indices ``0..n-1`` in input order and every
subset downstream is an int bitmask (bit ``i`` = element ``i``).  All
structures are frozen; axiom checking is always exhaustive -- at desk scale
(n <= 24) there is no reason for a trusted fast path.  The cubic laws,
associativity (``associativity_rows``) and distributivity
(``distributivity_rows``), still compare every triple, one whole row ``x``
at a time: each side of the law over all ``(y, z)`` is a tuple of ``n``
rows built by ``gather`` at C speed, the two are compared once, and the
first mismatch of a row gives back its witness ``(y, z)``.  These tuples
hold structures of any size.  A quantale is its semiring, a view on its
tables (``FiniteLattice.semiring``), which every map search and re-check
reads: the quantale laws checked imply the semiring laws.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from .errors import (
    AxiomViolation,
    InternalMismatch,
    IsoFailure,
    LabelError,
    NotALattice,
    NotAQuantale,
    SizeLimit,
)

if TYPE_CHECKING:
    from .search import SearchSource, SearchTarget

MAX_ELEMENTS = 24  # ideal enumeration is 2^n in the worst case downstream

Table = tuple[tuple[int, ...], ...]
LePairs = tuple[tuple[str, str], ...]


class Record:
    """A frozen record with a ``__dict__`` for ``cached_property`` tables
    and weak references, which a NamedTuple lacks; neither is a dataclass,
    whose import costs every CLI start-up.  Fields are the annotations (a
    class value is a default); ``_replace`` copies with changes."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._values = property(attrgetter(*cls._fields))  # a tuple of the fields
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(values) != len(self._fields) or len(given) < len(args) + len(kwargs):
            raise TypeError(f"{type(self).__name__} takes {self._fields}")
        for name in self._fields:  # as a dataclass does, so that reads stay fast
            object.__setattr__(self, name, values[name])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values), **changes))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._values == other._values

    @cached_property
    def _hash(self) -> int:  # frozen, so hashed once, tables and all
        return hash(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__


def bits(mask: int) -> Iterable[int]:
    """Yield the set bit positions of ``mask`` in increasing order.

    Steps from lowest set bit to lowest set bit, never over a zero bit.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gather(idx: Iterable[int]) -> Callable[[Sequence], tuple]:
    """``gather(idx)(seq)`` is ``tuple(seq[i] for i in idx)``, at C speed."""
    idx = tuple(idx)
    if len(idx) == 1:  # itemgetter of one index returns the item, not a tuple
        return lambda seq, i=idx[0]: (seq[i],)
    return itemgetter(*idx)


def _first_difference(a: Sequence, b: Sequence) -> int:
    """The first index at which two sequences of equal length differ."""
    return next(k for k, (u, v) in enumerate(zip(a, b)) if u != v)


def _first_mismatch(left: tuple, right: tuple, n: int) -> Optional[int]:
    """None if two tuples of rows are equal, else the first ``y * n + z``
    at which they differ, ``y`` the row and ``z`` the column."""
    if left == right:
        return None
    y = _first_difference(left, right)
    return y * n + _first_difference(left[y], right[y])


def associativity_rows(op: Table) -> Iterator[Optional[int]]:
    """For each ``x`` in turn, the first ``y * n + z`` at which
    ``op[op[x][y]][z] != op[x][op[y][z]]``, or None if there is none.

    Row ``x`` of the left side over all ``(y, z)`` is the rows
    ``op[op[x][y]]``, one gather of the table by row ``x``; row ``y`` of
    the right side is row ``x`` gathered by row ``y``: one comparison of
    two tuples of rows per ``x``.
    """
    by_row = [gather(row) for row in op]
    for row in op:
        right = tuple([g(row) for g in by_row])
        yield _first_mismatch(gather(row)(op), right, len(op))


def distributivity_rows(mul: Table, add: Table) -> Iterator[Optional[int]]:
    """For each ``x`` in turn, the first ``y * n + z`` at which
    ``mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]``, or None.

    Row ``y`` of the left side is row ``x`` of ``mul`` gathered by row
    ``y`` of ``add``; the right side is that row's gather applied to
    ``add``'s rows and then to each row it picked.
    """
    by_row = [gather(row) for row in add]
    for row in mul:
        g = gather(row)
        left = tuple([h(row) for h in by_row])
        yield _first_mismatch(left, tuple(map(g, g(add))), len(mul))


def _first_triple(rows: Iterable[Optional[int]], n: int) -> Optional[tuple]:
    """The first ``(x, y, z)`` that a ``*_rows`` kernel reports, or None."""
    for x, k in enumerate(rows):
        if k is not None:
            return (x, *divmod(k, n))
    return None


def bits_label(mask: int) -> str:
    """The set bit positions of ``mask`` as a set label, e.g. ``{0,2}``."""
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def subset_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for carrier subsets: by size, then by bitmask."""
    return (mask.bit_count(), mask)


def lower_masks(leq: Sequence[int]) -> tuple[int, ...]:
    """Transpose of an order given as bitmask rows: entry ``j`` has bit ``i``
    set iff ``i <= j``."""
    out = [0] * len(leq)
    for i, row in enumerate(leq):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def inclusion_order(masks: Sequence[int]) -> tuple[int, ...]:
    """Bitmask order rows of a family of subsets under inclusion."""
    return tuple(
        sum(1 << j for j, big in enumerate(masks) if small & ~big == 0)
        for small in masks
    )


def cover_pairs(leq: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """All pairs ``(i, j)`` with ``j`` covering ``i`` in a partial order given
    as bitmask rows, ordered by ``i`` and then ``j``."""
    lower = lower_masks(leq)
    out = []
    for i, row in enumerate(leq):
        for j in bits(row & ~(1 << i)):
            if not row & lower[j] & ~(1 << i) & ~(1 << j):
                out.append((i, j))
    return tuple(out)


def transitive_closure(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Reflexive-transitive closure of a relation given as bitmask rows.

    ``rows[i]`` has bit ``j`` set iff ``i <= j``.
    """
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return tuple(out)


class RawSemiringDescription(NamedTuple):
    """Serializable description of an ordered semiring, all in labels.

    ``le`` is the keyword ``"discrete"``, the keyword ``"chain"`` (total
    order in listed element order), or a tuple of ``(smaller, larger)``
    label pairs whose reflexive-transitive closure is taken.
    """

    name: str
    elements: tuple[str, ...]
    le: Union[str, LePairs]
    zero: str
    one: str
    add_table: tuple[tuple[str, ...], ...]
    mul_table: tuple[tuple[str, ...], ...]


class FiniteOrderedSemiring(Record):
    """A validated finite ordered semiring.

    ``leq[i]`` has bit ``j`` set iff element ``i`` is below element ``j``.
    ``add``/``mul`` are n x n index tables; row i, column j gives
    ``op(element i, element j)``.  Instances are immutable and may be shared
    freely across threads.
    """

    name: str
    labels: tuple[str, ...]
    leq: tuple[int, ...]
    zero: int
    one: int
    add: Table
    mul: Table

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    @cached_property
    def lower_masks(self) -> tuple[int, ...]:
        """``lower_masks[j]`` = bitmask of ``{i : i <= j}``."""
        return lower_masks(self.leq)

    @cached_property
    def multiples(self) -> tuple[int, ...]:
        """``multiples[x]`` = bitmask of everything below some ``x*y``.

        It contains ``x`` itself, since ``x*1 = x``.
        """
        lower = self.lower_masks
        out = []
        for row in self.mul:
            mask = 0
            for z in row:
                mask |= lower[z]
            out.append(mask)
        return tuple(out)

    @cached_property
    def full_generators(self) -> int:
        """Bitmask of the elements ``x`` whose principal ideal is the whole
        carrier, ``multiples[x] == full_mask``: a unit of a ring, the top of
        a lattice.  It contains ``one``, since ``multiples[one]`` is the
        carrier."""
        full = self.full_mask
        return sum(1 << x for x, mask in enumerate(self.multiples) if mask == full)

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """``powers[x]`` = bitmask of the positive powers ``x, x*x, ...``.

        The walk stops at the first repeated power: the next power depends
        only on the current one, so nothing new follows a repeat.
        """
        out = []
        for x in range(self.n):
            mask, p = 0, x
            while not mask >> p & 1:
                mask |= 1 << p
                p = self.mul[p][x]
            out.append(mask)
        return tuple(out)

    @cached_property
    def slice_images(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The ``add`` and ``mul`` images of subsets, four columns at a time.

        ``slice_images[0][x][16 * k + nib]`` is the bitmask of ``x + y`` for
        ``y`` in slice ``k`` of the carrier (elements ``4k .. 4k+3``) whose
        bit ``y - 4k`` is set in ``nib``; ``slice_images[1]`` holds ``x * y``
        the same way.  The image of a subset under row ``x`` is the OR of one
        entry per slice it meets.  Columns past ``n`` add nothing.
        """
        slices = range(0, self.n, 4)
        out = []
        for table in (self.add, self.mul):
            rows = []
            for row in table:
                flat = []
                for k in slices:
                    cols = [1 << v for v in row[k : k + 4]] + [0] * 3
                    entries = [0]
                    for nib in range(1, 16):
                        low = nib & -nib
                        entries.append(entries[nib ^ low] | cols[low.bit_length() - 1])
                    flat += entries
                rows.append(tuple(flat))
            out.append(tuple(rows))
        return tuple(out)

    @cached_property
    def search_source(self) -> SearchSource:
        """The search engine's source side of maps out of this semiring (its
        order pairs and law instances), kept as long as the semiring."""
        from .search import SearchSource

        return SearchSource(self.leq)

    @cached_property
    def search_target(self) -> SearchTarget:
        """The search engine's support tables into this semiring (its order
        and operation tables), each built on first use and kept as long as
        the semiring; a quantale is searched as its ``semiring``."""
        from .search import SearchTarget

        return SearchTarget(self.leq)

    @property
    def is_discrete(self) -> bool:
        return all(self.leq[i] == 1 << i for i in range(self.n))

    def set_label(self, mask: int) -> str:
        return "{" + ",".join(self.labels[i] for i in bits(mask)) + "}"

    def describe(self) -> RawSemiringDescription:
        """Re-serialize as a description (explicit le pairs)."""
        pairs = tuple(
            (self.labels[i], self.labels[j])
            for i in range(self.n)
            for j in bits(self.leq[i])
            if i != j
        )
        lab = self.labels
        return RawSemiringDescription(
            name=self.name,
            elements=lab,
            le="discrete" if not pairs else pairs,
            zero=lab[self.zero],
            one=lab[self.one],
            add_table=tuple(tuple(lab[v] for v in row) for row in self.add),
            mul_table=tuple(tuple(lab[v] for v in row) for row in self.mul),
        )

    def __repr__(self) -> str:
        return f"FiniteOrderedSemiring({self.name!r}, n={self.n})"


def _resolve(label: str, index: dict, what: str) -> int:
    try:
        return index[label]
    except KeyError:
        raise LabelError(f"{what}: unknown element label {label!r}") from None


def _axiom_failures(A: FiniteOrderedSemiring):
    """Exhaustively check every ordered-semiring law; yield (name, witness)."""
    n, lab = A.n, A.labels
    add, mul, leq = A.add, A.mul, A.leq
    zero, one = A.zero, A.one

    def le(i, j):
        return leq[i] >> j & 1

    for i in range(n):
        if not le(i, i):
            yield ("le-reflexive", (lab[i],))
            break
    found = None
    for i in range(n):
        for j in bits(leq[i]):
            if leq[j] & ~leq[i]:
                k = next(b for b in bits(leq[j] & ~leq[i]))
                found = (lab[i], lab[j], lab[k])
                break
        if found:
            break
    if found:
        yield ("le-transitive", found)

    for opname, op in (("add", add), ("mul", mul)):
        unit = zero if opname == "add" else one
        comm = next(
            (
                (lab[x], lab[y])
                for x in range(n)
                for y in range(x + 1, n)
                if op[x][y] != op[y][x]
            ),
            None,
        )
        if comm:
            yield (f"{opname}-commutative", comm)
        assoc = _first_triple(associativity_rows(op), n)
        if assoc is not None:
            yield (f"{opname}-associative", tuple(lab[i] for i in assoc))
        ident = next(((lab[x],) for x in range(n) if op[x][unit] != x), None)
        if ident:
            yield (f"{opname}-identity", ident)

    annih = next(((lab[x],) for x in range(n) if mul[x][zero] != zero), None)
    if annih:
        yield ("mul-annihilates", annih)

    dist = _first_triple(distributivity_rows(mul, add), n)
    if dist is not None:
        yield ("distributive", tuple(lab[i] for i in dist))

    # monotone in one argument suffices: both ops are commutative
    for opname, op in (("add", add), ("mul", mul)):
        mono = next(
            (
                (lab[x], lab[y], lab[z])
                for x in range(n)
                for y in bits(leq[x])
                for z in range(n)
                if not le(op[x][z], op[y][z])
            ),
            None,
        )
        if mono:
            yield (f"{opname}-monotone", mono)


def _check_size(n: int) -> None:
    """Refuse a carrier above the desk-scale guardrail with SizeLimit."""
    if n > MAX_ELEMENTS:
        raise SizeLimit(
            f"validate: carrier has {n} elements; guardrail is {MAX_ELEMENTS}"
        )


def validate(desc: RawSemiringDescription) -> FiniteOrderedSemiring:
    """Resolve labels, close the order, and exhaustively check every axiom.

    Raises LabelError for unresolvable labels or malformed tables,
    SizeLimit for carriers above the desk-scale guardrail, and
    AxiomViolation (listing every failed law with a witness) otherwise.
    """
    elements = tuple(desc.elements)
    n = len(elements)
    if n == 0:
        raise LabelError("carrier must be non-empty")
    _check_size(n)
    index: dict = {}
    for i, e in enumerate(elements):
        if e in index:
            raise LabelError(f"duplicate element label {e!r}")
        index[e] = i

    zero = _resolve(desc.zero, index, "zero")
    one = _resolve(desc.one, index, "one")

    def table(rows, what) -> Table:
        if len(rows) != n or any(len(r) != n for r in rows):
            raise LabelError(f"{what} table must be {n}x{n}")
        return tuple(
            tuple(_resolve(v, index, f"{what} table") for v in row) for row in rows
        )

    add = table(desc.add_table, "add")
    mul = table(desc.mul_table, "mul")

    if desc.le == "discrete":
        leq = tuple(1 << i for i in range(n))
    elif desc.le == "chain":
        leq = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    elif isinstance(desc.le, str):
        raise LabelError(f"unknown order keyword {desc.le!r}")
    else:
        rows = [1 << i for i in range(n)]
        for a, b in desc.le:
            rows[_resolve(a, index, "le")] |= 1 << _resolve(b, index, "le")
        leq = transitive_closure(rows, n)

    A = FiniteOrderedSemiring(
        name=desc.name, labels=elements, leq=leq, zero=zero, one=one, add=add, mul=mul
    )
    violations = tuple(_axiom_failures(A))
    if violations:
        raise AxiomViolation(violations)
    return A


# --- finite lattices ---------------------------------------------------------


class FiniteLattice(Record):
    """A finite lattice, optionally carrying a quantale multiplication.

    ``mul``/``unit`` are present for quantales; ``is_integral_quantale``
    holds when the unit is the top element.  At finite scale frames are
    exactly the distributive lattices, so ``is_distributive`` also says
    whether the lattice is a frame.  Both are read from the tables.
    """

    name: str
    labels: tuple[str, ...]
    leq: tuple[int, ...]
    join: Table
    meet: Table
    bottom: int
    top: int
    mul: Optional[Table]
    unit: Optional[int]

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def is_distributive(self) -> bool:
        return all(k is None for k in distributivity_rows(self.meet, self.join))

    @property
    def is_integral_quantale(self) -> bool:
        return self.mul is not None and self.unit == self.top

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def join_of(self, idxs: Iterable[int]) -> int:
        out = self.bottom
        for i in idxs:
            out = self.join[out][i]
        return out

    def meet_of(self, idxs: Iterable[int]) -> int:
        out = self.top
        for i in idxs:
            out = self.meet[out][i]
        return out

    @cached_property
    def semiring(self) -> FiniteOrderedSemiring:
        """The ordered semiring this quantale is, ``(L, join, bottom, mul,
        unit, <=)``: a view on the lattice's own tables, made once and not
        validated, since the quantale laws that ``lattice_from_order``
        checked imply the semiring laws (distributivity makes ``mul``
        monotone).  ``builders.build_from_quantale`` is the validated copy.
        Raises NotAQuantale on a lattice without a multiplication."""
        if self.mul is None or self.unit is None:
            raise NotAQuantale(f"{self.name} carries no multiplication")
        L = self
        return FiniteOrderedSemiring(
            f"osr({L.name})", L.labels, L.leq, L.bottom, L.unit, L.join, L.mul
        )

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """All pairs ``(i, j)`` with ``j`` covering ``i``."""
        return cover_pairs(self.leq)

    @cached_property
    def lower_masks(self) -> tuple[int, ...]:
        return lower_masks(self.leq)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover (excludes bottom)."""
        lower_covers: dict[int, int] = {j: 0 for j in range(self.n)}
        for i, j in self.covers:
            lower_covers[j] += 1
        return tuple(
            j for j in range(self.n) if j != self.bottom and lower_covers[j] == 1
        )

    @cached_property
    def meet_primes(self) -> tuple[int, ...]:
        """Elements ``m != top`` with ``a /\\ b <= m  =>  a <= m or b <= m``."""
        out = []
        for m in range(self.n):
            if m == self.top:
                continue
            low = self.lower_masks[m]
            if all(
                not self.le(self.meet[a][b], m)
                for a in range(self.n)
                if not low >> a & 1
                for b in range(self.n)
                if not low >> b & 1
            ):
                out.append(m)
        return tuple(out)

    def __repr__(self) -> str:
        kind = "frame" if self.is_distributive else "lattice"
        if self.mul not in (None, self.meet):
            kind = "quantale"
        return f"FiniteLattice({self.name!r}, n={self.n}, {kind})"


def lattice_from_order(
    labels: Sequence[str],
    leq: Sequence[int],
    mul: Optional[Table] = None,
    unit: Optional[int] = None,
    name: str = "",
) -> FiniteLattice:
    """Build a FiniteLattice from a partial order given as bitmask rows.

    Computes join/meet tables (NotALattice if some bound is missing or the
    relation is not a partial order), each entry one lookup of an up-set or
    lower set, and, when ``mul`` is supplied, checks the quantale laws
    exhaustively, a row at a time (NotAQuantale on failure).
    """
    n = len(labels)
    leq = tuple(leq)
    for i in range(n):
        if not leq[i] >> i & 1:
            raise NotALattice(f"order not reflexive at {labels[i]}")
        for j in bits(leq[i]):
            if leq[j] & ~leq[i]:
                raise NotALattice("order not transitive")
            if i != j and leq[j] >> i & 1:
                raise NotALattice(
                    f"order not antisymmetric: {labels[i]} and {labels[j]}"
                )

    # the up-set of a join is the intersection of the two up-sets, and the
    # lower set of a meet that of the two lower sets: each bound, if it
    # exists, is the element whose row is that intersection
    lower = lower_masks(leq)
    up = {row: u for u, row in enumerate(leq)}
    down = {row: u for u, row in enumerate(lower)}
    join_t = []
    meet_t = []
    for i in range(n):
        jrow = tuple(map(up.get, map(leq[i].__and__, leq)))
        mrow = tuple(map(down.get, map(lower[i].__and__, lower)))
        if None in jrow or None in mrow:
            j = next(j for j in range(n) if jrow[j] is None or mrow[j] is None)
            what = "join" if jrow[j] is None else "meet"
            raise NotALattice(f"no {what} of {labels[i]},{labels[j]}")
        join_t.append(jrow)
        meet_t.append(mrow)
    join: Table = tuple(join_t)
    meet: Table = tuple(meet_t)
    full = (1 << n) - 1
    bottom, top = up.get(full), down.get(full)
    if bottom is None or top is None:
        raise NotALattice("no bottom" if bottom is None else "no top")

    if mul is not None:
        if unit is None:
            raise NotAQuantale("multiplication given without a unit")
        mul = tuple(map(tuple, mul))
        if not 0 <= unit < n or len(mul) != n or any(len(row) != n for row in mul):
            raise NotAQuantale("multiplication table or unit does not fit the lattice")
        # the row laws below index through every entry: one outside the
        # lattice is refused before the first of them, after row 0's unit
        # and bottom laws, which read no entry as an index
        outside = next(
            (
                f"multiplication leaves the lattice at {labels[x]},{labels[y]}"
                for x, row in enumerate(mul)
                for y, v in enumerate(row)
                if not 0 <= v < n
            ),
            None,
        )
        columns = tuple(zip(*mul))
        # the loop order of the laws: per x the unit, bottom, then per y
        # commutativity and per z associativity before distribution; the
        # first failure in that order is the one raised
        assoc_rows = associativity_rows(mul)
        dist_rows = distributivity_rows(mul, join)
        for x, row in enumerate(mul):
            if row[unit] != x:
                raise NotAQuantale(f"unit law fails at {labels[x]}")
            if row[bottom] != bottom:
                raise NotAQuantale(f"bottom not absorbing at {labels[x]}")
            if outside:
                raise NotAQuantale(outside)
            assoc, dist = next(assoc_rows), next(dist_rows)
            failures = []  # (y * n + z, rank at that (y, z), message)
            if row != columns[x]:
                y = _first_difference(row, columns[x])
                comm = f"not commutative at {labels[x]},{labels[y]}"
                failures.append((y * n, 0, comm))
            if assoc is not None:
                failures.append((assoc, 1, "not associative"))
            if dist is not None:
                failures.append(
                    (dist, 2, "multiplication does not distribute over join")
                )
            if failures:
                raise NotAQuantale(min(failures)[2])

    return FiniteLattice(
        name=name or "lattice",
        labels=tuple(labels),
        leq=leq,
        join=join,
        meet=meet,
        bottom=bottom,
        top=top,
        mul=mul,
        unit=unit,
    )


def subset_lattice(
    masks: Sequence[int],
    labels: Sequence[str],
    close: Callable[[int], int],
    mul: Optional[Table] = None,
    name: str = "lattice",
) -> FiniteLattice:
    """The lattice of the subsets ``masks`` of a finite set under inclusion.

    ``close`` maps a subset to the least member of the family containing it
    (a closure system).  The multiplication is ``mul``, or intersection when
    ``mul`` is None, and the unit is the whole set, the union of ``masks``.
    Meets are verified to be intersections and joins, the empty join
    included, to be ``close`` of unions.  Any failure -- a missing
    intersection or whole set, tables that are not a lattice, ``mul`` that
    is not a quantale multiplication -- raises InternalMismatch: the callers
    build families that are closure systems by theory.
    """
    k = len(masks)
    pos = {m: i for i, m in enumerate(masks)}
    whole = 0
    for m in masks:
        whole |= m
    try:
        unit = pos[whole]
        if mul is None:
            mul = tuple(tuple(pos[s & t] for t in masks) for s in masks)
    except KeyError as exc:
        raise InternalMismatch(
            f"{name}: {bits_label(exc.args[0])} is not in the family"
        ) from None
    try:
        lattice = lattice_from_order(
            labels, inclusion_order(masks), mul=mul, unit=unit, name=name
        )
    except (NotALattice, NotAQuantale) as exc:
        raise InternalMismatch(f"{name}: {exc}") from exc

    def pair(i: int, j: int) -> str:
        return f"{labels[i]} and {labels[j]} in {name}"

    if masks[lattice.bottom] != close(0):
        raise InternalMismatch(f"{name}: bottom is not the closure of the empty set")
    for i in range(k):
        for j in range(k):
            if masks[lattice.join[i][j]] != close(masks[i] | masks[j]):
                raise InternalMismatch(
                    f"join of {pair(i, j)} is not the closure of the union"
                )
            if masks[lattice.meet[i][j]] != masks[i] & masks[j]:
                raise InternalMismatch(f"meet of {pair(i, j)} is not the intersection")
    return lattice


def check_lattice_iso(
    L: FiniteLattice, M: FiniteLattice, forward: Sequence[int], what: str
) -> None:
    """Verify that ``forward`` (index of L -> index of M) is a lattice
    isomorphism: a bijection that preserves and reflects the order and
    preserves joins and meets.  Raises IsoFailure naming ``what``."""
    if sorted(forward) != list(range(M.n)) or len(forward) != L.n:
        raise IsoFailure(
            f"{what} is not a bijection between {L.n} and {M.n} elements"
        )
    for r in range(L.n):
        for s in range(L.n):
            if L.le(r, s) != M.le(forward[r], forward[s]):
                raise IsoFailure(f"{what} does not preserve order")
            if forward[L.join[r][s]] != M.join[forward[r]][forward[s]]:
                raise IsoFailure(f"{what} does not preserve joins")
            if forward[L.meet[r][s]] != M.meet[forward[r]][forward[s]]:
                raise IsoFailure(f"{what} does not preserve meets")
