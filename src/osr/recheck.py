"""The exhaustive re-check of the maps a search finds: one law kernel over
byte strings, ``law_columns``, whose flag columns ``morphisms.classify``
and ``homs.is_quantale_hom`` both read.

The kernel reads semirings only, each as its size, its ``add`` and
``mul`` tables, its order and its ``zero`` and ``one``; a quantale comes
as its semiring (``FiniteLattice.semiring``, a view on its ``join``,
``mul``, ``bottom`` and ``unit``).  A whole list of maps is read in
batches of ``256 // n``, one byte per table entry.  A batch's lane holds
the values of its maps one after another; each source-side string
(``BatchSides``: the row-major tables and the ``x`` and ``y`` of every
element pair, written once per map of a batch) is translated by it once,
giving every map's images, map by map, and the images of the two
constants are two strided slices of it.  The target side is looked up
once per batch: the pair code ``m * f(x) + f(y)`` of every entry
(``pair_codes``) is translated through the target's row-major tables,
padded to 256 bytes up to 16 elements; above, the codes are ints and the
tables are read one entry at a time.  Each law is then one comparison
for the whole batch, read map by map only where it fails.  A structure's
byte forms are built on its first re-check and kept in its ``__dict__``,
as a ``cached_property`` would be, as long as it lives.  They hold
structures of at most 256 elements; a larger one is refused with
SizeLimit (``fit_lanes``), by the searches before they bind.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, compress
from operator import and_, eq, ne
from typing import Sequence, Union

from .errors import EndpointMismatch, SizeLimit

_BYTES = bytes(range(256))
_DIGITS = bytes.maketrans(b"01", b"\0\1")
# where a structure keeps its byte forms, in its __dict__
_ORDER, _SOURCE, _TARGET = "_recheck_order", "_recheck_source", "_recheck_target"


class BatchSides(dict):
    """The source side of the laws of one structure, for batches of maps:
    ``self[count]`` has each string of ``shifted`` once per map of a batch
    of ``count`` maps, copy ``k`` with ``k * n`` added to every entry, so
    that one ``translate`` by the batch's lane gives every map's images,
    map by map.  The strings for a capacity (a power of two, or
    ``256 // n``) are built on first use and kept, and those for a count
    are cut from them."""

    def __init__(self, n: int, shifted: tuple[bytes, ...]) -> None:
        super().__init__({1: shifted})
        self.n = n

    def __missing__(self, count: int) -> tuple[bytes, ...]:
        n = self.n
        capacity = min(1 << (count - 1).bit_length(), 256 // n)
        strings = self.get(capacity)
        if strings is None:
            shifts = [_BYTES[d:] + _BYTES[:d] for d in range(0, capacity * n, n)]
            strings = self[capacity] = tuple(
                b"".join(map(side.translate, shifts)) for side in self[1]
            )
        end = count * n * n
        strings = self[count] = tuple(string[:end] for string in strings)
        return strings


@cache
def _pairs(n: int) -> tuple[bytes, bytes]:
    """The ``x`` and the ``y`` of every pair ``(x, y)`` of ``0..n-1``, as
    bytes in row-major order."""
    return bytes(chain.from_iterable([x] * n for x in range(n))), _BYTES[:n] * n


class IntCodes(list):
    """The pair codes of a target of more than 16 elements, one int each,
    which a byte no longer holds."""

    def translate(self, table: bytes) -> bytes:
        """The entry of every pair in the row-major ``table``, read one
        entry at a time."""
        return bytes(map(table.__getitem__, self))


def pair_codes(P: bytes, Q: bytes, m: int) -> Union[bytes, IntCodes]:
    """The pair codes ``m * P[k] + Q[k]`` for every ``k``, entries below
    ``m``: bytes when ``m <= 16`` (no byte carries, as each code stays
    below 256), else an ``IntCodes``.  Either way, its ``translate`` of a
    row-major table (padded to 256 bytes up to 16 elements) gives the
    table's entry at every pair."""
    if m <= 16:
        code = int.from_bytes(P, "big") * m + int.from_bytes(Q, "big")
        return code.to_bytes(len(P), "big")
    return IntCodes(m * a + b for a, b in zip(P, Q))


def each_equal(P: bytes, Q: bytes, size: int) -> list[bool]:
    """For each map's slice of ``size`` bytes, whether ``P`` and ``Q`` agree
    on it."""
    return [P[k : k + size] == Q[k : k + size] for k in range(0, len(P), size)]


def each_true(flags: bytes, size: int) -> list[bool]:
    """For each map's slice of ``size`` bytes of ``flags``, whether no byte
    of it is 0; one search when no byte is."""
    if 0 not in flags:
        return [True] * (len(flags) // size)
    return [flags.find(0, k, k + size) < 0 for k in range(0, len(flags), size)]


def each_within(flags: bytes, pattern: bytes, size: int) -> list[bool]:
    """For each map's slice of ``size`` bytes, whether ``flags`` is 1
    wherever ``pattern`` is, both being bytes 0 or 1: one AND of two big
    ints."""
    mask = int.from_bytes(pattern, "big")
    within = int.from_bytes(flags, "big") & mask
    if within == mask:
        return [True] * (len(pattern) // size)
    return each_equal(within.to_bytes(len(flags), "big"), pattern, size)


def _refusal(S, T, maps: Sequence) -> EndpointMismatch:
    """EndpointMismatch naming the first of ``maps`` that is not an array of
    ``S.n`` integers below ``T.n``."""

    def fits(values) -> bool:
        try:
            return len(values) == S.n and max(bytes(values)) < T.n
        except (TypeError, ValueError):
            return False

    values = next(values for values in maps if not fits(values))
    size = f"of length {len(values)}" if hasattr(values, "__len__") else repr(values)
    return EndpointMismatch(f"value array {size} does not map {S.name} into {T.name}")


def fit_lanes(*structures) -> None:
    """Refuse with SizeLimit the first of ``structures`` whose elements do
    not fit in one byte each.  The searches call this before they bind, so
    that a search whose maps could not be re-checked is never run."""
    for S in structures:
        if S.n > 256:
            raise SizeLimit(
                f"leaf check: {S.name} has {S.n} elements; byte lanes hold 256"
            )


def _laws(S) -> tuple:
    """The semiring ``S`` as its size, its ``add`` and ``mul`` tables
    row-major as bytes, its ``zero`` and its ``one``.  A structure whose
    elements do not fit in one byte each is refused."""
    fit_lanes(S)
    add, mul = (bytes(chain.from_iterable(T)) for T in (S.add, S.mul))
    return S.n, add, mul, S.zero, S.one


def _order(S) -> bytes:
    """The order of ``S`` row-major as bytes, byte ``x * n + y`` 1 if
    ``x <= y``, else 0; built on first use and kept."""
    n = S.n
    rows = "".join(f"{row:0{n}b}"[: -n - 1 : -1] for row in S.leq)
    found = vars(S)[_ORDER] = rows.encode().translate(_DIGITS)
    return found


def _source(S) -> tuple:
    """What a re-check reads of ``S`` as a source, built on first use and
    kept: its size and that of its tables, the ``BatchSides`` of its two
    operations and of the ``x`` and ``y`` of every pair of elements, its two
    constants, and the number of maps in a batch."""
    n, op1, op2, c0, c1 = _laws(S)
    sides = BatchSides(n, (op1, op2, *_pairs(n)))
    found = vars(S)[_SOURCE] = (n, n * n, sides, c0, c1, 256 // n)
    return found


def _target(S) -> tuple:
    """What a re-check reads of ``S`` as a target, built on first use and
    kept: its size, its two operations and ``<=`` (1 or 0) as row-major
    tables of at least 256 bytes (padded only up to 16 elements, where the
    pair codes are bytes and the tables ``translate`` tables), each
    constant as a byte 256 times, for each constant whether each element is
    below it, and the bytes below its size."""
    n, op1, op2, *constants = _laws(S)
    order = vars(S).get(_ORDER) or _order(S)
    codes = (flat.ljust(256, b"\0") for flat in (op1, op2, order))
    ends = (bytes((c,)) * 256 for c in constants)
    belows = tuple(tuple(map(bool, order[c::n])) for c in constants)
    found = vars(S)[_TARGET] = (n, *codes, *ends, belows, _BYTES[:n])
    return found


def law_columns(S, T, maps: Sequence, order: bool = False) -> list[list[bool]]:
    """The flag columns of ``maps``, value arrays from ``S`` into ``T``:
    one list per law, one flag per map, in order.

    With ``+``, ``*``, ``0`` and ``1`` each structure's two operations and
    constants, the first column is whether every equation of the next four
    holds: ``f(x + y) = f(x) + f(y)`` and ``f(x * y) = f(x) * f(y)`` for
    every pair, ``f(0) = 0`` and ``f(1) = 1``.  With ``order``, the same
    four with ``<=`` in place of ``=``, then monotonicity, follow; an
    inequality is only looked up where its equation fails, since T's order
    is reflexive.  Columns with the same flags may be one list, read-only.
    A value array that is not a map from S into T raises EndpointMismatch.
    With no maps, no table is read or built."""
    if not maps:
        return [[]] * (10 if order else 5)
    n, size, sides, c0, c1, step = vars(S).get(_SOURCE) or _source(S)
    m, codes1, codes2, le_codes, d0, d1, belows, valid = (
        vars(T).get(_TARGET) or _target(T)
    )
    batches = []
    for k in range(0, len(maps), step):
        batch = maps[k : k + step]
        try:
            values = b"".join(map(bytes, batch))
            sized = set(map(len, batch)) == {n}  # len refuses an int, which bytes takes
        except (TypeError, ValueError):
            sized = False
        if not sized or values.translate(None, valid):
            raise _refusal(S, T, batch)
        lane = values.ljust(256, b"\0")  # a translate table
        count = len(batch)
        op1, op2, xs, ys = sides[count]
        at = pair_codes(xs.translate(lane), ys.translate(lane), m)
        lefts = (op1.translate(lane), op2.translate(lane), values[c0::n], values[c1::n])
        rights = (at.translate(codes1), at.translate(codes2), d0[:count], d1[:count])
        flags = [[True] * count] * (9 if order else 5)
        if lefts != rights:
            every = None
            for law in compress(range(4), map(ne, lefts, rights)):
                left, right = lefts[law], rights[law]
                if law < 2:  # an operation: a slice of size bytes per map
                    equal = each_equal(left, right, size)
                    if order:
                        below = pair_codes(left, right, m).translate(le_codes)
                        flags[5 + law] = each_true(below, size)
                else:  # a constant: one byte per map
                    equal = list(map(eq, left, right))
                    if order:
                        flags[5 + law] = list(map(belows[law - 2].__getitem__, left))
                flags[1 + law] = equal
                every = equal if every is None else list(map(and_, every, equal))
            flags[0] = every
        if order:
            comparable = vars(S).get(_ORDER) or _order(S)
            flags.append(each_within(at.translate(le_codes), comparable * count, size))
        batches.append(flags)
    if len(batches) == 1:
        return batches[0]
    return [list(chain.from_iterable(column)) for column in zip(*batches)]
