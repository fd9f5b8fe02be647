"""One backtracking engine for "every map satisfying these laws".

A map ``f`` from ``0..n-1`` into a finite poset ``0..m-1`` is searched one
variable at a time, in index order, with values tried in ascending order,
so solutions come out in lexicographic order.  The constraints are

- a pin ``f(v) = c`` or ``f(v) <= c``;
- an order pair ``i <= j`` of the source, asking ``f(i) <= f(j)``;
- a table law ``f(S[x][y]) R T[f(x)][f(y)]`` for all ``x <= y``, ``S`` and
  ``T`` being commutative, with ``R`` either ``=`` or ``<=``.

Every constraint is indexed by the highest variable it mentions (Haralick &
Elliott 1980, *Increasing tree search efficiency for constraint satisfaction
problems*) and narrows that variable's domain before any value is tried,
with one lookup in a support table (Mackworth 1977, *Consistency in networks
of relations*): the bitmask of the values the constraint allows, indexed by
the values of its earlier variables.  A constraint on one variable alone is
folded into its domain once.  So every value tried already satisfies every
constraint whose variables all have values; nothing is tested per value.

Support tables depend on the target alone.  A ``SearchTarget`` builds each
on first use, from the target semiring's order and operation tables, and
lives as long as the semiring (its ``search_target``).  Morphism search
(``morphisms``) and quantale-hom search (``homs``) both search between
semirings, a quantale as its semiring (``FiniteLattice.semiring``, a view
on its tables), so each target order has one set of tables.  Equal
tables are one object, so equal constraints on the same variables are
applied once, and a table that allows every value is dropped.

The constraints depend on the source alone, up to the tables they look up.
A ``SearchSource`` holds the source's order pairs and, for each of its law
tables, every instance with its shape, grouped by shape; it lives as long
as the source semiring (its ``search_source``).

A search binds its constraints in one pass: it looks up one support table
per shape and posts each group of instances straight into the per-variable
lists of the variables they narrow, merging equal constraints on the same
variables.  Its walk is a loop over one mask of untried values per
variable, not a recursion: its depth is the number of variables, whatever
the interpreter's recursion limit, and since no closure refers to itself,
a search leaves no reference cycle for the cyclic garbage collector.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional, Sequence, Union

from .core import Table, bits, lower_masks
from .errors import SizeLimit

NODE_BUDGET = 1 << 20  # values that pass every constraint, per search

Pin = tuple[int, int, bool]  # variable, value, True for f(v) = value else <=
Law = tuple[Table, Table, bool]  # S, T, True for "=" else "<="

# The shape of one instance f(s) R T[f(x)][f(y)] of a law: for each of s, x
# and y, NEW when it is the variable being narrowed (the highest of the
# three), else the slot of its value in the support table's index, the
# earlier variables taking slots in ascending order.
NEW = -1
FIXED = (NEW, NEW, NEW)  # s = x = y: the table is a mask, folded into the domain
Shape = tuple[int, int, int]
Support = Union[int, tuple]  # a mask, or masks indexed by one or two values


def _shape(s: int, x: int, y: int) -> tuple[Shape, tuple[int, ...]]:
    """Shape of the instance ``f(s) R T[f(x)][f(y)]``, where ``x <= y``, and
    the instance as its narrowed variable followed by its indexing
    variables."""
    if x == y:
        if s > x:
            return (NEW, 0, 0), (s, x)
        if s == x:
            return FIXED, (x,)
        return (0, NEW, NEW), (x, s)
    if s > y:
        return (NEW, 0, 1), (s, x, y)
    if s == y:
        return (NEW, 0, NEW), (y, x)
    if s > x:
        return (1, 0, NEW), (y, x, s)
    if s == x:
        return (0, 0, NEW), (y, x)
    return (0, 1, NEW), (y, s, x)


class SearchSource(dict):
    """The source side of every search out of one poset: its order pairs
    and, for each law table ``S`` (a key, grouped on first lookup), the
    instances ``f(S[x][y]) R T[f(x)][f(y)]`` for all ``x <= y``, each as
    its narrowed variable followed by its indexing variables, grouped by
    shape.

    ``ups`` holds each order pair ``i <= j`` with ``i < j`` as ``(j, i)``,
    narrowing ``f(j)`` to the values above ``f(i)``; ``downs`` each one
    with ``j < i`` as ``(i, j)``, narrowing ``f(i)`` to those below
    ``f(j)``.
    """

    def __init__(self, order: Sequence[int]) -> None:
        super().__init__()
        self.n = len(order)
        pairs = [(i, j) for i in range(self.n) for j in bits(order[i]) if i != j]
        self.ups = tuple((j, i) for i, j in pairs if i < j)
        self.downs = tuple((i, j) for i, j in pairs if j < i)

    def __missing__(self, S: Table) -> dict[Shape, list]:
        groups: dict[Shape, list] = {}
        for x in range(self.n):
            row = S[x]
            for y in range(x, self.n):
                shape, instance = _shape(row[y], x, y)
                groups.setdefault(shape, []).append(instance)
        self[S] = groups
        return groups


class _LawSupports(dict):
    """The support tables of one law into one target, by shape, each built
    on first lookup."""

    def __init__(self, target: SearchTarget, T: Table, equal: bool) -> None:
        super().__init__()
        self.target, self.T, self.equal = target, T, equal

    def __missing__(self, shape: Shape) -> Optional[Support]:
        table = self[shape] = self.target._build(self.T, self.equal, shape)
        return table


class SearchTarget:
    """The support tables of a target poset, each built once, on first use.

    ``up[a]`` and ``down[a]`` are the values above and below ``a``; they are
    the support tables of the order pairs, None where they allow every value.
    """

    def __init__(self, leq: Sequence[int]) -> None:
        self.m = len(leq)
        self.full = (1 << self.m) - 1
        self.leq = tuple(leq)
        self.below = lower_masks(self.leq)
        self._tables: dict[tuple, tuple] = {}
        self._laws: dict[tuple[Table, bool], _LawSupports] = {}
        self.up = self._keep(self.leq)
        self.down = self._keep(self.below)

    def supports(self, T: Table, equal: bool) -> _LawSupports:
        """The support tables of the law ``f(S[x][y]) R T[f(x)][f(y)]``
        (``R`` is ``=`` when ``equal``, else ``<=``), by shape."""
        tables = self._laws.get((T, equal))
        if tables is None:
            tables = self._laws[T, equal] = _LawSupports(self, T, equal)
        return tables

    def _keep(self, table: tuple) -> Optional[tuple]:
        """``table``, or the equal table kept earlier; None when every entry
        allows every value."""
        masks = table if isinstance(table[0], int) else sum(table, ())
        if all(mask == self.full for mask in masks):
            return None
        return self._tables.setdefault(table, table)

    def _build(self, T: Table, equal: bool, shape: Shape) -> Optional[Support]:
        """The masks of the values ``v`` of the narrowed variable with
        ``f(s) R T[f(x)][f(y)]``, where ``shape`` places ``v`` and the
        indexing values among ``s``, ``x`` and ``y``."""
        m, leq = self.m, self.leq

        def allowed(*index: int) -> int:
            mask = 0
            for v in range(m):
                u, a, b = (v if slot == NEW else index[slot] for slot in shape)
                t = T[a][b]
                if (u == t) if equal else leq[u] >> t & 1:
                    mask |= 1 << v
            return mask

        arity = max(shape) + 1
        if arity == 0:
            return allowed()
        if arity == 1:
            return self._keep(tuple(map(allowed, range(m))))
        return self._keep(
            tuple(tuple(allowed(a, b) for b in range(m)) for a in range(m))
        )


def forward_search(
    source: SearchSource,
    target: SearchTarget,
    pins: Sequence[Pin],
    laws: Sequence[Law],
    leaf: Callable[[tuple[int, ...]], None],
    *,
    layer: str,
) -> None:
    """Call ``leaf`` on every value array satisfying all constraints, in
    lexicographic order; the callers pass ``list.append`` and re-check the
    whole list at once (``morphisms.checked_search``).

    The source order and the tables ``S`` of ``laws`` are ``source``'s, the
    target order and the tables ``T`` are ``target``'s.  Raises SizeLimit
    naming ``layer`` once more than ``NODE_BUDGET`` nodes (values that pass
    every constraint) are needed.

    Binding is one pass: pins and single-variable tables narrow the
    domains, and every other constraint is posted straight into the list
    of its narrowed variable, once per (variable, table, indexing
    variables), so that equal constraints merge.  The walk is a loop over
    one mask of untried values per variable, not a recursion, so its depth
    is not bounded by the interpreter's stack, and no closure refers to
    itself: a search leaves no reference cycle behind.  ``leaf`` is called
    once with ``()`` when the source is empty.

    A table that is not commutative can only lose constraints: every
    solution is still found, and each extra leaf fails the callers'
    exhaustive re-check of every leaf (``classify``, ``is_quantale_hom``)
    as InternalMismatch.
    """
    n, budget = source.n, NODE_BUDGET
    domain = [target.full] * n
    for var, value, equal in pins:
        domain[var] &= (1 << value) if equal else target.below[value]
    # by table id, the table and the instance groups that look it up; equal
    # tables are one object, so equal constraints are posted once
    posts: dict[int, list] = {}
    for table, instances in ((target.up, source.ups), (target.down, source.downs)):
        if table is not None:
            posts.setdefault(id(table), [table]).append(instances)
    for S, T, equal in laws:
        tables = target.supports(T, equal)
        for shape, instances in source[S].items():
            table = tables[shape]
            if shape == FIXED:
                for (k,) in instances:
                    domain[k] &= table
            elif table is not None:
                posts.setdefault(id(table), [table]).append(instances)
    unary: list[list] = [[] for _ in range(n)]
    binary: list[list] = [[] for _ in range(n)]
    for table, *groups in posts.values():
        # no group repeats an instance, so only a shared table merges
        merged = groups[0] if len(groups) == 1 else dict.fromkeys(chain(*groups))
        if isinstance(table[0], int):
            for k, p in merged:
                unary[k].append((table, p))
        else:
            for k, p, q in merged:
                binary[k].append((table, p, q))
    if n == 0:
        leaf(())
        return

    # untried[k] holds the values of variable k not yet tried under the
    # values of the variables before it; ``mask`` is untried[k] while k is
    # the variable being assigned
    values, untried = [0] * n, [0] * n
    nodes, k, last, mask = 0, 0, n - 1, domain[0]
    while True:
        if mask:
            low = mask & -mask
            mask ^= low
            nodes += 1
            if nodes > budget:
                raise SizeLimit(
                    f"{layer}: node budget of {budget} exhausted "
                    f"({nodes} nodes visited)"
                )
            values[k] = low.bit_length() - 1
            if k == last:
                leaf(tuple(values))
                continue
            untried[k] = mask
            k += 1
            mask = domain[k]
            for table, p in unary[k]:
                mask &= table[values[p]]
            for table, p, q in binary[k]:
                mask &= table[values[p]][values[q]]
        elif k:
            k -= 1
            mask = untried[k]
        else:
            return
