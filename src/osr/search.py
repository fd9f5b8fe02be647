"""One backtracking engine for "every map satisfying these laws".

A map ``f`` from ``0..n-1`` into a finite poset ``0..m-1`` is searched one
variable at a time, in index order, with values tried in ascending order,
so solutions come out in lexicographic order.  Every constraint is indexed
by the highest variable it mentions and tested as soon as that variable is
assigned (Haralick & Elliott 1980, *Increasing tree search efficiency for
constraint satisfaction problems*):

- a pin ``f(v) = c`` or ``f(v) <= c``;
- an order pair ``i <= j`` of the source, asking ``f(i) <= f(j)``;
- a table law ``f(S[x][y]) R T[f(x)][f(y)]`` for all ``x, y``, with ``R``
  either ``=`` or ``<=``.

A constraint whose highest variable only appears on one side narrows that
variable's domain to a bitmask before any value is tried; the others are
tested per value.  Morphism search (``morphisms``) and quantale-hom search
(``homs``) both run on this engine.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import Table, bits, lower_masks
from .errors import SizeLimit

NODE_BUDGET = 1 << 20  # values tried per search, over all variables

Pin = tuple[int, int, bool]  # variable, value, True for f(v) = value else <=
Law = tuple[Table, Table, bool]  # S, T, True for "=" else "<="


def forward_search(
    n: int,
    m: int,
    target_leq: Sequence[int],
    pins: Sequence[Pin],
    order: Sequence[int],
    laws: Sequence[Law],
    leaf: Callable[[tuple[int, ...]], None],
    *,
    layer: str,
) -> None:
    """Call ``leaf`` on every value array satisfying all constraints.

    ``target_leq`` and ``order`` are the target and source orders as bitmask
    rows (bit ``j`` of row ``i`` set iff ``i <= j``).  Raises SizeLimit
    naming ``layer`` once more than ``NODE_BUDGET`` nodes (values tried)
    are needed.
    """
    budget = NODE_BUDGET
    below = lower_masks(target_leq)
    domain = [(1 << m) - 1] * n
    for var, value, equal in pins:
        domain[var] &= (1 << value) if equal else below[value]
    ups: list[list[int]] = [[] for _ in range(n)]  # i < k, i <= k: f(k) >= f(i)
    downs: list[list[int]] = [[] for _ in range(n)]  # i < k, k <= i: f(k) <= f(i)
    for i in range(n):
        for j in bits(order[i]):
            if i < j:
                ups[j].append(i)
            elif j < i:
                downs[i].append(j)
    # s above x and y: f(s) is narrowed to a mask; otherwise tested per value
    narrow: list[list[tuple]] = [[] for _ in range(n)]
    tests: list[list[tuple]] = [[] for _ in range(n)]
    for S, T, equal in laws:
        symmetric = all(T[a][b] == T[b][a] for a in range(m) for b in range(a))
        for x in range(n):
            for y in range(n):
                s = S[x][y]
                if symmetric and y < x and S[y][x] == s:
                    continue  # the same constraint as (y, x)
                if s > x and s > y:
                    narrow[s].append((x, y, T, equal))
                else:
                    tests[max(x, y)].append((x, y, s, T, equal))

    values = [0] * n
    nodes = 0

    def assign(k: int) -> None:
        nonlocal nodes
        if k == n:
            leaf(tuple(values))
            return
        mask = domain[k]
        for i in ups[k]:
            mask &= target_leq[values[i]]
        for i in downs[k]:
            mask &= below[values[i]]
        for x, y, T, equal in narrow[k]:
            t = T[values[x]][values[y]]
            mask &= (1 << t) if equal else below[t]
        checks = tests[k]
        while mask:
            low = mask & -mask
            mask ^= low
            nodes += 1
            if nodes > budget:
                raise SizeLimit(
                    f"{layer}: node budget of {budget} exhausted "
                    f"({nodes} nodes visited)"
                )
            values[k] = low.bit_length() - 1
            for x, y, s, T, equal in checks:
                t = T[values[x]][values[y]]
                fs = values[s]
                if (fs != t) if equal else not target_leq[fs] >> t & 1:
                    break
            else:
                assign(k + 1)

    assign(0)
