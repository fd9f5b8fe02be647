"""The whole-row law kernels of ``osr.core`` against the triple loops they
replaced.

``associativity_rows`` and ``distributivity_rows`` compare one row ``x``
of a law at a time; ``_axiom_failures``, ``lattice_from_order`` and
``FiniteLattice.is_distributive`` read them, and ``lattice_from_order``
reads each join and meet from a table of up-sets and lower sets.  The
references below are those loops as they were written before: every
corruption must give the same violation list, the same tables, or the same
exception class and message.
"""

import random
from itertools import product
from pathlib import Path

import pytest

import osr
import osr.morphisms
import osr.osrfile
import osr.search
from osr.core import (
    FiniteLattice,
    RawSemiringDescription,
    _axiom_failures,
    associativity_rows,
    bits,
    distributivity_rows,
    lattice_from_order,
    lower_masks,
    validate,
)
from osr.errors import NotALattice, NotAQuantale, SizeLimit


# --- the reference loops ------------------------------------------------------


def axiom_failures_by_loops(A):
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
        assoc = next(
            (
                (lab[x], lab[y], lab[z])
                for x in range(n)
                for y in range(n)
                for z in range(n)
                if op[op[x][y]][z] != op[x][op[y][z]]
            ),
            None,
        )
        if assoc:
            yield (f"{opname}-associative", assoc)
        ident = next(((lab[x],) for x in range(n) if op[x][unit] != x), None)
        if ident:
            yield (f"{opname}-identity", ident)

    annih = next(((lab[x],) for x in range(n) if mul[x][zero] != zero), None)
    if annih:
        yield ("mul-annihilates", annih)

    dist = next(
        (
            (lab[x], lab[y], lab[z])
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
        ),
        None,
    )
    if dist:
        yield ("distributive", dist)

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


def lattice_by_loops(labels, leq, mul=None, unit=None, name=""):
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

    lower = lower_masks(leq)

    def least(candidates, what):
        for u in bits(candidates):
            if candidates & ~leq[u] == 0:
                return u
        raise NotALattice(f"no {what}")

    def greatest(candidates, what):
        for u in bits(candidates):
            if candidates & ~lower[u] == 0:
                return u
        raise NotALattice(f"no {what}")

    join_t = []
    meet_t = []
    for i in range(n):
        jrow = []
        mrow = []
        for j in range(n):
            jrow.append(least(leq[i] & leq[j], f"join of {labels[i]},{labels[j]}"))
            mrow.append(
                greatest(lower[i] & lower[j], f"meet of {labels[i]},{labels[j]}")
            )
        join_t.append(tuple(jrow))
        meet_t.append(tuple(mrow))
    join = tuple(join_t)
    meet = tuple(meet_t)
    bottom = least((1 << n) - 1, "bottom")
    top = greatest((1 << n) - 1, "top")

    if mul is not None:
        if unit is None:
            raise NotAQuantale("multiplication given without a unit")
        for x in range(n):
            if mul[x][unit] != x:
                raise NotAQuantale(f"unit law fails at {labels[x]}")
            if mul[x][bottom] != bottom:
                raise NotAQuantale(f"bottom not absorbing at {labels[x]}")
            for y in range(n):
                if mul[x][y] != mul[y][x]:
                    raise NotAQuantale(f"not commutative at {labels[x]},{labels[y]}")
                for z in range(n):
                    if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                        raise NotAQuantale("not associative")
                    if mul[x][join[y][z]] != join[mul[x][y]][mul[x][z]]:
                        raise NotAQuantale(
                            "multiplication does not distribute over join"
                        )

    return FiniteLattice(
        name=name or "lattice",
        labels=tuple(labels),
        leq=leq,
        join=join,
        meet=meet,
        bottom=bottom,
        top=top,
        mul=tuple(tuple(r) for r in mul) if mul is not None else None,
        unit=unit,
    )


def rows_by_loops(n, law):
    """Per row ``x``, the first ``y * n + z`` at which ``law(x, y, z)``
    fails, or None."""
    return [
        next((y * n + z for y in range(n) for z in range(n) if not law(x, y, z)), None)
        for x in range(n)
    ]


def outcome(build, *args):
    """What a build gives: the lattice, or the class and text it raised."""
    try:
        return build(*args)
    except (NotALattice, NotAQuantale) as exc:
        return (type(exc), str(exc))


# --- corruptions ----------------------------------------------------------------


def with_cell(table, i, j, v):
    rows = [list(r) for r in table]
    rows[i][j] = v
    return tuple(map(tuple, rows))


def single_cell_corruptions(table):
    n = len(table)
    for i, j, v in product(range(n), range(n), range(n)):
        if v != table[i][j]:
            yield with_cell(table, i, j, v)


def symmetric_corruptions(table):
    """Two mirrored cells set to one wrong value: the table stays
    commutative, so an associativity or distribution failure is the first
    to show."""
    n = len(table)
    for i, j, v in product(range(n), range(n), range(n)):
        if i < j and v != table[i][j]:
            yield with_cell(with_cell(table, i, j, v), j, i, v)


def small_semirings():
    return osr.builtin_family(4)


# --- the kernels row by row ------------------------------------------------------


def test_kernel_rows_match_the_loop_rows_under_every_single_cell_corruption():
    cases = [
        (add, mul)
        for A in small_semirings()
        for add, mul in (
            (A.add, A.mul),
            *((wrong, A.mul) for wrong in single_cell_corruptions(A.add)),
            *((A.add, wrong) for wrong in single_cell_corruptions(A.mul)),
        )
    ]
    assert len(cases) > 500
    for add, mul in cases:
        n = len(add)
        for op in (add, mul):
            want = rows_by_loops(
                n, lambda x, y, z: op[op[x][y]][z] == op[x][op[y][z]]
            )
            assert list(associativity_rows(op)) == want
        want = rows_by_loops(
            n, lambda x, y, z: mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
        )
        assert list(distributivity_rows(mul, add)) == want


# --- _axiom_failures --------------------------------------------------------------


def test_axiom_failures_match_the_loops_on_every_single_cell_corruption():
    failing = set()
    for A in small_semirings():
        for field in ("add", "mul"):
            table = getattr(A, field)
            wrongs = (*single_cell_corruptions(table), *symmetric_corruptions(table))
            for wrong in wrongs:
                B = A._replace(**{field: wrong})
                got = tuple(_axiom_failures(B))
                assert got == tuple(axiom_failures_by_loops(B)), (A.name, field)
                failing.update(name for name, _ in got)
    # the corruptions reach every cubic law, with a witness to compare
    assert {"add-associative", "mul-associative", "distributive"} <= failing


def test_axiom_failures_match_the_loops_on_every_single_order_change():
    # one pair added to or removed from the order, so most of these
    # relations are not preorders: the order and monotonicity checks must
    # read raw bits and still name the loops' first witness
    failing, preorders = set(), 0
    for A in small_semirings():
        for i, j in product(range(A.n), repeat=2):
            leq = list(A.leq)
            leq[i] ^= 1 << j
            B = A._replace(leq=tuple(leq))
            got = tuple(_axiom_failures(B))
            assert got == tuple(axiom_failures_by_loops(B)), (A.name, i, j)
            failing.update(name for name, _ in got)
            preorders += not {"le-reflexive", "le-transitive"} & {name for name, _ in got}
    assert {"le-reflexive", "le-transitive", "add-monotone", "mul-monotone"} <= failing
    assert preorders > 0


@pytest.mark.parametrize("n", [5, 6])
def test_axiom_failures_match_the_loops_on_random_corruptions(n):
    rng = random.Random(2100 + n)
    family = [A for A in osr.builtin_family(6) if A.n == n]
    assert family
    for _ in range(300):
        A = rng.choice(family)
        tables = {f: [list(r) for r in getattr(A, f)] for f in ("add", "mul")}
        for _ in range(rng.randint(1, 3)):
            field = rng.choice(("add", "mul"))
            i, j = rng.randrange(n), rng.randrange(n)
            v = rng.randrange(n)
            tables[field][i][j] = v
            if rng.random() < 0.5:  # keep it commutative
                tables[field][j][i] = v
        B = A._replace(**{f: tuple(map(tuple, t)) for f, t in tables.items()})
        assert tuple(_axiom_failures(B)) == tuple(axiom_failures_by_loops(B))


def test_validate_reports_the_loop_witnesses():
    # a semiring whose only fault is one product: the AxiomViolation lists
    # what the loops list, witnesses included
    A = osr.build_truncated_naturals(4)
    lab = A.labels
    mul = with_cell(with_cell(A.mul, 2, 3, 3), 3, 2, 3)
    desc = A.describe()._replace(
        mul_table=tuple(tuple(lab[v] for v in row) for row in mul)
    )
    with pytest.raises(osr.AxiomViolation) as err:
        validate(desc)
    assert err.value.violations == tuple(
        axiom_failures_by_loops(A._replace(mul=mul))
    )


# --- lattice_from_order -----------------------------------------------------------


def relations(n, reflexive_only):
    """Every relation on ``n`` points as bitmask rows (only the reflexive
    ones if asked)."""
    cells = [
        (i, j) for i in range(n) for j in range(n) if not (reflexive_only and i == j)
    ]
    for choice in range(1 << len(cells)):
        rows = [1 << i if reflexive_only else 0 for i in range(n)]
        for k, (i, j) in enumerate(cells):
            if choice >> k & 1:
                rows[i] |= 1 << j
        yield tuple(rows)


def small_relations():
    for n in range(4):
        yield from relations(n, reflexive_only=False)
    yield from relations(4, reflexive_only=True)


def test_lattice_from_order_matches_the_loops_on_every_small_relation():
    lattices = []
    for leq in small_relations():
        labels = tuple("abcd"[: len(leq)])
        got = outcome(lattice_from_order, labels, leq)
        assert got == outcome(lattice_by_loops, labels, leq), leq
        if isinstance(got, FiniteLattice):
            lattices.append(got)
    # labelled lattices: 1 + 2 + 6 chains on 1 to 3 points; on 4 points 24
    # chains and 12 squares
    assert len(lattices) == 45


def test_lattice_from_order_quantale_checks_match_the_loops():
    raised = set()
    for leq in small_relations():
        labels = tuple("abcd"[: len(leq)])
        L = outcome(lattice_by_loops, labels, leq)
        if not isinstance(L, FiniteLattice):
            continue
        muls = (
            L.meet,
            *single_cell_corruptions(L.meet),
            *symmetric_corruptions(L.meet),
        )
        cases = [(m, L.top) for m in muls] + [(L.meet, u) for u in range(L.n)]
        for mul, unit in cases:
            got = outcome(lattice_from_order, labels, leq, mul, unit)
            assert got == outcome(lattice_by_loops, labels, leq, mul, unit)
            if not isinstance(got, FiniteLattice):
                raised.add(got[1].split(" at ")[0])
        assert outcome(lattice_from_order, labels, leq, L.meet) == (
            NotAQuantale,
            "multiplication given without a unit",
        )
    assert raised == {
        "unit law fails",
        "bottom not absorbing",
        "not commutative",
        "not associative",
        "multiplication does not distribute over join",
    }
    # an entry outside the lattice, in a row after one whose bottom law
    # fails: that failure is raised first, as the loops raise it
    args = ("ab", (0b11, 0b10), ((1, 0), (0, 5)), 1)
    assert outcome(lattice_from_order, *args) == outcome(lattice_by_loops, *args)
    assert outcome(lattice_from_order, *args)[1] == "bottom not absorbing at a"


def test_lattice_from_order_refuses_a_product_outside_the_lattice():
    # the 3-chain a < b < c with meet as its multiplication and c as unit
    L = lattice_from_order("abc", (0b111, 0b110, 0b100))
    cases = {
        ((0, 1, 2), (2, 2, 7)): "multiplication leaves the lattice at c,c",
        ((1, 1, 9),): "multiplication leaves the lattice at b,b",
        ((1, 1, -1),): "multiplication leaves the lattice at b,b",
    }
    for cells, message in cases.items():
        mul = L.meet
        for i, j, v in cells:
            mul = with_cell(mul, i, j, v)
        assert outcome(lattice_from_order, L.labels, L.leq, mul, L.top) == (
            NotAQuantale,
            message,
        )
    misfits = [(L.meet, 3), (L.meet, -1), (L.meet[:2], 2), (L.meet[:2] + ((0, 1),), 2)]
    for mul, unit in misfits:
        assert outcome(lattice_from_order, L.labels, L.leq, mul, unit) == (
            NotAQuantale,
            "multiplication table or unit does not fit the lattice",
        )


def test_lattice_from_order_names_the_missing_bound():
    # two minimal elements under a top, or two maximal elements over a
    # bottom: the loops and the lookups name the same first missing bound
    for leq in ((0b101, 0b110, 0b100), (0b011, 0b010, 0b110), (0b111, 0b010, 0b100)):
        assert outcome(lattice_from_order, "abc", leq) == outcome(
            lattice_by_loops, "abc", leq
        )
    assert outcome(lattice_from_order, (), ()) == (NotALattice, "no bottom")


# --- is_distributive --------------------------------------------------------------


def lattice(points, covers):
    n = len(points)
    rows = [1 << i for i in range(n)]
    for low, high in covers:
        rows[points.index(low)] |= 1 << points.index(high)
    return lattice_from_order(points, osr.core.transitive_closure(rows, n))


def test_is_distributive_is_false_on_m3_and_n5():
    m3 = lattice("0abc1", [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"),
                           ("b", "1"), ("c", "1")])
    n5 = lattice("0abc1", [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"),
                           ("c", "1")])
    for L in (m3, n5):
        assert L.n == 5
        assert not L.is_distributive
    cube = lattice(
        "0abcdef1",
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("b", "d"),
         ("a", "e"), ("c", "e"), ("b", "f"), ("c", "f"), ("d", "1"),
         ("e", "1"), ("f", "1")],
    )
    assert cube.is_distributive


def test_is_distributive_matches_the_loops_on_every_small_lattice():
    for leq in small_relations():
        L = outcome(lattice_by_loops, tuple("abcd"[: len(leq)]), leq)
        if isinstance(L, FiniteLattice):
            meet, join, n = L.meet, L.join, L.n
            want = all(
                meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
            )
            assert L.is_distributive == want


# --- no size limit ----------------------------------------------------------------


def square_zero_description(nilpotents=8):
    """0 < a1 < ... < ak < 1 (k nilpotents) with max as sum, every product
    of two a's zero, 1 the unit and the discrete order: its ideals are {0}
    with any set of a's, and the whole carrier -- 2^k + 1 of them."""
    k = nilpotents
    lab = ("0", *(f"a{i}" for i in range(1, k + 1)), "1")

    def mul(i, j):
        return j if i == k + 1 else i if j == k + 1 else 0

    def table(op):
        return tuple(tuple(lab[op(i, j)] for j in range(k + 2)) for i in range(k + 2))

    return RawSemiringDescription(
        name=f"sqzero{k}",
        elements=lab,
        le="discrete",
        zero="0",
        one="1",
        add_table=table(max),
        mul_table=table(mul),
    )


def square_zero_maxplus(nilpotents=8):
    """``square_zero_description``, validated: with 8 nilpotents, 10
    elements and 257 ideals."""
    return validate(square_zero_description(nilpotents))


def test_the_sqzero8_file_is_the_test_builder_rendered():
    # the CI step that runs osr on the file pins README's limit sentence
    path = Path(__file__).parent / "data" / "sqzero8.osr"
    assert path.read_text() == osr.osrfile.render(square_zero_description())
    assert osr.osrfile.parse_file(str(path)) == square_zero_description()


def test_the_sqzero7_file_is_the_test_builder_rendered():
    # the largest quantale of this family the byte lanes serve: 129 ideals;
    # the CI step that runs osr check on the file pins its report
    path = Path(__file__).parent / "data" / "sqzero7.osr"
    assert path.read_text() == osr.osrfile.render(square_zero_description(7))
    assert osr.osrfile.parse_file(str(path)) == square_zero_description(7)


def test_a_quantale_of_129_ideals_is_searched_as_its_semiring():
    # far above the validator's 24-element cap: the semiring of Idl(sqzero7)
    # is a view on its tables, so maps are classified into it and searched
    # out of it; finite fullness holds there as on the desk-scale family
    A = square_zero_maxplus(7)
    f = osr.canonical_embedding(A)
    L = osr.enumerate_ideals(A).lattice
    assert L.n == 129 and f.target == L.semiring and f.is_subadditive_morphism
    for Q, count in (
        (osr.chain_frame(2), 1),
        (osr.chain_frame(3), 1),
        (osr.nilpotent_chain_quantale(), 128),
    ):
        homs = osr.enumerate_quantale_homs(L, Q)
        found = osr.enumerate_subadditive(L.semiring, Q.semiring, True)
        assert [g.values for g in found] == homs and len(homs) == count, Q.name


@pytest.fixture(scope="module")
def ideals_257():
    return osr.enumerate_ideals(square_zero_maxplus())


def test_a_quantale_of_257_ideals_builds(ideals_257):
    iq = ideals_257
    assert len(iq) == iq.lattice.n == 257
    assert iq.lattice.top == 256 and iq.lattice.mul[256][256] == 256


def test_the_leaf_check_refuses_a_quantale_of_257_ideals(ideals_257):
    # the README's limit: the re-check's byte lanes hold 256 elements, so a
    # 10-element input whose ideal quantale has 257 is refused by check,
    # within the validator's 24-element cap
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_quantale_homs(ideals_257.lattice, osr.chain_frame(2))
    assert str(exc.value) == (
        "leaf check: ideals(sqzero8) has 257 elements; byte lanes hold 256"
    )


def test_searches_refuse_257_elements_before_they_are_bound(ideals_257, monkeypatch):
    # the re-check could not read the maps, so no search is bound or walked;
    # the recorder emits no map: a search that would find none is refused too
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(osr.search, "forward_search", recorder)
    monkeypatch.setattr(osr.morphisms, "forward_search", recorder)
    L, two, chain2 = ideals_257.lattice, osr.two(), osr.chain_frame(2)
    # the semiring of the quantale, unvalidated: validate caps carriers at 24
    S = osr.FiniteOrderedSemiring(
        f"osr({L.name})", L.labels, L.leq, L.bottom, L.unit, L.join, L.mul
    )
    for search, name in (
        (lambda: osr.enumerate_quantale_homs(L, chain2), L.name),
        (lambda: osr.enumerate_quantale_homs(chain2, L), L.name),
        (lambda: osr.enumerate_subadditive(S, two), S.name),
        (lambda: osr.enumerate_sub_submul(two, S), S.name),
    ):
        with pytest.raises(SizeLimit) as exc:
            search()
        assert str(exc.value) == (
            f"leaf check: {name} has 257 elements; byte lanes hold 256"
        )
    assert calls == []
    for big in (L, S):
        assert not {"search_source", "search_target"} & set(vars(big))
