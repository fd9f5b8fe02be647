"""The quantale-hom enumeration against raw function search, and the
universal-property check that both adjunctions and the reflection share."""

import random
from itertools import product

import pytest

import osr
import osr.homs
import osr.ideals
import osr.recheck
from osr.errors import (
    EndpointMismatch,
    InternalMismatch,
    NotAQuantale,
    PresentationViolation,
    UniversalityFailure,
)
from osr.homs import enumerate_quantale_homs, is_quantale_hom, join_extension
from osr.ideals import enumerate_ideals
from osr.morphisms import enumerate_subadditive
from osr.radicals import small_distributive_lattices
from osr.report import CHECK_NAMES, quantale_targets, run_checks

from .test_preorders import glued_truncnat3, indiscrete_z2


def all_homs_bruteforce(L, Q):
    maps = list(product(range(Q.n), repeat=L.n))
    return [values for values, ok in zip(maps, is_quantale_hom(L, Q, maps)) if ok]


def quantale_hom_by_pair_walk(L, Q, values):
    """``is_quantale_hom`` as a loop over every pair of elements of L."""
    return (
        values[L.bottom] == Q.bottom
        and values[L.unit] == Q.unit
        and all(
            values[L.join[i][j]] == Q.join[values[i]][values[j]]
            and values[L.mul[i][j]] == Q.mul[values[i]][values[j]]
            for i in range(L.n)
            for j in range(L.n)
        )
    )


def small_lattices():
    yield osr.chain_frame(1)
    yield osr.chain_frame(2)
    yield osr.chain_frame(3)
    yield osr.chain_frame(6)
    yield osr.diamond_frame()
    yield osr.nilpotent_chain_quantale()
    yield enumerate_ideals(osr.build_zmod(4)).lattice
    yield enumerate_ideals(osr.build_zmod(6)).lattice
    yield enumerate_ideals(osr.build_chain_lattice(9)).lattice
    yield osr.enumerate_radical_ideals(osr.build_boolean_ring(2)).lattice
    yield osr.downset_frame(3, [(0, 1)], name="grid2x3")


def test_hom_enumeration_matches_raw_search():
    sources = list(small_lattices())
    targets = [
        osr.chain_frame(2),
        osr.chain_frame(3),
        osr.diamond_frame(),
        osr.nilpotent_chain_quantale(),
    ]
    for L in sources:
        for Q in targets:
            got = enumerate_quantale_homs(L, Q)
            assert got == all_homs_bruteforce(L, Q), (L.name, Q.name)


def test_covers_match_direct_definition():
    for L in small_lattices():
        direct = []
        for i in range(L.n):
            for j in range(L.n):
                if i == j or not L.le(i, j):
                    continue
                if not any(
                    k not in (i, j) and L.le(i, k) and L.le(k, j)
                    for k in range(L.n)
                ):
                    direct.append((i, j))
        assert sorted(L.covers) == sorted(direct), L.name


def test_join_irreducibles_match_direct_definition():
    for L in small_lattices():
        direct = [
            j
            for j in range(L.n)
            if j != L.bottom
            and all(
                L.join[a][b] != j
                for a in range(L.n)
                for b in range(L.n)
                if a != j and b != j
            )
        ]
        assert sorted(L.join_irreducibles) == direct, L.name


def test_meet_primes_match_direct_definition():
    for L in small_lattices():
        direct = [
            m
            for m in range(L.n)
            if m != L.top
            and all(
                L.le(a, m) or L.le(b, m)
                for a in range(L.n)
                for b in range(L.n)
                if L.le(L.meet[a][b], m)
            )
        ]
        assert sorted(L.meet_primes) == direct, L.name


def test_universality_failure_path_is_shared(monkeypatch):
    # one hom short: both adjunctions and the reflection run the same check
    original = osr.homs.enumerate_quantale_homs
    monkeypatch.setattr(
        osr.homs, "enumerate_quantale_homs", lambda L, Q: original(L, Q)[:-1]
    )
    A = osr.build_zmod(6)
    with pytest.raises(UniversalityFailure):
        osr.check_quantale_universality(A, osr.chain_frame(2))
    with pytest.raises(UniversalityFailure):
        osr.check_frame_universality(A, osr.chain_frame(2))
    with pytest.raises(PresentationViolation):
        osr.distributive_reflection(A)

    report = run_checks(A)
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    assert {v.check for v in report.verdicts if not v.passed} == {
        "idl-universality",
        "rad-universality",
        "coherence-iso",
        "dlat-presentation",
    }

    monkeypatch.setattr(osr.ideals, "is_quantale_hom", lambda L, Q, maps: [False] * len(maps))
    Q = osr.chain_frame(2)
    f = osr.classify(A, osr.build_from_quantale(Q), [(0, 1, 0, 1, 0, 1)])[0]
    with pytest.raises(InternalMismatch):
        osr.extend_to_quantale_hom(f, Q, osr.enumerate_ideals(A))


def test_is_quantale_hom_matches_the_pair_walk_on_every_map():
    lattices = (*small_distributive_lattices(), *quantale_targets())
    for L in lattices:
        for Q in quantale_targets():
            for a, b in ((L, Q), (Q, L)):
                maps = list(product(range(b.n), repeat=a.n))
                want = [quantale_hom_by_pair_walk(a, b, values) for values in maps]
                assert is_quantale_hom(a, b, maps) == want, (a.name, b.name)


def test_is_quantale_hom_sees_one_wrong_table_entry():
    # the identity, checked against a copy of its source with one entry of
    # the join or product table changed, fails at that entry only
    for Q in (*quantale_targets(), *small_distributive_lattices()):
        ident = tuple(range(Q.n))
        assert is_quantale_hom(Q, Q, [ident]) == [True]
        if Q.n == 1:
            continue  # no other value to put in the one entry
        pairs = [(i, j) for i in range(Q.n) for j in range(Q.n)]
        assert pairs[-1] == (Q.n - 1, Q.n - 1)
        for field in ("join", "mul"):
            for i, j in pairs:
                table = [list(row) for row in getattr(Q, field)]
                table[i][j] = (table[i][j] + 1) % Q.n
                wrong = Q._replace(**{field: tuple(map(tuple, table))})
                assert not quantale_hom_by_pair_walk(wrong, Q, ident)
                assert is_quantale_hom(wrong, Q, [ident]) == [False], (Q.name, field, i, j)


def test_join_extension_matches_the_member_fold():
    # the fold over every member, from bottom, is the reference; on zmod:12
    # (discrete) and the two preorders some ideals have several maximal
    # members, whose images the extension joins into the first one's
    for A, several in (
        (osr.build_chain_lattice(9), False),
        (osr.build_zmod(12), True),
        (indiscrete_z2(), True),
        (glued_truncnat3(), True),
    ):
        checked = 0
        for L in (enumerate_ideals(A), osr.enumerate_radical_ideals(A)):
            for target in small_distributive_lattices():
                for f in enumerate_subadditive(A, target.semiring):
                    fold = tuple(
                        target.join_of(f.values[x] for x in I.members)
                        for I in L.ideals
                    )
                    assert join_extension(L, target, f.values) == fold
                    checked += 1
        assert checked > 0
        assert bool(enumerate_ideals(A).member_gathers[1]) == several, A.name


def test_is_quantale_hom_matches_the_pair_walk_on_the_ideals_of_chain24():
    # Idl(chain:24) is a 24-element chain whose product is its meet, so a
    # sorted map that keeps bottom and top is a hom and a shuffled one is
    # not; as a target its pair codes are ints, each looked up in the
    # row-major table.  Batches of 1 to 300 maps mix homs with maps that
    # fail one law, or bottom or unit
    L = enumerate_ideals(osr.build_chain_lattice(24)).lattice
    assert L.n == 24 and L.leq == tuple(-1 << i & (1 << 24) - 1 for i in range(24))
    rng = random.Random(17)
    outcomes = []
    for Q in (L, osr.chain_frame(3), osr.diamond_frame(), L, L):
        maps = []
        for _ in range(rng.randint(1, 300)):
            values = sorted(rng.randrange(Q.n) for _ in range(L.n))
            values[L.bottom], values[L.unit] = Q.bottom, Q.unit
            if rng.random() < 0.5:
                i, j = rng.sample(range(1, L.n - 1), 2)
                values[i], values[j] = values[j], values[i]
            elif rng.random() < 0.1:
                values[rng.choice((L.bottom, L.unit))] = rng.randrange(Q.n)
            maps.append(values)
        want = [quantale_hom_by_pair_walk(L, Q, values) for values in maps]
        assert is_quantale_hom(L, Q, maps) == want, Q.name
        outcomes += want
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


@pytest.mark.parametrize("values", [(0, -1, 2), (0, 1, 2, 2), (0, 1), (0, 1, 2.0), 3])
def test_is_quantale_hom_rejects_a_value_array_that_is_not_a_map(values):
    # the maps are re-checked between the lattices' semirings
    L, refusal = osr.chain_frame(3), r"does not map osr\(chain3\) into osr\(chain3\)"
    with pytest.raises(EndpointMismatch, match=refusal):
        is_quantale_hom(L, L, [values])
    with pytest.raises(EndpointMismatch, match=refusal):
        is_quantale_hom(L, L, [(0, 1, 2), values])


@pytest.mark.parametrize("maps", [[(1, 1, 2)], [(0, 1, 2)], [], [(0, 1, 7)]])
def test_is_quantale_hom_refuses_a_lattice_without_a_multiplication(maps):
    # whatever the maps: bottom is not tested first
    L = osr.chain_frame(3)
    bare = L._replace(mul=None, unit=None)
    for a, b in ((bare, L), (L, bare), (bare, bare)):
        with pytest.raises(NotAQuantale, match="chain3 carries no multiplication"):
            is_quantale_hom(a, b, maps)


def test_subadditive_morphisms_between_finite_quantales_are_the_homs():
    # finite fullness: at finite scale a subadditive morphism between
    # integral quantales is a quantale homomorphism (monotone and
    # subadditive preserve binary joins, and f(bottom) <= bottom is
    # f(bottom) = bottom), so the two searches agree; the paper's
    # non-fullness rests on infinite joins.  Idl and Rad of every instance
    # of builtin_family(8), into the six stock targets, both zero variants
    targets = (*small_distributive_lattices(), osr.nilpotent_chain_quantale())
    cases = 0
    for A in osr.builtin_family(8):
        for L in (enumerate_ideals(A).lattice, osr.enumerate_radical_ideals(A).lattice):
            for Q in targets:
                homs = enumerate_quantale_homs(L, Q)
                for strict_zero in (False, True):
                    found = enumerate_subadditive(L.semiring, Q.semiring, strict_zero)
                    assert [f.values for f in found] == homs, (L.name, Q.name)
                    cases += 1
    assert cases == 960
