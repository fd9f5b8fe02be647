"""The quantale-hom enumeration against raw function search."""

from itertools import product

import osr
from osr.homs import enumerate_quantale_homs, is_quantale_hom
from osr.ideals import enumerate_ideals


def all_homs_bruteforce(L, Q):
    out = []
    for values in product(range(Q.n), repeat=L.n):
        if is_quantale_hom(L, Q, values):
            out.append(values)
    return sorted(out)


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
            got = [h.values for h in enumerate_quantale_homs(L, Q)]
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
