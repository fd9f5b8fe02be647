"""Radical closure, the radical frame, semiprimes, and the reflection."""

import pytest

import osr
from osr import (
    check_coherence,
    check_frame_universality,
    check_radical_equals_semiprime,
    distributive_reflection,
    enumerate_ideals,
    enumerate_radical_ideals,
    is_radical,
    principal_ideal,
    radical_closure,
    semiprime_elements,
)
from osr.errors import NotIntegral
from osr.ideals import generated_ideal
from osr.radicals import power_set

from .oracle import radical_masks_bruteforce


def labels_of(A, mask):
    return {A.labels[x] for x in range(A.n) if mask >> x & 1}


def test_powers_row_matches_power_walk(family8):
    for A in family8:
        for x in range(A.n):
            walk = power_set(A.mul, A.n, x)
            assert A.powers[x] == sum(1 << p for p in walk)


def test_radical_closure_examples():
    z4 = osr.build_zmod(4)
    zero4 = generated_ideal(z4, 0)
    assert labels_of(z4, radical_closure(z4, zero4).mask) == {"0", "2"}
    z6 = osr.build_zmod(6)
    zero6 = generated_ideal(z6, 0)
    assert labels_of(z6, radical_closure(z6, zero6).mask) == {"0"}


def test_radical_closure_is_a_closure_operator(family6):
    for A in family6:
        iq = enumerate_ideals(A)
        for I in iq.ideals:
            r = radical_closure(A, I)
            assert I.mask & ~r.mask == 0  # extensive
            assert radical_closure(A, r).mask == r.mask  # idempotent
            for J in iq.ideals:
                if I.mask & ~J.mask == 0:
                    assert r.mask & ~radical_closure(A, J).mask == 0  # monotone


def test_radical_adjunction(family6):
    # for every ideal I and radical J:  sqrt(I) <= J  iff  I <= J
    for A in family6:
        iq = enumerate_ideals(A)
        radicals = [J for J in iq.ideals if is_radical(A, J.mask)]
        for I in iq.ideals:
            r = radical_closure(A, I)
            for J in radicals:
                assert (r.mask & ~J.mask == 0) == (I.mask & ~J.mask == 0)


def test_is_radical_examples():
    z4 = osr.build_zmod(4)
    assert is_radical(z4, 0b0101)  # {0, 2}
    assert not is_radical(z4, 0b0001)  # 2^2 = 0
    for A in (osr.build_chain_lattice(4), osr.build_dlat_from_poset(2, [])):
        for I in enumerate_ideals(A).ideals:
            assert is_radical(A, I.mask)  # lattice elements are idempotent


def test_enumerate_radical_ideals_counts():
    assert len(enumerate_radical_ideals(osr.build_zmod(6)).ideals) == 4
    rad4 = enumerate_radical_ideals(osr.build_zmod(4))
    assert [I.label for I in rad4.ideals] == ["{0,2}", "{0,1,2,3}"]
    radb = enumerate_radical_ideals(osr.build_boolean_ring(2))
    assert len(radb.ideals) == 4
    assert radb.lattice.is_distributive
    assert len(radb.lattice.join_irreducibles) == 2  # a diamond


def test_radicals_match_bruteforce(family8):
    for A in family8:
        got = [I.mask for I in enumerate_radical_ideals(A).ideals]
        assert got == radical_masks_bruteforce(A)


def test_semiprime_of_ideal_quantale_matches_radicals():
    z4 = osr.build_zmod(4)
    iq = enumerate_ideals(z4)
    sp = semiprime_elements(iq.lattice)
    assert len(sp) == 2
    assert {iq.ideals[m].label for m in sp} == {"{0,2}", "{0,1,2,3}"}


def test_semiprime_of_frame_is_everything():
    for F in (osr.chain_frame(3), osr.diamond_frame()):
        assert semiprime_elements(F) == tuple(range(F.n))  # idempotent multiplication


def test_semiprime_of_nilpotent_quantale():
    Q = osr.nilpotent_chain_quantale()
    sp = semiprime_elements(Q)
    assert sp == (1, 2)  # bottom is not semiprime: m^2 = 0
    reflector = tuple(Q.meet_of(p for p in sp if Q.le(q, p)) for q in range(Q.n))
    assert reflector == (1, 1, 2)
    with pytest.raises(NotIntegral):
        semiprime_elements(
            osr.core.lattice_from_order(("a", "b"), (0b11, 0b10))
        )


def test_radical_equals_semiprime_family(family8):
    for A in family8:
        check_radical_equals_semiprime(A)


def test_frame_universality_examples():
    z6 = osr.build_zmod(6)
    assert check_frame_universality(z6, osr.chain_frame(2)) == 2
    z4 = osr.build_zmod(4)
    assert check_frame_universality(z4, osr.chain_frame(2)) == 1


def test_frame_universality_family(family6):
    targets = [osr.chain_frame(2), osr.chain_frame(3), osr.diamond_frame()]
    for A in family6:
        for F in targets:
            check_frame_universality(A, F)


def test_frame_universality_against_own_radical_frame():
    # the identity corresponds to the universal arrow itself
    A = osr.build_zmod(6)
    rad = enumerate_radical_ideals(A)
    morphisms = osr.enumerate_subadditive(A, rad.lattice.semiring)
    assert check_frame_universality(A, rad.lattice) == len(morphisms)


def test_frame_universality_rejects_non_frames():
    with pytest.raises(NotIntegral):
        check_frame_universality(osr.build_zmod(4), osr.nilpotent_chain_quantale())


def test_reflection_of_zmod4():
    z4 = osr.build_zmod(4)
    an = osr.Analysis(z4)
    assert distributive_reflection(an) is None
    L = an.radicals.lattice
    assert L.n == 2
    assert an.radical_principal == (L.bottom, L.top, L.bottom, L.top)


def test_reflection_of_distributive_lattice_is_identity_like():
    for A in (osr.build_chain_lattice(3), osr.build_dlat_from_poset(2, [])):
        an = osr.Analysis(A)
        assert distributive_reflection(an) is None
        assert an.radicals.lattice.n == A.n
        assert len(set(an.radical_principal)) == A.n  # injective


def test_reflection_family(family6):
    for A in family6:
        an = osr.Analysis(A)
        assert distributive_reflection(an) is None
        assert an.radicals.lattice == enumerate_radical_ideals(A).lattice


def test_coherence_examples():
    z6 = osr.build_zmod(6)
    assert check_coherence(z6) is None
    assert distributive_reflection(z6) is None
    reflection = enumerate_radical_ideals(z6).lattice
    assert (
        len(enumerate_radical_ideals(z6))
        == len(enumerate_ideals(reflection.semiring).ideals)
        == 4
    )
    for A in (osr.two(), osr.build_truncated_naturals(2)):
        check_coherence(A)
        assert len(enumerate_radical_ideals(A)) == 2


def test_boolean_ring_reflection_is_the_boolean_algebra():
    for atoms in (1, 2, 3):
        A = osr.build_boolean_ring(atoms)
        an = osr.Analysis(A)
        assert distributive_reflection(an) is None
        assert an.radicals.lattice.n == A.n
        # the underlying map is the identity up to canonical relabeling:
        # the radical ideal attached to a subset collects exactly its subsets
        for e in range(A.n):
            target = an.radical_principal[e]
            members = {
                x
                for x in range(A.n)
                if A.mul[x][e] == x  # x & e == x, i.e. x below e
            }
            ideal_members = set(
                osr.enumerate_radical_ideals(A).ideals[target].members
            )
            assert ideal_members == members


def test_primes_are_radical(family8):
    for A in family8:
        for P in osr.enumerate_primes(A):
            assert is_radical(A, P.mask)


def test_radical_ideals_are_joins_of_radical_principals(family8):
    for A in family8:
        rad = enumerate_radical_ideals(A)
        for I in rad.ideals:
            joined = rad.lattice.bottom
            for x in I.members:
                part = rad.index_of(radical_closure(A, principal_ideal(A, x)).mask)
                joined = rad.lattice.join[joined][part]
            assert rad.ideals[joined].mask == I.mask
