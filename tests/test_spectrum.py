"""Prime ideals, spectra, points of frames, and the duality checks."""

import pytest

import osr
from osr import (
    check_degeneracy_equivalence,
    check_maximal_implies_prime,
    check_prime_element_correspondence,
    check_radical_opens_iso,
    check_sober,
    check_spectrum_homeomorphism,
    enumerate_ideals,
    enumerate_maximal,
    enumerate_primes,
    enumerate_radical_ideals,
    frame_points,
    make_space,
    opens_frame,
    spectrum_space,
)
from osr.core import subset_key
from osr.errors import InternalMismatch
from osr.spectrum import FiniteTopSpace


def test_primes_examples():
    z6 = osr.build_zmod(6)
    assert {P.label for P in enumerate_primes(z6)} == {"{0,3}", "{0,2,4}"}
    z4 = osr.build_zmod(4)
    assert [P.label for P in enumerate_primes(z4)] == ["{0,2}"]
    assert enumerate_primes(osr.build_zmod(1)) == []


def test_maximal_examples():
    z6 = osr.build_zmod(6)
    assert {I.label for I in enumerate_maximal(z6)} == {"{0,3}", "{0,2,4}"}
    chain3 = osr.build_chain_lattice(3)
    assert [I.label for I in enumerate_maximal(chain3)] == ["{0,1}"]
    assert enumerate_maximal(osr.build_zmod(1)) == []


def test_maximal_implies_prime(family8):
    for A in family8:
        check_maximal_implies_prime(A)
    chain3 = osr.build_chain_lattice(3)
    assert check_maximal_implies_prime(chain3) is None
    primes = {I.mask for I in enumerate_primes(chain3)}
    # the bottom singleton is prime, not maximal
    assert primes - {I.mask for I in enumerate_maximal(chain3)}


def test_degeneracy_equivalence():
    assert check_degeneracy_equivalence(osr.build_zmod(1)) is True
    assert check_degeneracy_equivalence(osr.build_dual_chain(2)) is True
    for A in (
        osr.build_zmod(6),
        osr.build_chain_lattice(3),
        osr.build_boolean_ring(2),
    ):
        assert check_degeneracy_equivalence(A) is False


def test_degeneracy_family(family8):
    for A in family8:
        check_degeneracy_equivalence(A)


def test_spectrum_space_examples():
    z6 = osr.build_zmod(6)
    X = spectrum_space(z6)
    assert X.n == 2 and len(X.opens) == 4  # discrete two points
    chain3 = osr.build_chain_lattice(3)
    S = spectrum_space(chain3)
    assert S.n == 2 and len(S.opens) == 3  # Sierpinski
    z4 = osr.build_zmod(4)
    P = spectrum_space(z4)
    assert P.n == 1 and len(P.opens) == 2
    one = spectrum_space(osr.build_zmod(1))
    assert one.n == 0 and one.opens == frozenset({0})


def test_spectrum_basis_behaviour(family6):
    for A in family6:
        X = spectrum_space(A)
        assert X.basis is not None
        by_element = {lab: mask for lab, mask in X.basis}
        assert by_element[f"D({A.labels[A.zero]})"] == 0
        assert by_element[f"D({A.labels[A.one]})"] == X.full


def test_frame_points_examples():
    assert frame_points(osr.chain_frame(2)).n == 1
    s = frame_points(osr.chain_frame(3))
    assert s.n == 2 and len(s.opens) == 3  # Sierpinski
    d = frame_points(osr.diamond_frame())
    assert d.n == 2 and len(d.opens) == 4  # discrete


def test_opens_frame_examples():
    z6 = osr.build_zmod(6)
    O = opens_frame(spectrum_space(z6))
    assert O.n == 4 and O.is_distributive and len(O.join_irreducibles) == 2
    S = opens_frame(spectrum_space(osr.build_chain_lattice(3)))
    assert S.n == 3 and S.is_distributive  # three-chain
    P = opens_frame(spectrum_space(osr.build_zmod(4)))
    assert P.n == 2


def test_opens_frame_without_the_empty_open_is_a_mismatch():
    # bypasses make_space: {a} and {b} meet in the empty set, which is missing
    X = FiniteTopSpace("x", ("a", "b"), frozenset({0b01, 0b10, 0b11}))
    with pytest.raises(InternalMismatch, match=r"opens\(x\): \{\} is not in"):
        opens_frame(X)


def test_spectrum_homeomorphism(family8):
    for A in family8:
        check_spectrum_homeomorphism(A)
    assert len(check_spectrum_homeomorphism(osr.build_zmod(6))) == 2


def test_radical_opens_iso(family8):
    for A in family8:
        check_radical_opens_iso(A)
    for A, count in (
        (osr.build_zmod(6), 4),
        (osr.build_chain_lattice(3), 3),
        (osr.build_zmod(1), 1),
    ):
        assert check_radical_opens_iso(A) is None
        assert len(enumerate_radical_ideals(A)) == len(spectrum_space(A).opens) == count


def test_prime_element_correspondence(family8):
    for A in family8:
        check_prime_element_correspondence(A)
    z4 = osr.build_zmod(4)
    iq = enumerate_ideals(z4)
    L = iq.lattice
    zero = iq.index_of(0b0001)
    p2 = iq.index_of(0b0101)
    # <2> . <2> lands inside {0} although <2> does not: not a prime element
    assert L.mul[p2][p2] == zero
    assert not L.le(p2, zero)


def test_sober_examples():
    sierp = spectrum_space(osr.build_chain_lattice(3))
    assert check_sober(sierp) is None
    indiscrete = make_space("indiscrete", ("p", "q"), {0, 0b11})
    assert check_sober(indiscrete) == "points p and q share all opens"  # not T0
    assert check_sober(spectrum_space(osr.build_zmod(6))) is None


def test_sober_family(family8):
    for A in family8:
        assert check_sober(spectrum_space(A)) is None


def test_spatiality_of_radical_frames(family8):
    # the map sending a frame element to its basic open set is a frame iso
    # onto the opens of the point space
    for A in family8:
        F = enumerate_radical_ideals(A).lattice
        pts = frame_points(F)
        images = []
        for a in range(F.n):
            u = sum(
                1 << i
                for i, m in enumerate(F.meet_primes)
                if not F.le(a, m)
            )
            images.append(u)
        assert len(set(images)) == F.n  # injective: enough points exist
        assert set(images) == set(pts.opens)
        for a in range(F.n):
            for b in range(F.n):
                assert F.le(a, b) == (images[a] & ~images[b] == 0)


def test_points_of_opens_recover_sober_space(family8):
    # unit of the adjunction on a sober space: x |-> complement of its closure
    for A in family8:
        X = spectrum_space(A)
        O = opens_frame(X)
        complements = []
        for x in range(X.n):
            c = X.closure_of(1 << x)
            complements.append(X.full & ~c)
        opens_sorted = sorted(X.opens, key=subset_key)
        meet_prime_opens = {opens_sorted[m] for m in O.meet_primes}
        assert len(set(complements)) == X.n  # distinct: the space is T0
        assert set(complements) == meet_prime_opens
        for u in X.opens:
            assert sum(1 << x for x in range(X.n) if u & ~complements[x]) == u
