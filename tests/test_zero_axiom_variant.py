"""Re-run the theorem suites with the strict zero axiom f(0) = 0.

The morphism axiom shipped everywhere else is f(0) <= 0; every theorem is
supposed to survive replacing it by equality, and at desk scale that is
checkable.  Into targets with an antisymmetric order whose zero is bottom
the two variants coincide, which these suites confirm by recomputation.
"""

import osr
from osr import check_frame_universality, check_quantale_universality, enumerate_ideals
from osr.morphisms import enumerate_subadditive

FAMILY = osr.builtin_family(6)


def test_universality_under_strict_zero():
    qtargets = [
        osr.chain_frame(2),
        osr.chain_frame(3),
        enumerate_ideals(osr.build_zmod(4)).lattice,
    ]
    ftargets = [osr.chain_frame(2), osr.chain_frame(3), osr.diamond_frame()]
    for A in FAMILY:
        for Q in qtargets:
            strict = check_quantale_universality(A, Q, strict_zero=True)
            relaxed = check_quantale_universality(A, Q)
            assert strict == relaxed
        for F in ftargets:
            strict = check_frame_universality(A, F, strict_zero=True)
            relaxed = check_frame_universality(A, F)
            assert strict == relaxed


def test_prime_correspondence_under_strict_zero():
    for A in osr.builtin_family(8):
        strict = enumerate_subadditive(A, osr.two(), strict_zero=True)
        assert len(strict) == len(osr.enumerate_primes(A))
