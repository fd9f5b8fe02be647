"""Acceptance suite: one criterion per test, one printed verdict line each.

Every expected value is either checked against an independent brute-force
oracle in this run or was computed by one and frozen here.  Run with
``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import osr
from osr import (
    check_degeneracy_equivalence,
    check_frame_universality,
    check_maximal_implies_prime,
    check_product_of_generators,
    check_quantale_universality,
    check_radical_equals_semiprime,
    check_radical_opens_iso,
    check_spectrum_homeomorphism,
    distributive_reflection,
    enumerate_ideals,
    enumerate_primes,
    enumerate_radical_ideals,
    generated_ideal,
    generated_ideal_by_sums,
    radical_closure,
    spectrum_space,
)
from osr.cli import main as cli_main
from osr.morphisms import enumerate_sub_submul, enumerate_subadditive
from osr.osrfile import render
from osr.radicals import semiprime_elements

from .oracle import ideal_masks_bruteforce, radical_masks_bruteforce

GOLDEN = Path(__file__).parent / "golden" / "zmod6_check.json"
RNG_SEED = 20260810


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} FAIL: {description}")
        raise
    print(f"acceptance {number:02d} PASS: {description}")


def labels_of(A, mask):
    return {A.labels[x] for x in range(A.n) if mask >> x & 1}


def test_criterion_01_golden_counts():
    with criterion(1, "golden counts vs subset-filter oracle, under 1 s each"):
        budget = {}
        t = time.perf_counter()
        z6 = osr.build_zmod(6)
        iq6 = enumerate_ideals(z6)
        assert len(iq6.ideals) == 4
        assert [I.mask for I in iq6.ideals] == ideal_masks_bruteforce(z6)
        rad6 = enumerate_radical_ideals(z6)
        assert len(rad6.ideals) == 4
        assert [I.mask for I in rad6.ideals] == radical_masks_bruteforce(z6)
        spec6 = spectrum_space(z6)
        assert spec6.n == 2
        assert len(spec6.opens) == 4  # discrete: all four point sets open
        budget["zmod6"] = time.perf_counter() - t

        t = time.perf_counter()
        z4 = osr.build_zmod(4)
        iq4 = enumerate_ideals(z4)
        assert len(iq4.ideals) == 3
        assert [I.mask for I in iq4.ideals] == ideal_masks_bruteforce(z4)
        rad4 = enumerate_radical_ideals(z4)
        assert len(rad4.ideals) == 2
        assert spectrum_space(z4).n == 1
        sqrt0 = radical_closure(z4, generated_ideal(z4, 0))
        assert labels_of(z4, sqrt0.mask) == {"0", "2"}
        budget["zmod4"] = time.perf_counter() - t

        t = time.perf_counter()
        chain3 = osr.build_chain_lattice(3)
        s = spectrum_space(chain3)
        assert s.n == 2 and len(s.opens) == 3  # Sierpinski
        nontrivial = [u for u in s.opens if u not in (0, s.full)]
        assert len(nontrivial) == 1
        budget["chain3"] = time.perf_counter() - t

        t = time.perf_counter()
        t2 = osr.build_truncated_naturals(2)
        iqt = enumerate_ideals(t2)
        assert len(iqt.ideals) == 2
        assert [I.mask for I in iqt.ideals] == ideal_masks_bruteforce(t2)
        budget["truncnat2"] = time.perf_counter() - t

        assert all(spent < 1.0 for spent in budget.values()), budget


def test_criterion_02_ideal_quantale_universality():
    with criterion(2, "ideal-quantale universality on every builtin of size <= 6"):
        t = time.perf_counter()
        targets = [
            osr.chain_frame(2),
            osr.chain_frame(3),
            enumerate_ideals(osr.build_zmod(4)).lattice,
        ]
        for A in osr.builtin_family(6):
            for Q in targets:
                check_quantale_universality(A, Q)
        assert time.perf_counter() - t < 60.0


def test_criterion_03_radical_frame_universality():
    with criterion(3, "radical-frame universality on every builtin of size <= 6"):
        t = time.perf_counter()
        targets = [osr.chain_frame(2), osr.chain_frame(3), osr.diamond_frame()]
        for A in osr.builtin_family(6):
            for F in targets:
                check_frame_universality(A, F)
        assert time.perf_counter() - t < 60.0


def test_criterion_04_radical_equals_semiprime():
    with criterion(4, "radical = semiprime for every ideal, builtins of size <= 8"):
        for A in osr.builtin_family(8):
            iq = enumerate_ideals(A)
            check_radical_equals_semiprime(A)
            semi = semiprime_elements(iq.lattice)
            assert [iq.ideals[m].mask for m in semi] == radical_masks_bruteforce(A)


def test_criterion_05_point_space_duality():
    with criterion(
        5, "pt(radical frame) homeomorphic to the spectrum and the radical "
        "frame isomorphic to its opens, size <= 8, empty spectra included"
    ):
        family = osr.builtin_family(8)
        assert any(not enumerate_primes(A) for A in family)  # degenerate present
        for A in family:
            check_spectrum_homeomorphism(A)
            check_radical_opens_iso(A)


def test_criterion_06_boolean_reflection():
    with criterion(
        6, "reflection of the Boolean ring is the Boolean algebra, 1-3 atoms"
    ):
        t = time.perf_counter()
        for atoms in (1, 2, 3):
            A = osr.build_boolean_ring(atoms)
            B1 = osr.downset_frame(atoms, [], name=f"boolean{atoms}")
            assert B1.labels == A.labels  # same canonical carrier order
            an = osr.Analysis(A)
            assert distributive_reflection(an) is None
            L, u = an.radicals.lattice, an.radical_principal
            assert sorted(u) == list(range(B1.n))  # a bijection
            assert u[A.zero] == L.bottom
            assert u[A.one] == L.top
            rad = enumerate_radical_ideals(A)
            for i in range(B1.n):
                for j in range(B1.n):
                    assert u[B1.join[i][j]] == L.join[u[i]][u[j]]
                    assert u[B1.meet[i][j]] == L.meet[u[i]][u[j]]
                # identity on the underlying carrier up to relabeling:
                # the radical ideal attached to e holds exactly the x below e
                members = set(rad.ideals[u[i]].members)
                assert members == {x for x in range(A.n) if B1.le(x, i)}
        assert time.perf_counter() - t < 10.0


def test_criterion_07_degeneracy_equivalence():
    with criterion(7, "degeneracy conditions all-true/all-false on the stated instances"):
        for A in (osr.build_zmod(1), osr.build_dual_chain(2), osr.build_dual_chain(3)):
            assert check_degeneracy_equivalence(A) is True
        for A in (
            osr.build_zmod(6),
            osr.build_chain_lattice(3),
            osr.build_boolean_ring(2),
        ):
            assert check_degeneracy_equivalence(A) is False


def test_criterion_08_maximal_implies_prime():
    with criterion(8, "maximal implies prime, size <= 8, with a prime-non-maximal witness"):
        for A in osr.builtin_family(8):
            check_maximal_implies_prime(A)
        chain3 = osr.build_chain_lattice(3)
        check_maximal_implies_prime(chain3)
        primes = {I.mask for I in osr.enumerate_primes(chain3)}
        assert primes - {I.mask for I in osr.enumerate_maximal(chain3)}


def test_criterion_09_generation_oracles_random():
    with criterion(
        9, "fixed-point generation vs the bounded-sum formula (200 draws) and "
        "product-of-generators (200 draws)"
    ):
        rng = random.Random(RNG_SEED)
        family = [A for A in osr.builtin_family(8)]
        for _ in range(200):
            A = rng.choice(family)
            s = rng.randrange(1 << A.n)
            assert generated_ideal(A, s).mask == generated_ideal_by_sums(A, s)
        for _ in range(200):
            A = rng.choice(family)
            s = rng.randrange(1 << A.n)
            t = rng.randrange(1 << A.n)
            assert check_product_of_generators(A, [(s, t)]) == [True]


def test_criterion_10_morphism_ideal_correspondences():
    with criterion(
        10, "morphism counts match: primes vs subadditive and ideals vs "
        "subadditive-submultiplicative maps into the two-chain"
    ):
        for A in osr.builtin_family(8):
            iq = enumerate_ideals(A)
            primes = enumerate_primes(A)
            assert len(enumerate_subadditive(A, osr.two())) == len(primes)
            assert len(enumerate_sub_submul(A, osr.two())) == len(iq.ideals)


def test_criterion_11_cli_contract(tmp_path, capsys):
    with criterion(
        11, "CLI: zmod:6 JSON check matches the golden fixture byte for byte; "
        "a corrupted document exits 2 with a located parse error"
    ):
        code = cli_main(["check", "--builder", "zmod:6", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.encode() == GOLDEN.read_bytes()

        text = render(osr.build_zmod(4).describe()).replace("0 2 0 2", "0 2 0")
        broken = tmp_path / "broken.osr"
        broken.write_text(text)
        code = cli_main(["validate", str(broken)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err and "mul table row" in err
