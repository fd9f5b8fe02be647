"""Classification and enumeration of semiring maps."""

import random
from itertools import product

import pytest

import osr
import osr.recheck
from osr import classify, compose, enumerate_sub_submul, enumerate_subadditive, two
from osr.core import RawSemiringDescription, bits, validate
from osr.errors import EndpointMismatch

from .oracle import sub_submul_maps_bruteforce, subadditive_maps_bruteforce
from .test_preorders import glued_truncnat3, indiscrete_z2


def kernel_labels(table):
    A = table.source
    return frozenset(
        A.labels[x] for x in range(A.n) if table.values[x] == table.target.zero
    )


def test_identity_is_homomorphism():
    z6 = osr.build_zmod(6)
    (ident,) = classify(z6, z6, [tuple(range(6))])
    assert ident.is_homomorphism


def test_characteristic_of_prime_complement_is_subadditive():
    z6 = osr.build_zmod(6)
    values = tuple(0 if x in (0, 3) else 1 for x in range(6))
    (table,) = classify(z6, two(), [values])
    assert table.is_subadditive_morphism
    assert kernel_labels(table) == frozenset({"0", "3"})


def test_constant_one_is_not_subadditive():
    z4 = osr.build_zmod(4)
    (table,) = classify(z4, two(), [(1, 1, 1, 1)])
    assert not table.zero_subzero
    assert not table.is_subadditive_morphism


def test_enumerate_subadditive_z6():
    z6 = osr.build_zmod(6)
    found = enumerate_subadditive(z6, two())
    assert {kernel_labels(t) for t in found} == {
        frozenset({"0", "2", "4"}),
        frozenset({"0", "3"}),
    }


def test_one_element_source_has_no_subadditive_maps():
    assert enumerate_subadditive(osr.build_zmod(1), two()) == []


def test_enumerate_subadditive_chain3():
    found = enumerate_subadditive(osr.build_chain_lattice(3), two())
    assert {kernel_labels(t) for t in found} == {
        frozenset({"0"}),
        frozenset({"0", "1"}),
    }


def test_enumerate_sub_submul_counts():
    z4 = osr.build_zmod(4)
    found = enumerate_sub_submul(z4, two())
    assert {kernel_labels(t) for t in found} == {
        frozenset({"0"}),
        frozenset({"0", "2"}),
        frozenset({"0", "1", "2", "3"}),
    }
    both = enumerate_sub_submul(two(), two())
    assert {kernel_labels(t) for t in both} == {
        frozenset({"0"}),
        frozenset({"0", "1"}),
    }
    assert any(all(v == 0 for v in t.values) for t in found)  # whole-carrier ideal


@pytest.mark.parametrize(
    "builder,args",
    [
        ("zmod", 4),
        ("zmod", 6),
        ("chain", 3),
        ("bool", 2),
        ("truncnat", 2),
        ("maxplus", 1),
        ("dualq", 2),
    ],
)
def test_enumerations_match_raw_search(builder, args):
    A = osr.BUILDER_SPECS[builder](args)
    for B in (two(), osr.build_chain_lattice(3)):
        got = [t.values for t in enumerate_subadditive(A, B)]
        assert got == subadditive_maps_bruteforce(A, B)
        got = [t.values for t in enumerate_sub_submul(A, B)]
        assert got == sub_submul_maps_bruteforce(A, B)


def test_homomorphism_criteria_discrete_target():
    z6 = osr.build_zmod(6)
    checked = osr.check_homomorphism_criteria(z6, z6)
    assert checked is not None and checked > 0


def test_homomorphism_criteria_join_induced_target():
    assert not two().is_discrete  # so the join condition is what applies
    assert osr.check_homomorphism_criteria(osr.build_chain_lattice(3), two()) == 2
    assert osr.check_homomorphism_criteria(osr.build_truncated_maxplus(1), two())


def test_homomorphism_criteria_can_fail_to_apply():
    # target with a non-discrete order whose addition is not its join
    checked = osr.check_homomorphism_criteria(
        osr.build_zmod(4), osr.build_truncated_naturals(2)
    )
    assert checked is None


def test_compose():
    z6, b = osr.build_zmod(6), two()
    ident6, ident2 = classify(z6, z6, [range(6)])[0], classify(b, b, [(0, 1)])[0]
    (prime2,) = classify(z6, b, [tuple(0 if x in (0, 2, 4) else 1 for x in range(6))])
    assert compose(ident6, prime2).values == prime2.values
    composite = compose(prime2, ident2)
    assert composite.values == prime2.values
    assert composite.is_subadditive_morphism
    with pytest.raises(EndpointMismatch):
        compose(prime2, prime2)


def test_composite_flags_never_weaker_than_factors():
    z6, b = osr.build_zmod(6), two()
    for f in enumerate_subadditive(z6, b):
        for g in enumerate_subadditive(b, b):
            assert compose(f, g).is_subadditive_morphism
    for f in enumerate_sub_submul(z6, b):
        for g in enumerate_sub_submul(b, b):
            assert compose(f, g).is_sub_submultiplicative


def test_strict_zero_mode_agrees_on_antisymmetric_targets():
    for A in osr.builtin_family(6):
        relaxed = [t.values for t in enumerate_subadditive(A, two())]
        strict = [
            t.values for t in enumerate_subadditive(A, two(), strict_zero=True)
        ]
        assert relaxed == strict


def classify_by_pair_walk(A, B, values):
    """The values and nine flags of ``classify``, by the element-pair loop
    ``classify`` ran before it gathered whole tables (copied from it)."""
    bleq = B.leq  # bleq[u] >> v & 1 iff u <= v in B
    monotone = all(
        bleq[values[i]] >> values[j] & 1 for i in range(A.n) for j in bits(A.leq[i])
    )
    f0, f1 = values[A.zero], values[A.one]
    subadd = True
    add_ok = True
    mul_ok = True
    submul = True
    for x in range(A.n):
        fx = values[x]
        add_row, mul_row = A.add[x], A.mul[x]
        sum_row, prod_row = B.add[fx], B.mul[fx]
        for y in range(A.n):
            fy = values[y]
            s = values[add_row[y]]
            p = values[mul_row[y]]
            ts = sum_row[fy]
            tp = prod_row[fy]
            if s != ts:
                add_ok = False
            if not bleq[s] >> ts & 1:
                subadd = False
            if p != tp:
                mul_ok = False
            if not bleq[p] >> tp & 1:
                submul = False
        if not (subadd or submul):
            break
    return (
        tuple(values),
        monotone,
        B.le(f0, B.zero),
        f0 == B.zero,
        f1 == B.one,
        B.le(f1, B.one),
        subadd,
        add_ok,
        mul_ok,
        submul,
    )


def test_classify_matches_the_pair_walk_on_every_small_map():
    family = [*osr.builtin_family(3), indiscrete_z2(), glued_truncnat3()]
    assert {A.n for A in family} >= {1, 4}  # one-index gathers included
    for A in family:
        for B in family:
            maps = list(product(range(B.n), repeat=A.n))  # one batch or several
            got = classify(A, B, maps)
            assert [tuple(t)[2:] for t in got] == [
                classify_by_pair_walk(A, B, values) for values in maps
            ]
            for bad in (-1, B.n):
                with pytest.raises(EndpointMismatch):
                    classify(A, B, [(bad,) + (0,) * (A.n - 1)])
                with pytest.raises(EndpointMismatch):
                    classify(A, B, maps + [(0,) * (A.n - 1) + (bad,)])


def test_classify_matches_the_pair_walk_on_random_maps():
    rng = random.Random(12)
    family = osr.builtin_family(6)
    for A in family:
        for B in family:
            # 500 arrays drawn as base-|B| numbers; a repeat is checked once
            codes = sorted({rng.randrange(B.n**A.n) for _ in range(500)})
            maps = [tuple(code // B.n**i % B.n for i in range(A.n)) for code in codes]
            got = classify(A, B, maps)
            assert [tuple(t)[2:] for t in got] == [
                classify_by_pair_walk(A, B, values) for values in maps
            ]


@pytest.mark.parametrize(
    "values", [(0, 1, 0, 1, 0, 1.0), (0, 1, 0, 1, 0, "1"), (0, 1, 0, 1, 0, None), 3]
)
def test_classify_refuses_a_value_array_with_a_non_integer_entry(values):
    A = osr.build_zmod(6)
    with pytest.raises(EndpointMismatch, match="does not map zmod6 into chain2"):
        classify(A, two(), [values])
    with pytest.raises(EndpointMismatch, match="does not map zmod6 into chain2"):
        classify(A, two(), [(0,) * 6, values, (1,) * 6])


def glued_truncnat(cap, glued):
    """Saturating naturals up to ``cap`` whose top ``glued`` elements are
    each below the other in the order but kept distinct as elements."""
    lab = tuple(map(str, range(cap + 1)))
    return validate(
        RawSemiringDescription(
            name=f"truncnat{cap}-glued{glued}",
            elements=lab,
            le=tuple(zip(lab, lab[1:])) + ((lab[cap], lab[cap + 1 - glued]),),
            zero="0",
            one="1",
            add_table=tuple(
                tuple(lab[min(i + j, cap)] for j in range(cap + 1))
                for i in range(cap + 1)
            ),
            mul_table=tuple(
                tuple(lab[min(i * j, cap)] for j in range(cap + 1))
                for i in range(cap + 1)
            ),
        )
    )


def test_classify_matches_the_pair_walk_in_several_code_blocks():
    # a target of more than 16 elements has int pair codes, each looked up
    # in the row-major table: chain:24, truncnat:23 and truncnat19-glued3;
    # zmod:12 and truncnat11-glued3 have byte codes and 256-byte tables.
    # Batches of 1 to 300 maps, half of them
    # sorted, so that order-respecting maps reach the inequality tests,
    # mix passing and failing maps
    glued = glued_truncnat(11, 3)
    assert glued.le(11, 9) and glued.le(9, 11) and not glued.le(11, 8)
    big_glued = glued_truncnat(19, 3)
    targets = [osr.from_builder_spec(s) for s in ("zmod:12", "chain:24", "truncnat:23")]
    sources = [*osr.builtin_family(4), glued_truncnat3(), glued, big_glued]
    rng = random.Random(17)
    flags = set()
    for B in [*targets, glued, big_glued]:
        for A in sources:
            maps = []
            for _ in range(rng.randint(1, 300)):
                values = [rng.randrange(B.n) for _ in range(A.n)]
                if rng.random() < 0.5:
                    values.sort()
                    values[A.zero], values[A.one] = B.zero, B.one
                maps.append(values)
            got = classify(A, B, maps)
            assert [tuple(t)[2:] for t in got] == [
                classify_by_pair_walk(A, B, values) for values in maps
            ]
            flags.update(tuple(t)[3:] for t in got)
    assert len(flags) > 20  # the flags vary independently, not all False
