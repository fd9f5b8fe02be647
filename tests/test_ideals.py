"""Ideal arithmetic and the quantale structure."""

import random
from collections import Counter

import pytest

import osr
import osr.ideals
from osr import (
    canonical_embedding,
    check_product_of_generators,
    check_quantale_universality,
    enumerate_ideals,
    extend_to_quantale_hom,
    generated_ideal,
    generated_ideal_by_sums,
    ideal_join,
    ideal_product,
    induced_quantale_hom,
    is_ideal,
    principal_ideal,
    two,
)
from osr.core import bits
from osr.errors import (
    InternalMismatch,
    LabelError,
    NotIntegral,
    NotSubadditive,
    OwnerMismatch,
)
from osr.ideals import Ideal, product_set
from osr.morphisms import classify

from .oracle import ideal_masks_bruteforce
from .test_kernels import f2xy
from .test_law_kernels import square_zero_maxplus


def labels_of(A, mask):
    return {A.labels[x] for x in range(A.n) if mask >> x & 1}


def mask_of(A, labels):
    return sum(1 << i for i, lab in enumerate(A.labels) if lab in labels)


def test_is_ideal_examples():
    z6 = osr.build_zmod(6)
    assert is_ideal(z6, mask_of(z6, {"0", "2", "4"}))
    assert not is_ideal(z6, mask_of(z6, {"0", "2"}))  # 2+2=4 escapes
    assert not is_ideal(z6, 0)  # zero must belong


def test_generated_ideal_examples():
    z4 = osr.build_zmod(4)
    assert labels_of(z4, generated_ideal(z4, {2}).mask) == {"0", "2"}
    z6 = osr.build_zmod(6)
    assert generated_ideal(z6, {2, 3}).mask == z6.full_mask
    chain3 = osr.build_chain_lattice(3)
    assert labels_of(chain3, generated_ideal(chain3, 0).mask) == {"0"}


def test_principal_ideal_examples():
    z6 = osr.build_zmod(6)
    assert labels_of(z6, principal_ideal(z6, 2).mask) == {"0", "2", "4"}
    b = two()
    assert principal_ideal(b, b.one).mask == b.full_mask
    chain3 = osr.build_chain_lattice(3)
    assert labels_of(chain3, principal_ideal(chain3, 1).mask) == {"0", "1"}


def test_members_outside_the_carrier_are_refused():
    z6 = osr.build_zmod(6)
    for call in (
        lambda: generated_ideal(z6, [6]),
        lambda: generated_ideal(z6, -1),
        lambda: generated_ideal(z6, [-1]),
        lambda: principal_ideal(z6, 9),
        lambda: is_ideal(z6, [7]),
    ):
        with pytest.raises(LabelError):
            call()


def test_enumerate_ideals_golden_sets():
    z6 = osr.build_zmod(6)
    got = {I.label for I in enumerate_ideals(z6).ideals}
    assert got == {"{0}", "{0,3}", "{0,2,4}", "{0,1,2,3,4,5}"}
    z4 = osr.build_zmod(4)
    assert {I.label for I in enumerate_ideals(z4).ideals} == {
        "{0}",
        "{0,2}",
        "{0,1,2,3}",
    }
    t2 = osr.build_truncated_naturals(2)
    assert len(enumerate_ideals(t2).ideals) == 2


def test_enumeration_matches_subset_filter_oracle(family8):
    for A in family8:
        expected = ideal_masks_bruteforce(A)
        assert [I.mask for I in enumerate_ideals(A).ideals] == expected


def _sums_naive(A, seed):
    """Every round re-adds every sum found so far, until none is new."""
    prods = {A.mul[s][y] for s in range(A.n) if seed >> s & 1 for y in range(A.n)}
    sums = {A.zero}
    while True:
        grown = sums | {A.add[t][p] for t in sums for p in prods}
        if grown == sums:
            break
        sums = grown
    mask = 0
    for t in sums:
        mask |= A.lower_masks[t]
    return mask


def test_semi_naive_sums_match_the_naive_fixed_point():
    """Every subset, grouped by its products, over the family and two
    genuine preorders: the oracle reads a subset only through its product
    set, so each group gets one value, the naive fixed point's."""
    from .test_preorders import glued_truncnat3, indiscrete_z2

    shared = 0
    for A in [*osr.builtin_family(5), indiscrete_z2(), glued_truncnat3()]:
        groups = {}
        for seed in range(1 << A.n):
            products = {A.mul[s][y] for s in bits(seed) for y in range(A.n)}
            assert product_set(A, seed) == products
            groups.setdefault(frozenset(products), []).append(seed)
        for seeds in groups.values():
            assert {generated_ideal_by_sums(A, seed) for seed in seeds} == {
                _sums_naive(A, seeds[0])
            }
        shared += (1 << A.n) - len(groups)
    assert shared > 0  # some subsets do share their products


def test_multiples_are_the_principal_ideals(family8):
    for A in family8:
        assert A.multiples == tuple(
            principal_ideal(A, x).mask for x in range(A.n)
        )


def atoms_last_downsets():
    """The downsets of 0 < 1, 0 < 2 and a point 3, listed bottom first and
    then from the top down: the last four-element slice, two of ten
    elements, holds the atoms {0} and {3}, whose join only a closure's sum
    step adds.  On no builder's instance of 5 to 13 elements does a fault
    confined to the last slice of the sum table change a closure."""
    A = osr.build_dlat_from_poset(4, [(0, 1), (0, 2)])
    order = sorted(
        range(A.n), key=lambda i: (i != A.zero, -A.lower_masks[i].bit_count())
    )
    desc = A.describe()

    def pick(T):
        return tuple(tuple(T[i][j] for j in order) for i in order)

    B = osr.validate(
        desc._replace(
            elements=tuple(desc.elements[i] for i in order),
            add_table=pick(desc.add_table),
            mul_table=pick(desc.mul_table),
        )
    )
    assert {B.labels[8], B.labels[9]} == {"{0}", "{3}"}
    return B


def test_generated_matches_intersection_oracle(family8):
    """Every seed subset, over the family, over two genuine preorders
    (distinct elements each below the other), where a closure that assumed
    antisymmetry would go wrong, and over carriers of three four-element
    slices, the last one partial except on zmod:12."""
    from .oracle import ideal_masks_bruteforce as all_ideals
    from .test_preorders import glued_truncnat3, indiscrete_z2

    specs = ("chain:9", "truncnat:8", "zmod:10", "zmod:12")
    sliced = [*map(osr.from_builder_spec, specs), atoms_last_downsets()]
    for A in [*family8, indiscrete_z2(), glued_truncnat3(), *sliced]:
        ideals = all_ideals(A)
        full = (1 << A.n) - 1
        generators = 0
        for seed in range(1 << A.n):
            expected = full
            for mask in ideals:
                if seed & ~mask == 0:
                    expected &= mask
            assert generated_ideal(A, seed).mask == expected
            assert generated_ideal_by_sums(A, seed) == expected
            if seed and not seed & seed - 1 and expected == full:  # one element
                generators |= seed
        # the elements whose principal ideal, by the oracle, is the carrier
        assert A.full_generators == generators
        assert A.full_generators >> A.one & 1


@pytest.mark.parametrize("spec", ["chain:24", "zmod:24", "truncnat:23", "zmod:23"])
def test_sliced_products_match_the_pair_loop(spec):
    # zmod:23 ends in a partial slice of three elements
    A = osr.from_builder_spec(spec)
    rng = random.Random(spec)
    for _ in range(300):
        s, t = rng.randrange(1 << A.n), rng.randrange(1 << A.n)
        want = 0
        for x in range(A.n):
            for y in range(A.n):
                if s >> x & 1 and t >> y & 1:
                    want |= 1 << A.mul[x][y]
        assert osr.ideals._products(A, s, t) == want


def test_the_column_table_is_the_pairwise_product(family6):
    # enumerate_ideals reads one product column per ideal; each entry must
    # be the closure of the pairwise products, the one-pair route
    sources = list(family6)
    for spec in ("chain:24", "zmod:24", "dualq:24", "truncnat:23", "maxplus:22"):
        sources.append(osr.from_builder_spec(spec))
    sources += [f2xy(), square_zero_maxplus(7)]  # 16 elements; 129 ideals
    for A in sources:
        iq = enumerate_ideals(A)
        masks = [I.mask for I in iq.ideals]
        closed = {}
        want = []
        for s in masks:
            row = []
            for t in masks:
                p = osr.ideals._products(A, s, t)
                if p not in closed:
                    closed[p] = iq.index_of(osr.ideals._close(A, p))
                row.append(closed[p])
            want.append(tuple(row))
        assert iq.lattice.mul == tuple(want), A.name


@pytest.mark.parametrize(
    "spec, message",
    [
        ("zmod:6", "{0,1,2,3,4,5}.{0,1,2,3,4,5} = {0,1,2,3,4} is not among "
         "the enumerated ideals of zmod6"),
        ("truncnat:4", "{0,1,2,3,4}.{0,1,2,3,4} = {0,1,2,3} is not among "
         "the enumerated ideals of truncnat4"),
    ],
)
def test_a_product_outside_the_ideals_names_its_pair(monkeypatch, spec, message):
    # the closure of a product set that is the whole carrier loses its last
    # element, so the product of the carrier with itself is no ideal
    generated = osr.ideals.generated_ideal

    def lossy(A, members):
        I = generated(A, members)
        full = I.owner.full_mask
        return I._replace(mask=full >> 1) if I.mask == full else I

    monkeypatch.setattr(osr.ideals, "generated_ideal", lossy)
    with pytest.raises(InternalMismatch) as exc:
        enumerate_ideals(osr.from_builder_spec(spec))
    assert str(exc.value) == message


def test_ideal_join():
    z6 = osr.build_zmod(6)
    iq = enumerate_ideals(z6)
    evens = next(I for I in iq.ideals if I.label == "{0,2,4}")
    threes = next(I for I in iq.ideals if I.label == "{0,3}")
    assert ideal_join(z6, []).mask == principal_ideal(z6, z6.zero).mask
    assert ideal_join(z6, [evens, threes]).mask == z6.full_mask
    assert ideal_join(z6, [evens]).mask == evens.mask
    with pytest.raises(OwnerMismatch):
        ideal_join(z6, [Ideal(osr.build_zmod(4), 0b11)])


def test_ideal_product_examples():
    z4 = osr.build_zmod(4)
    p2 = principal_ideal(z4, 2)
    assert labels_of(z4, ideal_product(z4, p2, p2).mask) == {"0"}
    z6 = osr.build_zmod(6)
    assert labels_of(
        z6, ideal_product(z6, principal_ideal(z6, 2), principal_ideal(z6, 3)).mask
    ) == {"0"}
    for A in (z4, z6, osr.build_chain_lattice(4)):
        iq = enumerate_ideals(A)
        full = Ideal(A, A.full_mask)
        for I in iq.ideals:
            assert ideal_product(A, I, full).mask == I.mask  # unit law


def test_product_of_generators():
    z12 = osr.build_zmod(12)
    s, t = mask_of(z12, {"2"}), mask_of(z12, {"3"})
    assert check_product_of_generators(z12, [(s, t)]) == [True]
    prod = ideal_product(
        z12, generated_ideal(z12, s), generated_ideal(z12, t)
    )
    assert labels_of(z12, prod.mask) == {"0", "6"}
    z6 = osr.build_zmod(6)
    assert check_product_of_generators(z6, [(0, mask_of(z6, {"3"}))]) == [True]
    assert check_product_of_generators(
        z6, [(mask_of(z6, {"2", "3"}), mask_of(z6, {"3"}))]
    ) == [True]


def test_quantale_tables_verified(family8):
    # constructor re-checks the laws; spot-check associativity/distributivity
    for A in family8[:10]:
        iq = enumerate_ideals(A)
        L = iq.lattice
        k = L.n
        for i in range(k):
            for j in range(k):
                assert L.mul[i][j] == L.mul[j][i]
                for m in range(k):
                    assert L.mul[L.mul[i][j]][m] == L.mul[i][L.mul[j][m]]
                    assert (
                        L.mul[i][L.join[j][m]] == L.join[L.mul[i][j]][L.mul[i][m]]
                    )


def test_canonical_embedding():
    z6 = osr.build_zmod(6)
    iq = enumerate_ideals(z6)
    emb = canonical_embedding(z6)
    assert emb.is_subadditive_morphism
    assert iq.ideals[emb.values[2]].label == "{0,2,4}"
    b = two()
    iqb = enumerate_ideals(b)
    embb = canonical_embedding(b)
    assert embb.values[b.one] == iqb.lattice.unit
    chain3 = osr.build_chain_lattice(3)
    e3 = canonical_embedding(chain3)
    assert e3.monotone


def test_extend_to_quantale_hom():
    z4 = osr.build_zmod(4)
    iq = enumerate_ideals(z4)
    Q = osr.chain_frame(2)
    f = classify(z4, osr.build_from_quantale(Q), [(0, 1, 0, 1)])[0]
    g = extend_to_quantale_hom(f, Q, iq)
    by_label = {iq.ideals[i].label: g[i] for i in range(len(iq.ideals))}
    assert by_label == {"{0}": 0, "{0,2}": 0, "{0,1,2,3}": 1}

    emb = canonical_embedding(z4)
    ident = extend_to_quantale_hom(emb, iq.lattice, iq)
    assert ident == tuple(range(len(iq.ideals)))

    with pytest.raises(NotSubadditive):
        extend_to_quantale_hom(
            classify(z4, osr.build_from_quantale(Q), [(1, 1, 1, 1)])[0], Q, iq
        )
    bad = osr.core.lattice_from_order(
        ("a", "b"), (0b11, 0b10), mul=((0, 0), (0, 1)), unit=1, name="fine"
    )
    assert bad.is_integral_quantale  # sanity: this one is fine
    # a quantale on the chain 0 < u < t whose unit u is not the top
    not_integral = osr.core.lattice_from_order(
        ("0", "u", "t"),
        (0b111, 0b110, 0b100),
        mul=((0, 0, 0), (0, 1, 2), (0, 2, 2)),
        unit=1,
        name="nonintegral",
    )
    assert not not_integral.is_integral_quantale
    with pytest.raises(NotIntegral):
        extend_to_quantale_hom(f, not_integral, iq)
    with pytest.raises(NotIntegral):
        check_quantale_universality(z4, not_integral)


def test_extension_refuses_the_ideals_of_another_semiring():
    # an input error, not an IndexError or a library-fault InternalMismatch
    z4 = osr.build_zmod(4)
    Q = osr.chain_frame(2)
    f = classify(z4, osr.build_from_quantale(Q), [(0, 1, 0, 1)])[0]
    for other in ("zmod:6", "zmod:2", "chain:4"):
        iq = enumerate_ideals(osr.from_builder_spec(other))
        with pytest.raises(OwnerMismatch):
            extend_to_quantale_hom(f, Q, iq)


def test_extension_closes_each_mask_once(monkeypatch):
    # the triangle's principal ideals are read through one analysis
    z12, z6 = osr.build_zmod(12), osr.build_zmod(6)
    (f,) = osr.enumerate_subadditive(z12, z6)
    target = osr.Analysis(z6)
    g = osr.compose(f, canonical_embedding(target))
    iq = enumerate_ideals(z12)
    closed = Counter()

    def counted(A, mask, _original=osr.ideals._close):
        closed[mask] += 1
        return _original(A, mask)

    monkeypatch.setattr(osr.ideals, "_close", counted)
    extend_to_quantale_hom(g, target.ideals.lattice, iq)
    assert closed and set(closed.values()) == {1}


def test_induced_hom_closes_each_mask_once_per_semiring(monkeypatch):
    # the source's ideals and the triangle read one analysis of the source,
    # the target's ideals and the image cross-check one of the target
    z12, z6 = osr.build_zmod(12), osr.build_zmod(6)
    (f,) = osr.enumerate_subadditive(z12, z6)
    closed = Counter()

    def counted(A, mask, _original=osr.ideals._close):
        closed[A, mask] += 1
        return _original(A, mask)

    monkeypatch.setattr(osr.ideals, "_close", counted)
    induced_quantale_hom(f)
    assert {A for A, _ in closed} == {z12, z6}
    assert set(closed.values()) == {1}


def test_quantale_universality_examples():
    z6 = osr.build_zmod(6)
    assert check_quantale_universality(z6, osr.chain_frame(2)) == 2

    one = osr.build_zmod(1)
    assert check_quantale_universality(one, osr.chain_frame(2)) == 0

    z4 = osr.build_zmod(4)
    assert check_quantale_universality(z4, osr.chain_frame(3)) == 1
    assert check_quantale_universality(z4, enumerate_ideals(z4).lattice) == 2


def test_quantale_universality_family(family6):
    targets = [
        osr.chain_frame(2),
        osr.chain_frame(3),
        enumerate_ideals(osr.build_zmod(4)).lattice,
        osr.nilpotent_chain_quantale(),
    ]
    for A in family6:
        for Q in targets:
            check_quantale_universality(A, Q)


def test_induced_quantale_hom():
    z6 = osr.build_zmod(6)
    iq = enumerate_ideals(z6)
    ident = classify(z6, z6, [tuple(range(6))])[0]
    assert induced_quantale_hom(ident) == tuple(range(len(iq.ideals)))

    b = two()
    f = classify(z6, b, [tuple(0 if x in (0, 2, 4) else 1 for x in range(6))])[0]
    iqb = enumerate_ideals(b)
    hom = induced_quantale_hom(f)
    by_label = {iq.ideals[i].label: iqb.ideals[hom[i]].label
                for i in range(len(iq.ideals))}
    assert by_label["{0,2,4}"] == "{0}"
    assert by_label["{0,3}"] == "{0,1}"


def test_induced_hom_respects_composition():
    chain3, b = osr.build_chain_lattice(3), two()
    f = classify(chain3, b, [(0, 0, 1)])[0]
    g = classify(b, b, [(0, 1)])[0]
    lhs = induced_quantale_hom(osr.compose(f, g))
    f_act = induced_quantale_hom(f)
    g_act = induced_quantale_hom(g)
    assert lhs == tuple(g_act[v] for v in f_act)


def test_arbitrary_subset_distributivity_literally():
    # small instances: the infinitary law checked set by set, not just binary
    from itertools import combinations

    for A in (osr.build_zmod(6), osr.build_zmod(4), osr.build_chain_lattice(4)):
        iq = enumerate_ideals(A)
        L = iq.lattice
        assert L.n <= 6
        idx = range(L.n)
        for i in idx:
            for r in range(L.n + 1):
                for family in combinations(idx, r):
                    joined = L.bottom
                    for j in family:
                        joined = L.join[joined][j]
                    lhs = L.mul[i][joined]
                    rhs = L.bottom
                    for j in family:
                        rhs = L.join[rhs][L.mul[i][j]]
                    assert lhs == rhs


def test_principal_products_multiply(family6):
    for A in family6:
        for x in range(A.n):
            for y in range(A.n):
                lhs = ideal_product(A, principal_ideal(A, x), principal_ideal(A, y))
                assert lhs.mask == principal_ideal_mask_of_product(A, x, y)


def principal_ideal_mask_of_product(A, x, y):
    return principal_ideal(A, A.mul[x][y]).mask


def test_extension_on_two_chain_itself():
    b = two()
    iqb = enumerate_ideals(b)
    f = classify(b, osr.build_from_quantale(osr.chain_frame(2)), [(0, 1)])[0]
    g = extend_to_quantale_hom(f, osr.chain_frame(2), iqb)
    by_label = {iqb.ideals[i].label: g[i] for i in range(len(iqb.ideals))}
    assert by_label == {"{0}": 0, "{0,1}": 1}
