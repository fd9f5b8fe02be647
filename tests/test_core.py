"""Validation and builder behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import osr
from osr import (
    AxiomViolation,
    LabelError,
    NotAPartialOrder,
    NotAQuantale,
    RawSemiringDescription,
    SizeLimit,
    validate,
)
from osr.core import bits, check_lattice_iso, lattice_from_order, subset_lattice
from osr.errors import InternalMismatch, IsoFailure, NotALattice


def desc_zmod(m, le="discrete"):
    lab = [str(i) for i in range(m)]
    return RawSemiringDescription(
        name=f"Z{m}",
        elements=tuple(lab),
        le=le,
        zero="0",
        one=lab[1 % m],
        add_table=tuple(tuple(str((i + j) % m) for j in range(m)) for i in range(m)),
        mul_table=tuple(tuple(str((i * j) % m) for j in range(m)) for i in range(m)),
    )


def test_validate_discrete_ring():
    A = validate(desc_zmod(4))
    assert A.n == 4
    assert A.is_discrete
    assert A.add[3][2] == 1 and A.mul[2][2] == 0


def test_signed_fragment_breaks_multiplication_monotonicity():
    # integers mod 3 relabeled {-1, 0, 1} and chain-ordered like real numbers
    lab = ("-1", "0", "1")
    val = {"-1": -1, "0": 0, "1": 1}
    name = {v % 3: k for k, v in val.items()}
    desc = RawSemiringDescription(
        name="signed",
        elements=lab,
        le="chain",
        zero="0",
        one="1",
        add_table=tuple(
            tuple(name[(val[a] + val[b]) % 3] for b in lab) for a in lab
        ),
        mul_table=tuple(
            tuple(name[(val[a] * val[b]) % 3] for b in lab) for a in lab
        ),
    )
    with pytest.raises(AxiomViolation) as err:
        validate(desc)
    assert any(axiom == "mul-monotone" for axiom, _ in err.value.violations)


def test_three_element_chain_lattice_tables_validate():
    lab = ("b", "m", "t")
    desc = RawSemiringDescription(
        name="chain3-manual",
        elements=lab,
        le="chain",
        zero="b",
        one="t",
        add_table=tuple(tuple(lab[max(i, j)] for j in range(3)) for i in range(3)),
        mul_table=tuple(tuple(lab[min(i, j)] for j in range(3)) for i in range(3)),
    )
    A = validate(desc)
    assert A.le(0, 2) and not A.le(2, 0)


def test_validate_label_errors():
    bad = desc_zmod(3)
    with pytest.raises(LabelError):
        validate(
            RawSemiringDescription(
                name="x",
                elements=bad.elements,
                le="discrete",
                zero="7",
                one="1",
                add_table=bad.add_table,
                mul_table=bad.mul_table,
            )
        )
    with pytest.raises(LabelError):
        validate(
            RawSemiringDescription(
                name="x",
                elements=("0", "0"),
                le="discrete",
                zero="0",
                one="0",
                add_table=(("0", "0"), ("0", "0")),
                mul_table=(("0", "0"), ("0", "0")),
            )
        )
    with pytest.raises(LabelError):
        validate(
            RawSemiringDescription(
                name="x",
                elements=bad.elements,
                le="discrete",
                zero="0",
                one="1",
                add_table=bad.add_table[:2],
                mul_table=bad.mul_table,
            )
        )


def test_size_guardrail():
    with pytest.raises(SizeLimit, match="^validate: carrier has 25 elements"):
        validate(desc_zmod(25))


def _bits_by_shifting(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_on_edge_masks():
    for mask in [0, (1 << 24) - 1, *(1 << i for i in range(24))]:
        assert list(bits(mask)) == _bits_by_shifting(mask)


@given(st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_bits_matches_shift_scan(mask):
    assert list(bits(mask)) == _bits_by_shifting(mask)


def test_le_pairs_take_reflexive_transitive_closure():
    lab = ("0", "1", "2")
    desc = RawSemiringDescription(
        name="chain-by-pairs",
        elements=lab,
        le=(("0", "1"), ("1", "2")),
        zero="0",
        one="2",
        add_table=tuple(tuple(lab[max(i, j)] for j in range(3)) for i in range(3)),
        mul_table=tuple(tuple(lab[min(i, j)] for j in range(3)) for i in range(3)),
    )
    A = validate(desc)
    assert A.le(0, 2)  # closure supplied the missing pair


def test_build_zmod_examples():
    one = osr.build_zmod(1)
    assert one.n == 1 and one.zero == one.one
    four = osr.build_zmod(4)
    assert four.labels == ("0", "1", "2", "3")
    assert four.add[1][3] == 0 and four.mul[3][3] == 1


def test_build_chain_lattice_examples():
    two = osr.build_chain_lattice(2)
    assert two.add == ((0, 1), (1, 1)) and two.mul == ((0, 0), (0, 1))
    assert osr.build_chain_lattice(1).n == 1
    three = osr.build_chain_lattice(3)
    assert three.mul[1][2] == 1  # meet on a chain is min


def test_build_dlat_from_poset():
    diamond = osr.build_dlat_from_poset(2, [])
    assert diamond.n == 4
    chain = osr.build_dlat_from_poset(2, [(0, 1)])
    assert chain.n == 3
    empty = osr.build_dlat_from_poset(0, [])
    assert empty.n == 1
    with pytest.raises(NotAPartialOrder):
        osr.build_dlat_from_poset(2, [(0, 1), (1, 0)])


def test_boolean_ring_matches_two_element_field():
    b1 = osr.build_boolean_ring(1)
    z2 = osr.build_zmod(2)
    assert b1.add == z2.add and b1.mul == z2.mul


def test_boolean_ring_two_atoms_is_product_ring():
    b2 = osr.build_boolean_ring(2)
    # pair (i, j) of bits ordered to match the canonical subset order
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    pos = {p: i for i, p in enumerate(pairs)}
    for a in range(4):
        for b in range(4):
            pa, pb = pairs[a], pairs[b]
            assert b2.add[a][b] == pos[((pa[0] ^ pb[0]), (pa[1] ^ pb[1]))]
            assert b2.mul[a][b] == pos[((pa[0] & pb[0]), (pa[1] & pb[1]))]


def test_boolean_ring_and_downset_lattice_share_carrier():
    b2 = osr.build_boolean_ring(2)
    d2 = osr.build_dlat_from_poset(2, [])
    assert b2.labels == d2.labels
    assert b2.mul == d2.mul  # intersection either way; addition differs


def test_truncated_naturals():
    t1 = osr.build_truncated_naturals(1)
    two = osr.build_chain_lattice(2)
    assert t1.add == two.add and t1.mul == two.mul
    t2 = osr.build_truncated_naturals(2)
    assert t2.add[1][1] == 2 and t2.mul[2][2] == 2


def test_truncated_maxplus():
    m1 = osr.build_truncated_maxplus(1)
    assert m1.n == 3 and m1.labels[0] == "-inf"
    for cap in (1, 2, 3):
        A = osr.build_truncated_maxplus(cap)
        assert all(A.mul[x][A.zero] == A.zero for x in range(A.n))
        # addition is idempotent and induces the stored chain order
        assert all(A.add[x][x] == x for x in range(A.n))
        assert all(
            A.le(x, y) == (A.add[x][y] == y)
            for x in range(A.n)
            for y in range(A.n)
        )


def test_build_from_quantale():
    two_sem = osr.build_from_quantale(osr.chain_frame(2))
    assert two_sem.add == osr.two().add and two_sem.mul == osr.two().mul
    three = osr.build_from_quantale(osr.chain_frame(3))
    c3 = osr.build_chain_lattice(3)
    assert three.add == c3.add and three.mul == c3.mul and three.leq == c3.leq
    plain = lattice_from_order(("a", "b"), (0b11, 0b10))
    with pytest.raises(NotAQuantale):
        osr.build_from_quantale(plain)


def test_order_dual_has_unit_below_zero():
    dual = osr.build_dual_chain(2)
    assert dual.le(dual.one, dual.zero)
    assert not dual.le(dual.zero, dual.one)


def test_discretize():
    z6 = osr.build_zmod(6)
    assert osr.discretize(z6).leq == z6.leq
    flat = osr.discretize(osr.build_chain_lattice(2))
    assert flat.is_discrete
    assert flat.add == osr.two().add  # only the order changes
    for A in (z6, osr.build_chain_lattice(3), osr.build_truncated_maxplus(1)):
        once = osr.discretize(A)
        assert osr.discretize(once).leq == once.leq


def test_builders_deterministic():
    assert osr.build_zmod(6) == osr.build_zmod(6)
    assert osr.build_truncated_maxplus(2) == osr.build_truncated_maxplus(2)


def test_lattice_from_order_requires_bounds():
    # two incomparable points: no join
    with pytest.raises(NotALattice):
        lattice_from_order(("a", "b"), (0b01, 0b10))


def test_nilpotent_chain_quantale_is_integral():
    Q = osr.nilpotent_chain_quantale()
    assert Q.is_integral_quantale
    assert Q.mul != Q.meet  # a quantale that is not its own frame
    assert Q.mul[1][1] == 0  # the middle element squares to bottom


def test_repr_calls_a_product_other_than_meet_a_quantale():
    # both lattices are distributive, so frames under meet, but neither
    # multiplies by meet
    z4_ideals = osr.enumerate_ideals(osr.build_zmod(4)).lattice
    for Q in (z4_ideals, osr.nilpotent_chain_quantale()):
        assert Q.is_distributive and Q.mul != Q.meet
        assert repr(Q) == f"FiniteLattice({Q.name!r}, n=3, quantale)"
    assert repr(osr.chain_frame(3)) == "FiniteLattice('chain3', n=3, frame)"


def test_subset_lattice_checks_meets_and_joins():
    # {}, {0}, {1} and {0,1,2}: the join of {0} and {1} is the whole set
    masks = (0b000, 0b001, 0b010, 0b111)
    labels = ("{}", "{0}", "{1}", "{0,1,2}")
    L = subset_lattice(masks, labels, lambda m: m if m in masks else 0b111)
    assert L.join[1][2] == 3 and L.meet[1][2] == 0
    assert L.mul == L.meet and L.unit == L.top == 3
    # a closure that stops at the union disagrees with the order's join
    with pytest.raises(InternalMismatch, match=r"join of \{0\} and \{1\} in t "):
        subset_lattice(masks, labels, lambda m: m, name="t")


def test_subset_lattice_refuses_what_is_no_closure_system():
    labels = ("{0}", "{1}", "{0,1}")
    with pytest.raises(InternalMismatch, match=r"^t: \{\} is not in the family"):
        subset_lattice((0b01, 0b10, 0b11), labels, lambda m: m, name="t")
    # closed under both operations, but the empty union is not the bottom
    with pytest.raises(InternalMismatch, match="bottom is not the closure"):
        subset_lattice((0b01, 0b11), labels[::2], lambda m: m, name="t")
    # a multiplication without the whole set as unit is no quantale
    with pytest.raises(InternalMismatch, match="^t: unit law fails"):
        subset_lattice((0b0, 0b1), ("{}", "{0}"), lambda m: m, ((0, 0), (0, 0)), "t")


def test_check_lattice_iso_witnesses():
    C = osr.chain_frame(3)
    check_lattice_iso(C, C, (0, 1, 2), "identity")
    with pytest.raises(IsoFailure, match="^squash is not a bijection"):
        check_lattice_iso(C, C, (0, 0, 2), "squash")
    with pytest.raises(IsoFailure, match="^flip does not preserve order"):
        check_lattice_iso(C, C, (2, 1, 0), "flip")
    with pytest.raises(IsoFailure, match="between 3 and 2 elements"):
        check_lattice_iso(C, osr.chain_frame(2), (0, 1, 1), "shrink")


def test_records_are_immutable():
    A = osr.build_zmod(4)
    iq = osr.enumerate_ideals(A)
    f = osr.enumerate_subadditive(A, osr.two())[0]
    for record, field in (
        (A, "name"),
        (iq.lattice, "join"),
        (iq.ideals[0], "mask"),
        (f, "values"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_records_are_equal_and_hash_alike_by_value():
    family = osr.builtin_family(5)
    for A in family:
        B = validate(A.describe())
        assert B is not A and B == A and hash(B) == hash(A)
    assert len(set(family)) == len(family)


def test_a_record_is_not_a_set_of_elements():
    # a NamedTuple is iterable, but its fields are not element indices
    z4 = osr.build_zmod(4)
    I = osr.principal_ideal(z4, 2)
    with pytest.raises(TypeError):
        osr.ideals.as_mask(z4, I)
