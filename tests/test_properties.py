"""Law-style properties over randomly drawn subsets and maps."""

from hypothesis import given, settings
from hypothesis import strategies as st

import osr
from osr import (
    check_product_of_generators,
    generated_ideal,
    generated_ideal_by_sums,
    radical_closure,
)
from osr.morphisms import classify, compose
from osr.osrfile import parse, render

FAMILY = osr.builtin_family(8)


@st.composite
def instance_and_mask(draw, masks=1):
    A = draw(st.sampled_from(FAMILY))
    drawn = tuple(
        draw(st.integers(min_value=0, max_value=(1 << A.n) - 1))
        for _ in range(masks)
    )
    return (A,) + drawn


@given(instance_and_mask())
def test_generation_is_a_closure_operator(case):
    A, s = case
    ideal = generated_ideal(A, s)
    assert s & ~ideal.mask == 0
    assert generated_ideal(A, ideal.mask).mask == ideal.mask
    assert osr.is_ideal(A, ideal.mask)


@given(instance_and_mask(masks=2))
def test_generation_is_monotone(case):
    A, s, t = case
    small = generated_ideal(A, s & t).mask
    assert small & ~generated_ideal(A, s).mask == 0
    assert small & ~generated_ideal(A, t).mask == 0


@given(instance_and_mask())
def test_fixed_point_equals_sum_formula(case):
    A, s = case
    assert generated_ideal(A, s).mask == generated_ideal_by_sums(A, s)


@given(instance_and_mask(masks=2))
def test_product_of_generated_ideals(case):
    A, s, t = case
    assert check_product_of_generators(A, [(s, t)]) == [True]


@given(instance_and_mask())
def test_radical_closure_laws(case):
    A, s = case
    ideal = generated_ideal(A, s)
    r = radical_closure(A, ideal)
    assert ideal.mask & ~r.mask == 0
    assert radical_closure(A, r).mask == r.mask
    assert osr.is_radical(A, r.mask)


@given(st.sampled_from(FAMILY))
@settings(max_examples=25)
def test_description_round_trip(A):
    desc = A.describe()
    assert parse(render(desc)) == desc


@given(st.data())
@settings(max_examples=40)
def test_composite_classification_is_compatible(data):
    A = data.draw(st.sampled_from([osr.build_zmod(4), osr.build_chain_lattice(3)]))
    B = data.draw(st.sampled_from([osr.two(), osr.build_chain_lattice(3)]))
    C = data.draw(st.sampled_from([osr.two(), osr.build_chain_lattice(2)]))
    f_vals = tuple(
        data.draw(st.integers(min_value=0, max_value=B.n - 1)) for _ in range(A.n)
    )
    g_vals = tuple(
        data.draw(st.integers(min_value=0, max_value=C.n - 1)) for _ in range(B.n)
    )
    (f,), (g,) = classify(A, B, [f_vals]), classify(B, C, [g_vals])
    h = compose(f, g)
    if f.multiplicative and g.multiplicative:
        assert h.multiplicative
    if f.monotone and g.monotone:
        assert h.monotone
    if f.is_subadditive_morphism and g.is_subadditive_morphism:
        assert h.is_subadditive_morphism
