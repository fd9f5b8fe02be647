"""Finite ordered semirings, their ideal quantales, radical frames, and
prime spectra, with every structural theorem machine-checked by exhaustive
enumeration at desk scale."""

from .analysis import Analysis
from .builders import (
    BUILDER_SPECS,
    build_boolean_ring,
    build_chain_lattice,
    build_dlat_from_poset,
    build_dual_chain,
    build_from_quantale,
    build_truncated_maxplus,
    build_truncated_naturals,
    build_zmod,
    builtin_family,
    chain_frame,
    diamond_frame,
    discretize,
    downset_frame,
    from_builder_spec,
    nilpotent_chain_quantale,
    order_dual,
    two,
)
from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    RawSemiringDescription,
    lattice_from_order,
    validate,
)
from .errors import (
    AxiomViolation,
    DuplicateLabel,
    EndpointMismatch,
    LabelError,
    MissingSection,
    NotAPartialOrder,
    NotAQuantale,
    NotIntegral,
    NotSubadditive,
    OsrError,
    OwnerMismatch,
    ParseError,
    SizeLimit,
    VerificationFailure,
)
from .homs import enumerate_quantale_homs
from .ideals import (
    Ideal,
    IdealLattice,
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
)
from .morphisms import (
    MorphismTable,
    check_homomorphism_criteria,
    classify,
    compose,
    enumerate_sub_submul,
    enumerate_subadditive,
)
from .radicals import (
    check_coherence,
    check_frame_universality,
    check_radical_equals_semiprime,
    distributive_reflection,
    enumerate_radical_ideals,
    is_radical,
    radical_closure,
    semiprime_elements,
    small_distributive_lattices,
)
from .spectrum import (
    FiniteTopSpace,
    check_degeneracy_equivalence,
    check_maximal_implies_prime,
    check_prime_element_correspondence,
    check_radical_opens_iso,
    check_sober,
    check_spectrum_homeomorphism,
    enumerate_maximal,
    enumerate_primes,
    frame_points,
    make_space,
    opens_frame,
    spectrum_space,
)

__version__ = "0.1.0"
