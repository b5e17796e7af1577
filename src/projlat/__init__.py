"""Finite subspace lattices over GF(q), their orthomodular posets of
projections, and exhaustive verification of the even/odd classification of
poset automorphisms.

The pipeline: build GF(p^k) -> enumerate the subspace lattice of GF(q)^n ->
build the poset of complementary pairs (images and kernels of idempotent
matrices) -> enumerate automorphism groups on both levels -> decompose every
poset automorphism as even (from a lattice automorphism) or odd (from a
lattice anti-automorphism), and tie both to matrix-level witnesses:
semilinear maps for lattice maps, ring (anti-)automorphisms for poset maps.
"""

from .gf import GF, FieldAutomorphism, FieldError, parse_field
from .lattice import (
    AmbientTooLarge,
    Subspace,
    SubspaceLattice,
    check_g_lattice_properties,
    enumerate_subspaces,
    gaussian_binomial,
    projection_pair_count,
    subspace_count_total,
)
from .projposet import (
    NotIdempotent,
    ProjectionPoset,
    build_projection_poset,
    enumerate_idempotents,
    idempotent_to_subspaces,
    projector_matrix,
    verify_omp_axioms,
    verify_projection_correspondence,
)
from .maps import (
    ANTI,
    AUTO,
    EVEN,
    LatticeMap,
    ODD,
    PosetMap,
    UNKNOWN,
    compose_directions,
    compose_parities,
    identity_perm,
    perm_compose,
    perm_inverse,
)
from .semilinear import (
    BilinearForm,
    MatchFailure,
    SemilinearMap,
    induced_lattice_map,
    make_duality,
    match_semilinear,
    standard_duality,
    verify_lattice_map,
)
from .autos import (
    FalsificationError,
    SearchBudgetExceeded,
    classify_parity,
    decompose_poset_automorphism,
    enumerate_lattice_automorphisms,
    enumerate_poset_automorphisms,
    even_from_lattice_automorphism,
    odd_from_anti_automorphism,
    projective_group_order,
    verify_fundamental_correspondence,
    verify_main_theorem,
    verify_semidirect_structure,
)
from .ringmaps import (
    RingMap,
    anti_automorphism_from_semilinear,
    center_is_scalars,
    check_im_ker_lemma,
    conjugation_automorphism,
    extend_to_ring_map,
    extract_semilinear_from_ring_iso,
    restrict_to_projections,
    transpose_anti_automorphism,
)
from .reports import CampaignReport, canonical_json, report_to_jsonable, sha256_of

__version__ = "0.1.0"

__all__ = [
    "GF",
    "FieldAutomorphism",
    "FieldError",
    "parse_field",
    "AmbientTooLarge",
    "Subspace",
    "SubspaceLattice",
    "check_g_lattice_properties",
    "enumerate_subspaces",
    "gaussian_binomial",
    "projection_pair_count",
    "subspace_count_total",
    "NotIdempotent",
    "ProjectionPoset",
    "build_projection_poset",
    "enumerate_idempotents",
    "idempotent_to_subspaces",
    "projector_matrix",
    "verify_omp_axioms",
    "verify_projection_correspondence",
    "ANTI",
    "AUTO",
    "EVEN",
    "LatticeMap",
    "ODD",
    "PosetMap",
    "UNKNOWN",
    "compose_directions",
    "compose_parities",
    "identity_perm",
    "perm_compose",
    "perm_inverse",
    "BilinearForm",
    "MatchFailure",
    "SemilinearMap",
    "induced_lattice_map",
    "make_duality",
    "match_semilinear",
    "standard_duality",
    "verify_lattice_map",
    "CampaignReport",
    "FalsificationError",
    "SearchBudgetExceeded",
    "classify_parity",
    "decompose_poset_automorphism",
    "enumerate_lattice_automorphisms",
    "enumerate_poset_automorphisms",
    "even_from_lattice_automorphism",
    "odd_from_anti_automorphism",
    "projective_group_order",
    "verify_fundamental_correspondence",
    "verify_main_theorem",
    "verify_semidirect_structure",
    "RingMap",
    "anti_automorphism_from_semilinear",
    "center_is_scalars",
    "check_im_ker_lemma",
    "conjugation_automorphism",
    "extend_to_ring_map",
    "extract_semilinear_from_ring_iso",
    "restrict_to_projections",
    "transpose_anti_automorphism",
    "canonical_json",
    "report_to_jsonable",
    "sha256_of",
]
