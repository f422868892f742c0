"""Chain invariants, obstruction witnesses and polynomial solution spaces
for first-order constraints that pin the Jacobian of an unknown map to a
subspace (or curved family) of matrices."""

from .config import TOLERANCES, Tolerances
from .symtensor import (
    HomPoly,
    PolyMap,
    contract,
    derive,
    hom_dim,
    jacobian,
    monomial_basis,
    polymap_from_json,
    polymap_to_json,
    slot_matrix,
)
from .matspace import (
    MatrixSubspace,
    conjugate,
    distance,
    largest_principal_angle,
    make_subspace,
    project,
    subspace_from_json,
    subspace_to_json,
    subspaces_equal,
)
from .prolong import (
    ChainReport,
    DeltaStatus,
    HomSolutionSpace,
    chain,
    constants_space,
    membership_residual,
    mk_direct,
    mk_step,
)
from .obstruct import (
    ComplexPairWitness,
    InternalInconsistencyError,
    RankOneWitness,
    classify_delta_full,
    complex_structure_plane,
    find_complex_pair,
    find_rank_one,
    find_witnesses,
    verify_complex_pair,
    verify_rank_one,
)
from .polyspace import (
    MembershipReport,
    PolyBasis,
    reduced_basis,
    solution_basis,
    verify_membership,
)
from .manifolds import (
    AugmentedSubspace,
    ConstraintFamily,
    DegeneratePointError,
    JetReport,
    ManifoldReport,
    augment_with_full_range,
    augmented_from_json,
    augmented_jet_space,
    augmented_to_json,
    builtin_family,
    linear_family,
    make_augmented,
    quaternion_right_multiplications,
    sample_analysis,
    tangent_space,
)

__version__ = "0.1.0"
