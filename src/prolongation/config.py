"""Single audit point for every numerical tolerance used by the package.

Library code reads :data:`TOLERANCES` directly; no function takes a
tolerance record as an argument.
"""

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    """Thresholds for rank decisions, certificates and sampling checks.

    All rank/nullspace decisions use singular values against
    ``rank_rel * max(1, sigma_1)``; the remaining knobs gate individual
    certificates, input rejections and consistency checks.
    """

    # linear algebra substrate
    rank_rel: float = 1e-9            # SVD rank / nullspace threshold (relative)
    gram_schmidt_drop: float = 1e-10  # generator dropped below this residual fraction
    orthonormality: float = 1e-10     # pairwise basis inner-product slack
    subspace_angle: float = 1e-8      # max principal angle for subspace equality
    singular_rel: float = 1e-12       # sigma_min/sigma_max rejecting a conjugating matrix

    # obstruction certificates
    rank_one_ratio: float = 1e-7      # sigma_2/sigma_1 gate for rank-one candidates
    rank_one_residual: float = 1e-8   # certified distance of psi (x) w from V
    certificate: float = 1e-7         # complex-pair conditions (rank, gaps, square)
    certificate_distance: float = 1e-8  # distance of the pair elements from V
    quarter_turn_det: float = 1e-10   # |det S| below which the pair's frame is rejected

    # derivative and manifold checks
    fd_step: float = 1e-5             # central finite-difference step for Jacobians
    manifold_fd_step: float = 1e-6    # step for constraint-set tangent extraction
    on_manifold: float = 1e-9         # residual bound for points on a constraint set
    symmetric_drop: float = 1e-12     # trace-free diagonal direction dropped below this
    jet_consistency: float = 1e-8     # least-squares residual bound for jet systems

    def to_dict(self) -> dict:
        return asdict(self)


TOLERANCES = Tolerances()
