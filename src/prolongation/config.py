"""Single audit point for every numerical tolerance used by the package.

Library code reads :data:`TOLERANCES` directly; no function takes a
tolerance record as an argument.
"""

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    """Thresholds for rank decisions, certificates and sampling checks.

    Every numerical-dependence decision (a rank, a nullspace, a dependent
    generator, a singular conjugating matrix) compares against ``rank_rel``;
    the remaining knobs gate individual certificates, input rejections and
    consistency checks.
    """

    # linear algebra substrate
    rank_rel: float = 1e-9            # numerical dependence: rank, generators, conjugation
    orthonormality: float = 1e-10     # unit-norm slack of a rank-one witness

    # obstruction certificates
    certificate: float = 1e-7         # rank-one sigma_2/sigma_1 gate; complex-pair conditions
    certificate_distance: float = 1e-8  # distance of a witness's matrices from V
    polish_stall_window: int = 100    # projection steps over which sigma_2/sigma_1 must halve
    polish_newton_ratio: float = 1e-2  # sigma_2/sigma_1 below which Newton steps finish the polish

    # derivative and manifold checks
    fd_step: float = 1e-5             # central finite-difference step for Jacobians
    on_manifold: float = 1e-9         # residual bound for points on a constraint set
    jet_consistency: float = 1e-8     # least-squares residual bound for jet systems

    def to_dict(self) -> dict:
        return asdict(self)


TOLERANCES = Tolerances()
