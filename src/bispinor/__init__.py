"""Numerical Dirac-algebra toolkit.

Constructs gamma matrices, boosted two-spinors, bispinor bases (including
the complex continuation onto the |p0| <= m band), relativistic spin and
energy projectors, and polarization sums, and machine-checks the identities
relating them through a deterministic, seed-stamped verification registry.
"""

from .clifford import (
    METRIC,
    gamma,
    gamma5,
    gamma5_from_epsilon,
    gamma_dot_spatial,
    gamma_lower,
    generalized_pauli,
    minkowski_dot,
    pauli,
    pauli_dot,
    sigma_munu,
    slash,
    trace,
)
from .projectors import (
    POLSUM_KINDS,
    diad,
    energy_projector,
    pi_projector,
    polsum,
    spin_projector,
    spin_projector_rest,
)
from .spinors import (
    HELICITIES,
    BoostParams,
    KinematicPoint,
    RegionError,
    antisym_bispinor,
    apply_boost,
    basis_spinor,
    boosted_spinor,
    breve_u,
    breve_u_bar,
    dirac_adjoint,
    dirac_u,
    dirac_u_bar,
    kappa,
    parity_components,
    rest_basis,
    spinor_from_breve,
    tetrad_bispinor,
)
from .verify import (
    CONVENTIONS,
    DEFAULT_TOLERANCE,
    TOOL_VERSION,
    CheckResult,
    ConfigurationError,
    IdentityCheck,
    VerificationReport,
    registry,
    run_all,
    run_check,
    section4_two_valued,
)

__version__ = TOOL_VERSION
