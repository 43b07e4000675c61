"""Deciders for lazy bipartite quantum states.

A bipartite state is lazy with respect to one subsystem when it commutes
with that subsystem's reduced state, which is equivalent to the subsystem
entropy being stationary under every coupling to the other side.  The
package detects laziness for finite-dimensional states (directly and via
an su(n) structure-constant criterion) and for two-mode Gaussian states
(via the covariance standard form), with dynamical and truncated
number-basis cross-checks.
"""

__version__ = "0.1.0"

from .bloch import (
    BlochForm,
    DensityMatrix,
    SectorDensityMatrix,
    decompose,
    random_density_matrix,
    reconstruct,
    reduced_state,
)
from .dynamics import (
    Coupling,
    DynamicsAudit,
    derive_trial_seed,
    dynamics_audit,
    entropy,
    entropy_rate,
    evolve,
    product_couplings,
    random_coupling,
)
from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    LazyStatesError,
    TruncationError,
    UnphysicalFormError,
)
from .examples import generate_example, maximally_entangled, product_state, werner
from .gaussian import (
    CovarianceState,
    GaussianStandardForm,
    KernelPair,
    commutator_kernels,
    fock_truncate,
    is_lazy_gaussian,
    kernel_determinant,
    kernel_quadratic_closed_form,
    kernel_quadratic_difference,
    random_standard_form,
    squeezed_thermal_form,
    squeezed_thermal_parameters,
    standard_form_from_covariance,
)
from .laziness import (
    LazinessReport,
    commutator_residual,
    contraction_matrix,
    criterion_matrix,
    criterion_prefactor,
    diagonal_correlation_state,
    is_lazy,
)
from .stateio import canonical_json, load_covariance, load_state, save_state
from .su_algebra import StructureConstants, SuBasis, build_su_basis

__all__ = [
    "__version__",
    # su_algebra
    "SuBasis", "StructureConstants", "build_su_basis",
    # bloch
    "DensityMatrix", "SectorDensityMatrix", "BlochForm", "decompose", "reconstruct",
    "reduced_state", "random_density_matrix",
    # laziness
    "LazinessReport", "commutator_residual", "contraction_matrix",
    "criterion_matrix", "criterion_prefactor", "is_lazy",
    "diagonal_correlation_state",
    # dynamics
    "Coupling", "DynamicsAudit", "entropy", "evolve", "entropy_rate",
    "random_coupling", "product_couplings", "derive_trial_seed", "dynamics_audit",
    # gaussian
    "GaussianStandardForm", "CovarianceState", "KernelPair",
    "standard_form_from_covariance",
    "commutator_kernels", "kernel_determinant",
    "kernel_quadratic_closed_form", "kernel_quadratic_difference",
    "is_lazy_gaussian", "squeezed_thermal_parameters", "squeezed_thermal_form",
    "fock_truncate", "random_standard_form",
    # io / examples
    "load_state", "save_state", "load_covariance", "canonical_json",
    "maximally_entangled", "product_state", "werner", "generate_example",
    # errors
    "LazyStatesError", "InvalidStateError", "DimensionMismatchError",
    "UnphysicalFormError", "TruncationError",
]
