"""Bosonic mean-field laboratory.

Exact N-particle dynamics on the permutation-symmetric sector, the
nonlinear one-body mean-field flow it converges to, the finite-N hierarchy
for reduced density matrices, and the explicit error/locality bounds that
tie the three together — numpy only and desk-sized, built for correctness
checks rather than scale.
"""

from ._limits import MAX_BASIS_SIZE, MAX_DENSE_BYTES
from ._version import __version__
from .bounds import (
    commutator_growth_bound,
    correlation_gap_bound,
    mean_field_error_bound,
    trace_distance,
)
from .exact_dynamics import (
    bbgky_rhs,
    commutator_growth,
    correlation_gap,
    evolve_exact,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    run_bbgky,
    run_bounds,
    run_convergence,
    run_corr,
    run_lr,
    write_plot_data,
    write_rows,
)
from .hartree import (
    DensityMatrix,
    HartreeTrajectory,
    hartree_evolve,
    mean_field_energy,
    pure_state_density,
)
from .operators import (
    BoundConstants,
    HamiltonianSpec,
    bound_constants,
    permute_slots,
    slot_symmetrize,
    validate_potential,
    vtilde,
)
from .symmetric_space import (
    OccupationBasis,
    SparseHermitian,
    SymmetricState,
    build_hamiltonian,
    embed_product_state,
    enumerate_basis,
    rdm,
)

__all__ = [
    "BoundConstants",
    "ConfigError",
    "DensityMatrix",
    "ExperimentConfig",
    "HamiltonianSpec",
    "HartreeTrajectory",
    "MAX_BASIS_SIZE",
    "MAX_DENSE_BYTES",
    "OccupationBasis",
    "SparseHermitian",
    "SymmetricState",
    "bbgky_rhs",
    "bound_constants",
    "build_hamiltonian",
    "commutator_growth",
    "commutator_growth_bound",
    "config_from_dict",
    "correlation_gap",
    "correlation_gap_bound",
    "embed_product_state",
    "enumerate_basis",
    "evolve_exact",
    "hartree_evolve",
    "load_config",
    "mean_field_energy",
    "mean_field_error_bound",
    "permute_slots",
    "pure_state_density",
    "rdm",
    "run_bbgky",
    "run_bounds",
    "run_convergence",
    "run_corr",
    "run_lr",
    "slot_symmetrize",
    "trace_distance",
    "validate_potential",
    "vtilde",
    "write_plot_data",
    "write_rows",
]
