"""Entropy, Fisher information and varentropy dynamics of scalar
drift-diffusion processes with constant diffusion coefficient.

The library solves the forward continuity (Fokker-Planck) equation with a
conservative positivity-preserving scheme, evaluates relative entropy,
relative Fisher information and varentropy along the solution, checks the
closed-form varentropy rate against trajectory finite differences, and
cross-validates everything against Monte Carlo path ensembles and the
exactly solvable Ornstein-Uhlenbeck benchmark.
"""

from .grids import (
    Grid,
    Density,
    DensityTrajectory,
    make_uniform_grid,
    integrate,
    gradient,
    laplacian,
    safe_log_ratio,
    support_mask,
    normalized_density,
    gaussian_density,
    mixture_density,
)
from .drifts import (
    GradientDrift,
    QuarticPotential,
    linear_drift,
    double_well_drift,
    invariant_density,
    backward_drift_on_grid,
)
from .fokker_planck import (
    SolverConfig,
    solve,
    reverse_harmonic_residual,
    weighted_residual_norm,
)
from .functionals import (
    FunctionalReport,
    relative_entropy,
    relative_fisher,
    varentropy,
    free_energy_rate,
    varentropy_rate,
    report,
)
from .ou_exact import OUBenchmark
from .monte_carlo import (
    PathEnsemble,
    BinnedEstimate,
    MartingaleRow,
    MCFunctionals,
    ensemble_columns,
    simulate_ensemble,
    estimate_backward_drift,
    backward_drift_target,
    duality_residual,
    martingale_diagnostic,
    mc_functionals,
)
from .scenarios import (
    ScenarioConfig,
    SweepConfig,
    Tolerances,
    ScenarioResult,
    run_scenario,
    monotonicity_sweep,
    convergence_study,
)

__version__ = "0.1.0"
