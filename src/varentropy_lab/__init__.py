"""Entropy, Fisher information and varentropy dynamics of scalar
drift-diffusion processes with constant diffusion coefficient.

The library solves the forward continuity (Fokker-Planck) equation with a
conservative positivity-preserving method, evaluates relative entropy,
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
    safe_log_ratio,
    support_mask,
    normalized_density,
    gaussian_density,
    mixture_density,
)
from .drifts import (
    GradientDrift,
    linear_drift,
    double_well_drift,
    invariant_density,
    backward_drift_on_grid,
)
from .fokker_planck import SolverConfig, solve
from .functionals import (
    FunctionalReport,
    central_difference,
    relative_entropy,
    relative_fisher,
    varentropy,
    varentropy_rate,
    report,
)
from .ou_exact import OUBenchmark
from .monte_carlo import (
    MartingaleRow,
    MCFunctionals,
    ensemble_columns,
    ensemble_times,
    simulate_ensemble,
    estimate_backward_drift,
    backward_drift_target,
    martingale_diagnostic,
    mc_functionals,
)
from .config import ConfigError, ScenarioConfig, SweepConfig
from .scenarios import (
    run_scenario,
    monotonicity_sweep,
    convergence_study,
)

__version__ = "0.1.0"
