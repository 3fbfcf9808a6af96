"""Space-time multigrid for the 1D heat equation with a Fourier analysis engine."""

__version__ = "0.1.0"

from .core import CoarseningStrategy, SpaceTimeGrid, coarsen_grid, random_field, zero_field
from .heat import (HeatOperator, ProblemData, assemble_operator, assemble_rhs, direct_solve,
                   heat_benchmark_problem, time_march)
from .smoother import SmootherConfig, jacobi_sweep
from .transfer import prolong, prolong_space, prolong_time, restrict, restrict_space, restrict_time
from .cycles import CostCounter, CyclePlan, RunResult, run_cycle, solve
from .lfa import (Frequency, LfaConfig, LowModeMap, RhoBarResult, low_mode_action,
                  omega_opt_numeric, operator_symbol, optimal_omega, restriction_symbol,
                  rho_bar_details, smoother_symbol, smoothing_factor,
                  spectral_radius_over_groups, worst_smoothing_mode)

__all__ = [name for name in dir() if not name.startswith("_")]
