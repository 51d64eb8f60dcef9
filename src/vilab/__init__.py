"""Strongly monotone variational inequalities: solvers, stability
measurement, gap oracles, and generalization-rate experiments."""

__version__ = "0.1.0"

from .analysis import (BOUND_NOTE, BernsteinResult, StabilityResult, SweepResult,
                       bernstein_check, bernstein_constant, covering_bound,
                       evaluate_bounds, fit_loglog_slope, game_bound,
                       generalization_sweep, simplex_bound, stability_experiment,
                       trial_dataset_seed)
from .domains import Ball, Box, Domain, Product, Simplex
from .errors import (BoundViolationError, ConfigError, GenerationError,
                     InfeasiblePointError, NumericalError)
from .gaps import (GapReport, best_response, gap, gap_report, potential_gap,
                   weak_gap)
from .problems import (NoiseModel, ProblemConstants, QuadraticGame,
                       QuadraticOperator, SampledDataset, constants,
                       empirical_operator, exact_solution,
                       generate_game, generate_operator, monotonicity_modulus,
                       sample_dataset, sampled_constants, spectral_norm)
from .solvers import (SolverConfig, Trajectory, admissible_eta,
                      contraction_bound, contraction_ratio, run,
                      stability_bound)
