"""Strongly monotone variational inequalities: solvers, stability
measurement, gap oracles, and generalization-rate experiments."""

__version__ = "0.1.0"

from .analysis import (BOUND_NOTE, BernsteinResult, BoundSet, StabilityResult,
                       SweepResult, bernstein_check, bernstein_constant,
                       covering_bound, eg_stability_closed_form,
                       evaluate_bounds, fit_loglog_slope, fit_sweep, game_bound,
                       gd_stability_bound, generalization_sweep,
                       quantile_fit_on, simplex_bound, stability_experiment,
                       stability_gamma, sweep_point, trial_dataset_seed)
from .domains import Ball, Box, Domain, Product, Simplex
from .errors import (BoundViolationError, ConfigError, GenerationError,
                     InfeasiblePointError, NumericalError,
                     VertexEnumerationError)
from .gaps import (GapReport, best_response, gap, gap_report, potential_gap,
                   weak_gap)
from .problems import (NoiseModel, ProblemConstants, QuadraticGame,
                       QuadraticOperator, SampledDataset, constants,
                       empirical_operator, exact_solution,
                       generate_game, generate_operator, monotonicity_modulus,
                       noisy_operator_ceiling, replace_record, sample_dataset,
                       spectral_norm)
from .solvers import (SolverConfig, Trajectory, admissible_eta,
                      contraction_ratio, eg_contraction_bound,
                      eg_contraction_coefficient, eg_step,
                      gd_contraction_bound, gd_step, in_gd_stability_range,
                      run)
