"""Accelerated minibatch stochastic optimization with rate verification."""

from .problems import (
    ProblemMeta, Problem, SampleStream,
    DiscreteLeastSquares, DeterministicQuadratic,
    make_interpolation_least_squares, make_sign_vector_problem,
    make_gaussian_spike_problem, make_growth_problem,
    make_noiseless_quadratic, sample_batch, minibatch_gradient,
    problem_from_config, config_hash,
)
from .optimizers import (
    StepSchedule, OptimizerState, make_schedule, project_ball, acc_step,
    run_acc_mb_sgd, run_sgd, stage_budget, Stage, StagePlan,
    make_stage_plan, make_budget_plan, run_restarted, accel_error_bound,
)
from .analysis import (
    RateFit, exact_min, variance_at, fit_rate, time_to_eps, critical_batch,
    check_projection_lemma, certify_assumptions,
)
from .trace import RunTrace

__version__ = "0.1.0"
