"""Accelerated minibatch SGD, a plain minibatch SGD baseline, and the
restart meta-scheme that upgrades the convex-rate method to linear
convergence under quadratic growth.

The accelerated method keeps two coupled sequences: a projected iterate
``w`` and an averaged iterate ``w_ag``.  Each step queries the minibatch
gradient at the momentum blend ``w_md = w / beta_t + (1 - 1/beta_t) w_ag``,
moves ``w`` with a stepsize that grows linearly in ``t``, projects back to
the feasible ball, and folds the result into the average.  The base
stepsize is the minimum of a smoothness-limited, a horizon-limited, and a
noise-limited term, the last one dropping out when the gradient variance at
the minimizer is zero.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .problems import Problem, SampleStream, config_hash, minibatch_gradient, sample_batch
from .trace import RunTrace, TraceRecorder, canonical_json, sha256_text

__all__ = [
    "StepSchedule",
    "OptimizerState",
    "NonFiniteGradientError",
    "make_schedule",
    "project_ball",
    "acc_step",
    "run_acc_mb_sgd",
    "run_sgd",
    "stage_budget",
    "Stage",
    "StagePlan",
    "make_stage_plan",
    "make_budget_plan",
    "run_restarted",
    "accel_error_bound",
]

# coefficients of the accelerated method's explicit error bound
#   C_DET * H B^2 / T^2 + C_MB * H B^2 / (b T) + C_NOISE * sigma_* B / sqrt(b T)
# used to size restart stage budgets
_C_DET = 108.0
_C_MB = 144.0
_C_NOISE = 27.0

class NonFiniteGradientError(RuntimeError):
    """A minibatch gradient came back with NaN or infinite entries."""


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize/momentum schedule of the accelerated method.

    ``beta(t) = 1 + t/6`` and ``gamma_t(t) = gamma * (t + 1)``; the base
    stepsize satisfies ``2 H gamma_t(t) <= beta(t)`` for every ``t < T``.
    ``noise_sq`` is the gradient variance bound at the minimizer (by
    default twice the smoothness constant times the minimum loss).
    """

    gamma: float
    T: int
    b: int
    H: float
    B: float
    noise_sq: float

    def beta(self, t: int) -> float:
        return 1.0 + t / 6.0

    def gamma_t(self, t: int) -> float:
        return self.gamma * (t + 1)


def make_schedule(H: float, b: int, T: int, B: float,
                  noise_sq: float) -> StepSchedule:
    """Build the schedule for a run of horizon ``T`` with batches of size ``b``.

    The base stepsize is
    ``min(1 / (12 H), b / (24 H (T + 1)), sqrt(b B**2 / (noise_sq T**3)))``,
    the last term treated as infinite when ``noise_sq`` is zero.
    """
    if H <= 0 or B <= 0:
        raise ValueError(f"H and B must be positive, got H={H}, B={B}")
    if T < 1 or b < 1:
        raise ValueError(f"T and b must be >= 1, got T={T}, b={b}")
    if noise_sq < 0:
        raise ValueError(f"noise_sq must be >= 0, got {noise_sq}")
    gamma = min(1.0 / (12.0 * H), b / (24.0 * H * (T + 1)))
    if noise_sq > 0:
        gamma = min(gamma, math.sqrt(b * B**2 / (noise_sq * T**3)))
    return StepSchedule(gamma=gamma, T=int(T), b=int(b), H=float(H),
                        B=float(B), noise_sq=float(noise_sq))


def project_ball(w: np.ndarray, B: float) -> np.ndarray:
    """Euclidean projection of a 1-D float array onto the origin-centered
    ball of radius ``B``; a point inside the ball is returned as is."""
    if B <= 0:
        raise ValueError(f"radius must be positive, got {B}")
    # what ``np.linalg.norm`` computes for a 1-D float array, without its
    # dispatch
    norm = math.sqrt(w.dot(w))
    if norm <= B:
        return w
    return w * (B / norm)


@dataclass(slots=True)
class OptimizerState:
    """Projected iterate, averaged iterate, and the step counter."""

    w: np.ndarray
    w_ag: np.ndarray
    t: int


def _zero_state(d: int) -> OptimizerState:
    return OptimizerState(w=np.zeros(d), w_ag=np.zeros(d), t=0)


def acc_step(state: OptimizerState, schedule: StepSchedule, problem: Problem,
             stream: SampleStream, recorder: TraceRecorder | None = None,
             center: np.ndarray | None = None, stage: int = 0,
             t_offset: int = 0) -> OptimizerState:
    """One update of the accelerated method.

    State vectors live in coordinates relative to ``center`` (the origin for
    plain runs); gradients are evaluated at the corresponding absolute
    point.  The completed step's vectors are appended to ``recorder`` when
    one is given; every one of them is a fresh array that no later step
    writes into, as ``TraceRecorder.append`` requires.
    """
    t = state.t
    if t >= schedule.T:
        raise ValueError(f"step t={t} beyond schedule horizon T={schedule.T}")
    beta_inv = 1.0 / schedule.beta(t)
    gamma_t = schedule.gamma_t(t)
    w_ag_part = (1.0 - beta_inv) * state.w_ag
    w_md = beta_inv * state.w + w_ag_part

    query = w_md if center is None else center + w_md
    g = _checked_gradient(problem, query, schedule.b, stream, t)

    w_next = project_ball(state.w - gamma_t * g, schedule.B)
    w_ag_next = beta_inv * w_next + w_ag_part

    if recorder is not None:
        point = w_ag_next if center is None else center + w_ag_next
        recorder.append(t_offset + t + 1, w_next, w_ag_next, point, query, g,
                        stage)
    return OptimizerState(w=w_next, w_ag=w_ag_next, t=t + 1)


def _checked_gradient(problem, query, b, stream, t):
    batch = sample_batch(problem, b, stream)
    g = minibatch_gradient(problem, query, batch)
    # a finite squared norm implies finite entries; only an overflowing or
    # non-finite one needs the entry-wise test
    if not (math.isfinite(g.dot(g)) or np.isfinite(g).all()):
        raise NonFiniteGradientError(f"non-finite gradient at step t={t}")
    return g


@contextmanager
def _abort_on_nonfinite(recorder):
    """Mark the trace aborted, with its reason, on a non-finite gradient."""
    try:
        yield
    except NonFiniteGradientError as err:
        recorder.aborted = True
        recorder.header["abort_reason"] = str(err)


def _run_header(problem, algorithm, b, T, seed, schedule=None, extra=None):
    cfg = problem.config()
    hdr = {
        "problem": cfg,
        "problem_hash": config_hash(cfg),
        "algorithm": algorithm,
        "b": int(b),
        "T": int(T),
        "seed": int(seed),
    }
    if schedule is not None:
        hdr["schedule"] = asdict(schedule)
        hdr["schedule_hash"] = sha256_text(canonical_json(hdr["schedule"]))[:16]
    if extra:
        hdr.update(extra)
    return hdr


def run_acc_mb_sgd(problem: Problem, b: int, T: int,
                   B_override: float | None = None,
                   lstar_override: float | None = None,
                   seed: int = 0) -> tuple[np.ndarray, RunTrace]:
    """Run the accelerated method for ``T`` steps from the origin.

    The feasible radius defaults to the problem's certified minimizer-norm
    bound and the minimum loss to the certified one, which sets the noise
    parameter to twice the smoothness constant times it; both accept
    looser upper bounds via the overrides.  Returns the final averaged
    iterate and the full trace.
    """
    meta = problem.meta
    B = meta.B if B_override is None else float(B_override)
    lstar = meta.Lstar if lstar_override is None else float(lstar_override)
    schedule = make_schedule(meta.H, b, T, B, 2.0 * meta.H * lstar)
    header = _run_header(problem, "acc_mb_sgd", b, T, seed, schedule)
    return _run_stages(problem, header, seed, [schedule])


def _run_stages(problem, header, seed, schedules, center=None):
    """Run the accelerated method through consecutive stages of one stream.

    Each stage restarts from the zero state under its own schedule, and its
    trace rows continue the step count of the stages before it.  Without a
    ``center`` there is one stage, numbered 0, at the origin; the run
    returns its averaged iterate, partial if a step aborted.  With one, the
    stages are numbered from 1 and each runs in coordinates shifted to the
    current centre, which then moves by the stage's averaged iterate; the
    run returns the last centre reached by a completed stage.
    """
    recorder = TraceRecorder(header, problem)
    stream = problem.stream(seed)
    t_offset = 0
    with _abort_on_nonfinite(recorder):
        for stage, schedule in enumerate(schedules,
                                         start=0 if center is None else 1):
            state = _zero_state(problem.d)
            for _ in range(schedule.T):
                # looked up in the module at each call, so a wrapper
                # installed there sees every step
                state = acc_step(state, schedule, problem, stream, recorder,
                                 center, stage, t_offset)
            if center is not None:
                center = center + state.w_ag
            t_offset += schedule.T
    return (state.w_ag if center is None else center), recorder.build()


def run_sgd(problem: Problem, b: int, T: int, seed: int = 0,
            eta: float | None = None,
            B_override: float | None = None) -> tuple[np.ndarray, RunTrace]:
    """Projected minibatch SGD with tail averaging, as a baseline.

    The stepsize is the constant ``min(1 / (2 H), eta)``; pass ``eta`` from
    a tuning grid to give the baseline its best case.  The averaged iterate
    at step ``t`` is the mean of the most recent ``ceil(t / 2)`` projected
    iterates, and the final tail average is returned.
    """
    meta = problem.meta
    B = meta.B if B_override is None else float(B_override)
    step = 1.0 / (2.0 * meta.H)
    if eta is not None:
        step = min(step, float(eta))
    header = _run_header(problem, "sgd", b, T, seed,
                         extra={"eta": step, "B": B})
    recorder = TraceRecorder(header, problem)
    stream = problem.stream(seed)
    w = np.zeros(problem.d)
    w_avg = np.zeros(problem.d)  # stays the origin if step 0 aborts
    prefix = [np.zeros(problem.d)]  # prefix[k] = sum of w_1..w_k
    with _abort_on_nonfinite(recorder):
        for t in range(T):
            g = _checked_gradient(problem, w, b, stream, t)
            w_next = project_ball(w - step * g, B)
            prefix.append(prefix[-1] + w_next)
            lo = (t + 1) // 2  # average w_{lo+1} .. w_{t+1}
            w_avg = (prefix[t + 1] - prefix[lo]) / (t + 1 - lo)
            # w, w_next and w_avg are fresh each step and never written
            recorder.append(t + 1, w_next, w_avg, w_avg, w, g, 0)
            w = w_next
    return w_avg, recorder.build()


# ---------------------------------------------------------------------------
# restart scheme
# ---------------------------------------------------------------------------


def accel_error_bound(T: int, H: float, B_sq: float, b: int,
                      Lstar: float) -> float:
    """Explicit suboptimality bound of the accelerated method after ``T`` steps."""
    sigma_star = math.sqrt(2.0 * H * Lstar)
    return (_C_DET * H * B_sq / T**2 + _C_MB * H * B_sq / (b * T)
            + _C_NOISE * sigma_star * math.sqrt(B_sq) / math.sqrt(b * T))


def stage_budget(eps: float, B_sq: float, H: float, b: int,
                 Lstar: float) -> int:
    """Smallest horizon whose error bound is at most ``eps``.

    The bound is strictly decreasing in ``T`` and tends to zero, so the
    doubling-then-bisection search always terminates.
    """
    if eps <= 0 or B_sq <= 0:
        raise ValueError("eps and B_sq must be positive")
    hi = 1
    while accel_error_bound(hi, H, B_sq, b, Lstar) > eps:
        hi *= 2
    if hi == 1:
        return 1
    lo = hi // 2  # bound(lo) > eps >= bound(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accel_error_bound(mid, H, B_sq, b, Lstar) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Stage:
    eps_t: float
    B_t: float
    T_t: int


@dataclass(frozen=True)
class StagePlan:
    """Restart schedule: geometrically shrinking targets and radii.

    Stage ``t`` (1-based) targets suboptimality ``theta**-t * Delta`` inside
    a ball of squared radius ``2 theta**(1-t) Delta / lam`` around the
    previous stage's output, with just enough iterations for the error
    bound to meet the target.
    """

    theta: float
    stages: tuple[Stage, ...]
    lam: float
    Delta: float
    H: float
    b: int
    Lstar: float

    @property
    def total_iterations(self) -> int:
        return sum(s.T_t for s in self.stages)


def _check_plan_args(Delta: float, theta: float, lam: float) -> None:
    if theta <= 1:
        raise ValueError(f"theta must exceed 1, got {theta}")
    if Delta <= 0:
        raise ValueError(f"Delta must be positive, got {Delta}")
    if lam <= 0:
        raise ValueError(f"growth constant must be positive, got {lam}")


def _stage(t: int, Delta: float, theta: float, lam: float, H: float, b: int,
           Lstar: float) -> Stage:
    eps_t = theta**-t * Delta
    B_sq = 2.0 * theta ** (1 - t) * Delta / lam
    return Stage(eps_t=eps_t, B_t=math.sqrt(B_sq),
                 T_t=stage_budget(eps_t, B_sq, H, b, Lstar))


def _plan(stages, Delta, theta, lam, H, b, Lstar) -> StagePlan:
    return StagePlan(theta=float(theta), stages=tuple(stages), lam=float(lam),
                     Delta=float(Delta), H=float(H), b=int(b),
                     Lstar=float(Lstar))


def make_stage_plan(Delta: float, eps: float, theta: float, lam: float,
                    H: float, b: int, Lstar: float) -> StagePlan:
    """Plan ``ceil(log_theta(Delta / eps))`` restart stages.

    Returns an empty plan when ``eps >= Delta`` (nothing to do).  The
    number-of-stages logarithm is evaluated with a 1e-9 tolerance so exact
    powers of ``theta`` do not round up.
    """
    _check_plan_args(Delta, theta, lam)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps >= Delta:
        n_stages = 0
    else:
        n_stages = math.ceil(math.log(Delta / eps) / math.log(theta) - 1e-9)
    stages = [_stage(t, Delta, theta, lam, H, b, Lstar)
              for t in range(1, n_stages + 1)]
    return _plan(stages, Delta, theta, lam, H, b, Lstar)


def make_budget_plan(Delta: float, budget: int, theta: float, lam: float,
                     H: float, b: int, Lstar: float) -> StagePlan:
    """Plan the restart stages that fit within ``budget`` total iterations.

    Stages are taken in order, at most 63 of them, up to the first one that
    would overrun the budget.  At least one stage must fit.
    """
    _check_plan_args(Delta, theta, lam)
    stages = []
    used = 0
    for t in range(1, 64):
        st = _stage(t, Delta, theta, lam, H, b, Lstar)
        if used + st.T_t > budget:
            break
        stages.append(st)
        used += st.T_t
    if not stages:
        raise ValueError(f"budget T={budget} is below the first stage's "
                         f"{st.T_t} iterations")
    return _plan(stages, Delta, theta, lam, H, b, Lstar)


def run_restarted(problem: Problem, plan: StagePlan, seed: int = 0
                  ) -> tuple[np.ndarray, RunTrace]:
    """Run the accelerated method stage by stage, re-centering each time.

    Every stage restarts the accelerated method from scratch in coordinates
    shifted to the previous stage's output, with the stage's own radius and
    horizon, and the noise parameter ``2 H Lstar`` of the plan.  The
    returned trace is the concatenation over stages with a stage-index
    column; its norm columns measure distance from the active stage center.
    """
    noise_sq = 2.0 * plan.H * plan.Lstar
    header = _run_header(problem, "restarted", plan.b, plan.total_iterations,
                         seed, extra={"plan": asdict(plan)})
    schedules = (make_schedule(plan.H, plan.b, st.T_t, st.B_t, noise_sq)
                 for st in plan.stages)
    return _run_stages(problem, header, seed, schedules,
                       center=np.zeros(problem.d))
