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

import bisect
import math
import numbers
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .problems import Problem, SampleStream, minibatch_gradient, sample_batch
from .trace import RunTrace, TraceRecorder, config_hash

__all__ = [
    "StepSchedule",
    "NonFiniteGradientError",
    "make_schedule",
    "project_ball",
    "acc_step",
    "run_acc_mb_sgd",
    "run_sgd",
    "sgd_step",
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


def _is_count(n) -> bool:
    # a fractional batch size or horizon would set the stepsize while a
    # truncated one is recorded and run; ``True`` is an Integral too, but
    # spec loading rejects it as a count, and so does the library
    return (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and n >= 1)


class NonFiniteGradientError(RuntimeError):
    """A minibatch gradient came back with NaN or infinite entries."""


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize/momentum schedule of the accelerated method.

    ``beta(t) = 1 + t/6`` and ``gamma_t(t) = gamma * (t + 1)``; the base
    stepsize satisfies ``2 H gamma_t(t) <= beta(t)`` for every ``t < T``.
    ``noise_sq`` is the gradient variance bound at the minimizer, twice
    the smoothness constant times the minimum loss.
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
                  lstar: float) -> StepSchedule:
    """Build the schedule for a run of horizon ``T`` with batches of size ``b``.

    With ``noise_sq = 2 H lstar`` (``lstar`` bounds the minimum loss from
    above), the base stepsize is
    ``min(1 / (12 H), b / (24 H (T + 1)), sqrt(b B**2 / (noise_sq T**3)))``,
    the last term treated as infinite when ``noise_sq`` is zero.  A base
    stepsize that underflows to 0, or whose largest multiple
    ``gamma_t(T - 1) = gamma * T`` overflows, is a ``ValueError``: the run
    would never move, or would step by ``inf``.
    """
    if not (0 < H < math.inf and 0 < B < math.inf):
        raise ValueError(f"H and B must be finite and positive, got H={H}, "
                         f"B={B}")
    if not (_is_count(T) and _is_count(b)):
        raise ValueError(f"T and b must be integers >= 1, got T={T}, b={b}")
    if not 0 <= lstar < math.inf:
        raise ValueError(f"lstar must be finite and >= 0, got {lstar}")
    noise_sq = 2.0 * H * lstar
    if noise_sq == math.inf:
        raise ValueError(f"noise_sq = 2 H lstar overflows a float, got H={H}, "
                         f"lstar={lstar}")
    gamma = min(1.0 / (12.0 * H), b / (24.0 * H * (T + 1)))
    if noise_sq > 0:
        # B * B, unlike B**2, is inf rather than an OverflowError
        gamma = min(gamma, math.sqrt(b * (B * B) / (noise_sq * T**3)))
    if gamma == 0:
        raise ValueError(f"the base stepsize underflows to 0, got H={H}, "
                         f"b={b}, T={T}, B={B}, noise_sq={noise_sq}")
    if gamma * T == math.inf:
        raise ValueError(f"the last stepsize gamma * T overflows a float, "
                         f"got gamma={gamma}, T={T}")
    return StepSchedule(gamma=gamma, T=int(T), b=int(b), H=float(H),
                        B=float(B), noise_sq=float(noise_sq))


def project_ball(w: np.ndarray, B: float) -> np.ndarray:
    """Euclidean projection of a 1-D float array onto the origin-centered
    ball of radius ``B``; a point inside the ball is returned as is."""
    if not B > 0:  # a NaN radius too
        raise ValueError(f"radius must be positive, got {B}")
    # what ``np.linalg.norm`` computes for a 1-D float array, without its
    # dispatch
    norm = math.sqrt(w.dot(w))
    if norm <= B:
        return w
    return w * (B / norm)


def acc_step(w: np.ndarray, w_ag: np.ndarray, t: int,
             schedule: StepSchedule, problem: Problem, stream: SampleStream,
             recorder: TraceRecorder, center: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Step ``t`` of the accelerated method; returns the next ``w, w_ag``.

    The iterates live in coordinates relative to ``center`` (the origin for
    plain runs); gradients are evaluated at the corresponding absolute
    point.  The step's vectors are appended to ``recorder``.
    """
    if t >= schedule.T:
        raise ValueError(f"step t={t} beyond schedule horizon T={schedule.T}")
    beta_inv = 1.0 / schedule.beta(t)
    gamma_t = schedule.gamma_t(t)
    w_ag_part = (1.0 - beta_inv) * w_ag
    w_md = beta_inv * w + w_ag_part

    query = w_md if center is None else center + w_md
    g = _checked_gradient(problem, query, schedule.b, stream, t)

    w_next = project_ball(w - gamma_t * g, schedule.B)
    w_ag_next = beta_inv * w_next + w_ag_part
    recorder.append(w_next, w_ag_next, query, g)
    return w_next, w_ag_next


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
    """Stop the run, recording why, on a non-finite gradient."""
    try:
        yield
    except NonFiniteGradientError as err:
        recorder.abort_reason = str(err)


def run_acc_mb_sgd(problem: Problem, b: int, T: int,
                   lstar_override: float | None = None,
                   seed: int = 0) -> tuple[np.ndarray, RunTrace]:
    """Run the accelerated method for ``T`` steps from the origin.

    The feasible radius is the problem's certified minimizer-norm bound.
    The minimum loss defaults to the certified one, and ``lstar_override``
    accepts a looser upper bound; the noise parameter is twice the
    smoothness constant times it.  Returns the final averaged iterate and
    the full trace.
    """
    meta = problem.meta
    lstar = meta.Lstar if lstar_override is None else float(lstar_override)
    schedule = make_schedule(meta.H, b, T, meta.B, lstar)
    content = asdict(schedule)
    recorder = TraceRecorder(problem, "acc_mb_sgd", b, T, seed,
                             schedule=content,
                             schedule_hash=config_hash(content))
    return _run_stages(problem, recorder, seed, [schedule])


def _run_stages(problem, recorder, seed, schedules, center=None):
    """Run the accelerated method through consecutive stages of one stream.

    Each stage restarts from the origin under its own schedule.  Without a
    ``center`` there is one stage, numbered 0; the run returns its averaged
    iterate, partial if a step aborted.  With one, the stages are numbered
    from 1 and each runs in coordinates shifted to the current centre,
    which then moves by the stage's averaged iterate; the run returns the
    last centre reached by a completed stage.
    """
    stream = problem.stream(seed)
    with _abort_on_nonfinite(recorder):
        for stage, schedule in enumerate(schedules,
                                         start=0 if center is None else 1):
            recorder.start_stage(stage, center)
            w, w_ag = np.zeros(problem.d), np.zeros(problem.d)
            for t in range(schedule.T):
                # looked up in the module at each call, so a wrapper
                # installed there sees every step
                w, w_ag = acc_step(w, w_ag, t, schedule, problem, stream,
                                   recorder, center)
            if center is not None:
                center = center + w_ag
    return (w_ag if center is None else center), recorder.build()


def run_sgd(problem: Problem, b: int, T: int, seed: int = 0,
            eta: float | None = None) -> tuple[np.ndarray, RunTrace]:
    """Projected minibatch SGD with tail averaging, as a baseline.

    The iterates stay in the ball of the problem's certified radius.  The
    stepsize is the constant ``min(1 / (2 H), eta)``; pass ``eta`` from
    a tuning grid to give the baseline its best case.  The averaged iterate
    at step ``t`` is the mean of the most recent ``ceil(t / 2)`` projected
    iterates, and the final tail average is returned.
    """
    if not (_is_count(T) and _is_count(b)):
        raise ValueError(f"T and b must be integers >= 1, got T={T}, b={b}")
    B = problem.meta.B
    step = sgd_step(problem.meta.H, eta)
    recorder = TraceRecorder(problem, "sgd", b, T, seed, eta=step, B=B)
    stream = problem.stream(seed)
    w = np.zeros(problem.d)
    w_avg = np.zeros(problem.d)  # stays the origin if step 0 aborts
    total = np.zeros(problem.d)  # sum of w_1..w_{t+1}
    # the partial sums of w_1..w_k that a tail start lo = (t + 1) // 2 can
    # still read: k from the current lo up to T // 2, the last lo
    prefix = deque([total])
    with _abort_on_nonfinite(recorder):
        for t in range(T):
            g = _checked_gradient(problem, w, b, stream, t)
            w_next = project_ball(w - step * g, B)
            total = total + w_next
            if t < T // 2:
                prefix.append(total)
            lo = (t + 1) // 2  # average w_{lo+1} .. w_{t+1}
            if t % 2:  # lo moved up by one
                prefix.popleft()
            w_avg = (total - prefix[0]) / float(t + 1 - lo)
            recorder.append(w_next, w_avg, w, g)
            w = w_next
    return w_avg, recorder.build()


def sgd_step(H: float, eta: float | None = None) -> float:
    """``run_sgd``'s constant stepsize ``min(1 / (2 H), eta)``; one that is
    not finite and positive is a ``ValueError``."""
    step = 1.0 / (2.0 * H)
    if eta is not None:
        step = min(step, float(eta))
    # ``min`` ignores a NaN eta, so eta is tested on its own
    if not (0 < step < math.inf and (eta is None or eta > 0)):
        raise ValueError(f"the SGD step min(1 / (2 H), eta) must be finite "
                         f"and positive, got {step} (H={H}, eta={eta})")
    return step


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
    doubling-then-bisection search always terminates.  A horizon past
    ``2**63`` steps is an ``OverflowError``, and a NaN or out-of-range
    input a ``ValueError``.
    """
    # each test is false for NaN, which would end the search at no horizon
    if not (eps > 0 and 0 < B_sq < math.inf):
        raise ValueError(f"eps and B_sq must be positive, B_sq finite, got "
                         f"eps={eps}, B_sq={B_sq}")
    if not (0 < H < math.inf and 0 <= Lstar < math.inf and _is_count(b)):
        raise ValueError(f"need a finite H > 0, a finite Lstar >= 0 and an "
                         f"integer b >= 1, got H={H}, Lstar={Lstar}, b={b}")
    hi = 1
    while accel_error_bound(hi, H, B_sq, b, Lstar) > eps:
        if hi >= 2**63:
            raise OverflowError(
                f"the error bound exceeds eps past 2**63 steps, got "
                f"eps={eps}, B_sq={B_sq}, H={H}, b={b}, Lstar={Lstar}")
        hi *= 2
    # bound(hi // 2) > eps >= bound(hi), so the answer lies in (hi // 2, hi]
    Ts = range(hi // 2 + 1, hi + 1)
    return Ts[bisect.bisect_left(Ts, True, key=lambda T: accel_error_bound(
        T, H, B_sq, b, Lstar) <= eps)]


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
    bound to meet the target.  The shrink factor ``theta`` is always ``e``.
    The stages' schedules are made once into ``schedules``, not a field.
    """

    theta: float = field(default=math.e, init=False)
    stages: tuple[Stage, ...]
    lam: float
    Delta: float
    H: float
    b: int
    Lstar: float

    @property
    def total_iterations(self) -> int:
        return sum(s.T_t for s in self.stages)

    @cached_property
    def schedules(self) -> tuple[StepSchedule, ...]:
        return tuple(make_schedule(self.H, self.b, st.T_t, st.B_t, self.Lstar)
                     for st in self.stages)


def _plan_constants(problem: Problem, b: int):
    # ``ProblemMeta`` holds each constant finite; a plan needs lam > 0
    meta = problem.meta
    if not meta.lam > 0:
        raise ValueError(f"growth constant must be positive, got {meta.lam}")
    if not _is_count(b):
        raise ValueError(f"b must be >= 1 and an integer, got b={b}")
    return meta


def _stage(t: int, meta, b: int) -> Stage:
    eps_t = StagePlan.theta**-t * meta.Delta
    B_sq = 2.0 * StagePlan.theta ** (1 - t) * meta.Delta / meta.lam
    return Stage(eps_t=eps_t, B_t=math.sqrt(B_sq),
                 T_t=stage_budget(eps_t, B_sq, meta.H, b, meta.Lstar))


def _plan(stages, meta, b) -> StagePlan:
    plan = StagePlan(stages=tuple(stages), lam=float(meta.lam),
                     Delta=float(meta.Delta), H=float(meta.H), b=int(b),
                     Lstar=float(meta.Lstar))
    plan.schedules  # a stage whose schedule cannot be made fails here
    return plan


def make_stage_plan(problem: Problem, b: int, eps: float) -> StagePlan:
    """Plan ``ceil(ln(Delta / eps))`` restart stages at batch size ``b``.

    ``Delta``, ``lam``, ``H`` and ``Lstar`` are the problem's certified
    constants, and each stage shrinks the target by ``theta = e``.
    Returns an empty plan when ``eps >= Delta`` (nothing to do).  The
    logarithm is evaluated with a 1e-9 tolerance so exact powers of ``e``
    do not round up.  The plan's ``schedules`` are made before it is
    returned, so ``run_restarted`` can run it.
    """
    meta = _plan_constants(problem, b)
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    ratio = meta.Delta / eps
    if not math.isfinite(ratio):
        raise ValueError(f"Delta / eps must be finite, got Delta="
                         f"{meta.Delta}, eps={eps}")
    n_stages = 0 if eps >= meta.Delta else math.ceil(math.log(ratio) - 1e-9)
    return _plan([_stage(t, meta, b) for t in range(1, n_stages + 1)],
                 meta, b)


def make_budget_plan(problem: Problem, b: int, budget: int) -> StagePlan:
    """Plan the restart stages that fit within ``budget`` total iterations.

    Constants, stages and the schedule check are ``make_stage_plan``'s.
    Stages are taken in order, at most 63 of them, up to the first one
    that would overrun the budget, an integer >= 1.  At least one stage
    must fit.
    """
    meta = _plan_constants(problem, b)
    if not _is_count(budget):
        raise ValueError(f"budget must be a finite number >= 1 and an "
                         f"integer, got {budget}")
    stages, used = [], 0
    for t in range(1, 64):
        st = _stage(t, meta, b)
        if used + st.T_t > budget:
            break
        stages.append(st)
        used += st.T_t
    if not stages:
        raise ValueError(f"budget T={budget} is below the first stage's "
                         f"{st.T_t} iterations")
    return _plan(stages, meta, b)


def run_restarted(problem: Problem, plan: StagePlan, seed: int = 0
                  ) -> tuple[np.ndarray, RunTrace]:
    """Run the accelerated method stage by stage, re-centering each time.

    Every stage restarts the accelerated method from scratch in coordinates
    shifted to the previous stage's output, under its schedule in
    ``plan.schedules`` (the stage's radius and horizon, and ``2 H Lstar``).
    The returned trace is the concatenation over stages with a stage-index
    column; its norm columns measure distance from the active stage center.
    """
    recorder = TraceRecorder(problem, "restarted", plan.b,
                             plan.total_iterations, seed, plan=asdict(plan))
    return _run_stages(problem, recorder, seed, plan.schedules,
                       center=np.zeros(problem.d))
