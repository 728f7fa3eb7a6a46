"""Exact oracles, statistical estimators, and empirical rate diagnostics.

Everything here is a pure function of immutable inputs.  The closed-form
minimizer is deliberately independent of the optimizer implementations so
it can serve as ground truth in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .problems import Problem, SampleStream

__all__ = [
    "RateFit",
    "AssumptionReport",
    "exact_min",
    "variance_at",
    "fit_rate",
    "time_to_eps",
    "critical_batch",
    "check_projection_lemma",
    "certify_assumptions",
]


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def exact_min(problem: Problem):
    """Minimum-norm minimizer and exact minimum of a least-squares problem.

    Solves the normal equations through a pseudoinverse; singular values
    below 1e-10 of the largest are treated as zero so rank-deficient
    designs return the min-norm point of the full solution set.
    """
    if not isinstance(problem, Problem):
        raise TypeError(f"no closed-form minimizer for problem type "
                        f"{type(problem).__name__}")
    wstar = (np.linalg.pinv(problem.second_moment, rcond=1e-10,
                            hermitian=True) @ problem.cross)
    return wstar, problem.exact_loss(wstar)


def variance_at(problem: Problem, w, n_samples: int, seed: int = 0):
    """Monte Carlo gradient-variance estimate with its standard error.

    Centers at the exact expected gradient, which makes the estimator
    unbiased.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    w = np.asarray(w, dtype=float)
    gen = SampleStream(problem.base_seed, run_seed=seed).next_generator()
    x, y = problem.sample(gen, n_samples)
    if x.shape[1] == 0:  # full-information problem: zero variance
        return 0.0, 0.0
    grads = x * (x @ w - y)[:, None]
    sq = ((grads - problem.exact_grad(w)) ** 2).sum(axis=1)
    est = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_samples))
    return est, se


# ---------------------------------------------------------------------------
# rate fitting and speedup tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of value against horizon, in log-log."""

    slope: float
    intercept: float
    r_squared: float


def _line_fit(x, y) -> RateFit:
    """Least-squares line ``y ~ slope * x + intercept`` with its r**2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot < 1e-30 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r_sq)


def fit_rate(grid: Sequence[tuple[float, float]]) -> RateFit:
    """Fit ``log value = slope * log T + intercept`` over a grid.

    Requires at least 4 grid points with positive values; the slope is the
    empirical rate exponent.
    """
    pts = [(float(T), float(v)) for T, v in grid]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 grid points, got {len(pts)}")
    if any(v <= 0 for _, v in pts) or any(T <= 0 for T, _ in pts):
        raise ValueError("grid horizons and values must be positive")
    return _line_fit(np.log([T for T, _ in pts]),
                     np.log([v for _, v in pts]))


def time_to_eps(finals: Mapping[tuple[int, int], Sequence[float]],
                eps: float) -> dict[int, Optional[int]]:
    """Reduce per-(b, T) final suboptimalities to a speedup table.

    ``finals[(b, T)]`` holds the final suboptimality of each seed's run.
    The table maps each ``b``, in ascending order, to the smallest ``T`` in
    the grid whose median is at most ``eps`` (None when no grid horizon
    reached it).
    """
    by_b: dict[int, list[tuple[int, float]]] = {}
    for (b, T), vals in finals.items():
        by_b.setdefault(int(b), []).append((int(T), float(np.median(vals))))
    table = {}
    for b in sorted(by_b):
        table[b] = None
        for T, med in sorted(by_b[b]):
            if med <= eps:
                table[b] = T
                break
    return table


def critical_batch(table: Mapping[int, Optional[int]]) -> Optional[int]:
    """Smallest batch size from which a ``time_to_eps`` table stops improving.

    ``b*`` is the smallest ``b`` such that every larger batch size in the
    table needs at least 0.8 times as many iterations; a plateau must be
    witnessed by at least one larger entry.  Returns None when the table
    never saturates.
    """
    if len(table) < 4:
        raise ValueError("need at least 4 batch sizes to detect a plateau")
    ts = [(b, math.inf if T is None else T) for b, T in table.items()]
    for i, (b, T) in enumerate(ts[:-1]):
        tail = ts[i + 1:]
        if all(T2 >= 0.8 * T for _, T2 in tail):
            return b
    return None


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def check_projection_lemma(instance, probes):
    """Optimality inequality of the projected update against probe points.

    ``instance`` is ``(w_t, w_md, g, gamma_t, B)``.  The projected update
    ``w_next`` minimizes ``gamma_t <g, w - w_md> + 0.5 ||w - w_t||**2`` over
    the ball, so for every probe ``w`` in the ball::

        gamma_t <g, w_next - w_md> <= gamma_t <g, w - w_md>
            + 0.5 ||w - w_t||**2 - 0.5 ||w - w_next||**2
            - 0.5 ||w_next - w_t||**2

    Returns (max_violation, w_next).
    """
    w_t, w_md, g, gamma_t, B = instance
    from .optimizers import project_ball

    w_next = project_ball(w_t - gamma_t * g, B)
    lhs = gamma_t * float(g @ (w_next - w_md))
    max_violation = -math.inf
    for w in probes:
        w = np.asarray(w, dtype=float)
        rhs = (gamma_t * float(g @ (w - w_md))
               + 0.5 * float((w - w_t) @ (w - w_t))
               - 0.5 * float((w - w_next) @ (w - w_next))
               - 0.5 * float((w_next - w_t) @ (w_next - w_t)))
        max_violation = max(max_violation, lhs - rhs)
    return max_violation, w_next


@dataclass(frozen=True)
class AssumptionReport:
    """Worst violations found while probing a problem's certificates."""

    nonneg_violation: float
    convexity_violation: float
    smoothness_violation: float
    grad_lipschitz_violation: float
    growth_violation: float


def certify_assumptions(problem: Problem, n_probes: int = 1000,
                        seed: int = 0) -> AssumptionReport:
    """Probe per-sample convexity/smoothness and expected-loss growth.

    Draws ``n_probes`` random triples ``(w, u, z)`` with ``w, u`` in the
    ball of radius ``2 B`` and reports the worst relative violation of each
    per-sample inequality, plus the worst absolute violation of the
    quadratic-growth inequality when the problem certifies a growth
    constant.
    """
    meta = problem.meta
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0xA55E]))
    stream = SampleStream(problem.base_seed, run_seed=seed ^ 0x517)
    batch = problem.sample(stream.next_generator(), n_probes)
    points = _ball_points(gen, 2 * meta.B, (2 * n_probes, problem.d))
    ws, us = points[:n_probes], points[n_probes:]

    worst = {"nonneg": -math.inf, "convex": -math.inf, "smooth": -math.inf,
             "lips": -math.inf}
    for i in range(n_probes):
        z = _sample_at(batch, i)
        w, u = ws[i], us[i]
        lw, lu = problem.loss(w, z), problem.loss(u, z)
        gw, gu = problem.grad(w, z), problem.grad(u, z)
        dwu = w - u
        scale = max(1.0, abs(lw), abs(lu))
        worst["nonneg"] = max(worst["nonneg"], -min(lw, lu) / scale)
        gap_low = lw - lu - float(gu @ dwu)
        worst["convex"] = max(worst["convex"], -gap_low / scale)
        gap_high = lu + float(gu @ dwu) + 0.5 * meta.H * float(dwu @ dwu) - lw
        worst["smooth"] = max(worst["smooth"], -gap_high / scale)
        gnorm = float(np.linalg.norm(gw - gu))
        dnorm = float(np.linalg.norm(dwu))
        lip_scale = max(1.0, meta.H * dnorm)
        worst["lips"] = max(worst["lips"],
                            (gnorm - meta.H * dnorm) / lip_scale)

    growth_violation = -math.inf
    if meta.lam > 0:
        proj = problem.solution_projector()
        probe_w = _ball_points(gen, 2 * meta.B, (n_probes, problem.d))
        for w in probe_w:
            dist_sq = float(np.sum((proj @ (w - meta.wstar)) ** 2))
            gap = (problem.exact_loss(w) - meta.Lstar
                   - 0.5 * meta.lam * dist_sq)
            growth_violation = max(growth_violation, -gap)
    else:
        growth_violation = 0.0

    return AssumptionReport(
        nonneg_violation=worst["nonneg"],
        convexity_violation=worst["convex"],
        smoothness_violation=worst["smooth"],
        grad_lipschitz_violation=worst["lips"],
        growth_violation=growth_violation,
    )


def _ball_points(gen, radius, shape):
    n, d = shape
    raw = gen.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    r = radius * gen.uniform(size=(n, 1)) ** (1.0 / d)
    return raw * r


def _sample_at(batch, i):
    x, y = batch
    return x[i], y[i]
