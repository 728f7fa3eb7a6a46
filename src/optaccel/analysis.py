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

from .problems import Problem

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
    batch = problem.next_batch(problem.stream(seed), n_samples)
    _, grads = problem.loss_and_grad(np.tile(w, (n_samples, 1)), batch)
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


# The two order statistics below give the bits of NumPy's ``median`` of
# any float sequence and of its ``quantile``'s default (``linear``) method
# on an ascending array, for any input without -0.0.  They exist because
# both NumPy calls import ``numpy.ma`` (about 1.3 MB of a run's peak
# memory) to check for masks no array here has.  Python float arithmetic
# is the same IEEE arithmetic and warns of no overflow.


def _median(values) -> float:
    """NumPy's ``median``: NaN when any value is NaN (NaN for no values),
    else the middle sorted value or the mean of the two."""
    vals = np.sort(np.asarray(values, dtype=float))
    n = len(vals)
    if n == 0:
        return math.nan
    if math.isnan(vals[-1]):
        return float(vals[-1])
    if n % 2:
        return float(vals[n // 2])
    return (float(vals[n // 2 - 1]) + float(vals[n // 2])) / 2


def _sorted_quantile(vals, q: float) -> float:
    """NumPy's ``quantile(vals, q)`` of a non-empty ascending array: the
    value at position ``n*q + (1 - q) - 1``, interpolated as NumPy's
    ``_lerp`` does, from whichever end of the gap is nearer."""
    n = len(vals)
    if math.isnan(vals[-1]):
        return float(vals[-1])
    pos = n * q + (1 - q) - 1
    lo = math.floor(pos)
    a, b, t = float(vals[lo]), float(vals[min(lo + 1, n - 1)]), pos - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def time_to_eps(finals: Mapping[tuple[int, int], Sequence[float]],
                eps: float) -> dict[int, Optional[int]]:
    """Reduce per-(b, T) final suboptimalities to a speedup table.

    ``finals[(b, T)]`` holds the final suboptimality of each seed's run.
    The table maps each ``b``, in ascending order, to the smallest ``T`` in
    the grid whose median is at most ``eps`` (None when no grid horizon
    reached it).  The median is ``_median``, NumPy's bit for bit, which is
    NaN when any value is NaN, so such a horizon never reaches ``eps``.
    """
    by_b: dict[int, list[tuple[int, float]]] = {}
    for (b, T), vals in finals.items():
        by_b.setdefault(int(b), []).append((int(T), _median(vals)))
    return {b: next((T for T, med in sorted(by_b[b]) if med <= eps), None)
            for b in sorted(by_b)}


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
    return next((b for i, (b, T) in enumerate(ts[:-1])
                 if all(T2 >= 0.8 * T for _, T2 in ts[i + 1:])), None)


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

    ``probes`` is a ``(k, d)`` stack or a sequence of ``k`` points.
    Returns (max_violation, w_next); the violation is NaN if any probe's
    is.
    """
    w_t, w_md, g, gamma_t, B = instance
    from .optimizers import project_ball

    P = np.asarray(probes, dtype=float)
    if len(P) < 1:
        raise ValueError(f"need at least 1 probe point, got {len(P)}")
    w_next = project_ball(w_t - gamma_t * g, B)
    lhs = gamma_t * float(g @ (w_next - w_md))
    to_md, to_t, to_next = P - w_md, P - w_t, P - w_next
    rhs = (gamma_t * np.vecdot(g, to_md)
           + 0.5 * np.vecdot(to_t, to_t)
           - 0.5 * np.vecdot(to_next, to_next)
           - 0.5 * float((w_next - w_t) @ (w_next - w_t)))
    return _worst(lhs - rhs), w_next


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
    constant.  A violation is NaN if any probe's is.
    """
    if n_probes < 1:
        raise ValueError(f"need n_probes >= 1, got {n_probes}")
    meta = problem.meta
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0xA55E]))
    batch = problem.next_batch(problem.stream(seed ^ 0x517), n_probes)
    points = _ball_points(gen, 2 * meta.B, (2 * n_probes, problem.d))
    # probe i pairs sample i with the points ws[i] and us[i]
    ws, us = points[:n_probes], points[n_probes:]
    lw, gw = problem.loss_and_grad(ws, batch)
    lu, gu = problem.loss_and_grad(us, batch)
    dwu = ws - us
    scale = np.maximum(np.maximum(1.0, abs(lw)), abs(lu))
    slope, dd = np.vecdot(gu, dwu), np.vecdot(dwu, dwu)
    dg = gw - gu
    gnorm, dnorm = np.sqrt(np.vecdot(dg, dg)), np.sqrt(dd)
    lip_scale = np.maximum(1.0, meta.H * dnorm)

    growth_violation = 0.0
    if meta.lam > 0:
        proj = problem.solution_projector()
        probe_w = _ball_points(gen, 2 * meta.B, (n_probes, problem.d))
        dist_sq = np.sum(np.matvec(proj, probe_w - meta.wstar) ** 2, axis=1)
        gap = (problem.exact_loss(probe_w) - meta.Lstar
               - 0.5 * meta.lam * dist_sq)
        growth_violation = _worst(-gap)

    return AssumptionReport(
        nonneg_violation=_worst(-np.minimum(lw, lu) / scale),
        convexity_violation=_worst(-(lw - lu - slope) / scale),
        smoothness_violation=_worst(
            -(lu + slope + 0.5 * meta.H * dd - lw) / scale),
        grad_lipschitz_violation=_worst((gnorm - meta.H * dnorm) / lip_scale),
        growth_violation=growth_violation,
    )


def _ball_points(gen, radius, shape):
    n, d = shape
    raw = gen.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    r = radius * gen.uniform(size=(n, 1)) ** (1.0 / d)
    return raw * r


def _worst(violations):
    """Largest violation, NaN if any is; of ties (0.0, -0.0) the first."""
    return float(violations[np.argmax(violations)])
