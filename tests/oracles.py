"""Reference oracles that the tests compare the library against."""

import math
from dataclasses import dataclass

import numpy as np

from optaccel import (DeterministicQuadratic, config_hash, minibatch_gradient,
                      project_ball, sample_batch)
from optaccel.analysis import AssumptionReport, _ball_points
from optaccel.optimizers import NonFiniteGradientError
from optaccel.trace import RunTrace


def gradient_variance(problem, w) -> float:
    """Exact ``E ||grad l(w; z) - grad L(w)||**2`` of a finite design.

    Worked out from the design alone: with ``r_j = <atoms[j], w> -
    label_means[j]``, a sample at atom ``j`` has gradient
    ``atoms[j] * (r_j - noise)``, so ``E ||grad l||**2 = sum_j probs[j]
    ||atoms[j]||**2 (r_j**2 + label_stds[j]**2)`` and ``grad L(w) = sum_j
    probs[j] r_j atoms[j]``.
    """
    a, p = problem.atoms, problem.probs
    r = a @ np.asarray(w, dtype=float) - problem.label_means
    second = p @ (np.einsum("ja,ja->j", a, a) * (r**2 + problem.label_stds**2))
    mean = (p * r) @ a
    return float(second - mean @ mean)


# -- the sampler before every draw went through ``next_batch`` --------------
#
# Kept as the reference for the counter path: a batch drawn from the
# position's generator, ``n`` index uniforms and then ``n`` label normals.


def generator_batch(problem, gen, n):
    """The batch ``gen`` draws for ``problem``, by the generator path."""
    if isinstance(problem, DeterministicQuadratic):
        return np.zeros((n, 0)), np.zeros(n)
    idx = problem._cdf.searchsorted(gen.random(n), side="right")
    y = problem.label_means[idx] + problem.label_stds[idx] \
        * gen.standard_normal(n)
    return problem.atoms[idx], y


def generator_next_batch(problem, stream, n):
    """``problem.next_batch`` by the generator path at every position."""
    return generator_batch(problem, stream.next_generator(), n)


# -- the step path before the trace columns were evaluated in blocks --------
#
# Kept as references for the block-evaluated recorder: every trace column is
# computed per step with the 1-D ``.dot`` formulas, and a row is stored as
# scalars.


def dot_suboptimality(problem, w):
    """``problem.suboptimality`` of one point, by the 1-D ``.dot`` forms."""
    w = np.asarray(w, dtype=float)
    if isinstance(problem, DeterministicQuadratic):
        v = w - problem.meta.wstar
        return float(0.5 * v @ problem.A @ v)
    u = problem._F.dot(w - problem.meta.wstar)
    return 0.5 * float(u.dot(u))


def dot_exact_grad(problem, w):
    """``problem.exact_grad`` of one point, by the 1-D ``.dot`` forms."""
    w = np.asarray(w, dtype=float)
    if isinstance(problem, DeterministicQuadratic):
        return problem.A @ (w - problem.meta.wstar)
    return problem._F.dot(w - problem.meta.wstar).dot(problem._F)


class ScalarRowRecorder:
    """Trace builder that stores each row as six scalars."""

    def __init__(self, header):
        self.header = dict(header)
        self.rows = []
        self.aborted = False

    def append(self, t, norm_w, norm_wag, subopt, grad_noise_sq, stage):
        self.rows.append((t, norm_w, norm_wag, subopt, grad_noise_sq, stage))

    def build(self):
        cols = list(zip(*self.rows)) if self.rows else [[] for _ in range(6)]
        hdr = dict(self.header)
        hdr["aborted"] = self.aborted
        subopt = np.asarray(cols[3], dtype=float)
        hdr["final_subopt"] = float(subopt[-1]) if len(subopt) else math.nan
        return RunTrace(
            header=hdr, t=np.asarray(cols[0], dtype=int),
            norm_w=np.asarray(cols[1], dtype=float),
            norm_wag=np.asarray(cols[2], dtype=float),
            subopt=subopt,
            grad_noise_sq=np.asarray(cols[4], dtype=float),
            stage=np.asarray(cols[5], dtype=int), aborted=self.aborted)


def record_row(recorder, problem, t, w, w_avg, point, query, g, stage):
    """Evaluate one step's trace row and append it to ``recorder``."""
    subopt = dot_suboptimality(problem, point)
    delta = g - dot_exact_grad(problem, query)
    recorder.append(t, math.sqrt(w.dot(w)), math.sqrt(w_avg.dot(w_avg)),
                    subopt, float(delta @ delta), stage)


def checked_gradient(problem, query, b, stream, t):
    batch = sample_batch(problem, b, stream)
    g = minibatch_gradient(problem, query, batch)
    if not np.isfinite(g).all():
        raise NonFiniteGradientError(f"non-finite gradient at step t={t}")
    return g


@dataclass
class OptimizerState:
    """Projected iterate, averaged iterate, and the step counter."""

    w: np.ndarray
    w_ag: np.ndarray
    t: int


def reference_acc_step(state, schedule, problem, stream, recorder=None,
                       center=None, stage=0, t_offset=0):
    """One accelerated step that records its row as it goes."""
    t = state.t
    if t >= schedule.T:
        raise ValueError(f"step t={t} beyond schedule horizon T={schedule.T}")
    beta_inv = 1.0 / schedule.beta(t)
    gamma_t = schedule.gamma_t(t)
    w_md = beta_inv * state.w + (1.0 - beta_inv) * state.w_ag
    query = w_md if center is None else center + w_md
    g = checked_gradient(problem, query, schedule.b, stream, t)
    w_next = project_ball(state.w - gamma_t * g, schedule.B)
    w_ag_next = beta_inv * w_next + (1.0 - beta_inv) * state.w_ag
    if recorder is not None:
        point = w_ag_next if center is None else center + w_ag_next
        record_row(recorder, problem, t_offset + t + 1, w_next, w_ag_next,
                   point, query, g, stage)
    return OptimizerState(w=w_next, w_ag=w_ag_next, t=t + 1)


def reference_sgd(problem, b, T, seed=0, eta=None, B_override=None):
    """Projected minibatch SGD with tail averaging, recording per step."""
    meta = problem.meta
    B = meta.B if B_override is None else float(B_override)
    step = 1.0 / (2.0 * meta.H)
    if eta is not None:
        step = min(step, float(eta))
    cfg = problem.config()
    recorder = ScalarRowRecorder({
        "problem": cfg, "problem_hash": config_hash(cfg), "algorithm": "sgd",
        "b": int(b), "T": int(T), "seed": int(seed), "eta": step, "B": B})
    stream = problem.stream(seed)
    w = np.zeros(problem.d)
    w_avg = np.zeros(problem.d)
    prefix = [np.zeros(problem.d)]
    try:
        for t in range(T):
            g = checked_gradient(problem, w, b, stream, t)
            w_next = project_ball(w - step * g, B)
            prefix.append(prefix[-1] + w_next)
            lo = (t + 1) // 2
            w_avg = (prefix[t + 1] - prefix[lo]) / (t + 1 - lo)
            record_row(recorder, problem, t + 1, w_next, w_avg, w_avg, w, g,
                       0)
            w = w_next
    except NonFiniteGradientError as err:
        recorder.aborted = True
        recorder.header["abort_reason"] = str(err)
    return w_avg, recorder.build()


# -- the per-sample forms and the analysis checks before they took stacks ---
#
# Kept as references for the array forms: one sample at one point, one probe
# at a time, reduced by a running ``max`` (which skips a NaN, where the
# library's checks return it).


def dot_exact_loss(problem, w):
    """``problem.exact_loss`` of one point, by the 1-D forms."""
    w = np.asarray(w, dtype=float)
    if isinstance(problem, DeterministicQuadratic):
        return dot_suboptimality(problem, w)
    r = problem._F @ w - problem._Fy
    return float(0.5 * r @ r + problem._noise_floor)


def sample_loss(problem, w, z):
    """Loss of the one sample ``z = (x, y)`` at the one point ``w``."""
    if isinstance(problem, DeterministicQuadratic):
        return dot_exact_loss(problem, w)
    x, y = z
    return 0.5 * (float(x @ w) - float(y)) ** 2


def sample_grad(problem, w, z):
    """Gradient of the one sample ``z = (x, y)`` at the one point ``w``."""
    if isinstance(problem, DeterministicQuadratic):
        return dot_exact_grad(problem, w)
    x, y = z
    return x * (float(x @ w) - float(y))


def reference_variance_at(problem, w, n_samples, seed=0):
    """``variance_at`` from per-sample gradients taken one at a time."""
    w = np.asarray(w, dtype=float)
    x, y = generator_batch(problem, problem.stream(seed).next_generator(),
                           n_samples)
    grads = np.array([sample_grad(problem, w, z) for z in zip(x, y)])
    sq = ((grads - problem.exact_grad(w)) ** 2).sum(axis=1)
    return (float(sq.mean()),
            float(sq.std(ddof=1) / math.sqrt(n_samples)))


def reference_check_projection_lemma(instance, probes):
    """``check_projection_lemma`` by a loop over the probes."""
    w_t, w_md, g, gamma_t, B = instance
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


def reference_certify_assumptions(problem, n_probes=1000, seed=0):
    """``certify_assumptions`` by loops over the probes."""
    meta = problem.meta
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0xA55E]))
    x, y = generator_batch(
        problem, problem.stream(seed ^ 0x517).next_generator(), n_probes)
    points = _ball_points(gen, 2 * meta.B, (2 * n_probes, problem.d))
    ws, us = points[:n_probes], points[n_probes:]

    worst = {"nonneg": -math.inf, "convex": -math.inf, "smooth": -math.inf,
             "lips": -math.inf}
    for i in range(n_probes):
        z = (x[i], y[i])
        w, u = ws[i], us[i]
        lw, lu = sample_loss(problem, w, z), sample_loss(problem, u, z)
        gw, gu = sample_grad(problem, w, z), sample_grad(problem, u, z)
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
            gap = (dot_exact_loss(problem, w) - meta.Lstar
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
