"""Reference oracles that the tests compare the library against."""

import math

import numpy as np

from optaccel import (DeterministicQuadratic, OptimizerState, config_hash,
                      minibatch_gradient, project_ball, sample_batch)
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


# -- the step path before the trace columns were evaluated in blocks --------
#
# Kept as references for the block-evaluated recorder: every trace column is
# computed per step with the 1-D ``.dot`` formulas, and a row is stored as
# scalars.


def dot_suboptimality(problem, w):
    """``problem.suboptimality`` of one point, by the 1-D ``.dot`` forms."""
    w = np.asarray(w, dtype=float)
    if isinstance(problem, DeterministicQuadratic):
        v = w - problem.wstar_vec
        return float(0.5 * v @ problem.A @ v)
    u = problem._F.dot(w - problem.meta.wstar)
    return 0.5 * float(u.dot(u))


def dot_exact_grad(problem, w):
    """``problem.exact_grad`` of one point, by the 1-D ``.dot`` forms."""
    w = np.asarray(w, dtype=float)
    if isinstance(problem, DeterministicQuadratic):
        return problem.A @ (w - problem.wstar_vec)
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
        return RunTrace(
            header=hdr, t=np.asarray(cols[0], dtype=int),
            norm_w=np.asarray(cols[1], dtype=float),
            norm_wag=np.asarray(cols[2], dtype=float),
            subopt=np.asarray(cols[3], dtype=float),
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
