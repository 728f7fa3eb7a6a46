"""Synthetic stochastic convex problems with certified smoothness metadata.

Every built-in family is a linear least-squares objective over a finite
design: a sample is a pair ``z = (x, y)`` with per-sample loss
``l(w; (x, y)) = 0.5 * (<w, x> - y)**2``.  The feature vector ``x`` is drawn
from a fixed finite atom set and ``y | x`` is Gaussian (possibly degenerate),
which keeps the expected loss, its gradient, and the minimizer available in
closed form.  A separate "full information" quadratic family models the
noiseless case where every sample reveals the exact objective.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .rowwise import gemv, rowdot, vecmat
from .trace import config_hash

__all__ = [
    "ProblemMeta",
    "Problem",
    "DiscreteLeastSquares",
    "DeterministicQuadratic",
    "SampleStream",
    "make_interpolation_least_squares",
    "make_sign_vector_problem",
    "make_gaussian_spike_problem",
    "make_growth_problem",
    "make_noiseless_quadratic",
    "sample_batch",
    "minibatch_gradient",
    "problem_from_config",
    "config_hash",
]


@dataclass(frozen=True)
class ProblemMeta:
    """Certified constants of a stochastic objective.

    Attributes
    ----------
    H : float
        Per-sample smoothness constant (gradient Lipschitz constant of
        every ``l(.; z)``).
    B : float
        Norm bound on some minimizer of the expected loss.
    Lstar : float
        Minimum value of the expected loss.
    sigma_star_sq : float
        Gradient variance at a minimizer, ``E ||grad l(w*; z)||**2``.
    lam : float
        Quadratic-growth constant: ``L(w) - Lstar >= lam/2 * dist(w, S)**2``
        with ``S`` the solution set.  0 when no growth certificate exists.
    Delta : float
        Initial suboptimality bound ``L(0) - Lstar``.
    wstar : ndarray
        A minimizer, known in closed form.
    """

    H: float
    B: float
    Lstar: float
    sigma_star_sq: float
    lam: float
    Delta: float
    wstar: np.ndarray


def _mix_key(*parts: int) -> np.ndarray:
    """Derive a 128-bit Philox key from integer seed material."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return ss.generate_state(2, np.uint64)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as NumPy's ``Philox`` computes it: the multipliers of lanes 0
# and 2, split into 32-bit halves, and the key schedule's increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_M_LO = _PHILOX_M & np.uint64(0xFFFFFFFF)
_PHILOX_M_HI = _PHILOX_M >> np.uint64(32)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# a block of batches computes at most this many 64-bit words: enough to
# spread a block's 200 or so NumPy calls thin, few enough that each of its
# arrays stays at 32 KiB
_BLOCK_WORDS = 4096


def _philox_uniforms(key, t0: int, count: int, b: int) -> np.ndarray:
    """``Generator.random(b)`` of the stream generators at positions ``t0``
    to ``t0 + count - 1``, as a ``(count, b)`` array.

    Position ``t``'s generator is Philox4x64-10 at counter ``(0, 0, t, 0)``
    with an empty buffer.  NumPy bumps the counter before computing a
    block, so its words are the blocks at counters ``(k, 0, t, 0)`` for
    ``k = 1 ... ceil(b / 4)``, four words a block in lane order, and each
    uniform is ``(word >> 11) * 2**-53``.  Lanes 0 and 2 (and 1 and 3)
    are the rows of one ``(2, n)`` array, so each step of a round is one
    NumPy call over both; array arithmetic wraps mod 2**64 silently.
    """
    blocks = -(-b // 4)
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    c02 = np.empty((2, count, blocks), np.uint64)
    c02[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    c02[1] = np.arange(t0, t0 + count, dtype=np.uint64)[:, None]
    c02 = c02.reshape(2, -1)
    c13 = np.zeros_like(c02)
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(10):
        # the 128-bit products of lanes 0 and 2 with their multipliers,
        # from 32-bit halves; no partial sum exceeds 2**64 - 1
        a_lo, a_hi = c02 & lo32, c02 >> s32
        hl = a_hi * _PHILOX_M_LO
        cross = (a_lo * _PHILOX_M_LO >> s32) + (hl & lo32) \
            + a_lo * _PHILOX_M_HI
        hi = a_hi * _PHILOX_M_HI + (hl >> s32) + (cross >> s32)
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        c13 ^= np.array([[k0], [k1]], np.uint64)
        c02, c13 = hi[::-1] ^ c13, (c02 * _PHILOX_M)[::-1]
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFFFFFFFFFF
    words = np.stack([c02[0], c13[0], c02[1], c13[1]], axis=-1)
    words = words.reshape(count, 4 * blocks)[:, :b]
    return (words >> np.uint64(11)) * 2.0**-53


class SampleStream:
    """Counter-keyed sample stream: position `t` fully determines batch `t`.

    Batches are generated by a Philox block cipher keyed on the stream seed
    material with the counter's third word set to the stream position, so
    batch ``t`` of a given stream is identical no matter which batches were
    drawn before it, or in which process.  Re-seating the cached bit
    generator's state is equivalent to constructing
    ``Philox(key=key, counter=[0, 0, t, 0])`` afresh, just cheaper.

    Since batch ``t`` is a function of ``t``, ``next_indices`` computes the
    uniforms of a block of positions in one call, bit-identical to what
    their generators draw; ``_BLOCK_WORDS`` bounds how far ahead, never
    what is drawn.
    """

    def __init__(self, seed: int, run_seed: int):
        self.position = 0
        self._key = _mix_key(seed, run_seed)
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)
        # the fresh generator's state (counter 0, empty buffer); the setter
        # copies every field, so one dict serves every position
        self._state = self._bitgen.state
        # (cdf, b, first position, per-position index rows) of ``next_indices``
        self._block = None

    def next_generator(self) -> np.random.Generator:
        """Generator for the current position; advances the stream."""
        self._state["state"]["counter"][2] = self.position
        self._bitgen.state = self._state
        self.position += 1
        return self._gen

    def next_indices(self, cdf: np.ndarray, b: int) -> np.ndarray:
        """``cdf.searchsorted(next_generator().random(b), side="right")``,
        the same bits, served from a block of positions computed in one
        Philox call and one ``searchsorted``; advances the stream."""
        t = self.position
        block = self._block
        if (block is None or block[0] is not cdf or block[1] != b
                or not 0 <= t - block[2] < len(block[3])):
            count = max(1, _BLOCK_WORDS // (4 * -(-b // 4)))
            rows = cdf.searchsorted(
                _philox_uniforms(self._key, t, count, b), side="right")
            block = self._block = (cdf, b, t, rows)
        self.position = t + 1
        return block[3][t - block[2]]


def _stack(w):
    """``w`` as a ``(k, d)`` float stack, and whether it was one point."""
    w = np.asarray(w, dtype=float)
    return (w[None, :], True) if w.ndim == 1 else (w, False)


class Problem:
    """Base stochastic objective: sampling plus per-sample loss/gradient.

    ``Problem(family, d, meta, base_seed, params)`` sets the fields all
    problems share.  Subclasses call it and provide the design moments
    ``second_moment`` (``E[x x']``, or the Hessian) and ``cross`` (the
    normal equations' right-hand side), and the methods ``next_batch``,
    ``loss``, ``grad``, ``batch_grad_mean``, ``exact_loss``, ``exact_grad``
    and ``suboptimality``.  Instances are immutable after construction and
    safe to share across workers.

    ``next_batch(stream, n)`` is the one way to draw: it returns the ``n``
    i.i.d. samples of batch ``stream.position`` and advances the stream
    by one position, so a batch is a function of the stream's key and its
    position alone.

    ``exact_loss``, ``suboptimality`` and ``exact_grad`` take one ``(d,)``
    point or a ``(k, d)`` stack of points; ``loss(W, batch)`` and
    ``grad(W, batch)`` take a ``(k, d)`` stack paired row by row with a
    batch of ``k`` samples (row ``i`` is sample ``i`` at ``W[i]``).  A stack
    gives ``(k,)`` values or ``(k, d)`` gradients whose row ``i`` equals the
    one-row call bit for bit (see ``rowwise``); one point gives a float or
    a ``(d,)`` gradient.

    ``batch_grad_mean(w, batch)`` consumes its batch: it may overwrite the
    batch's feature array, so a caller that needs the batch afterwards
    passes a copy.  ``next_batch`` returns a fresh, writable float64
    feature array for that reason.
    """

    def __init__(self, family, d, meta, base_seed, params):
        self.family = family
        self.d = d
        self.meta = meta
        self.base_seed = int(base_seed)
        self.params = dict(params)

    def config(self) -> dict:
        """Declarative record (family + parameters + seed) rebuilding this problem."""
        return {"family": self.family, "params": self.params,
                "seed": self.base_seed}

    def stream(self, run_seed: int = 0) -> SampleStream:
        """Sample stream for one run, keyed by (problem seed, run seed)."""
        return SampleStream(self.base_seed, run_seed)

    def solution_projector(self):
        """Orthogonal projector onto the range of ``second_moment``."""
        evals, evecs = np.linalg.eigh(self.second_moment)
        keep = evals > 1e-10 * max(evals.max(), 1e-300)
        v = evecs[:, keep]
        return v @ v.T


class DiscreteLeastSquares(Problem):
    """Least squares over a finite design with Gaussian label noise.

    ``x`` equals ``atoms[j]`` with probability ``probs[j]`` and
    ``y | x=atoms[j] ~ Normal(label_means[j], label_stds[j]**2)``.

    The closed forms work from the design's square-root factor
    ``F = sqrt(probs)[:, None] * atoms`` (``n_atoms x d``) and
    ``Fy = sqrt(probs) * label_means``:
    ``L(w) = 0.5 ||F w - Fy||**2 + 0.5 sum_j probs[j] label_stds[j]**2``,
    so the expected loss, its gradient and the suboptimality each cost
    ``O(n_atoms d)``.  The ``d x d`` second moment ``F'F`` is built only
    when ``second_moment`` is first read.
    """

    def __init__(self, family, atoms, probs, label_means, label_stds,
                 meta, base_seed, params):
        self.atoms = np.asarray(atoms, dtype=float)
        super().__init__(family, self.atoms.shape[1], meta, base_seed, params)
        self.probs = np.asarray(probs, dtype=float)
        self.label_means = np.asarray(label_means, dtype=float)
        self.label_stds = np.asarray(label_stds, dtype=float)
        # the check ``Generator.choice`` made on every draw, made once
        tol = np.sqrt(np.finfo(float).eps)
        if (self.probs.shape != (len(self.atoms),)
                or not np.all(self.probs >= 0)
                or not abs(self.probs.sum() - 1.0) <= tol):
            raise ValueError("probs must be one non-negative weight per atom, "
                             "summing to 1")
        root_p = np.sqrt(self.probs)
        self._F = root_p[:, None] * self.atoms
        self._Fy = root_p * self.label_means
        self.cross = self._Fy @ self._F
        self._noise_floor = 0.5 * float(self.probs @ self.label_stds**2)
        # the steps ``Generator.choice(n_atoms, p=probs)`` takes after
        # validating ``p``; drawing through them skips that per-call check
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]
        # with every label std 0, the drawn ``y`` is ``label_means[idx] +
        # 0 * z``, which is ``label_means[idx]`` bit for bit unless a mean
        # is -0.0 (then the sum takes the sign of z); the normals then need
        # not be drawn, and the next position's re-seat discards their rest
        zero = self.label_means == 0
        self._noise_free = not (self.label_stds.any()
                                or np.signbit(self.label_means[zero]).any())

    @functools.cached_property
    def second_moment(self):
        """Design second moment ``E[x x'] = F'F`` (``d x d``, built lazily)."""
        return self._F.T @ self._F

    # -- sampling ---------------------------------------------------------

    def next_batch(self, stream, b):
        if self._noise_free:
            idx = stream.next_indices(self._cdf, b)
            y = self.label_means[idx]
        else:
            gen = stream.next_generator()
            idx = self._cdf.searchsorted(gen.random(b), side="right")
            # draw the noise unconditionally so the stream layout does not
            # depend on which atoms were selected
            y = self.label_means[idx] + self.label_stds[idx] \
                * gen.standard_normal(b)
        # ``take`` gathers the rows ``atoms[idx]`` does, in half the time
        # at small b and d
        return self.atoms.take(idx, axis=0), y

    # -- per-sample quantities ---------------------------------------------

    def loss(self, W, batch):
        x, y = batch
        # libm ``pow``, as a Python float squares; NumPy's ``** 2`` differs
        # from it in the last bit for about 1 residual in 1,000
        return 0.5 * np.float_power(rowdot(x, W) - y, 2)

    def grad(self, W, batch):
        x, y = batch
        return x * (rowdot(x, W) - y)[:, None]

    def batch_grad_mean(self, w, batch):
        """Mean per-sample gradient over ``batch``; consumes the batch.

        The per-sample gradients ``x[i] * r[i]`` are written into ``x``
        itself (which must be a writable float64 array, as ``next_batch``
        returns), so afterwards ``x`` holds them and no ``b x d`` array is
        allocated per step.  The mean reduces over the sample axis in a
        fixed deterministic order.
        """
        x, y = batch
        r = x @ w - y
        np.multiply(x, r[:, None], out=x)
        return np.add.reduce(x, axis=0) / len(r)

    # -- closed forms -------------------------------------------------------

    def exact_loss(self, w):
        X, one = _stack(w)
        r = gemv(self._F, X) - self._Fy
        loss = rowdot(0.5 * r, r) + self._noise_floor
        return float(loss[0]) if one else loss

    def suboptimality(self, w):
        """Exact ``L(w) - Lstar``, evaluated without cancellation.

        The expected loss is quadratic and the certified ``wstar`` is an
        exact stationary point, so the gap equals the second-order term
        ``0.5 ||F (w - wstar)||**2`` which stays accurate even when it is
        far below the rounding floor of ``exact_loss``.  See ``Problem``
        for stacked points.
        """
        X, one = _stack(w)
        u = gemv(self._F, X - self.meta.wstar)
        gap = 0.5 * rowdot(u, u)
        return float(gap[0]) if one else gap

    def exact_grad(self, w):
        X, one = _stack(w)
        # F'(F w - Fy) = F'F (w - wstar) at the stationary wstar; the centred
        # form keeps its relative accuracy as w approaches the minimizer
        g = vecmat(gemv(self._F, X - self.meta.wstar), self._F)
        return g[0] if one else g


class DeterministicQuadratic(Problem):
    """Full-information quadratic: every sample reveals the exact objective.

    ``l(w; z) = 0.5 (w - wstar)' A (w - wstar)`` independently of ``z``, so
    stochastic gradients coincide with the exact gradient and the minibatch
    size affects the run only through the stepsize rule.  The constructor
    takes the Hessian ``A``; the minimizer is ``meta.wstar``.
    """

    def __init__(self, A, meta, base_seed, params):
        self.A = np.asarray(A, dtype=float)
        super().__init__("noiseless_quadratic", self.A.shape[0], meta,
                         base_seed, params)
        self.second_moment = self.A
        self.cross = self.A @ meta.wstar

    def next_batch(self, stream, b):
        # no information in the samples, so no bits are drawn and only the
        # position moves; a length-b placeholder keeps the batch contract
        # (b i.i.d. points)
        stream.position += 1
        return np.zeros((b, 0)), np.zeros(b)

    def loss(self, W, batch):
        return self.exact_loss(W)

    def grad(self, W, batch):
        return self.exact_grad(W)

    def batch_grad_mean(self, w, batch):
        return self.exact_grad(w)

    def exact_loss(self, w):
        return self.suboptimality(w)  # the minimum loss is 0

    def suboptimality(self, w):
        X, one = _stack(w)
        v = X - self.meta.wstar
        gap = rowdot(vecmat(0.5 * v, self.A), v)
        return float(gap[0]) if one else gap

    def exact_grad(self, w):
        X, one = _stack(w)
        g = gemv(self.A, X - self.meta.wstar)
        return g[0] if one else g


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_interpolation_least_squares(d: int, n_atoms: int, H: float, B: float,
                                     seed: int) -> DiscreteLeastSquares:
    """Realizable least squares: a planted weight vector fits every atom.

    ``x`` is uniform over ``n_atoms`` random directions rescaled to squared
    norm exactly ``H``; labels are ``y = <w0, x>`` for a planted ``w0`` that
    is the minimum-norm interpolator rescaled to norm exactly ``B``.  The
    minimum expected loss is therefore 0 and the gradient variance at ``w0``
    vanishes.

    Parameters
    ----------
    d : int
        Ambient dimension, at least ``n_atoms`` so the planting interpolates.
    n_atoms : int
        Number of design atoms.
    H : float
        Per-sample smoothness constant; each atom has squared norm ``H``.
    B : float
        Exact norm of the planted interpolator.
    seed : int
        Seeds the atom directions, the planted labels, and the problem's
        default sampling streams.
    """
    if n_atoms < 1 or d < n_atoms:
        raise ValueError(f"need d >= n_atoms >= 1, got d={d}, n_atoms={n_atoms}")
    if H <= 0 or B <= 0:
        raise ValueError("H and B must be positive")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7E]))
    raw = gen.standard_normal((n_atoms, d))
    atoms = np.sqrt(H) * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # plant: min-norm solution of random labels on the atom set, rescaled so
    # its norm is exactly B (rescaling preserves min-norm-ness)
    y_raw = gen.standard_normal(n_atoms)
    w_mn = np.linalg.pinv(atoms, rcond=1e-10) @ y_raw
    w0 = w_mn * (B / np.linalg.norm(w_mn))
    label_means = atoms @ w0

    probs = np.full(n_atoms, 1.0 / n_atoms)
    # the n_atoms x n_atoms Gram matrix shares the nonzero spectrum of the
    # d x d second moment atoms' atoms / n_atoms
    evals = np.linalg.eigvalsh(atoms @ atoms.T / n_atoms)
    lam = float(np.min(evals[evals > 1e-10 * evals.max()]))
    delta = float(0.5 * probs @ label_means**2)  # L(0), since L* = 0
    meta = ProblemMeta(H=float(H), B=float(B), Lstar=0.0, sigma_star_sq=0.0,
                       lam=lam, Delta=delta, wstar=w0)
    return DiscreteLeastSquares(
        "interpolation_least_squares", atoms, probs, label_means,
        np.zeros(n_atoms), meta, seed,
        {"d": d, "n_atoms": n_atoms, "H": H, "B": B})


def make_sign_vector_problem(n: int, H: float, B: float, sigma_signs,
                             seed: int = 0) -> DiscreteLeastSquares:
    """Orthogonal-design least squares on 2n coordinates with sign labels.

    ``x`` is uniform over the ``2n`` scaled basis vectors ``sqrt(H) e_i`` and
    ``y | x = <x, w*>`` for ``w* = (B / sqrt(2n)) * sigma_signs``.  Each
    coordinate of the minimizer carries one sign, every sampled feature has
    squared norm exactly ``H``, and ``L(0) - L* = H B**2 / (4 n)``.  The
    design has no randomness; ``seed`` keys the problem's sampling streams.
    """
    signs = np.asarray(sigma_signs, dtype=float)
    if signs.shape != (2 * n,):
        raise ValueError(f"sigma_signs must have length {2 * n}, got {signs.shape}")
    # integers only: the params record the signs as given, so a float or a
    # bool read back as an int would change the problem's config hash
    if not all(_is_int(s) and s in (-1, 1) for s in sigma_signs):
        raise ValueError(f"sigma_signs entries must be the integers +1 or "
                         f"-1, got {list(sigma_signs)!r}")
    if H <= 0 or B <= 0:
        raise ValueError("H and B must be positive")
    dim = 2 * n
    atoms = np.sqrt(H) * np.eye(dim)
    wstar = (B / np.sqrt(dim)) * signs
    label_means = atoms @ wstar
    probs = np.full(dim, 1.0 / dim)
    meta = ProblemMeta(H=float(H), B=float(B), Lstar=0.0, sigma_star_sq=0.0,
                       lam=float(H / dim), Delta=float(H * B**2 / (4 * n)),
                       wstar=wstar)
    return DiscreteLeastSquares(
        "sign_vector", atoms, probs, label_means, np.zeros(dim), meta, seed,
        {"n": n, "H": H, "B": B, "sigma_signs": list(sigma_signs)})


def make_gaussian_spike_problem(H: float, B: float, p: float, s: float,
                                sign: int, seed: int) -> DiscreteLeastSquares:
    """One-dimensional least squares with a rare informative sample.

    With probability ``1 - p`` the sample is ``(0, 0)``; with probability
    ``p`` it is ``x = sqrt(H)`` and ``y ~ Normal(sign * sqrt(H) * B, s**2)``.
    The expected loss is ``L(w) = (p/2) H (w - sign*B)**2 + p s**2 / 2``, so
    ``Lstar = p s**2 / 2`` and the gradient variance at the minimizer is
    ``p H s**2`` (which meets the ``2 H Lstar`` bound with equality).
    """
    if not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if H <= 0 or B <= 0 or s < 0:
        raise ValueError("H and B must be positive and s non-negative")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    atoms = np.array([[0.0], [np.sqrt(H)]])
    probs = np.array([1.0 - p, p])
    wstar = np.array([sign * B], dtype=float)
    label_means = np.array([0.0, sign * np.sqrt(H) * B])
    label_stds = np.array([0.0, float(s)])
    meta = ProblemMeta(H=float(H), B=float(B), Lstar=float(p * s**2 / 2),
                       sigma_star_sq=float(p * H * s**2), lam=float(H * p),
                       Delta=float(p * H * B**2 / 2), wstar=wstar)
    return DiscreteLeastSquares(
        "gaussian_spike", atoms, probs, label_means, label_stds, meta, seed,
        {"H": H, "B": B, "p": p, "s": s, "sign": sign})


def make_growth_problem(d: int, r: int, lam: float, H: float, Delta: float,
                        seed: int) -> DiscreteLeastSquares:
    """Rank-deficient least squares satisfying quadratic growth exactly.

    The design has ``r`` orthonormal atom directions (``r < d``), so the
    minimizer set is an affine subspace of dimension ``d - r``.  The design
    second moment has smallest nonzero eigenvalue exactly ``lam``; the
    remaining eigenvalues interpolate up to ``H / r`` so each atom keeps
    squared norm at most ``H``.  The planted solution is scaled so the
    initial suboptimality is exactly ``Delta``.

    Feasibility requires ``r * lam <= H``: the design trace is at most the
    per-sample smoothness constant.
    """
    if not (1 <= r < d):
        raise ValueError(f"need 1 <= r < d, got r={r}, d={d}")
    if not (0 < lam <= H):
        raise ValueError(f"need 0 < lam <= H, got lam={lam}, H={H}")
    if not (np.isfinite(Delta) and Delta > 0):
        raise ValueError(f"need finite Delta > 0, got Delta={Delta}")
    if r * lam > H * (1 + 1e-12):
        raise ValueError(
            f"infeasible: r*lam = {r * lam} exceeds H = {H}; the design "
            "trace E||x||^2 <= H caps the sum of the r eigenvalues")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x69D0]))
    basis, _ = np.linalg.qr(gen.standard_normal((d, r)))
    # eigenvalue targets: lam exactly in the first direction, the rest
    # interpolating up to the trace-feasible maximum H/r
    if r == 1:
        targets = np.array([lam], dtype=float)
    else:
        targets = np.linspace(lam, H / r, r)
    atoms = (basis * np.sqrt(r * targets)).T  # atom j has ||x_j||^2 = r*targets[j]
    probs = np.full(r, 1.0 / r)

    w_dir = basis @ gen.standard_normal(r)
    second = np.einsum("j,ja,jb->ab", probs, atoms, atoms)
    scale = np.sqrt(Delta / (0.5 * w_dir @ second @ w_dir))
    w0 = w_dir * scale
    label_means = atoms @ w0
    meta = ProblemMeta(H=float(H), B=float(np.linalg.norm(w0)), Lstar=0.0,
                       sigma_star_sq=0.0, lam=float(lam), Delta=float(Delta),
                       wstar=w0)
    return DiscreteLeastSquares(
        "growth", atoms, probs, label_means, np.zeros(r), meta, seed,
        {"d": d, "r": r, "lam": lam, "H": H, "Delta": Delta})


def make_noiseless_quadratic(d: int, H: float, B: float, seed: int,
                             spread: float = 1e6) -> DeterministicQuadratic:
    """Exact-gradient quadratic: ``l(.; z)`` equals the expected loss.

    The Hessian has eigenvalues geometrically spread over
    ``[H / spread, H]`` in a random orthonormal frame; the minimizer is a
    random direction of norm exactly ``B``.  Useful as the zero-noise
    baseline where only the deterministic part of a method's rate is
    visible.
    """
    if d < 1 or H <= 0 or B <= 0 or spread < 1:
        raise ValueError("need d >= 1, H > 0, B > 0, spread >= 1")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x4A3D]))
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    evals = np.geomspace(H / spread, H, d) if d > 1 else np.array([H])
    A = (q * evals) @ q.T
    A = 0.5 * (A + A.T)
    wdir = gen.standard_normal(d)
    wstar = wdir * (B / np.linalg.norm(wdir))
    delta = float(0.5 * wstar @ A @ wstar)
    meta = ProblemMeta(H=float(H), B=float(B), Lstar=0.0, sigma_star_sq=0.0,
                       lam=float(evals.min()), Delta=delta, wstar=wstar)
    return DeterministicQuadratic(
        A, meta, seed, {"d": d, "H": H, "B": B, "spread": spread})


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def sample_batch(problem: Problem, b: int, stream: SampleStream):
    """Draw the next batch of ``b`` i.i.d. samples, advancing the stream."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    return problem.next_batch(stream, b)


def minibatch_gradient(problem: Problem, w, batch):
    """Arithmetic mean of the per-sample gradients over a batch.

    The reduction runs over the sample axis in a fixed deterministic order,
    so identical batches always produce bit-identical gradients.  The call
    consumes the batch: a finite design's feature array ``x`` holds the
    per-sample gradients afterwards (see ``Problem``).
    """
    return problem.batch_grad_mean(np.asarray(w, dtype=float), batch)


_FAMILIES = {
    "interpolation_least_squares": make_interpolation_least_squares,
    "sign_vector": make_sign_vector_problem,
    "gaussian_spike": make_gaussian_spike_problem,
    "growth": make_growth_problem,
    "noiseless_quadratic": make_noiseless_quadratic,
}

# family parameters that are integers; JSON ``true`` must not pass as 1
_INT_PARAMS = ("d", "n_atoms", "r", "n", "sign")
# real-valued family parameters; JSON ``NaN``/``Infinity`` must not pass
_FLOAT_PARAMS = ("H", "B", "lam", "p", "s", "Delta", "spread")


def _is_int(value) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # json.loads accepts NaN and Infinity, and integers too big for a float
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def problem_from_config(config: dict) -> Problem:
    """Rebuild a problem from its declarative (family, params, seed) record."""
    unknown = set(config) - {"family", "params", "seed"}
    if unknown:
        raise ValueError(f"unknown problem config keys: {sorted(unknown)}")
    family = config["family"]
    if family not in _FAMILIES:
        raise ValueError(f"unknown problem family {family!r}; "
                         f"known: {sorted(_FAMILIES)}")
    params = dict(config.get("params", {}))
    for name in _INT_PARAMS:
        value = params.get(name, 0)
        if not _is_int(value):
            raise ValueError(f"{family}: parameter {name!r} must be an "
                             f"integer, got {value!r}")
    for name in _FLOAT_PARAMS:
        value = params.get(name, 0.0)
        if not _is_finite(value):
            error = (ValueError if _is_int(value) or isinstance(value, float)
                     else TypeError)
            raise error(f"{family}: parameter {name!r} must be a finite "
                        f"number, got {value!r}")
    params["seed"] = config.get("seed", 0)
    if not _is_int(params["seed"]):
        raise ValueError(f"{family}: seed must be an integer, "
                         f"got {params['seed']!r}")
    # finite parameters can still overflow what is built from them; the
    # check below rejects such a problem, so the overflow is no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        problem = _FAMILIES[family](**params)
    meta = problem.meta
    if not np.isfinite([meta.Lstar, meta.sigma_star_sq, meta.lam, meta.Delta,
                        *_ball_bounds(problem, meta.B)]).all():
        raise ValueError(f"{family}: parameters overflow a float: certified "
                         f"constants and ball bounds must be finite")
    return problem


def _ball_bounds(problem: Problem, B: float) -> list[float]:
    """On the ball of radius ``B``, ``4 H B**2`` bounds ``||F (w -
    wstar)||**2`` and ``(4 H B + 16 sqrt(H) s_max)**2`` the squared
    deviation of a sample gradient from its mean: ``x x'(w - wstar)`` has
    norm at most ``H ||w - wstar|| <= 2 H B``, and label noise adds
    ``sqrt(H) s |z|`` with ``s_max`` the largest label std (0 if none) and
    ``|z| <= 13.71`` for any normal NumPy's float64 sampler returns.  As
    Python floats, a bound that overflows is ``inf``, with no warning."""
    H = problem.meta.H
    s_max = float(max(getattr(problem, "label_stds", ()), default=0.0))
    dev = 4.0 * H * B
    noisy = dev + 16.0 * math.sqrt(H) * s_max
    return [dev * B, noisy * noisy]
