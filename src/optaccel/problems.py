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
import sys
from dataclasses import dataclass

import numpy as np

from .rowwise import gemv, rowdot, vecmat
from .trace import canonical_json, sha256_text

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


class SampleStream:
    """Counter-keyed sample stream: position `t` fully determines batch `t`.

    Batches are generated by a Philox block cipher keyed on the stream seed
    material with the counter's third word set to the stream position, so
    batch ``t`` of a given stream is identical no matter which batches were
    drawn before it, or in which process.  Re-seating the cached bit
    generator's state is equivalent to constructing
    ``Philox(key=key, counter=[0, 0, t, 0])`` afresh, just cheaper.
    """

    def __init__(self, seed: int, run_seed: int = 0):
        self.seed = int(seed)
        self.run_seed = int(run_seed)
        self.position = 0
        self._key = _mix_key(self.seed, self.run_seed)
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)
        # the fresh generator's state (counter 0, empty buffer); the setter
        # copies every field, so one dict serves every position
        self._state = self._bitgen.state

    def next_generator(self) -> np.random.Generator:
        """Generator for the current position; advances the stream."""
        self._state["state"]["counter"][2] = self.position
        self._bitgen.state = self._state
        self.position += 1
        return self._gen


def _stack(w):
    """``w`` as a ``(k, d)`` float stack, and whether it was one point."""
    w = np.asarray(w, dtype=float)
    return (w[None, :], True) if w.ndim == 1 else (w, False)


class Problem:
    """Base stochastic objective: sampling plus per-sample loss/gradient.

    Subclasses must provide ``d``, ``meta``, ``family``, ``params``,
    ``base_seed``, the design moments ``second_moment`` (``E[x x']``, or
    the Hessian) and ``cross`` (the normal equations' right-hand side),
    and the methods ``sample``, ``loss``, ``grad``, ``batch_grad_mean``,
    ``exact_loss``, ``exact_grad`` and ``suboptimality``.  Instances are
    immutable after construction and safe to share across workers.

    ``suboptimality`` and ``exact_grad`` take one ``(d,)`` point, giving a
    float and a ``(d,)`` gradient, or a ``(k, d)`` stack of points, giving
    ``(k,)`` and ``(k, d)`` arrays whose row ``i`` equals the call on point
    ``i`` bit for bit (see ``rowwise``).

    ``batch_grad_mean(w, batch)`` consumes its batch: it may overwrite the
    batch's feature array, so a caller that needs the batch afterwards
    passes a copy.  ``sample`` returns a fresh, writable float64 feature
    array for that reason.
    """

    d: int
    meta: ProblemMeta
    family: str
    params: dict
    base_seed: int

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
        self.family = family
        self.atoms = np.asarray(atoms, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.label_means = np.asarray(label_means, dtype=float)
        self.label_stds = np.asarray(label_stds, dtype=float)
        self.meta = meta
        self.base_seed = int(base_seed)
        self.params = dict(params)
        self.d = self.atoms.shape[1]
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

    @functools.cached_property
    def second_moment(self):
        """Design second moment ``E[x x'] = F'F`` (``d x d``, built lazily)."""
        return self._F.T @ self._F

    # -- sampling ---------------------------------------------------------

    def sample(self, gen: np.random.Generator, n: int):
        idx = self._cdf.searchsorted(gen.random(n), side="right")
        x = self.atoms[idx]
        # draw the noise unconditionally so the stream layout does not
        # depend on which atoms were selected
        y = self.label_means[idx] + self.label_stds[idx] * gen.standard_normal(n)
        return x, y

    # -- per-sample quantities ---------------------------------------------

    def loss(self, w, z):
        x, y = z
        return 0.5 * (float(x @ w) - float(y)) ** 2

    def grad(self, w, z):
        x, y = z
        return x * (float(x @ w) - float(y))

    def batch_grad_mean(self, w, batch):
        """Mean per-sample gradient over ``batch``; consumes the batch.

        The per-sample gradients ``x[i] * r[i]`` are written into ``x``
        itself (which must be a writable float64 array, as ``sample``
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
        r = self._F @ np.asarray(w, dtype=float) - self._Fy
        return float(0.5 * r @ r + self._noise_floor)

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
    size affects the run only through the stepsize rule.
    """

    def __init__(self, A, wstar, meta, base_seed, params, family="noiseless_quadratic"):
        self.family = family
        self.A = np.asarray(A, dtype=float)
        self.wstar_vec = np.asarray(wstar, dtype=float)
        self.meta = meta
        self.base_seed = int(base_seed)
        self.params = dict(params)
        self.d = self.A.shape[0]
        self.second_moment = self.A
        self.cross = self.A @ self.wstar_vec

    def sample(self, gen, n):
        # no information in the samples; keep a length-n placeholder so the
        # batch contract (b i.i.d. points) still holds
        return np.zeros((n, 0)), np.zeros(n)

    def loss(self, w, z):
        return self.exact_loss(w)

    def grad(self, w, z):
        return self.exact_grad(w)

    def batch_grad_mean(self, w, batch):
        return self.exact_grad(w)

    def exact_loss(self, w):
        return self.suboptimality(w)  # the minimum loss is 0

    def suboptimality(self, w):
        X, one = _stack(w)
        v = X - self.wstar_vec
        gap = rowdot(vecmat(0.5 * v, self.A), v)
        return float(gap[0]) if one else gap

    def exact_grad(self, w):
        X, one = _stack(w)
        g = gemv(self.A, X - self.wstar_vec)
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
    if H < 0 or B < 0 or s < 0:
        raise ValueError("H, B, s must be non-negative")
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
        A, wstar, meta, seed, {"d": d, "H": H, "B": B, "spread": spread})


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def sample_batch(problem: Problem, b: int, stream: SampleStream):
    """Draw the next batch of ``b`` i.i.d. samples, advancing the stream."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    return problem.sample(stream.next_generator(), b)


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
                        *_ball_bounds(meta.H, meta.B)]).all():
        raise ValueError(f"{family}: parameters overflow a float: certified "
                         f"constants, 4*H*B**2 and (4*H*B)**2 must be finite")
    return problem


def _ball_bounds(H: float, B: float) -> list[float]:
    """``4 H B**2`` bounds ``||F (w - wstar)||**2`` on the ball of radius
    ``B``, and ``(4 H B)**2`` the squared deviation of a noiseless design's
    sample gradient ``x x'(w - wstar)`` from its mean (both have norm at
    most ``H ||w - wstar|| <= 2 H B``).  As Python floats, a bound that
    overflows is ``inf``, with no warning."""
    dev = 4.0 * H * B
    return [dev * B, dev * dev]


def config_hash(config: dict) -> str:
    """Stable content hash of a declarative problem config."""
    return sha256_text(canonical_json(config))[:16]
