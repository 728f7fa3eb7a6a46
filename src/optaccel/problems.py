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
import inspect
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .trace import canonical_json

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

    Construction, ``dataclasses.replace`` too, raises ``OverflowError`` on
    a ``+inf`` constant and ``ValueError`` on a NaN or negative one or a
    zero ``H`` or ``B``.
    """

    H: float
    B: float
    Lstar: float
    sigma_star_sq: float
    lam: float
    Delta: float
    wstar: np.ndarray

    def __post_init__(self):
        for name in ("H", "B", "Lstar", "sigma_star_sq", "lam", "Delta"):
            value, positive = getattr(self, name), name in ("H", "B")
            # each test is false for NaN
            if not (0 < value < math.inf or value == 0 and not positive):
                raise (OverflowError if value == math.inf else ValueError)(
                    f"certified constant {name} must be finite and "
                    f"{'positive' if positive else '>= 0'}, got {value}")


def _mix_key(seed: int, run_seed: int) -> np.ndarray:
    """Derive a 128-bit Philox key from a problem seed and a run seed, each
    a non-negative integer of any size; two different pairs never share
    ``SeedSequence`` entropy.  A negative seed is ``SeedSequence``'s
    ``ValueError``."""
    entropy = [int(seed), int(run_seed)]
    # ``SeedSequence`` joins the seeds' 32-bit words end to end, so
    # (2**32, 5) and (0, 1 + 5 * 2**32) would both be [0, 1, 5]: a pair
    # with a larger seed puts each seed's word count before its words,
    # five words at least, past the four-word pool that ``SeedSequence``
    # pads with zeros
    if max(entropy) >= 2**32 and min(entropy) >= 0:
        framed = []
        for s in entropy:
            n = max(1, -(-s.bit_length() // 32))
            framed += [n, *((s >> 32 * i) & 0xFFFFFFFF for i in range(n))]
        entropy = framed
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


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
# a noise-free design draws batches of at least this many samples from the
# position's generator, not ``next_indices``: NumPy's C Philox then costs
# less than the counter path's array rounds, and both give the same bits
_GENERATOR_MIN_B = 64
# ``batch_grad_mean`` gathers a larger batch in blocks of at most this many
# float64 elements (512 KB), so no step allocates a ``b x d`` array
_GRAD_BLOCK_ELEMENTS = 65536


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
    what is drawn.  Whether a draw re-seats the generator or takes a
    block is the problem's ``next_batch``'s choice.
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
        """``cdf.searchsorted(next_generator().random(b), side="right")``;
        advances the stream.  It serves these bits from a block of positions
        computed in one Philox call, without re-seating the generator."""
        t = self.position
        block = self._block
        if (block is None or block[0] is not cdf or block[1] != b
                or not 0 <= t - block[2] < len(block[3])):
            count = max(1, _BLOCK_WORDS // (4 * -(-b // 4)))
            rows = cdf.searchsorted(
                _philox_uniforms(self._key, t, count, b), side="right")
            # each draw is a view of the block: nothing may write it
            rows.flags.writeable = False
            block = self._block = (cdf, b, t, rows)
        self.position = t + 1
        return block[3][t - block[2]]


class Problem:
    """Base stochastic objective: sampling plus per-sample loss/gradient.

    ``Problem(family, d, meta, base_seed, params)`` sets the fields all
    problems share.  Subclasses call it and provide the design moments
    ``second_moment`` (``E[x x']``, or the Hessian) and ``cross`` (the
    normal equations' right-hand side), and the methods ``next_batch``,
    ``loss_and_grad``, ``batch_grad_mean``, ``exact_loss``, ``exact_grad``
    and ``suboptimality``.  ``problem_from_config`` returns one build to
    every caller of an equal config, so nothing writes a built problem,
    apart from the cached ``second_moment``.

    ``next_batch(stream, n)`` is the one way to draw: it returns the ``n``
    i.i.d. samples of batch ``stream.position`` and advances the stream
    by one position, so a batch is a function of the stream's key and its
    position alone.  A finite design's batch is ``(idx, y)``: the drawn
    atom indices and their labels, sample ``i`` being
    ``(atoms[idx[i]], y[i])``.  ``next_batch`` alone picks the engine: a
    design without label noise takes a batch of fewer than
    ``_GENERATOR_MIN_B`` samples from ``stream.next_indices``, and every
    other draw re-seats ``stream.next_generator``.

    ``exact_loss``, ``suboptimality`` and ``exact_grad`` take one ``(d,)``
    point or a ``(k, d)`` stack of points; ``loss_and_grad(W, batch)``
    takes a ``(k, d)`` stack paired row by row with a batch of ``k``
    samples (row ``i`` is sample ``i`` at ``W[i]``) and returns their
    ``(k,)`` losses and ``(k, d)`` gradients.  A stack's row ``i`` equals
    the one-point call bit for bit, since NumPy's ``matvec``, ``vecmat``
    and ``vecdot`` make one BLAS call per row; one point gives an
    ``np.float64`` or a ``(d,)`` gradient.

    ``loss_and_grad`` and ``batch_grad_mean`` gather the features of a
    batch themselves and write no batch; nothing else writes one either,
    since its indices may be a read-only view of the stream's block.
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
        # ``+ 0.0`` turns -0.0 into 0.0 and keeps every other value's bits,
        # so ``mean + 0 * z`` is ``mean`` for every drawn normal ``z``
        self.label_means = np.asarray(label_means, dtype=float) + 0.0
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
        # with every label std 0 the normals need not be drawn, and the
        # next position's re-seat discards their rest
        self._noise_free = not self.label_stds.any()
        # the atoms in C order, as a gathered batch is (so their gemv is
        # ``dgemv_t`` too), padded to whole 4-row groups for
        # ``_atom_residuals``; a padding row repeats an atom, so it raises no
        # floating-point error the atoms do not
        n = len(self.atoms)
        self._atoms4 = (
            self.atoms if n % 4 == 0 and self.atoms.flags.c_contiguous
            else self.atoms.take(np.arange(n + -n % 4) % n, axis=0))

    @functools.cached_property
    def second_moment(self):
        """Design second moment ``E[x x'] = F'F`` (``d x d``, built lazily)."""
        return self._F.T @ self._F

    # -- sampling ---------------------------------------------------------

    def next_batch(self, stream, b):
        if self._noise_free and b < _GENERATOR_MIN_B:
            idx = stream.next_indices(self._cdf, b)
            return idx, self.label_means[idx]
        gen = stream.next_generator()
        idx = self._cdf.searchsorted(gen.random(b), side="right")
        y = self.label_means[idx]
        if self._noise_free:
            return idx, y
        # draw the noise unconditionally so the stream layout does not
        # depend on which atoms were selected
        return idx, y + self.label_stds[idx] * gen.standard_normal(b)

    # -- per-sample quantities ---------------------------------------------

    def loss_and_grad(self, W, batch):
        idx, y = batch
        # ``take`` gathers the rows ``atoms[idx]`` does, in half the time
        # at small b and d
        x = self.atoms.take(idx, axis=0)
        r = np.vecdot(x, W) - y
        # libm ``pow``, as a Python float squares; NumPy's ``** 2`` differs
        # from it in the last bit for about 1 residual in 1,000
        return 0.5 * np.float_power(r, 2), x * r[:, None]

    def batch_grad_mean(self, w, batch):
        """Mean per-sample gradient ``atoms[idx[i]] * r[i]`` over the batch
        ``(idx, y)``, with residuals ``r = atoms[idx] @ w - y``.

        A batch of at most ``_GRAD_BLOCK_ELEMENTS`` feature elements, or
        of ``d = 1``, is gathered whole: one gemv, one product in place and
        one sum over the sample axis, which NumPy adds row by row for
        ``d > 1`` (and pairwise for a ``(b, 1)`` array, so that one is
        never split).  A larger batch goes through ``_grad_sum_by_blocks``,
        which gives the same bits without a ``b x d`` array.
        """
        idx, y = batch
        b, d = len(idx), self.d
        if b * d > _GRAD_BLOCK_ELEMENTS and d > 1:
            return self._grad_sum_by_blocks(w, idx, y) / float(b)
        x = self.atoms.take(idx, axis=0)
        r = x @ w - y
        np.multiply(x, r[:, None], out=x)
        return np.add.reduce(x, axis=0) / float(b)

    def _grad_sum_by_blocks(self, w, idx, y):
        """Sum of the per-sample gradients, gathered block by block into
        one buffer, bit for bit the sum over the whole gathered batch.

        The running sum goes into row 0 of the next block before that block
        is summed, so the rows are added in batch order, each as ``acc +
        x``: NumPy's sum adds in that order, and the first operand's NaN is
        the one a sum of two NaNs keeps.  A block holds the largest power of
        two of rows, at least 4, that fits ``_GRAD_BLOCK_ELEMENTS``, so it
        starts on OpenBLAS ``dgemv_t``'s 4-row grouping; a last block of one
        row joins the block before it, since NumPy computes a 1-row product
        as a dot, which rounds otherwise.

        When the padded atoms' ``n4 x d`` products fit
        ``_GRAD_BLOCK_ELEMENTS`` (so ``n4 < b``), a block whose every row
        may take its atom's product (see ``_atom_residuals``) gathers rows
        of ``P = atoms * R[:, None]``, which are its rows' products bit for
        bit.  Any other block gathers its atoms, takes its residuals from
        its own gemv, which rounds them as one gemv over the batch does,
        and multiplies them in.

        The bits match at one BLAS thread: OpenBLAS may split a gemv over
        threads at a row off the 4-row grouping, the whole batch's gemv
        included.
        """
        b, d = len(idx), self.d
        rows = 1 << max(2, (_GRAD_BLOCK_ELEMENTS // d).bit_length() - 1)
        edges = [*range(0, b, rows), b]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        spans = list(zip(edges, edges[1:]))
        ok = np.zeros(b, bool)  # which rows may take their atom's product
        if self._atoms4.size <= _GRAD_BLOCK_ELEMENTS:
            ok, R = self._atom_residuals(w, idx, y)
            products = self.atoms * R[:, None]
        buf = np.empty((max(hi - lo for lo, hi in spans), d))
        acc = None
        for lo, hi in spans:
            blk = buf[:hi - lo]
            # into ``out``, mode "raise" would copy through a temporary;
            # every drawn index is in range, so "clip" changes none
            if ok[lo:hi].all():
                products.take(idx[lo:hi], axis=0, out=blk, mode="clip")
            else:
                self.atoms.take(idx[lo:hi], axis=0, out=blk, mode="clip")
                np.multiply(blk, (blk @ w - y[lo:hi])[:, None], out=blk)
            if acc is not None:
                np.add(acc, blk[0], out=blk[0])
            acc = np.add.reduce(blk, axis=0)
        return acc

    def _atom_residuals(self, w, idx, y):
        """Which rows of a batch may take their atom's product, and each
        atom's residual ``R = atoms @ w - label_means``, from one gemv over
        the atoms padded to whole 4-row groups.

        OpenBLAS ``dgemv_t`` rounds a row of a whole 4-row group the same
        wherever the group sits, so a batch row in a whole group has its
        atom's ``atoms[j] @ w``.  It may take its atom's product when its
        residual ``aw[idx] - y`` also has ``R``'s bits (compared as
        ``int64``, so signed zeros and NaN payloads count).  The last
        ``b % 4`` rows are the batch's tail, which rounds otherwise; they
        never may.
        """
        b = len(idx)
        aw = self._atoms4 @ w
        R = aw[:len(self.atoms)] - self.label_means
        ok = (aw.take(idx) - y).view(np.int64) == R.take(idx).view(np.int64)
        ok[b - b % 4:] = False
        return ok, R

    # -- closed forms -------------------------------------------------------

    def exact_loss(self, w):
        r = np.matvec(self._F, w) - self._Fy
        return np.vecdot(0.5 * r, r) + self._noise_floor

    def suboptimality(self, w):
        """Exact ``L(w) - Lstar``, evaluated without cancellation.

        The expected loss is quadratic and the certified ``wstar`` is an
        exact stationary point, so the gap equals the second-order term
        ``0.5 ||F (w - wstar)||**2`` which stays accurate even when it is
        far below the rounding floor of ``exact_loss``.  See ``Problem``
        for stacked points.
        """
        u = np.matvec(self._F, w - self.meta.wstar)
        return 0.5 * np.vecdot(u, u)

    def exact_grad(self, w):
        # F'(F w - Fy) = F'F (w - wstar) at the stationary wstar; the centred
        # form keeps its relative accuracy as w approaches the minimizer
        return np.vecmat(np.matvec(self._F, w - self.meta.wstar), self._F)


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

    def loss_and_grad(self, W, batch):
        return self.exact_loss(W), self.exact_grad(W)

    def batch_grad_mean(self, w, batch):
        return self.exact_grad(w)

    def exact_loss(self, w):
        return self.suboptimality(w)  # the minimum loss is 0

    def suboptimality(self, w):
        v = w - self.meta.wstar
        return np.vecdot(np.vecmat(0.5 * v, self.A), v)

    def exact_grad(self, w):
        return np.matvec(self.A, w - self.meta.wstar)


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
    if not (0 < H < math.inf and 0 < B < math.inf):  # false for NaN too
        raise ValueError(f"H and B must be positive and finite, got H={H}, "
                         f"B={B}")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7E]))
    raw = gen.standard_normal((n_atoms, d))
    atoms = np.sqrt(H) * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # plant: min-norm solution of random labels on the atom set, rescaled so
    # its norm is exactly B (rescaling preserves min-norm-ness)
    y_raw = gen.standard_normal(n_atoms)
    w_mn = np.linalg.pinv(atoms, rcond=1e-10) @ y_raw
    norm = np.linalg.norm(w_mn)
    if not np.isfinite(norm):  # w_mn grows as 1 / sqrt(H)
        raise OverflowError(f"the planted interpolator's norm overflows a "
                            f"float, got H={H}")
    w0 = w_mn * (B / norm)
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
    if not (0 < H < math.inf and 0 < B < math.inf):  # false for NaN too
        raise ValueError(f"H and B must be positive and finite, got H={H}, "
                         f"B={B}")
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
    if not (0 < H < math.inf and 0 < B < math.inf and 0 <= s < math.inf):
        raise ValueError(f"H and B must be positive and s non-negative, all "
                         f"finite, got H={H}, B={B}, s={s}")
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
    per-sample smoothness constant.  The check allows a few ulps over
    ``H``, since ``r * (H / r)`` may round above it; more would let the
    largest atom's ``||x||**2 = r * lam`` exceed the certified ``H``.
    """
    if not (1 <= r < d):
        raise ValueError(f"need 1 <= r < d, got r={r}, d={d}")
    if not 0 < lam <= H < math.inf:
        raise ValueError(f"need 0 < lam <= H < inf, got lam={lam}, H={H}")
    if not (np.isfinite(Delta) and Delta > 0):
        raise ValueError(f"need finite Delta > 0, got Delta={Delta}")
    if r * lam > H * (1 + 4 * sys.float_info.epsilon):
        raise ValueError(
            f"infeasible: r*lam = {r * lam} exceeds H = {H}; the design "
            "trace E||x||^2 <= H caps the sum of the r eigenvalues")
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x69D0]))
    basis, _ = np.linalg.qr(gen.standard_normal((d, r)))
    # eigenvalue targets: lam exactly in the first direction, the rest
    # interpolating up to the trace-feasible maximum H/r
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
    if not (d >= 1 and 0 < H < math.inf and 0 < B < math.inf
            and 1 <= spread < math.inf):
        raise ValueError(f"need d >= 1 and finite H > 0, B > 0, spread >= 1, "
                         f"got d={d}, H={H}, B={B}, spread={spread}")
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
    so identical batches always produce bit-identical gradients.  A finite
    design gathers the batch's features itself, a large batch block by
    block, so the call allocates no ``b x d`` array and leaves the batch
    as it was, with the bits of the whole-batch sum (see
    ``DiscreteLeastSquares._grad_sum_by_blocks``).
    """
    return problem.batch_grad_mean(np.asarray(w, dtype=float), batch)


_FAMILIES = {
    "interpolation_least_squares": make_interpolation_least_squares,
    "sign_vector": make_sign_vector_problem,
    "gaussian_spike": make_gaussian_spike_problem,
    "growth": make_growth_problem,
    "noiseless_quadratic": make_noiseless_quadratic,
}


def _is_int(value) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # json.loads accepts NaN and Infinity, and integers too big for a float
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def problem_from_config(config: dict) -> Problem:
    """Rebuild a problem from its declarative (family, params, seed) record.

    ``params`` is a JSON object of the family maker's arguments other than
    ``seed``, which is the record's own key (default 0).  A parameter the
    maker annotates ``int`` must be an integer that is not JSON ``true``,
    and one it annotates ``float`` a finite number.  The last successful
    build is kept, keyed by the config's canonical JSON, and every call
    with an equal config returns it (see ``Problem`` for what may not be
    written).  A config that fails its checks raises on every call and is
    never kept; one with no JSON form is a ``TypeError``.
    """
    return _built(canonical_json(config))


# one entry: a sweep's cells come problem by problem
@functools.lru_cache(maxsize=1)
def _built(key: str) -> Problem:
    return _build(json.loads(key))


def _build(config: dict) -> Problem:
    if not isinstance(config, dict):
        raise ValueError(f"a problem config must be a JSON object, "
                         f"got {config!r}")
    unknown = set(config) - {"family", "params", "seed"}
    if unknown:
        raise ValueError(f"unknown problem config keys: {sorted(unknown)}")
    family = config.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown problem family {family!r}; "
                         f"known: {sorted(_FAMILIES)}")
    maker = _FAMILIES[family]
    # the maker's arguments are ``params`` and the config's own ``seed``
    params = config.get("params", {})
    if not isinstance(params, dict) or "seed" in params:
        raise ValueError(f"{family}: params must be a JSON object without "
                         f"'seed' (the config's own key), got {params!r}")
    # each parameter's kind is its annotation in the maker's signature
    kinds = inspect.get_annotations(maker, eval_str=True)
    for name, value in params.items():
        if kinds.get(name) is int and not _is_int(value):
            raise ValueError(f"{family}: parameter {name!r} must be an "
                             f"integer, got {value!r}")
        if kinds.get(name) is float and not _is_finite(value):
            error = (ValueError if _is_int(value) or isinstance(value, float)
                     else TypeError)
            raise error(f"{family}: parameter {name!r} must be a finite "
                        f"number, got {value!r}")
    seed = config.get("seed", 0)
    # the seed keys every stream, which takes no negative seed
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"{family}: seed must be an integer >= 0, "
                         f"got {seed!r}")
    # finite parameters can still overflow what is built from them, so the
    # overflow is no warning: ``ProblemMeta`` raises ``OverflowError`` on an
    # infinite constant, as a maker's Python float ``B**2`` does (its libm
    # bits are the constants'); an ``inf - inf`` in an array operation,
    # which would make a NaN constant, raises ``FloatingPointError``; the
    # check below rejects infinite bounds
    try:
        with np.errstate(over="ignore", invalid="raise", divide="ignore"):
            problem = maker(**params, seed=seed)
    except (OverflowError, FloatingPointError):
        problem = None
    if problem is None or not np.isfinite(_ball_bounds(problem)).all():
        raise ValueError(f"{family}: parameters overflow a float: certified "
                         f"constants and ball bounds must be finite")
    return problem


def _ball_bounds(problem: Problem) -> list[float]:
    """On the ball of the certified radius ``B``, ``4 H B**2`` bounds
    ``||F (w - wstar)||**2`` and ``(4 H B + 16 sqrt(H) s_max)**2`` the squared
    deviation of a sample gradient from its mean: ``x x'(w - wstar)`` has
    norm at most ``H ||w - wstar|| <= 2 H B``, and label noise adds
    ``sqrt(H) s |z|`` with ``s_max`` the largest label std (0 if none) and
    ``|z| <= 13.71`` for any normal NumPy's float64 sampler returns.  As
    Python floats, a bound that overflows is ``inf``, with no warning."""
    H, B = problem.meta.H, problem.meta.B
    s_max = float(max(getattr(problem, "label_stds", ()), default=0.0))
    dev = 4.0 * H * B
    noisy = dev + 16.0 * math.sqrt(H) * s_max
    return [dev * B, noisy * noisy]
