"""Problem-family construction, metadata exactness, and sampling contracts."""

import inspect
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from optaccel import (
    DeterministicQuadratic,
    DiscreteLeastSquares,
    ProblemMeta,
    SampleStream,
    config_hash,
    make_gaussian_spike_problem,
    make_growth_problem,
    make_interpolation_least_squares,
    make_noiseless_quadratic,
    make_sign_vector_problem,
    minibatch_gradient,
    problem_from_config,
    run_acc_mb_sgd,
    run_sgd,
    sample_batch,
)
from optaccel import optimizers, problems
from optaccel.problems import _mix_key, _philox_uniforms
from optaccel.trace import canonical_json, trace_to_csv
from oracles import (assert_draw_contract, assert_family_contract,
                     choice_batch, dot_exact_grad, dot_suboptimality,
                     gradient_variance)
from strategies import (FAMILY_EXAMPLES, FAMILY_PARAMS, family_config,
                        family_configs)


class TestInterpolationLeastSquares:
    def test_single_atom_closed_form(self):
        # with one atom the problem is a rank-one quadratic along the atom:
        # L* = 0, lambda = H, Delta = H B^2 / 2, |<w0, x>| = sqrt(H) B
        prob = make_interpolation_least_squares(d=2, n_atoms=1, H=1.0, B=1.0,
                                                seed=0)
        x = prob.atoms[0]
        w0 = prob.meta.wstar
        assert prob.meta.Lstar == 0.0
        assert prob.meta.lam == pytest.approx(1.0)
        assert prob.meta.Delta == pytest.approx(0.5)
        assert abs(x @ w0) == pytest.approx(1.0)
        assert prob.exact_loss(w0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance_at_interpolator(self):
        prob = make_interpolation_least_squares(d=6, n_atoms=3, H=1.5, B=2.0,
                                                seed=4)
        assert gradient_variance(prob, prob.meta.wstar) == pytest.approx(
            0.0, abs=1e-14)
        # every per-sample gradient vanishes at the planted point
        batch = sample_batch(prob, 64, prob.stream(0))
        g = minibatch_gradient(prob, prob.meta.wstar, batch)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_exact_min_oracle(self):
        # independent oracle: min-norm least squares over the atoms directly
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=2.0, B=3.0,
                                                seed=7)
        y = prob.label_means
        w_oracle = np.linalg.pinv(prob.atoms) @ y
        resid = prob.atoms @ w_oracle - y
        assert np.max(np.abs(resid)) < 1e-10  # interpolation is exact
        from optaccel import exact_min
        wstar, lstar = exact_min(prob)
        assert lstar == pytest.approx(0.0, abs=1e-9)
        assert np.linalg.norm(wstar) <= 3.0 + 1e-9
        np.testing.assert_allclose(wstar, w_oracle, atol=1e-8)

    def test_atom_norms_exactly_H(self):
        prob = make_interpolation_least_squares(d=16, n_atoms=8, H=2.5, B=1.0,
                                                seed=1)
        np.testing.assert_allclose(
            np.einsum("ij,ij->i", prob.atoms, prob.atoms), 2.5, rtol=1e-14)


class TestSignVector:
    signs = [1, -1, 1, 1, -1, 1, -1, -1]

    def test_sampled_features_have_norm_sq_H(self):
        prob = make_sign_vector_problem(n=4, H=2.0, B=1.0,
                                        sigma_signs=self.signs)
        idx, _ = sample_batch(prob, 500, prob.stream(1))
        x = prob.atoms[idx]
        np.testing.assert_allclose((x**2).sum(axis=1), 2.0, rtol=1e-14)

    def test_seed_keys_streams_at_construction(self):
        cfg = {"family": "sign_vector",
               "params": {"n": 2, "H": 1.0, "B": 1.0,
                          "sigma_signs": [1, -1, 1, 1]}, "seed": 9}
        prob = make_sign_vector_problem(**cfg["params"], seed=9)
        assert prob.base_seed == 9
        assert prob.config() == cfg
        assert problem_from_config(cfg).config() == cfg


class TestGaussianSpike:
    def test_degenerate_noise(self):
        prob = make_gaussian_spike_problem(H=1.0, B=2.0, p=0.3, s=0.0, sign=-1,
                                           seed=0)
        assert prob.meta.Lstar == 0.0
        assert gradient_variance(prob, prob.meta.wstar) == pytest.approx(
            0.0, abs=1e-14)


class TestGrowthProblem:
    def test_null_space_points_are_minimizers(self):
        prob = make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=11)
        evals, evecs = np.linalg.eigh(prob.second_moment)
        null = evecs[:, evals < 1e-12]
        assert null.shape[1] == 3  # d - r
        gen = np.random.default_rng(0)
        for _ in range(5):
            w = prob.meta.wstar + null @ gen.standard_normal(3)
            assert prob.exact_loss(w) == pytest.approx(0.0, abs=1e-12)

    def test_growth_equality_in_min_eigendirection(self):
        prob = make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=11)
        evals, evecs = np.linalg.eigh(prob.second_moment)
        keep = evals > 1e-12
        u = evecs[:, np.flatnonzero(keep)[np.argmin(evals[keep])]]
        for t in (0.5, 2.0):
            w = prob.meta.wstar + t * u
            gap = prob.exact_loss(w) - 0.0
            assert gap == pytest.approx(0.5 * 0.1 * t**2, rel=1e-10)

    def test_lam_of_H_over_r_accepted(self):
        # 3 * (7.29 / 3) rounds above 7.29, and lam = H / r is feasible
        make_growth_problem(d=4, r=3, lam=7.29 / 3, H=7.29, Delta=1.0, seed=0)


NAN, INF = float("nan"), float("inf")
MAKER_ARGS = {problems._FAMILIES[f]: dict(cfg["params"], seed=cfg["seed"])
              for f, cfg in FAMILY_EXAMPLES.items()}


class TestMakersRefuse:
    # every refusal of a family maker is one row (maker, parameter, bad
    # value, message) on the maker's other ``MAKER_ARGS``; loading a spec
    # refuses a non-finite parameter first, but a maker called with one
    # built NaN or infinite constants, or warned or failed otherwise
    CASES = [
        (make_gaussian_spike_problem, "H", NAN, "H and B must be positive"),
        (make_gaussian_spike_problem, "B", INF, "H and B must be positive"),
        (make_gaussian_spike_problem, "s", INF, "H and B must be positive"),
        (make_gaussian_spike_problem, "s", NAN, "H and B must be positive"),
        (make_sign_vector_problem, "H", NAN, "H and B must be positive"),
        (make_sign_vector_problem, "H", INF, "H and B must be positive"),
        (make_sign_vector_problem, "B", INF, "H and B must be positive"),
        (make_noiseless_quadratic, "spread", NAN, "spread"),
        (make_noiseless_quadratic, "spread", INF, "spread"),
        (make_interpolation_least_squares, "B", INF,
         "H and B must be positive"),
        (make_interpolation_least_squares, "H", NAN,
         "H and B must be positive"),
        (make_interpolation_least_squares, "H", INF,
         "H and B must be positive"),
        (make_growth_problem, "H", INF, "lam <= H"),
        (make_interpolation_least_squares, "n_atoms", 9,
         "need d >= n_atoms >= 1, got d=8, n_atoms=9"),
        (make_interpolation_least_squares, "H", -1.0,
         "H and B must be positive"),
        (make_sign_vector_problem, "sigma_signs", [1, -1],
         "sigma_signs must have length 4"),
        (make_sign_vector_problem, "sigma_signs", [1, 2, 1, 1],
         "sigma_signs entries must be the integers +1 or -1"),
        *((make_gaussian_spike_problem, "p", p, "p must lie in (0, 1]")
          for p in (0.0, -0.1, 1.5)),
        # the stepsize rule divides by H, and a radius of 0 is no ball
        *((make_gaussian_spike_problem, name, value,
           "H and B must be positive")
          for name, value in [("H", 0.0), ("B", 0.0), ("H", -1.0)]),
        (make_growth_problem, "r", 6, "need 1 <= r < d, got r=6, d=6"),
        (make_growth_problem, "lam", 2.0, "need 0 < lam <= H < inf"),
        # the design trace caps r * lam at H, to its last rounding
        *((make_growth_problem, "lam", lam, "infeasible: r*lam = ")
          for lam in (0.9, (1 + 5e-13) / 3)),
        *((make_growth_problem, "Delta", Delta, "need finite Delta > 0")
          for Delta in (-1.0, 0.0, NAN, INF)),
    ]

    @pytest.mark.parametrize("maker,name,value,match", CASES, ids=[
        f"{maker.__name__}-{name}={value}" for maker, name, value, _ in CASES])
    def test_rejected_before_anything_is_computed(self, maker, name, value,
                                                  match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                maker(**{**MAKER_ARGS[maker], name: value})
        assert match in str(exc.value)


CONSTANTS = ("H", "B", "Lstar", "sigma_star_sq", "lam", "Delta")


@st.composite
def valid_constants(draw):
    """Finite constants ``ProblemMeta`` accepts: ``H`` and ``B`` positive,
    the rest positive or zero."""
    positive = st.floats(5e-324, 1.7e308)
    return {name: draw(positive if name in ("H", "B")
                       else positive | st.sampled_from([0.0, -0.0]))
            for name in CONSTANTS}


class TestProblemMetaChecksConstants:
    """Every rate, stepsize and plan reads ``meta``, so ``ProblemMeta``
    rejects a constant none of them can use, whoever builds it."""

    @settings(max_examples=300, deadline=None)
    @given(constants=valid_constants(), name=st.sampled_from(CONSTANTS),
           bad=st.sampled_from([NAN, INF, -INF, -5e-324, -1.0, -1.7e308])
           | st.floats(max_value=-5e-324, allow_infinity=False)
           | st.just(0.0))
    def test_rejects_what_no_bound_can_use(self, constants, name, bad):
        assume(bad != 0 or name in ("H", "B"))
        meta = ProblemMeta(**constants, wstar=np.zeros(1))
        error = OverflowError if bad == INF else ValueError
        match = f"certified constant {name} must be finite"
        with pytest.raises(error, match=match):
            ProblemMeta(**{**constants, name: bad}, wstar=np.zeros(1))
        with pytest.raises(error, match=match):
            replace(meta, **{name: bad})

    @pytest.mark.parametrize("name", ["Lstar", "sigma_star_sq", "lam",
                                      "Delta"])
    def test_zero_is_a_constant(self, name):
        # lam = 0 means no growth certificate; the others can be exactly 0
        constants = dict(H=1.0, B=1.0, Lstar=0.5, sigma_star_sq=0.5,
                         lam=0.5, Delta=0.5)
        zero = ProblemMeta(**{**constants, name: 0.0}, wstar=np.zeros(1))
        meta = ProblemMeta(**constants, wstar=np.zeros(1))
        assert getattr(zero, name) == getattr(
            replace(meta, **{name: 0.0}), name) == 0.0


def make_noisy_basis(d: int, H: float, B: float, s: float,
                     seed: int) -> DiscreteLeastSquares:
    """A test-only family: ``x = sqrt(H) e_i``, ``y = <x, wstar> + s z``."""
    atoms, wstar = np.sqrt(H) * np.eye(d), np.full(d, B / np.sqrt(d))
    meta = ProblemMeta(H=H, B=B, Lstar=s**2 / 2, sigma_star_sq=H * s**2,
                       lam=H / d, Delta=H * B**2 / (2 * d), wstar=wstar)
    return DiscreteLeastSquares("noisy_basis", atoms, np.full(d, 1 / d),
                                atoms @ wstar, np.full(d, s), meta, seed,
                                {"d": d, "H": H, "B": B, "s": s})


class TestFamilyContract:
    """Every family keeps ``oracles.assert_family_contract``, so a new one
    needs only its entries in ``_FAMILIES`` and both ``strategies`` dicts."""

    def test_the_strategy_dicts_list_every_family(self):
        assert sorted(FAMILY_PARAMS) == sorted(FAMILY_EXAMPLES) \
            == sorted(problems._FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_EXAMPLES))
    def test_example(self, family):
        assert_family_contract(problem_from_config(FAMILY_EXAMPLES[family]))

    @settings(max_examples=250, deadline=None)
    @given(cfg=family_configs())
    # a pseudoinverse of M = F'F left |M w - cross| at 2.1e-13 of its scale
    @example(cfg={"family": "interpolation_least_squares", "seed": 388,
                  "params": {"d": 11, "n_atoms": 11, "H": 8.177, "B": 6.912}})
    def test_drawn_configs(self, cfg):
        assert_family_contract(problem_from_config(cfg))

    def add_and_check(self, monkeypatch, family, maker):
        """Add ``family`` where new families go; run the tests above on it."""
        monkeypatch.setitem(problems._FAMILIES, family, maker)
        with pytest.raises(AssertionError):  # not yet in the dicts
            self.test_the_strategy_dicts_list_every_family()
        monkeypatch.setitem(FAMILY_PARAMS, family, st.fixed_dictionaries({
            "d": st.integers(1, 6), "H": st.floats(0.1, 10.0),
            "B": st.floats(0.1, 10.0), "s": st.floats(0.0, 2.0)}))
        monkeypatch.setitem(FAMILY_EXAMPLES, family, {
            "family": family, "params": {"d": 3, "H": 2.0, "B": 1.0, "s": 0.5},
            "seed": 0})
        self.test_the_strategy_dicts_list_every_family()
        self.test_example(family)
        settings(max_examples=50, deadline=None, database=None)(given(
            cfg=family_config(family))(
                self.test_drawn_configs.hypothesis.inner_test))(self)

    def test_a_correct_family_passes(self, monkeypatch):
        self.add_and_check(monkeypatch, "noisy_basis", make_noisy_basis)

    def test_a_family_whose_delta_is_one_percent_off_fails(self, monkeypatch):
        def make_off_delta(d: int, H: float, B: float, s: float, seed: int):
            prob = make_noisy_basis(d, H, B, s, seed)
            prob.meta = replace(prob.meta, Delta=1.01 * prob.meta.Delta)
            return prob
        with pytest.raises(AssertionError, match="noisy_basis: Delta"):
            self.add_and_check(monkeypatch, "off_delta", make_off_delta)


@st.composite
def finite_designs(draw):
    """A random finite design with n_atoms <= d, plus a query point.

    The label means are fitted exactly by the certified minimizer, as in
    every built-in family.
    """
    d = draw(st.integers(1, 12))
    n_atoms = draw(st.integers(1, d))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_atoms,
                                     max_size=n_atoms)))
    probs = weights / weights.sum()
    noisy = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = gen.standard_normal((n_atoms, d))
    wstar = gen.standard_normal(d)
    label_means = atoms @ wstar
    label_stds = (np.abs(gen.standard_normal(n_atoms)) if noisy
                  else np.zeros(n_atoms))
    meta = ProblemMeta(H=1.0, B=1.0, Lstar=0.5 * probs @ label_stds**2,
                       sigma_star_sq=0.0, lam=0.0, Delta=1.0, wstar=wstar)
    prob = DiscreteLeastSquares("property", atoms, probs, label_means,
                                label_stds, meta, 0, {})
    return prob, gen.standard_normal(d)


def assert_within_rounding(got, want, scale, rtol=1e-12):
    """``|got - want| <= rtol * scale`` elementwise, where ``scale`` is the
    reference formula evaluated on absolute values, i.e. the magnitude its
    own rounding error is proportional to."""
    assert np.all(np.abs(np.asarray(got) - want) <= rtol * np.asarray(scale))


class TestFactorClosedForms:
    """The square-root-factor closed forms equal the dense ``d x d`` ones."""

    @settings(max_examples=200, deadline=None)
    @given(finite_designs())
    def test_match_dense_second_moment_formulas(self, design):
        prob, w = design
        p, a, m, s = prob.probs, prob.atoms, prob.label_means, prob.label_stds
        M = np.einsum("j,ja,jb->ab", p, a, a)
        c = p * m @ a
        const = 0.5 * p @ (m**2 + s**2)
        loss = 0.5 * w @ M @ w - c @ w + const
        absM = np.einsum("j,ja,jb->ab", p, np.abs(a), np.abs(a))
        absc = p * np.abs(m) @ np.abs(a)
        aw = np.abs(w)
        loss_scale = 0.5 * aw @ absM @ aw + absc @ aw + const

        assert_within_rounding(prob.second_moment, M, absM)
        assert_within_rounding(prob.exact_loss(w), loss, loss_scale)
        # the gradient is taken about wstar, which fits the labels up to
        # their rounding
        wstar = prob.meta.wstar
        assert_within_rounding(prob.exact_grad(w), M @ w - c,
                               absM @ (aw + np.abs(wstar)) + absc)
        v = w - wstar
        assert_within_rounding(prob.suboptimality(w), 0.5 * v @ M @ v,
                               0.5 * np.abs(v) @ absM @ np.abs(v))


class TestStackedClosedForms:
    """A ``(k, d)`` stack of points evaluates row by row, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=family_configs(), k=st.integers(1, 300),
           seed=st.integers(0, 2**32))
    def test_rows_match_single_points_and_dot_forms(self, cfg, k, seed):
        prob = problem_from_config(cfg)
        gen = np.random.default_rng(seed)
        X = prob.meta.B * gen.standard_normal((k, prob.d))
        # the minimizer itself, where the gap and gradient are exact zeros
        X[gen.random(k) < 0.1] = prob.meta.wstar
        gaps, grads = prob.suboptimality(X), prob.exact_grad(X)
        assert gaps.shape == (k,) and grads.shape == (k, prob.d)
        for i, x in enumerate(X):
            gap = prob.suboptimality(x)
            assert isinstance(gap, float)
            want = np.float64(dot_suboptimality(prob, x)).tobytes()
            assert np.float64(gap).tobytes() == gaps[i].tobytes() == want
            want = dot_exact_grad(prob, x).tobytes()
            assert prob.exact_grad(x).tobytes() == grads[i].tobytes() == want


class TestSampling:
    def test_atom_frequency(self):
        # binomial: freq of e_1 over 1e5 uniform draws from 4 atoms
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, 1, -1, 1])
        idx, _ = sample_batch(prob, 100000, prob.stream(13))
        freq = float(np.mean(prob.atoms[idx][:, 0] != 0.0))
        assert abs(freq - 0.25) < 0.02


def knot_at(u):
    """Two-atom weights whose normalised CDF has its knot exactly at ``u``
    while the raw cumulative sum has it just above: a uniform draw equal to
    ``u`` picks atom 1 through ``choice`` but atom 0 under a ``side="left"``
    search or an unnormalised CDF."""
    total = 1.0 + 2.0**-30  # within choice's 1.5e-8 tolerance on the sum
    a = u * total
    for _ in range(64):
        c = total - a
        if a > u and a / (a + c) == u:
            return np.array([a, c])
        a = np.nextafter(a, 2.0) if a / (a + c) < u else np.nextafter(a, 0.0)
    raise AssertionError(f"no knot found at {u!r}")


def design_of(kind, probs, seed):
    """A noisy design over ``probs`` with one atom per integer; sampling
    reads none of the certificates, so these are placeholders."""
    n_atoms = len(probs)
    gen = np.random.default_rng(seed)
    return DiscreteLeastSquares(
        kind, np.arange(n_atoms, dtype=float)[:, None], probs,
        gen.standard_normal(n_atoms), np.abs(gen.standard_normal(n_atoms)),
        ProblemMeta(H=1.0, B=1.0, Lstar=0.0, sigma_star_sq=0.0, lam=0.0,
                    Delta=1.0, wstar=np.zeros(1)), seed, {})


def noise_free(prob, label_means=None):
    """``prob``'s design with every label std 0 (and, if given, other
    label means); the quadratic as it is."""
    if isinstance(prob, DeterministicQuadratic):
        return prob
    means = prob.label_means if label_means is None else label_means
    return DiscreteLeastSquares(prob.family, prob.atoms, prob.probs, means,
                                np.zeros(len(prob.probs)), prob.meta,
                                prob.base_seed, prob.params)


@st.composite
def sampled_designs(draw):
    """A problem, a batch address ``(run_seed, t)`` and size ``b``: a
    family's problem, a random design with zero-probability atoms, or a
    design with a CDF knot on one of batch ``t``'s uniforms, as drawn or
    noise-free."""
    seed = draw(st.integers(0, 2**32 - 1))
    run_seed, t = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**40))
    b = draw(st.integers(1, 64))
    kind = draw(st.sampled_from([*FAMILY_PARAMS, "zeros", "knot"]))
    if kind in FAMILY_PARAMS:
        prob = problem_from_config(draw(family_config(kind)))
    elif kind == "zeros":
        n_atoms = draw(st.integers(1, 8))
        weights = np.array(draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0),
            min_size=n_atoms, max_size=n_atoms)))
        assume(weights.sum() > 0)
        prob = design_of(kind, weights / weights.sum(), seed)
    else:
        us = _philox_uniforms(_mix_key(seed, run_seed), t, 1, b)[0]
        prob = design_of(kind, knot_at(us[draw(st.integers(0, b - 1))]), seed)
    return (noise_free(prob) if draw(st.booleans()) else prob), run_seed, t, b


# a mean stored as -0.0 would keep its sign in a noise-free batch, where
# the reference's ``-0.0 + 0.0 * z`` takes the sign of ``z``
SIGNED_ZERO = noise_free(make_sign_vector_problem(
    n=1, H=1.0, B=1.0, sigma_signs=[1, 1]), np.array([-0.0, 1.0]))
# batch 7 of stream 6 of a design whose CDF knot is that batch's one uniform
KNOT_U = _philox_uniforms(_mix_key(5, 6), 7, 1, 1)[0, 0]
KNOT = design_of("knot", knot_at(KNOT_U), 5)
DRAW_EXAMPLES = [(SIGNED_ZERO, 3, 0, 32), (KNOT, 6, 7, 1)]


class TestSamplerMatchesChoice:
    def test_knot_design_separates_tie_rules(self):
        # the knot designs only bite if a draw that lands on a knot picks
        # the atom above it
        cdf = KNOT.probs.cumsum()
        cdf /= cdf[-1]
        assert cdf[0] == KNOT_U and KNOT.probs[0] != KNOT_U
        assert choice_batch(KNOT, 6, 7, 1)[0].tolist() == [1]


class TestStreamAddressability:
    """A stream's key is a function of ``(seed, run_seed)`` that no other
    pair of seeds shares."""

    def test_seeds_do_not_alias_modulo_2_64(self):
        # a seed of 2**64 or more is not read modulo 2**64, and a negative
        # one is refused rather than read as 2**64 minus it
        prob = make_sign_vector_problem(n=1, H=1.0, B=1.0, sigma_signs=[1, -1])
        keys = [prob.stream(s)._key.tobytes() for s in (0, 2**64, 2**64 - 1)]
        assert len(set(keys)) == 3
        assert keys[0] == _mix_key(0, 0).tobytes()
        with pytest.raises(ValueError, match="non-negative"):
            prob.stream(-1)

    def test_seed_pairs_do_not_alias_across_word_boundaries(self):
        # ``SeedSequence`` alone reads both of the first two pairs as the
        # words [0, 1, 5]; (2**32, 0) as a framed array must not equal a
        # shorter pair's that ``SeedSequence`` pads with zeros
        pairs = [(2**32, 5), (0, 1 + 5 * 2**32), (2**32, 0), (0, 2**32),
                 (1, 0), (0, 1), (0, 0), (2**64, 0), (0, 2**64),
                 (2**32 - 1, 2**32 - 1), (2**32 - 1, 2**32)]
        assert len({_mix_key(*pair).tobytes() for pair in pairs}) == len(pairs)
        with pytest.raises(ValueError, match="non-negative"):
            _mix_key(-1, 2**32)
        batches = []
        for seed, run_seed in pairs[:2]:
            prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                            sigma_signs=[1, -1, 1, 1],
                                            seed=seed)
            batches.append(sample_batch(prob, 64, prob.stream(run_seed))[0])
        assert batches[0].tobytes() != batches[1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_one_word_seeds_keep_their_seed_sequence_key(self, seed,
                                                         run_seed):
        want = np.random.SeedSequence([seed, run_seed]).generate_state(
            2, np.uint64)
        assert _mix_key(seed, run_seed).tobytes() == want.tobytes()


def mutant(cls, name, old, new):
    """``cls.name`` compiled again from its source with ``old``, which
    occurs in it once, replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert source.count(old) == 1
    scope = {}
    exec(source.replace(old, new), vars(problems), scope)
    return scope[name]


# each changes one line of the sampler, and the contract fails on the check
# its last entry names: a knot draw picks the atom below; batch t is served
# at position t + 1; the same bits come from a counter block
MUTANTS = {
    "side_left": (DiscreteLeastSquares, "next_batch", 'side="right"',
                  'side="left"', "bits"),
    "block_one_position_late": (SampleStream, "next_indices", "b, t, rows",
                                "b, t + 1, rows", "bits"),
    "counter_at_the_threshold": (DiscreteLeastSquares, "next_batch",
                                 "b < _GENERATOR_MIN_B",
                                 "b <= _GENERATOR_MIN_B", "engine"),
}


class TestDrawContract:
    """Every draw keeps ``oracles.assert_draw_contract``, so a new family
    is checked by its entries in the ``strategies`` dicts."""

    @pytest.mark.parametrize("family", sorted(FAMILY_EXAMPLES))
    def test_example(self, family):
        prob = problem_from_config(FAMILY_EXAMPLES[family])
        for design in (prob, noise_free(prob)):
            for b in (1, problems._GENERATOR_MIN_B - 1,
                      problems._GENERATOR_MIN_B, 300):
                stream = design.stream(5)
                for _ in range(3):
                    assert_draw_contract(design, stream, b)

    @settings(max_examples=300, deadline=None)
    @given(design=sampled_designs(), words=st.integers(4, 64),
           history=st.lists(st.tuples(
               st.sampled_from(["batch", "generator", "seek"]),
               st.integers(0, 2**40), st.integers(1, 300), st.booleans()),
               max_size=12))
    @example(design=DRAW_EXAMPLES[0], words=64, history=[])
    @example(design=DRAW_EXAMPLES[1], words=64, history=[])
    def test_drawn_designs(self, design, words, history):
        prob, run_seed, t, b = design
        stream = prob.stream(run_seed)
        stream.position = t
        # a small word budget puts block edges between the draws
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_BLOCK_WORDS", words)
            for op, position, n, half in [("batch", t, b, False), *history]:
                if op == "seek":
                    stream.position = position
                elif op == "generator":
                    # leaves buffered words, and after a float32 draw a
                    # spare 32-bit half, which the next re-seat drops
                    stream.next_generator().random(
                        n, dtype=np.float32 if half else np.float64)
                else:
                    assert_draw_contract(prob, stream, n)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_a_mutant_fails(self, monkeypatch, name):
        cls, method, old, new, check = MUTANTS[name]
        monkeypatch.setattr(cls, method, mutant(cls, method, old, new))
        with pytest.raises(AssertionError, match=check):
            for family in sorted(FAMILY_EXAMPLES):
                self.test_example(family)
            for design in DRAW_EXAMPLES:
                self.test_drawn_designs.hypothesis.inner_test(
                    self, design=design, words=64, history=[])


class TestCounterPath:
    """Noise-free designs draw their batches from blocks of Philox
    uniforms computed in NumPy: the same bits as the generator path."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
           st.integers(0, 2**40), st.integers(1, 6), st.integers(1, 300))
    def test_uniforms_match_the_generator(self, k0, k1, t0, count, b):
        key = np.array([k0, k1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _philox_uniforms(key, t0, count, b)
        assert got.shape == (count, b) and got.dtype == np.float64
        for i in range(count):
            gen = np.random.Generator(np.random.Philox(
                key=key, counter=[0, 0, t0 + i, 0]))
            assert got[i].tobytes() == gen.random(b).tobytes()

    @pytest.mark.parametrize("b", [problems._GENERATOR_MIN_B, 300])
    def test_next_indices_serves_counter_blocks_at_any_batch_size(self, b):
        cdf = np.array([0.125, 0.5, 0.75, 1.0])
        stream, ref = SampleStream(3, 5), SampleStream(3, 5)
        stream.next_generator = None  # the counter path never calls it
        for t in range(1, 4):
            want = cdf.searchsorted(ref.next_generator().random(b),
                                    side="right")
            assert stream.next_indices(cdf, b).tobytes() == want.tobytes()
            assert stream.position == t
            assert stream._block is not None and stream._block[1] == b

    def test_negative_zero_mean_is_stored_as_zero(self):
        # -0.0 + 0 * z would take the sign of z; a mean stored as 0.0 plus
        # zero noise is the mean, so the design is noise-free (its draws
        # are one of ``DRAW_EXAMPLES``)
        assert SIGNED_ZERO.label_means.tobytes() \
            == np.array([0.0, 1.0]).tobytes()
        assert SIGNED_ZERO._noise_free

    @settings(max_examples=50, deadline=None)
    @given(cfg=family_configs(), b=st.integers(1, 100),
           T=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
    def test_runs_match_the_generator_path(self, cfg, b, T, seed):
        prob = problem_from_config(cfg)
        got = [run(prob, b, T, seed=seed)[1]
               for run in (run_acc_mb_sgd, run_sgd)]

        def next_batch(problem, stream, n):
            stream.position += 1
            return choice_batch(problem, seed, stream.position - 1, n)

        with pytest.MonkeyPatch.context() as mp:
            for cls in (DiscreteLeastSquares, DeterministicQuadratic):
                mp.setattr(cls, "next_batch", next_batch)
            want = [run(prob, b, T, seed=seed)[1]
                    for run in (run_acc_mb_sgd, run_sgd)]
        for a, r in zip(got, want):
            assert trace_to_csv(a) == trace_to_csv(r)


def reference_batch_grad_mean(prob, w, batch):
    """The gradient formula that gathered the whole batch into one fresh
    ``b x d`` array and summed its product in one call."""
    if isinstance(prob, DeterministicQuadratic):
        return prob.exact_grad(w)
    idx, y = batch
    x = prob.atoms[idx]
    r = x @ w - y
    return np.add.reduce(x * r[:, None], axis=0) / len(r)


def block_rows(d, budget):
    """Rows of a gradient block: the largest power of two, at least 4,
    whose ``d`` columns fit ``budget`` elements."""
    rows = 4
    while 2 * rows * d <= budget:
        rows *= 2
    return rows


# the benchmark's shapes at the default budget, with every tail length;
# OpenBLAS may split a gemv this large over threads at a row off its 4-row
# grouping, so the comparison runs at one BLAS thread, as perfbench does
_ONE_THREAD_CHECK = """
import numpy as np
from optaccel import make_interpolation_least_squares
for d, b in [(2048, 33), (2048, 64), (2048, 65), (2048, 255), (2048, 256),
             (2048, 257), (2048, 258), (2048, 259), (1024, 130), (32, 4097)]:
    prob = make_interpolation_least_squares(d=d, n_atoms=16, H=1.0, B=4.0,
                                            seed=d + b)
    gen = np.random.default_rng(b)
    idx, y = gen.integers(0, 16, b), gen.standard_normal(b)
    w = gen.standard_normal(d)
    x = prob.atoms[idx]
    want = np.add.reduce(x * (x @ w - y)[:, None], axis=0) / b
    got = prob.batch_grad_mean(w, (idx, y))
    assert got.tobytes() == want.tobytes(), (d, b)
# sampled noise-free batches, whose blocks take the atom-space products; 13
# atoms are padded to 16 for their gemv
for n_atoms in (16, 13):
    for b in (256, 257, 258, 259):
        prob = make_interpolation_least_squares(d=2048, n_atoms=n_atoms,
                                                H=1.0, B=4.0, seed=b)
        idx, y = prob.next_batch(prob.stream(b), b)
        assert y.tobytes() == prob.label_means[idx].tobytes()
        w = np.random.default_rng(b).standard_normal(2048)
        x = prob.atoms[idx]
        want = np.add.reduce(x * (x @ w - y)[:, None], axis=0) / b
        got = prob.batch_grad_mean(w, (idx, y))
        assert got.tobytes() == want.tobytes(), (n_atoms, b)
print("ok")
"""


class TestMinibatchGradient:
    def test_identical_samples_collapse(self):
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, -1, -1, 1])
        idx = np.full(5, 2)
        y = np.full(5, prob.label_means[2])
        w = np.array([0.3, -0.2, 0.5, 0.1])
        g = minibatch_gradient(prob, w, (idx, y))
        np.testing.assert_allclose(
            g, prob.loss_and_grad(w[None], (idx[:1], y[:1]))[1][0],
            rtol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(cfg=family_configs(), budget=st.sampled_from([8, 16, 64, 256]),
           blocks=st.integers(0, 12), tail=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), pool=st.integers(1, 4),
           hand_built=st.booleans())
    def test_bit_identical_to_reference(self, cfg, budget, blocks, tail,
                                        seed, pool, hand_built):
        # a small budget splits even these small-d batches into many
        # blocks, ending on a tail of 0 to 3 rows
        prob = problem_from_config(cfg)
        b = max(1, blocks * block_rows(prob.d, budget) + tail)
        gen = np.random.default_rng(seed)
        w = gen.standard_normal(prob.d) * 10.0 ** gen.uniform(-3, 3)
        if hand_built and isinstance(prob, DiscreteLeastSquares):
            # indices drawn from a pool of at most ``pool`` atoms, so rows
            # repeat
            idx = gen.integers(0, min(pool, len(prob.atoms)), b)
            batch = (idx, gen.standard_normal(b))
        else:
            batch = sample_batch(prob, b, prob.stream(seed))
        before = [a.tobytes() for a in batch]
        want = reference_batch_grad_mean(prob, w, batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_GRAD_BLOCK_ELEMENTS", budget)
            got = minibatch_gradient(prob, w, batch)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the batch is left as it was
        assert [a.tobytes() for a in batch] == before

    def test_bit_identical_at_the_default_budget(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", _ONE_THREAD_CHECK],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "ok\n"

    def test_allocates_no_batch_sized_array(self):
        # a draw and its gradient: a b x d feature array alone is 4 MB; 13
        # atoms are padded when the problem is built, not at each step.  A
        # tail of 1 to 3 rows puts the last block on its own gemv
        for n_atoms in (16, 13):
            prob = make_interpolation_least_squares(d=2048, n_atoms=n_atoms,
                                                    H=1.0, B=4.0, seed=334)
            for b in (256, 257, 258, 259):
                w, stream = np.full(prob.d, 1e-3), prob.stream(0)
                tracemalloc.start()
                try:
                    minibatch_gradient(prob, w, sample_batch(prob, b, stream))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < b * prob.d * 8 / 4, (n_atoms, b)

    def test_one_sample_at_d1_gives_the_sign_of_matmul_zero(self):
        # the zero atom at w < 0: matmul makes the residual 0.0 (``dot`` -0.0)
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=0.0,
                                           sign=1, seed=0)
        assert prob.atoms[0].tobytes() == np.zeros(1).tobytes()
        g = minibatch_gradient(prob, np.array([-0.5]), (np.zeros(1, int),
                                                        np.zeros(1)))
        assert g.tobytes() == np.zeros(1).tobytes()

    def test_two_sample_hand_value(self):
        # samples {(0,0), (1,0)} at w=1: (0 + 1*(1-0)) / 2 = 0.5
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=0)
        batch = (np.array([0, 1]), np.array([0.0, 0.0]))
        g = minibatch_gradient(prob, np.array([1.0]), batch)
        assert g[0] == pytest.approx(0.5)


def spy_atom_residuals(mp):
    """Record each call of ``DiscreteLeastSquares._atom_residuals``."""
    calls, residuals = [], DiscreteLeastSquares._atom_residuals
    mp.setattr(DiscreteLeastSquares, "_atom_residuals",
               lambda self, *a: calls.append(len(a[1])) or residuals(self, *a))
    return calls


class TestAtomSpaceSum:
    """The blocked gradient sum from one gemv over the atoms and gathered
    per-atom products, against the whole-batch reference."""

    @settings(max_examples=300, deadline=None)
    @given(sign_vector=st.booleans(), n_atoms=st.integers(1, 12),
           extra_d=st.integers(0, 12), atom_space=st.booleans(),
           scale=st.integers(1, 3), blocks=st.integers(1, 4),
           tail=st.integers(0, 3),
           kind=st.sampled_from(["sampled", "mixed", "nonfinite"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_reference(self, sign_vector, n_atoms, extra_d,
                                        atom_space, scale, blocks, tail,
                                        kind, seed):
        gen = np.random.default_rng(seed)
        if sign_vector:
            # axis atoms: most products are signed zeros
            n = -(-n_atoms // 2)
            prob = make_sign_vector_problem(
                n=n, H=1.0, B=2.0, sigma_signs=[int(s) for s in
                                                gen.choice([-1, 1], 2 * n)])
        else:
            prob = make_interpolation_least_squares(
                d=max(2, n_atoms + extra_d), n_atoms=n_atoms, H=1.0, B=2.0,
                seed=seed)
        n, d = len(prob.atoms), prob.d
        n4 = n + -n % 4
        # the padded atoms' products fit the budget, or they just do not
        budget = scale * n4 * d if atom_space else n4 * d - 1
        rows = (budget // d if atom_space else block_rows(d, budget))
        # past ``blocks`` blocks, ending on a tail of ``tail`` rows
        b = 4 * (rows * blocks // 4 + 1) + tail
        assert b * d > budget and b % 4 == tail
        if kind == "mixed":
            # labels equal to the label means on some rows and not others,
            # so some blocks take the products and others multiply
            idx = gen.integers(0, n, b)
            y = prob.label_means[idx]
            off = gen.random(b) < gen.choice([0.02, 0.2])
            y[off] = gen.standard_normal(off.sum())
            batch = (idx, y)
        else:
            batch = sample_batch(prob, b, prob.stream(seed))
        w = gen.standard_normal(d) * 10.0 ** gen.uniform(-3, 3)
        if kind == "nonfinite":
            spots = gen.integers(0, d, gen.integers(1, 3, endpoint=True))
            w[spots] = gen.choice([np.inf, -np.inf, np.nan], len(spots))
        before = [a.tobytes() for a in batch]
        # a gemv of an infinite entry against a zero is NaN with a warning,
        # in the reference as in the blocks
        with np.errstate(all="ignore"):
            want = reference_batch_grad_mean(prob, w, batch)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(problems, "_GRAD_BLOCK_ELEMENTS", budget)
                calls = spy_atom_residuals(mp)
                got = minibatch_gradient(prob, w, batch)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert calls == ([b] if atom_space else [])
        assert [a.tobytes() for a in batch] == before

    @settings(max_examples=30, deadline=None)
    @given(n_atoms=st.integers(1, 8), bad=st.sampled_from([np.inf, -np.inf,
                                                            np.nan]),
           step=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_nonfinite_query_aborts_the_run(self, n_atoms, bad, step, seed):
        prob = make_interpolation_least_squares(d=8, n_atoms=n_atoms, H=1.0,
                                                B=2.0, seed=seed)
        calls = []

        def poisoned(problem, w, batch):
            # the query of step ``step`` gets one non-finite entry
            if len(calls) == step:
                w = w.copy()
                w[seed % 8] = bad
            calls.append(step)
            return minibatch_gradient(problem, w, batch)

        with pytest.MonkeyPatch.context() as mp:
            # at most 8 padded atoms of 8 entries fit; batches of 37 are
            # blocked
            mp.setattr(problems, "_GRAD_BLOCK_ELEMENTS", 128)
            mp.setattr(optimizers, "minibatch_gradient", poisoned)
            residuals = spy_atom_residuals(mp)
            with np.errstate(all="ignore"):
                _, trace = run_acc_mb_sgd(prob, b=37, T=8, seed=seed)
        assert residuals == [37] * (step + 1)
        assert trace.aborted and len(trace.t) == step
        assert trace.header["abort_reason"] == \
            f"non-finite gradient at step t={step}"


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg", list(FAMILY_EXAMPLES.values()))
    def test_round_trip(self, cfg):
        prob = problem_from_config(cfg)
        again = problems._build(prob.config())  # not the kept build
        assert prob.config() == again.config() == cfg
        assert config_hash(prob.config()) == config_hash(again.config())
        x1, y1 = sample_batch(prob, 8, prob.stream(5))
        x2, y2 = sample_batch(again, 8, again.stream(5))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_every_family_parameter_has_a_declared_kind(self):
        # ``_build`` checks a parameter against JSON ``true``, ``NaN`` and
        # ``Infinity`` only if the maker annotates it ``int`` or ``float``
        for family, maker in problems._FAMILIES.items():
            kinds = inspect.get_annotations(maker, eval_str=True)
            for name in inspect.signature(maker).parameters:
                if name not in ("seed", "sigma_signs"):
                    assert kinds.get(name) in (int, float), \
                        f"{family}: {name}: {kinds.get(name)}"

    @pytest.mark.parametrize("params,error", [
        ({"alpha": float("nan"), "d": 2},
         "parameter 'alpha' must be a finite number"),
        ({"alpha": 1.0, "d": True}, "parameter 'd' must be an integer")],
        ids=["alpha_nan", "d_true"])
    def test_a_new_family_takes_its_kinds_from_its_maker(self, monkeypatch,
                                                          params, error):
        # ``alpha`` and ``d`` are checked by their annotations alone
        calls = []

        def make_test_family(alpha: float, d: int, seed: int):
            calls.append(alpha)
            return make_noiseless_quadratic(d=d, H=alpha, B=1.0, seed=seed)

        monkeypatch.setitem(problems._FAMILIES, "test_family",
                            make_test_family)
        with pytest.raises(ValueError, match=error):
            problem_from_config({"family": "test_family", "params": params,
                                 "seed": 0})
        assert calls == []


SPIKE = {"family": "gaussian_spike",
         "params": {"H": 1.0, "B": 1.0, "p": 0.5, "s": 0.0, "sign": 1},
         "seed": 2}


def json_of(*configs):
    return [canonical_json(cfg) for cfg in configs]


class TestBuildMemo:
    """``problem_from_config`` keeps its last build and returns it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The canonical JSON of each config built from here on, with no
        build kept."""
        built, build = [], problems._build
        problems._built.cache_clear()
        monkeypatch.setattr(
            problems, "_build",
            lambda cfg: built.append(canonical_json(cfg)) or build(cfg))
        yield built
        problems._built.cache_clear()

    @settings(max_examples=100, deadline=None)
    @given(cfg=family_configs(), b=st.integers(1, 100),
           run_seed=st.integers(0, 2**32 - 1))
    def test_kept_build_equals_a_fresh_build(self, cfg, b, run_seed):
        prob = problem_from_config(cfg)
        fresh = problems._build(cfg)
        assert problem_from_config(cfg) is prob
        assert type(prob) is type(fresh)
        assert prob.config() == fresh.config()
        assert config_hash(prob.config()) == config_hash(fresh.config())
        x, y = sample_batch(prob, b, prob.stream(run_seed))
        x_ref, y_ref = sample_batch(fresh, b, fresh.stream(run_seed))
        assert x.tobytes() == x_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()

    def test_one_build_per_run_of_equal_configs(self, builds):
        other = dict(SPIKE, seed=3)
        for cfg in (SPIKE, SPIKE, other, other, SPIKE):
            problem_from_config(cfg)
        assert builds == json_of(SPIKE, other, SPIKE)

    def test_a_config_without_json_form_is_a_type_error(self, builds):
        cfg = {"family": "sign_vector", "seed": 0,
               "params": {"n": 1, "H": 1.0, "B": 1.0,
                          "sigma_signs": range(-1, 2, 2)}}
        kept = problems._built(canonical_json(SPIKE))
        with pytest.raises(TypeError):
            problem_from_config(cfg)
        assert problems._built(canonical_json(SPIKE)) is kept
        assert problem_from_config(SPIKE).config() == kept.config()
        assert builds == json_of(SPIKE)

    @pytest.mark.parametrize("params,error", [
        ({"H": -1.0}, ValueError), ({"H": "big"}, TypeError),
        ({"p": float("nan")}, ValueError), ({"sign": True}, ValueError)])
    def test_a_failing_config_is_never_kept(self, builds, params, error):
        bad = dict(SPIKE, params=dict(SPIKE["params"], **params))
        kept = problems._built(canonical_json(SPIKE))
        for _ in range(3):
            with pytest.raises(error):
                problem_from_config(bad)
            assert problems._built(canonical_json(SPIKE)) is kept
        problem_from_config(SPIKE)
        assert builds == json_of(SPIKE, bad, bad, bad)

    @pytest.mark.parametrize("name,a,b", [
        ("H", 1, 1.0), ("B", 2.0, 2), ("sign", 1, True), ("seed", 1, True)])
    def test_json_distinct_configs_build_separately(self, builds, name, a, b):
        def config(value):
            if name == "seed":
                return dict(SPIKE, seed=value)
            return dict(SPIKE, params=dict(SPIKE["params"], **{name: value}))
        prob = problem_from_config(config(a))
        assert canonical_json(prob.config()) == canonical_json(config(a))
        if isinstance(b, bool):   # JSON true is no integer
            with pytest.raises(ValueError):
                problem_from_config(config(b))
        else:
            assert canonical_json(problem_from_config(config(b)).config()) \
                == canonical_json(config(b)) != canonical_json(config(a))
        assert builds == json_of(config(a), config(b))

