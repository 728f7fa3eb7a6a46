"""Problem-family construction, metadata exactness, and sampling contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optaccel import (
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
    sample_batch,
)
from optaccel.analysis import gradient_variance_exact, variance_at


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
        assert gradient_variance_exact(prob, prob.meta.wstar) == pytest.approx(
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

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_interpolation_least_squares(d=3, n_atoms=4, H=1.0, B=1.0,
                                             seed=0)
        with pytest.raises(ValueError):
            make_interpolation_least_squares(d=4, n_atoms=2, H=-1.0, B=1.0,
                                             seed=0)


class TestSignVector:
    signs = [1, -1, 1, 1, -1, 1, -1, -1]

    def test_closed_form_metadata(self):
        prob = make_sign_vector_problem(n=4, H=1.0, B=1.0,
                                        sigma_signs=self.signs)
        # L(0) - L* = H B^2 / (4 n) = 1/16
        assert prob.meta.Delta == pytest.approx(0.0625)
        assert prob.exact_loss(np.zeros(8)) == pytest.approx(0.0625)
        assert prob.meta.lam == pytest.approx(1.0 / 8.0)
        assert np.linalg.norm(prob.meta.wstar) == pytest.approx(1.0)
        assert prob.exact_loss(prob.meta.wstar) == pytest.approx(0.0, abs=1e-15)

    def test_sampled_features_have_norm_sq_H(self):
        prob = make_sign_vector_problem(n=4, H=2.0, B=1.0,
                                        sigma_signs=self.signs)
        x, _ = sample_batch(prob, 500, prob.stream(1))
        np.testing.assert_allclose((x**2).sum(axis=1), 2.0, rtol=1e-14)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            make_sign_vector_problem(n=3, H=1.0, B=1.0, sigma_signs=[1, -1])
        with pytest.raises(ValueError):
            make_sign_vector_problem(n=1, H=1.0, B=1.0, sigma_signs=[1, 2])


class TestGaussianSpike:
    def test_minimum_value(self):
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=2.0, sign=1,
                                           seed=0)
        assert prob.meta.Lstar == pytest.approx(1.0)  # p s^2 / 2
        assert prob.exact_loss(prob.meta.wstar) == pytest.approx(1.0)

    def test_degenerate_noise(self):
        prob = make_gaussian_spike_problem(H=1.0, B=2.0, p=0.3, s=0.0, sign=-1,
                                           seed=0)
        assert prob.meta.Lstar == 0.0
        assert gradient_variance_exact(prob, prob.meta.wstar) == pytest.approx(
            0.0, abs=1e-14)

    def test_monte_carlo_gradient_second_moment(self):
        # analytic E||grad l(w*; z)||^2 = p H s^2; verified by Monte Carlo
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=5)
        est, se = variance_at(prob, prob.meta.wstar, 100000, seed=3)
        assert 0.9 * 0.5 <= est <= 1.1 * 0.5
        assert gradient_variance_exact(prob, prob.meta.wstar) == pytest.approx(0.5)

    def test_rejects_bad_probability(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                make_gaussian_spike_problem(H=1.0, B=1.0, p=p, s=1.0, sign=1,
                                            seed=0)


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
        lam_min = evals[keep].min()
        assert lam_min == pytest.approx(0.1, rel=1e-12)
        u = evecs[:, np.flatnonzero(keep)[np.argmin(evals[keep])]]
        for t in (0.5, 2.0):
            w = prob.meta.wstar + t * u
            gap = prob.exact_loss(w) - 0.0
            assert gap == pytest.approx(0.5 * 0.1 * t**2, rel=1e-10)

    def test_delta_planted_exactly(self):
        prob = make_growth_problem(d=10, r=4, lam=0.05, H=1.0, Delta=2.5,
                                   seed=3)
        assert prob.exact_loss(np.zeros(10)) == pytest.approx(2.5, rel=1e-12)

    def test_eigenvalues_within_range(self):
        prob = make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=11)
        evals = np.linalg.eigvalsh(prob.second_moment)
        nz = evals[evals > 1e-12]
        assert len(nz) == 3
        assert nz.min() >= 0.1 - 1e-12 and nz.max() <= 1.0 + 1e-12

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            make_growth_problem(d=4, r=4, lam=0.1, H=1.0, Delta=1.0, seed=0)
        with pytest.raises(ValueError):
            make_growth_problem(d=4, r=2, lam=2.0, H=1.0, Delta=1.0, seed=0)
        with pytest.raises(ValueError):
            # trace bound: r * lam must not exceed H
            make_growth_problem(d=8, r=4, lam=0.9, H=1.0, Delta=1.0, seed=0)


    @pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan"),
                                       float("inf")])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="Delta"):
            make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=delta,
                                seed=0)


@st.composite
def finite_designs(draw):
    """A random finite design with n_atoms <= d, plus a query point.

    With a certified minimizer the label means are fitted exactly by it,
    as in every built-in family; without one they are arbitrary.
    """
    d = draw(st.integers(1, 12))
    n_atoms = draw(st.integers(1, d))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_atoms,
                                     max_size=n_atoms)))
    probs = weights / weights.sum()
    noisy, certified = draw(st.booleans()), draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = gen.standard_normal((n_atoms, d))
    wstar = gen.standard_normal(d) if certified else None
    label_means = (atoms @ wstar if certified
                   else gen.standard_normal(n_atoms))
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
        wstar = prob.meta.wstar
        if wstar is None:
            assert_within_rounding(prob.exact_grad(w), M @ w - c,
                                   absM @ aw + absc)
            assert_within_rounding(prob.suboptimality(w),
                                   loss - prob.meta.Lstar, loss_scale)
        else:
            # the gradient is taken about wstar, which fits the labels up
            # to their rounding
            assert_within_rounding(prob.exact_grad(w), M @ w - c,
                                   absM @ (aw + np.abs(wstar)) + absc)
            v = w - wstar
            assert_within_rounding(prob.suboptimality(w), 0.5 * v @ M @ v,
                                   0.5 * np.abs(v) @ absM @ np.abs(v))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 16).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, d))),
        st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
    def test_interpolation_lam_matches_dense_spectrum(self, shape, H, seed):
        d, n_atoms = shape
        prob = make_interpolation_least_squares(d=d, n_atoms=n_atoms, H=H,
                                                B=1.0, seed=seed)
        evals = np.linalg.eigvalsh(prob.atoms.T @ prob.atoms / n_atoms)
        lam = evals[evals > 1e-10 * evals.max()].min()
        # eigvalsh is accurate to a multiple of the largest eigenvalue
        assert_within_rounding(prob.meta.lam, lam, evals.max())


class TestSampling:
    def test_same_position_same_batch(self):
        prob = make_sign_vector_problem(n=4, H=1.0, B=1.0,
                                        sigma_signs=[1] * 8)
        s1, s2 = prob.stream(9), prob.stream(9)
        x1, y1 = sample_batch(prob, 3, s1)
        x2, y2 = sample_batch(prob, 3, s2)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_batches_independent_of_draw_order(self):
        # batch t is keyed by position, not by how many draws came before
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=4)
        stream = prob.stream(2)
        stream.position = 5
        x_direct, y_direct = sample_batch(prob, 4, stream)
        replay = prob.stream(2)
        for _ in range(5):
            sample_batch(prob, 4, replay)
        x_seq, y_seq = sample_batch(prob, 4, replay)
        np.testing.assert_array_equal(x_direct, x_seq)
        np.testing.assert_array_equal(y_direct, y_seq)

    def test_singleton_batch(self):
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, -1, 1, -1])
        x, y = sample_batch(prob, 1, prob.stream(0))
        assert x.shape == (1, 4) and y.shape == (1,)
        with pytest.raises(ValueError):
            sample_batch(prob, 0, prob.stream(0))

    def test_atom_frequency(self):
        # binomial: freq of e_1 over 1e5 uniform draws from 4 atoms
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, 1, -1, 1])
        x, _ = sample_batch(prob, 100000, prob.stream(13))
        freq = float(np.mean(x[:, 0] != 0.0))
        assert abs(freq - 0.25) < 0.02


class TestMinibatchGradient:
    def test_identical_samples_collapse(self):
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, -1, -1, 1])
        x = np.tile(prob.atoms[2], (5, 1))
        y = np.full(5, prob.label_means[2])
        w = np.array([0.3, -0.2, 0.5, 0.1])
        g = minibatch_gradient(prob, w, (x, y))
        np.testing.assert_allclose(g, prob.grad(w, (x[0], y[0])), rtol=1e-15)

    def test_two_sample_hand_value(self):
        # samples {(0,0), (1,0)} at w=1: (0 + 1*(1-0)) / 2 = 0.5
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=0)
        batch = (np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
        g = minibatch_gradient(prob, np.array([1.0]), batch)
        assert g[0] == pytest.approx(0.5)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg", [
        {"family": "interpolation_least_squares",
         "params": {"d": 8, "n_atoms": 4, "H": 2.0, "B": 3.0}, "seed": 7},
        {"family": "sign_vector",
         "params": {"n": 2, "H": 1.0, "B": 1.0,
                    "sigma_signs": [1, -1, 1, 1]}, "seed": 3},
        {"family": "gaussian_spike",
         "params": {"H": 1.0, "B": 1.0, "p": 0.5, "s": 1.0, "sign": 1},
         "seed": 2},
        {"family": "growth",
         "params": {"d": 6, "r": 3, "lam": 0.1, "H": 1.0, "Delta": 1.0},
         "seed": 11},
        {"family": "noiseless_quadratic",
         "params": {"d": 4, "H": 1.0, "B": 1.0, "spread": 10.0}, "seed": 42},
    ])
    def test_round_trip(self, cfg):
        prob = problem_from_config(cfg)
        again = problem_from_config(prob.config())
        assert prob.config() == again.config()
        assert config_hash(prob.config()) == config_hash(again.config())
        x1, y1 = sample_batch(prob, 8, prob.stream(5))
        x2, y2 = sample_batch(again, 8, again.stream(5))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown problem family"):
            problem_from_config({"family": "logistic", "params": {}, "seed": 0})
        with pytest.raises(ValueError, match="unknown problem config keys"):
            problem_from_config({"family": "sign_vector", "params": {},
                                 "seed": 0, "extra": 1})


def test_sampling_bit_reproducibility():
    prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.4, s=1.5, sign=1,
                                       seed=6)
    a = sample_batch(prob, 1000, prob.stream(3))
    b = sample_batch(prob, 1000, prob.stream(3))
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
