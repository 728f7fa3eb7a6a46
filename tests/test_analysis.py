"""Oracles, estimators, rate fits, speedup tables, structural checks."""

import numpy as np
import pytest

from optaccel import (
    check_projection_lemma,
    critical_batch,
    exact_min,
    fit_rate,
    make_gaussian_spike_problem,
    make_growth_problem,
    make_interpolation_least_squares,
    make_noiseless_quadratic,
    make_sign_vector_problem,
    run_acc_mb_sgd,
    time_to_eps,
    variance_at,
)
from optaccel.analysis import _ball_points, certify_assumptions
from oracles import gradient_variance


def finite_difference_check(problem, n_probes=100, seed=0, h=1e-6):
    """Worst relative error of central differences against ``grad``, over
    sampled ``z`` and points ``w`` in the ball of radius ``2 B``."""
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0xFD1F]))
    x, y = problem.sample(problem.stream(seed ^ 0x90D).next_generator(),
                          n_probes)
    points = _ball_points(gen, 2 * problem.meta.B, (n_probes, problem.d))
    worst = 0.0
    for w, z in zip(points, zip(x, y)):
        g = problem.grad(w, z)
        for k, e in enumerate(h * np.eye(problem.d)):
            fd = (problem.loss(w + e, z) - problem.loss(w - e, z)) / (2 * h)
            worst = max(worst, abs(fd - g[k]) / max(1.0, abs(g[k])))
    return worst


def all_families():
    return [
        make_interpolation_least_squares(d=8, n_atoms=4, H=2.0, B=3.0, seed=7),
        make_sign_vector_problem(n=4, H=1.0, B=1.0,
                                 sigma_signs=[1, -1, 1, 1, -1, 1, -1, -1]),
        make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=2.0, sign=1, seed=3),
        make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=11),
        make_noiseless_quadratic(d=5, H=1.0, B=1.0, seed=42, spread=10.0),
    ]


class TestExactMin:
    def test_interpolation_min_is_zero(self):
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=2.0, B=3.0,
                                                seed=7)
        _, lstar = exact_min(prob)
        assert lstar == pytest.approx(0.0, abs=1e-9)

    def test_sign_vector_minimizer(self):
        signs = [1, -1, 1, 1, -1, 1, -1, -1]
        prob = make_sign_vector_problem(n=4, H=1.0, B=1.0, sigma_signs=signs)
        wstar, _ = exact_min(prob)
        expected = (1.0 / np.sqrt(8.0)) * np.array(signs, dtype=float)
        np.testing.assert_allclose(wstar, expected, atol=1e-12)

    def test_growth_against_exact_gradient_descent(self):
        prob = make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0,
                                   seed=11)
        wstar, lstar = exact_min(prob)
        assert prob.exact_loss(wstar) == pytest.approx(lstar, abs=1e-12)
        assert lstar == pytest.approx(0.0, abs=1e-9)
        # oracle: long exact gradient descent reaches the same minimum
        w = np.zeros(6)
        for _ in range(100000):
            w = w - 1.0 * prob.exact_grad(w)
        assert prob.exact_loss(w) <= lstar + 1e-8

    def test_first_order_optimality(self):
        for prob in all_families():
            wstar, _ = exact_min(prob)
            assert np.linalg.norm(prob.exact_grad(wstar)) <= 1e-8

    def test_metadata_agreement(self):
        for prob in all_families():
            _, lstar = exact_min(prob)
            assert lstar == pytest.approx(prob.meta.Lstar, abs=1e-9)

    def test_refuses_unknown_problem_types(self):
        with pytest.raises(TypeError):
            exact_min(object())


class TestVarianceAt:
    def test_interpolation_zero_at_minimizer(self):
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                                seed=2)
        est, se = variance_at(prob, prob.meta.wstar, 1000, seed=0)
        assert est == pytest.approx(0.0, abs=1e-20)
        assert se == pytest.approx(0.0, abs=1e-20)

    def test_spike_analytic_value(self):
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=5)
        est, se = variance_at(prob, prob.meta.wstar, 100000, seed=1)
        assert abs(est - 0.5) <= 3 * se

    def test_bounded_by_twice_H_Lstar(self):
        for prob in all_families():
            est, se = variance_at(prob, prob.meta.wstar, 100000, seed=8)
            bound = 2 * prob.meta.H * prob.meta.Lstar
            assert est <= bound + 3 * se + 1e-12

    def test_matches_exact_variance(self):
        prob = make_gaussian_spike_problem(H=2.0, B=1.0, p=0.3, s=1.5, sign=-1,
                                           seed=4)
        w = np.array([0.4])
        exact = gradient_variance(prob, w)
        est, se = variance_at(prob, w, 200000, seed=6)
        assert abs(est - exact) <= 4 * se

    def test_needs_two_samples(self):
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                           seed=0)
        with pytest.raises(ValueError):
            variance_at(prob, prob.meta.wstar, 1, seed=0)


class TestFitRate:
    def test_exact_inverse_square(self):
        fit = fit_rate([(T, 5.0 / T**2) for T in (8, 16, 32, 64)])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse(self):
        fit = fit_rate([(T, 3.0 / T) for T in (8, 16, 32, 64)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_power_law_interval(self):
        # noise model pre-verified by simulation: slope of
        # (2/T^2) exp(0.1 N(0,1)) over a 6-point octave grid lands in
        # [-2.15, -1.85] with probability well above 0.99
        gen = np.random.default_rng(0)
        Ts = [8, 16, 32, 64, 128, 256]
        vals = (2.0 / np.array(Ts, float)**2) * np.exp(
            0.1 * gen.standard_normal(len(Ts)))
        fit = fit_rate(list(zip(Ts, vals)))
        assert -2.15 <= fit.slope <= -1.85

    def test_scale_equivariance(self):
        grid = [(T, 7.0 / T**1.5) for T in (4, 8, 16, 32, 64)]
        base = fit_rate(grid)
        scaled = fit_rate([(T, 1e6 * v) for T, v in grid])
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert scaled.intercept != pytest.approx(base.intercept)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, 0.5), (32, 0.25)])
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, 0.5), (32, -0.25), (64, 0.1)])


class TestTimeToEps:
    def test_basic_reduction(self):
        finals = {(1, 10): [0.5, 0.6], (1, 20): [0.05, 0.06],
                  (2, 10): [0.04, 0.05]}
        table = time_to_eps(finals, eps=0.1)
        assert list(table.items()) == [(1, 20), (2, 10)]

    def test_ascending_in_b(self):
        finals = {(8, 10): [0.01], (1, 10): [0.5], (2, 10): [0.01]}
        assert list(time_to_eps(finals, eps=0.1)) == [1, 2, 8]

    def test_absent_b_not_invented(self):
        table = time_to_eps({(4, 10): [0.01]}, eps=0.1)
        assert list(table) == [4]

    def test_doubling_values_cannot_decrease(self):
        finals = {(1, 10): [0.15], (1, 20): [0.08], (1, 40): [0.01]}
        t1 = time_to_eps(finals, eps=0.1)
        t2 = time_to_eps({k: [2 * v for v in vals]
                          for k, vals in finals.items()}, eps=0.1)
        for T1, T2 in zip(t1.values(), t2.values()):
            assert (T2 or np.inf) >= (T1 or np.inf)

    def test_not_reached_marked(self):
        table = time_to_eps({(1, 8): [0.9], (1, 16): [0.8]}, eps=0.1)
        assert table == {1: None}

    def test_deterministic(self):
        finals = {(1, 8): [0.3, 0.1], (2, 8): [0.05, 0.2]}
        assert time_to_eps(finals, 0.15) == time_to_eps(finals, 0.15)

    def test_interpolation_speedup_pair(self):
        # empirical check of the b=4 -> b=16 halving, exact-loss oracle
        prob = make_interpolation_least_squares(d=32, n_atoms=16, H=1.0,
                                                B=1.0, seed=334)
        eps = 1e-3
        finals = {}
        for b, Ts in ((4, (256, 512, 1024, 2048)), (16, (64, 128, 256, 512))):
            for T in Ts:
                finals[(b, T)] = [
                    run_acc_mb_sgd(prob, b=b, T=T, seed=s)[1].final_subopt
                    for s in range(20)]
        rows = time_to_eps(finals, eps)
        thr = np.sqrt(prob.meta.H * prob.meta.B**2 / eps)
        assert rows[4] is not None and rows[16] is not None
        assert rows[4] > thr and rows[16] > thr
        assert rows[16] <= 0.6 * rows[4]


class TestCriticalBatch:
    def synthetic(self, fn, bs=(1, 2, 4, 8, 16, 32, 64)):
        return {b: fn(b) for b in bs}

    def test_plateau_at_sixteen(self):
        table = self.synthetic(lambda b: max(100, 1600 // b))
        assert critical_batch(table) == 16

    def test_flat_table(self):
        table = self.synthetic(lambda b: 50)
        assert critical_batch(table) == 1

    def test_unsaturated(self):
        table = self.synthetic(lambda b: 4096 // b)
        assert critical_batch(table) is None

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            critical_batch({1: 8, 2: 4})


class TestProjectionLemma:
    def test_equality_at_update_point(self):
        gen = np.random.default_rng(3)
        w_t = gen.standard_normal(4) * 0.2
        inst = (w_t, gen.standard_normal(4), gen.standard_normal(4), 0.3, 1.0)
        _, w_next = check_projection_lemma(inst, [np.zeros(4)])
        viol, _ = check_projection_lemma(inst, [w_next])
        assert abs(viol) <= 1e-12

    def test_unconstrained_reduces_to_nonnegativity(self):
        # with a huge radius the update is the raw gradient step and the
        # inequality collapses to 0.5 ||w - w_next||^2 >= 0
        gen = np.random.default_rng(4)
        w_t, g = gen.standard_normal(3), gen.standard_normal(3)
        inst = (w_t, gen.standard_normal(3), g, 0.7, 1e9)
        _, w_next = check_projection_lemma(inst, [w_t])
        np.testing.assert_allclose(w_next, w_t - 0.7 * g, rtol=1e-12)
        probes = [gen.standard_normal(3) for _ in range(50)]
        viol, _ = check_projection_lemma(inst, probes)
        assert viol <= 1e-9

    def test_random_instances(self):
        gen = np.random.default_rng(5)
        worst = -np.inf
        for _ in range(100):
            d = int(gen.integers(2, 8))
            B = float(gen.uniform(0.1, 10))
            w_t = gen.standard_normal(d)
            w_t *= gen.uniform() * B / np.linalg.norm(w_t)
            inst = (w_t, gen.standard_normal(d), gen.standard_normal(d),
                    float(gen.uniform(0, 1)), B)
            probes = gen.standard_normal((20, d))
            probes *= B * gen.uniform(size=(20, 1)) / np.linalg.norm(
                probes, axis=1, keepdims=True)
            viol, _ = check_projection_lemma(inst, probes)
            worst = max(worst, viol)
        assert worst <= 1e-9


class TestAssumptionChecks:
    @pytest.mark.parametrize("prob", all_families(),
                             ids=lambda p: p.family)
    def test_certificates_hold(self, prob):
        rep = certify_assumptions(prob, n_probes=300, seed=1)
        assert max(rep.nonneg_violation, rep.convexity_violation,
                   rep.smoothness_violation,
                   rep.grad_lipschitz_violation) <= 1e-8, rep
        assert rep.growth_violation <= 1e-10, rep

    @pytest.mark.parametrize("prob", all_families(),
                             ids=lambda p: p.family)
    def test_finite_differences(self, prob):
        assert finite_difference_check(prob, n_probes=100, seed=2) <= 1e-5
