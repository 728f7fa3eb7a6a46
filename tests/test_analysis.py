"""Oracles, estimators, rate fits, speedup tables, structural checks."""

import math
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    problem_from_config,
    run_acc_mb_sgd,
    time_to_eps,
    variance_at,
)
import optaccel.analysis
import optaccel.verify
from optaccel.analysis import (_ball_points, _median, _sorted_quantile,
                               certify_assumptions)
from optaccel.verify import _check
from oracles import (dot_exact_loss, gradient_variance,
                     reference_certify_assumptions,
                     reference_check_projection_lemma, reference_variance_at,
                     sample_grad, sample_loss)
from strategies import family_configs


def finite_difference_check(problem, n_probes=100, seed=0, h=1e-6):
    """Worst relative error of central differences of ``loss_and_grad``'s
    losses against its gradients, over sampled ``z`` and points ``w`` in
    the ball of radius ``2 B``."""
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0xFD1F]))
    idx, y = problem.next_batch(problem.stream(seed ^ 0x90D), n_probes)
    points = _ball_points(gen, 2 * problem.meta.B, (n_probes, problem.d))
    worst = 0.0
    for i, w in enumerate(points):
        z = (idx[i:i + 1], y[i:i + 1])  # one-sample batches
        g = problem.loss_and_grad(w[None], z)[1][0]
        for k, e in enumerate(h * np.eye(problem.d)):
            fd = (problem.loss_and_grad((w + e)[None], z)[0][0]
                  - problem.loss_and_grad((w - e)[None], z)[0][0]) / (2 * h)
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

    def test_noiseless_estimate_is_exactly_zero(self):
        prob = make_noiseless_quadratic(d=5, H=1.0, B=1.0, seed=42,
                                        spread=10.0)
        w = np.full(5, 0.3)
        assert variance_at(prob, w, 1000, seed=0) == (0.0, 0.0)


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

    def test_unsorted_even_counts_and_a_nan_final(self):
        finals = {(1, 8): [0.3, 0.1], (1, 16): [0.2, 0.05, 0.01, 0.1],
                  (2, 8): [0.01, math.nan]}
        assert time_to_eps(finals, 0.125) == {1: 16, 2: None}
        assert time_to_eps(finals, 0.2) == {1: 8, 2: None}

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


# non-negative finals: +0.0, subnormals, values near the largest float,
# +inf and NaN.  No -0.0: with both zeros present, which zero NumPy's
# partition leaves in the middle differs from the sorted order, and no
# final is -0.0 (a suboptimality is half a squared norm)
SORTED_STAT_VALUES = (st.sampled_from([0.0, 5e-324, 2.2250738585072009e-308,
                                       1.0, 1.7976931348623157e308, 1.7e308,
                                       math.inf, math.nan])
                      | st.floats(min_value=0.0, allow_nan=False))


def as_bytes(x):
    return np.float64(x).tobytes()


class TestSortedOrderStatistics:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(SORTED_STAT_VALUES, min_size=1, max_size=60),
           st.data())
    def test_bits_match_numpy(self, pool, data):
        # drawing from a pool repeats its values, which makes ties
        vals = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                           max_size=60)))
        ascending = np.sort(vals)
        # NumPy warns of the overflow and the inf - inf the helpers share
        with np.errstate(all="ignore"):
            want = [np.median(vals)] + [np.quantile(vals, q)
                                        for q in (0.25, 0.5, 0.75)]
        got = [_median(vals)] + [_sorted_quantile(ascending, q)
                                 for q in (0.25, 0.5, 0.75)]
        assert list(map(as_bytes, got)) == list(map(as_bytes, want)), \
            f"numpy {np.__version__}: {got} != {want} for {vals.tolist()}"


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


class TestSpeedupSuite:
    # each batch size's first horizon whose median final meets eps
    HITS = {1: 8192, 2: 4096, 4: 2048, 8: 1024, 16: 512, 32: 256, 64: 128,
            128: 64, 256: 64}

    def test_runs_each_grid_only_through_its_first_hit(self, monkeypatch):
        verify = optaccel.verify
        eps = verify._SPEEDUP_EPS
        calls = []

        def finals(prob, b, T, n_seeds):
            calls.append((b, T))
            return [eps / 2 if T >= self.HITS[b] else 1.0] * n_seeds

        def sgd(prob, b, T, seed, eta):
            # the same curve for every b: 1 / t meets eps at t = 1000
            return None, SimpleNamespace(subopt=1.0 / np.arange(1, T + 1))

        monkeypatch.setattr(verify, "_finals", finals)
        monkeypatch.setattr(verify, "run_sgd", sgd)
        checks = {c["name"]: c for c in verify.suite_speedup()}
        assert calls == [(b, T) for b, Ts in verify._SPEEDUP_GRIDS.items()
                         for T in Ts if T <= self.HITS[b]]
        assert len(calls) == 34
        assert checks["table_monotone"]["detail"] == \
            f"rows={tuple(self.HITS.items())}"
        assert checks["sgd_no_speedup_spread"]["detail"] == \
            "T_to_eps={1: 1000, 4: 1000, 16: 1000}"


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

    @pytest.mark.parametrize("probes", [np.zeros((0, 4)), []],
                             ids=["array", "list"])
    def test_empty_probe_set_rejected(self, probes):
        # a check over no probes certifies nothing
        inst = (np.zeros(4), np.zeros(4), np.ones(4), 0.3, 1.0)
        with pytest.raises(ValueError, match="at least 1 probe point, got 0"):
            check_projection_lemma(inst, probes)

    def test_nan_probe_fails_the_check(self):
        gen = np.random.default_rng(3)
        inst = (0.2 * gen.standard_normal(4), gen.standard_normal(4),
                gen.standard_normal(4), 0.3, 1.0)
        good, bad = np.zeros(4), np.full(4, np.nan)
        for probes in ([good, bad], [bad, good]):
            viol, _ = check_projection_lemma(inst, probes)
            assert math.isnan(viol)
            assert not _check("max_violation", viol, 1e-9, "<=")["passed"]


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

    @pytest.mark.parametrize("n_probes", [0, -1])
    def test_no_probes_rejected(self, n_probes):
        prob = make_sign_vector_problem(n=2, H=1.0, B=1.0,
                                        sigma_signs=[1, -1, 1, 1])
        with pytest.raises(ValueError,
                           match=f"need n_probes >= 1, got {n_probes}"):
            certify_assumptions(prob, n_probes=n_probes)

    @pytest.mark.parametrize("prob", all_families(),
                             ids=lambda p: p.family)
    def test_nan_probe_fails_every_check(self, prob, monkeypatch):
        def with_nan_row(gen, radius, shape):
            points = _ball_points(gen, radius, shape)
            points[1] = np.nan
            return points

        monkeypatch.setattr(optaccel.analysis, "_ball_points", with_nan_row)
        rep = certify_assumptions(prob, n_probes=20, seed=1)
        for value in astuple(rep):
            assert math.isnan(value), rep
            assert not _check("violation", value, 1e-8, "<=")["passed"]


def same_bits(got, want):
    return (np.asarray(got, dtype=float).tobytes()
            == np.asarray(want, dtype=float).tobytes())


class TestArrayFormsMatchReferences:
    """The stacked per-sample forms and the array checks equal the
    one-at-a-time references in ``oracles`` bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=family_configs(), n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_per_sample_forms(self, cfg, n, seed):
        prob = problem_from_config(cfg)
        gen = np.random.default_rng(seed)
        W = _ball_points(gen, 10.0 ** gen.uniform(-3, 2), (n, prob.d))
        idx, y = prob.next_batch(prob.stream(seed), n)
        rows = list(zip(W, zip(idx, y)))
        losses, grads = prob.loss_and_grad(W, (idx, y))
        assert same_bits(losses, [sample_loss(prob, w, z) for w, z in rows])
        assert same_bits(grads, [sample_grad(prob, w, z) for w, z in rows])
        assert same_bits(prob.exact_loss(W),
                         [dot_exact_loss(prob, w) for w in W])

    @settings(max_examples=100, deadline=None)
    @given(cfg=family_configs(), n_probes=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_certify_assumptions(self, cfg, n_probes, seed):
        prob = problem_from_config(cfg)
        got = certify_assumptions(prob, n_probes=n_probes, seed=seed)
        want = reference_certify_assumptions(prob, n_probes, seed)
        assert same_bits(astuple(got), astuple(want)), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 16), n=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1), as_list=st.booleans())
    def test_check_projection_lemma(self, d, n, seed, as_list):
        # instances drawn as the lemma1 suite draws them
        gen = np.random.default_rng(seed)
        B = float(gen.uniform(0.1, 10.0))
        w_t = gen.standard_normal(d)
        w_t *= gen.uniform() * B / np.linalg.norm(w_t)
        inst = (w_t, gen.standard_normal(d),
                gen.standard_normal(d) * gen.uniform(0.1, 5.0),
                float(gen.uniform(0.0, 1.0)), B)
        probes = _ball_points(gen, B, (n, d))
        if as_list:
            probes = list(probes)
        viol, w_next = check_projection_lemma(inst, probes)
        want_viol, want_next = reference_check_projection_lemma(inst, probes)
        assert same_bits(viol, want_viol)
        assert w_next.tobytes() == want_next.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(cfg=family_configs(), n=st.integers(2, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_variance_at(self, cfg, n, seed):
        prob = problem_from_config(cfg)
        gen = np.random.default_rng(seed)
        w = _ball_points(gen, 2 * prob.meta.B, (1, prob.d))[0]
        assert same_bits(variance_at(prob, w, n, seed=seed),
                         reference_variance_at(prob, w, n, seed=seed))
