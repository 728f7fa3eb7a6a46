"""Schedule arithmetic, single-step traces, run invariants, restarts."""

import copy
import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optaccel import (
    DeterministicQuadratic,
    ProblemMeta,
    Stage,
    StagePlan,
    acc_step,
    accel_error_bound,
    config_hash,
    make_budget_plan,
    make_growth_problem,
    make_interpolation_least_squares,
    make_noiseless_quadratic,
    make_schedule,
    make_stage_plan,
    problem_from_config,
    project_ball,
    run_acc_mb_sgd,
    run_restarted,
    run_sgd,
    stage_budget,
)
import optaccel.optimizers
import optaccel.trace
from optaccel.optimizers import NonFiniteGradientError
from optaccel.trace import (TraceRecorder, canonical_json, sha256_text,
                            trace_to_csv)
from oracles import (OptimizerState, ScalarRowRecorder, gradient_variance,
                     reference_acc_step, reference_sgd)
from strategies import family_configs


def one_dim_quadratic(target=1.0):
    """l(w; z) = L(w) = 0.5 (w - target)^2, exact gradients."""
    meta = ProblemMeta(H=1.0, B=abs(target), Lstar=0.0, sigma_star_sq=0.0,
                       lam=1.0, Delta=0.5 * target**2,
                       wstar=np.array([target]))
    return DeterministicQuadratic(np.array([[1.0]]), meta, base_seed=0,
                                  params={"target": target})


class TestSchedule:
    def test_branch_examples(self):
        assert make_schedule(H=1, b=12, T=11, B=1, lstar=0).gamma == \
            pytest.approx(1 / 24)
        assert make_schedule(H=1, b=1, T=1, B=1, lstar=0).gamma == \
            pytest.approx(1 / 48)

    def test_noise_limited_branch(self):
        # re-derive each branch by scalar arithmetic
        H, b, T, B, lstar = 1.0, 1, 100, 1.0, 0.01
        noise_sq = 2 * H * lstar
        smooth = 1 / (12 * H)
        horizon = b / (24 * H * (T + 1))
        noise = math.sqrt(b * B**2 / (noise_sq * T**3))
        assert smooth == pytest.approx(0.08333, rel=1e-3)
        assert horizon == pytest.approx(1 / 2424) == pytest.approx(4.125e-4,
                                                                   rel=1e-3)
        assert noise == pytest.approx(7.071e-3, rel=1e-3)
        sched = make_schedule(H, b, T, B, lstar)
        assert sched.noise_sq == noise_sq
        assert sched.gamma == pytest.approx(min(smooth, horizon, noise))
        assert sched.gamma == pytest.approx(1 / 2424)

    def test_momentum_dominates_stepsize(self):
        gen = np.random.default_rng(8)
        for _ in range(100):
            H = float(gen.uniform(0.1, 10))
            b = int(gen.integers(1, 512))
            T = int(gen.integers(1, 2000))
            lstar = float(gen.uniform(0, 4)) * (gen.uniform() > 0.5)
            sched = make_schedule(H, b, T, 1.0, lstar)
            for t in range(T):
                assert 2 * H * sched.gamma_t(t) <= sched.beta(t) + 1e-12

    def test_weighted_coefficient_monotonicity(self):
        # (beta_{t+1} - 1 + 8 H gamma_{t+1} / b) gamma_{t+1} <= beta_t gamma_t
        gen = np.random.default_rng(15)
        for _ in range(100):
            H = float(gen.uniform(0.1, 10))
            b = int(gen.integers(1, 256))
            T = int(gen.integers(2, 1000))
            lstar = float(gen.uniform(0, 2))
            s = make_schedule(H, b, T, 1.0, lstar)
            for t in range(T - 1):
                lhs = (s.beta(t + 1) - 1 + 8 * H * s.gamma_t(t + 1) / b) \
                    * s.gamma_t(t + 1)
                assert lhs <= s.beta(t) * s.gamma_t(t) + 1e-12

    def test_rejections(self):
        for kwargs in ({"H": 0}, {"B": -1}, {"T": 0}, {"b": 0},
                       {"lstar": -0.1}):
            full = {"H": 1.0, "b": 1, "T": 1, "B": 1.0, "lstar": 0.0}
            full.update(kwargs)
            with pytest.raises(ValueError):
                make_schedule(**full)

    @pytest.mark.parametrize("name,value", [
        ("H", math.nan), ("H", math.inf), ("B", math.nan), ("B", math.inf),
        ("lstar", math.nan), ("lstar", math.inf)])
    def test_non_finite_rejected(self, name, value):
        # a NaN or infinite constant would give a NaN or zero stepsize
        full = {"H": 1.0, "b": 1, "T": 3, "B": 1.0, "lstar": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name}.*finite"):
            make_schedule(**full)

    def test_noise_term_that_overflows_rejected(self):
        # H and lstar are finite, 2 H lstar is not; the noise term would
        # give a stepsize of exactly 0
        make_schedule(H=1.0, b=1, T=1, B=1.0, lstar=8e307)
        with pytest.raises(ValueError, match="noise_sq = 2 H lstar overflows"):
            make_schedule(H=1.0, b=1, T=2, B=1.0, lstar=1e308)

    def test_stepsize_that_underflows_rejected(self):
        # b B**2 / (noise_sq T**3) = 1e-200 / (5e124 * 4096) is below the
        # least subnormal, so the run would never move; with B = 1e-90 it
        # is not
        args = {"H": 1e-175, "b": 1, "T": 16, "lstar": 2.5e299}
        assert make_schedule(B=1e-90, **args).gamma > 0
        with pytest.raises(ValueError, match="base stepsize underflows to 0"):
            make_schedule(B=1e-100, **args)
        # 2 H lstar is finite here, but 2 H lstar T**3 is not
        with pytest.raises(ValueError, match="base stepsize underflows to 0"):
            make_schedule(H=1.0, b=1, T=2, B=1.0, lstar=8e307)

    def test_last_stepsize_that_overflows_rejected(self):
        # gamma = 1 / (24 H (T + 1)) = 8.3e307 is finite, but gamma_t(2)
        # is not: the run would step by inf and record NaN rows; at
        # H = 1e-308 every stepsize is finite
        s = make_schedule(H=1e-308, b=1, T=4, B=1.0, lstar=0.0)
        assert math.isfinite(s.gamma_t(s.T - 1))
        with pytest.raises(ValueError, match="gamma \\* T overflows"):
            make_schedule(H=1e-310, b=1, T=4, B=1.0, lstar=0.0)

    @pytest.mark.parametrize("bad", [{"b": 2.5}, {"T": 8.5}, {"b": 2.0},
                                     {"b": True}, {"T": True}])
    def test_b_or_T_not_an_integer_rejected(self, bad):
        # unchecked, b=2.5 gave the b=2.5 stepsize to a schedule recording
        # b=2, and T=8.5 the T=8.5 stepsize to an 8-step run; a float or a
        # bool is rejected whatever its value, as spec loading rejects it
        with pytest.raises(ValueError, match="T and b must be integers"):
            make_schedule(**{"H": 1.0, "b": 2, "T": 8, "B": 1.0,
                             "lstar": 0.0, **bad})

    def test_numpy_integers_accepted(self):
        assert make_schedule(1.0, np.int64(2), np.int32(8), 1.0, 0.0) == \
            make_schedule(1.0, 2, 8, 1.0, 0.0)


class TestProjectBall:
    def test_scaling(self):
        np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8], rtol=1e-15)

    def test_interior_unchanged(self):
        w = np.array([0.1, -0.2])
        assert project_ball(w, 1.0) is w

    def test_zero_vector(self):
        np.testing.assert_array_equal(project_ball(np.zeros(3), 5.0),
                                      np.zeros(3))

    # a NaN radius, unchecked, gave a NaN vector
    @pytest.mark.parametrize("B", [0.0, math.nan])
    def test_rejects_nonpositive_radius(self, B):
        with pytest.raises(ValueError, match="radius must be positive"):
            project_ball(np.array([3.0, 4.0]), B)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(allow_nan=False)
                      | st.sampled_from([0.0, -0.0, 1.0, 5e-324])),
           st.sampled_from(["sphere", "inside", "outside", "any"]),
           st.floats(1e-300, 1e300))
    def test_matches_linalg_norm(self, w, where, radius):
        # huge and infinite entries overflow the norm on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            # the reference norm the projection must reproduce bit for bit
            norm = float(np.linalg.norm(w))
            assert math.sqrt(w.dot(w)) == norm
            if where != "any" and 1e-300 < norm < math.inf:
                radius = {"sphere": norm,
                          "inside": np.nextafter(norm, math.inf),
                          "outside": np.nextafter(norm, 0.0)}[where]
            out = project_ball(w, radius)
            if norm <= radius:
                assert out is w
            else:
                assert out.tobytes() == (w * (radius / norm)).tobytes()


class TestAccStep:
    def test_first_step_momentum_is_identity(self):
        # beta_0 = 1 forces w_md = w_0 and w_ag_1 = w_1
        prob = one_dim_quadratic()
        sched = make_schedule(H=1.0, b=1, T=4, B=1.0, lstar=0.0)
        recorder = TraceRecorder(prob, "acc_mb_sgd", 1, 4, 0)
        w, w_ag = acc_step(np.zeros(1), np.zeros(1), 0, sched, prob,
                           prob.stream(0), recorder)
        np.testing.assert_array_equal(w, w_ag)
        assert recorder.build().t.tolist() == [1]

    @pytest.mark.parametrize("t", [4, 5])
    def test_step_beyond_horizon_rejected(self, t):
        prob = one_dim_quadratic()
        sched = make_schedule(H=1.0, b=1, T=4, B=1.0, lstar=0.0)
        with pytest.raises(ValueError, match=f"step t={t} beyond schedule "
                           "horizon T=4"):
            acc_step(np.zeros(1), np.zeros(1), t, sched, prob,
                     prob.stream(0), TraceRecorder(prob, "", 1, 4, 0))

    def test_single_iteration_hand_trace(self):
        # gamma = 1/48, g = -1, w_1 = 1/48, w_ag_1 = 1/48
        prob = one_dim_quadratic()
        w_ag, trace = run_acc_mb_sgd(prob, b=1, T=1, seed=0)
        assert w_ag[0] == pytest.approx(1 / 48, abs=1e-15)
        assert trace.norm_wag[0] == pytest.approx(1 / 48, abs=1e-15)

    def test_two_iterations_match_scalar_reimplementation(self):
        # independent oracle: plain-float replay of the update equations
        T, H, B = 2, 1.0, 1.0
        gamma = min(1 / (12 * H), 1 / (24 * H * (T + 1)))
        w = w_ag = 0.0
        for t in range(T):
            beta = 1 + t / 6
            gamma_t = gamma * (t + 1)
            w_md = w / beta + (1 - 1 / beta) * w_ag
            g = w_md - 1.0
            w = w - gamma_t * g
            if abs(w) > B:
                w = math.copysign(B, w)
            w_ag = w / beta + (1 - 1 / beta) * w_ag
        prob = one_dim_quadratic()
        got, trace = run_acc_mb_sgd(prob, b=1, T=2, seed=0)
        assert got[0] == pytest.approx(w_ag, abs=1e-12)
        assert trace.subopt[-1] == pytest.approx(0.5 * (w_ag - 1) ** 2,
                                                 abs=1e-12)


class TestAccRun:
    def test_monotone_trend_on_noiseless_single_atom(self):
        prob = make_interpolation_least_squares(d=4, n_atoms=1, H=1.0, B=1.0,
                                                seed=2)
        finals = [run_acc_mb_sgd(prob, b=1, T=T, seed=0)[1].final_subopt
                  for T in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(finals, finals[1:]))

    def test_iterates_stay_in_ball(self):
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=0.7,
                                                seed=5)
        _, trace = run_acc_mb_sgd(prob, b=2, T=50, seed=1)
        assert np.all(trace.norm_w <= 0.7 + 1e-12)
        assert np.all(trace.norm_wag <= 0.7 + 1e-12)

    def test_bit_identical_reruns(self):
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                                seed=5)
        w1, t1 = run_acc_mb_sgd(prob, b=4, T=30, seed=9)
        w2, t2 = run_acc_mb_sgd(prob, b=4, T=30, seed=9)
        assert w1.tobytes() == w2.tobytes()
        assert t1.subopt.tobytes() == t2.subopt.tobytes()
        assert t1.grad_noise_sq.tobytes() == t2.grad_noise_sq.tobytes()

    def test_noiseless_runs_depend_on_b_only_through_stepsize(self):
        # with exact gradients, batch sizes yielding the same gamma yield
        # bit-identical traces
        prob = make_noiseless_quadratic(d=6, H=1.0, B=1.0, seed=3, spread=5.0)
        T = 10
        _, t1 = run_acc_mb_sgd(prob, b=2 * (T + 1), T=T, seed=0)
        _, t2 = run_acc_mb_sgd(prob, b=4 * (T + 1), T=T, seed=0)
        assert t1.subopt.tobytes() == t2.subopt.tobytes()

    def test_nonfinite_gradient_flags_trace(self):
        prob = one_dim_quadratic()
        bad = DeterministicQuadratic(np.array([[np.nan]]), prob.meta, 0, {})
        _, trace = run_acc_mb_sgd(bad, b=1, T=5, seed=0)
        assert trace.aborted
        assert "abort_reason" in trace.header
        assert len(trace.t) == 0

    def test_overrides_change_schedule(self):
        prob = make_interpolation_least_squares(d=4, n_atoms=2, H=1.0, B=1.0,
                                                seed=0)
        _, t_certified = run_acc_mb_sgd(prob, b=1, T=8, seed=0)
        _, t_loose = run_acc_mb_sgd(prob, b=1, T=8, lstar_override=0.5,
                                    seed=0)
        assert t_certified.header["schedule"]["noise_sq"] == 0.0
        assert t_loose.header["schedule"]["noise_sq"] == 1.0

    def test_header_hash_matches_problem_config(self):
        from optaccel import config_hash
        prob = make_interpolation_least_squares(d=4, n_atoms=2, H=1.0, B=1.0,
                                                seed=6)
        _, trace = run_acc_mb_sgd(prob, b=1, T=4, seed=0)
        assert trace.header["problem"] == prob.config()
        assert trace.header["problem_hash"] == config_hash(prob.config())


class TestSgd:
    def test_hand_trace_and_tail_average(self):
        # eta = 1/(2H) = 0.5 on L(w) = (w-1)^2/2: w_t = 0.5, 0.75, 0.875, ...
        prob = one_dim_quadratic()
        w_avg, trace = run_sgd(prob, b=1, T=4, seed=0)
        np.testing.assert_allclose(trace.norm_w,
                                   [0.5, 0.75, 0.875, 0.9375], rtol=1e-15)
        # running tail means: w1; w2; (w2+w3)/2; (w3+w4)/2
        np.testing.assert_allclose(trace.norm_wag,
                                   [0.5, 0.75, 0.8125, 0.90625], rtol=1e-15)
        assert w_avg[0] == pytest.approx(0.90625)

    def test_b_irrelevant_when_noiseless(self):
        prob = one_dim_quadratic()
        _, t1 = run_sgd(prob, b=1, T=10, seed=0)
        _, t4 = run_sgd(prob, b=4, T=10, seed=0)
        assert t1.subopt.tobytes() == t4.subopt.tobytes()

    def test_final_subopt_decreases_in_T_at_best_stepsize(self):
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                                seed=3)
        meds = []
        for T in (64, 128, 256, 512):
            best = min(
                float(np.median([run_sgd(prob, b=1, T=T, seed=s,
                                         eta=eta)[1].final_subopt
                                 for s in range(20)]))
                for eta in (0.5, 0.25))
            meds.append(best)
        assert all(b < a for a, b in zip(meds, meds[1:]))

    @pytest.mark.parametrize("bad,error", [
        ({"b": 0}, "T and b must be integers >= 1"),
        ({"T": 0}, "T and b must be integers >= 1"),
        ({"T": -3}, "T and b must be integers >= 1"),
        ({"eta": 0.0}, r"the SGD step min\(1 / \(2 H\), eta\)"),
        ({"eta": -1.0}, r"the SGD step min\(1 / \(2 H\), eta\)"),
        ({"eta": math.nan}, r"the SGD step min\(1 / \(2 H\), eta\)")],
        ids=["b0", "T0", "Tneg", "eta0", "eta_neg", "eta_nan"])
    def test_bad_inputs_rejected_before_the_first_step(self, bad, error,
                                                       monkeypatch):
        # a negative eta would run gradient ascent, and T=0 would give an
        # empty trace with a NaN final value; ``sgd_step`` checks eta
        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(optaccel.optimizers, "_checked_gradient", no_step)
        args = {"b": 1, "T": 50, "eta": None, **bad}
        with pytest.raises(ValueError, match=error):
            run_sgd(make_interpolation_least_squares(
                d=8, n_atoms=4, H=1.0, B=1.0, seed=3), **args)

    @pytest.mark.parametrize("B,error", [
        (math.nan, ValueError), (math.inf, OverflowError), (0.0, ValueError),
        (-1.0, ValueError)])
    def test_bad_radius_rejected_before_the_recorder(self, B, error):
        # no problem carries such a radius for ``run_sgd`` to read: unchecked,
        # NaN would abort at t=1 with a NaN radius in the header, inf would
        # run unprojected, and 0 or -1 would fail only in the first projection
        with pytest.raises(error, match="certified constant B must be "
                                        "finite and positive"):
            replace(one_dim_quadratic().meta, B=B)

    def test_infinite_step_rejected_before_the_recorder(self, monkeypatch):
        # 1 / (2 H) overflows: unchecked, the header's eta was Infinity and
        # the first row NaN
        def no_recorder(*args, **kwargs):
            raise AssertionError("a recorder was built")

        monkeypatch.setattr(optaccel.optimizers, "TraceRecorder", no_recorder)
        prob = problem_from_config({
            "family": "interpolation_least_squares", "seed": 0,
            "params": {"d": 4, "n_atoms": 2, "H": 1e-310, "B": 1.0}})
        with pytest.raises(ValueError, match="SGD step .* must be finite"):
            run_sgd(prob, b=1, T=4)
        # an eta below the overflowing bound gives a finite step
        assert optaccel.optimizers.sgd_step(1e-310, 0.5) == 0.5

    def test_nan_eta_rejected(self):
        # ``min(0.5, nan)`` is 0.5, so a NaN eta gave the step 1 / (2 H)
        with pytest.raises(ValueError, match="SGD step .* must be finite"):
            optaccel.optimizers.sgd_step(1.0, math.nan)

    @pytest.mark.parametrize("bad", [{"b": True}, {"T": True}])
    def test_bool_b_or_T_rejected(self, bad):
        # unchecked, True ran as 1 and wrote a header with b: 1 or T: 1
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                                seed=3)
        with pytest.raises(ValueError, match="integers"):
            run_sgd(prob, **{"b": 2, "T": 8, **bad})

    @pytest.mark.parametrize("run", ["run_sgd", "run_acc_mb_sgd"])
    @pytest.mark.parametrize("bad", [{"b": 2.5}, {"T": 8.5}])
    def test_fractional_b_or_T_rejected_before_the_recorder(
            self, run, bad, monkeypatch):
        # unchecked, run_sgd failed mid-run with a TypeError, and
        # run_acc_mb_sgd wrote a header its stepsize did not match
        def no_recorder(*args, **kwargs):
            raise AssertionError("a recorder was built")

        monkeypatch.setattr(optaccel.optimizers, "TraceRecorder", no_recorder)
        prob = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                                seed=3)
        with pytest.raises(ValueError, match="integers"):
            getattr(optaccel.optimizers, run)(prob, **{"b": 2, "T": 8, **bad})

    def test_tail_average_keeps_a_quarter_of_the_partial_sums(self):
        # a later tail start reads only the sums from the current one up to
        # T // 2, so at most about T / 4 d-vectors are kept, not T + 1
        prob = make_interpolation_least_squares(d=256, n_atoms=4, H=1.0,
                                                B=1.0, seed=3)
        T = 4096
        tracemalloc.start()
        try:
            run_sgd(prob, b=1, T=T, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * prob.d * 8 / 2

    def test_grad_noise_measured_where_gradient_was_taken(self):
        # exact minibatch gradients: the deviation is 0 at the query point
        prob = make_noiseless_quadratic(d=8, H=1.0, B=1.0, seed=1, spread=10)
        _, sgd = run_sgd(prob, b=1, T=5, seed=0)
        _, acc = run_acc_mb_sgd(prob, b=1, T=5, seed=0)
        np.testing.assert_array_equal(sgd.grad_noise_sq, np.zeros(5))
        np.testing.assert_array_equal(acc.grad_noise_sq, np.zeros(5))


class TestStageBudget:
    def test_boundary_value(self):
        # bound(1) = 108 + 144 = 252 exactly
        assert stage_budget(eps=252.0, B_sq=1.0, H=1.0, b=1, Lstar=0.0) == 1

    def test_matches_linear_scan_oracle(self):
        eps, B_sq, H, b, lstar = 1.08, 1.0, 10**6, 1.0, 0.0
        # oracle: scan T upward until the bound holds
        T_oracle = 1
        while accel_error_bound(T_oracle, 1.0, 1.0, 10**6, 0.0) > 1.08:
            T_oracle += 1
        got = stage_budget(eps=1.08, B_sq=1.0, H=1.0, b=10**6, Lstar=0.0)
        assert got == T_oracle
        assert accel_error_bound(got, 1.0, 1.0, 10**6, 0.0) <= 1.08
        assert accel_error_bound(got - 1, 1.0, 1.0, 10**6, 0.0) > 1.08

    @settings(max_examples=300, deadline=None)
    @given(eps=st.floats(1e-4, 1e3), B_sq=st.floats(1e-3, 1e3),
           H=st.floats(1e-3, 1e3), b=st.integers(1, 512),
           Lstar=st.just(0.0) | st.floats(1e-9, 1.0))
    def test_least_horizon_that_meets_eps(self, eps, B_sq, H, b, Lstar):
        # the bound decreases in T, so the least T is the one whose
        # predecessor misses eps
        T = stage_budget(eps, B_sq, H, b, Lstar)
        assert accel_error_bound(T, H, B_sq, b, Lstar) <= eps
        assert T == 1 or accel_error_bound(T - 1, H, B_sq, b, Lstar) > eps

    @pytest.mark.parametrize("eps,B_sq", [(0.0, 1.0), (-1.0, 1.0),
                                          (0.1, 0.0)])
    def test_non_positive_target_or_radius_rejected(self, eps, B_sq):
        with pytest.raises(ValueError, match="eps and B_sq must be positive"):
            stage_budget(eps, B_sq, H=1.0, b=1, Lstar=0.0)

    @pytest.mark.parametrize("bad", [
        {"eps": math.nan}, {"B_sq": math.nan}, {"B_sq": math.inf},
        {"H": math.nan}, {"H": math.inf}, {"Lstar": math.nan},
        {"Lstar": math.inf}, {"b": 0}, {"b": 2.5}])
    def test_non_finite_or_fractional_input_rejected(self, bad):
        # unchecked, a NaN gave an IndexError, an infinite H or Lstar an
        # OverflowError, b=0 a ZeroDivisionError, and b=2.5 a budget for
        # a batch no run draws
        with pytest.raises(ValueError):
            stage_budget(**{"eps": 0.1, "B_sq": 1.0, "H": 1.0, "b": 1,
                            "Lstar": 0.0, **bad})

    def test_horizon_past_2_to_the_63_overflows(self):
        # the search indexes a range of horizons; this one needs about 1.5e21
        with pytest.raises(OverflowError):
            stage_budget(1e-6, 1e3, H=1e3, b=1, Lstar=1.0)

    def test_bool_batch_rejected(self):
        # unchecked, True sized the budget for b=1
        with pytest.raises(ValueError, match="integer b >= 1"):
            stage_budget(0.1, 1.0, H=1.0, b=True, Lstar=0.0)

    def test_non_increasing_in_eps(self):
        budgets = [stage_budget(eps, 1.0, 1.0, 4, 0.01)
                   for eps in (0.01, 0.02, 0.04, 0.08, 0.16)]
        assert all(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:]))

    def test_noise_term_included(self):
        with_noise = stage_budget(0.05, 1.0, 1.0, 1, Lstar=0.1)
        without = stage_budget(0.05, 1.0, 1.0, 1, Lstar=0.0)
        assert with_noise > without


def planned_on(Delta, lam, H, Lstar=0.0):
    """A stand-in problem whose ``meta`` carries the constants a planner
    reads; it reads none of the others."""
    return SimpleNamespace(meta=ProblemMeta(
        H=H, B=1.0, Lstar=Lstar, sigma_star_sq=0.0, lam=lam, Delta=Delta,
        wstar=np.zeros(1)))


class TestStagePlan:
    def test_exact_power_of_theta(self):
        plan = make_stage_plan(planned_on(Delta=math.e**3, lam=0.5, H=1.0),
                               b=2, eps=1.0)
        assert len(plan.stages) == 3

    def test_first_stage_values(self):
        delta, lam = 2.0, 0.25
        plan = make_stage_plan(planned_on(Delta=delta, lam=lam, H=1.0), b=4,
                               eps=0.01)
        assert plan.stages[0].eps_t == pytest.approx(delta / math.e)
        assert plan.stages[0].B_t**2 == pytest.approx(2 * delta / lam)

    def test_total_budget_matches_independent_recomputation(self):
        delta, eps, theta, lam, H, b = 1.0, 1e-3, math.e, 0.1, 1.0, 8
        plan = make_stage_plan(planned_on(delta, lam, H), b, eps)
        # standalone recomputation with plain floats
        n = math.ceil(math.log(delta / eps) / math.log(theta) - 1e-9)
        total = 0
        for t in range(1, n + 1):
            eps_t = theta**-t * delta
            B_sq = 2 * theta ** (1 - t) * delta / lam
            T = 1
            while (108 * H * B_sq / T**2 + 144 * H * B_sq / (b * T)) > eps_t:
                T += 1
            total += T
        assert plan.total_iterations == total

    def test_plans_from_the_problem_constants(self):
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
        plan = make_stage_plan(prob, b=8, eps=0.01)
        meta = prob.meta
        assert (plan.theta, plan.lam, plan.Delta, plan.H, plan.b,
                plan.Lstar) == (math.e, meta.lam, meta.Delta, meta.H, 8,
                                meta.Lstar)

    def test_zero_stages_when_target_met(self):
        plan = make_stage_plan(planned_on(Delta=1.0, lam=0.5, H=1.0), b=1,
                               eps=2.0)
        assert plan.stages == ()
        # the origin of a problem with Delta = 0 already meets every target
        plan = make_stage_plan(planned_on(Delta=0.0, lam=0.5, H=1.0), b=1,
                               eps=1e-300)
        assert plan.stages == ()

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_stage_plan(planned_on(Delta=1.0, lam=0.0, H=1.0), b=1,
                            eps=0.1)

    def test_fractional_batch_rejected(self):
        # unchecked, each stage was sized for b=2.5 (1255 steps for the
        # first) and run at b=2, which needs 1568
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0,
                                   seed=5)
        with pytest.raises(ValueError, match="b must be >= 1 and an integer"):
            make_stage_plan(prob, b=2.5, eps=0.01)
        with pytest.raises(ValueError, match="b must be >= 1 and an integer"):
            make_budget_plan(prob, b=2.5, budget=10000)

    @pytest.mark.parametrize("b", [0, -1])
    def test_batch_below_one_rejected(self, b):
        # b = 0 would divide by zero in the error bound
        with pytest.raises(ValueError, match="b must be >= 1"):
            make_stage_plan(planned_on(Delta=1.0, lam=0.5, H=1.0), b=b,
                            eps=0.1)

    def test_bool_batch_rejected(self):
        # unchecked, True planned and ran every stage at b=1
        with pytest.raises(ValueError, match="b must be >= 1 and an integer"):
            make_stage_plan(planned_on(Delta=1.0, lam=0.5, H=1.0), b=True,
                            eps=0.1)

    def test_target_ratio_that_overflows_rejected(self):
        # Delta / eps is inf here, which failed with an OverflowError from
        # math.ceil; eps = 1e-305 still plans, with 703 stages
        prob = make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0,
                                   seed=0)
        with pytest.raises(ValueError, match="Delta / eps must be finite"):
            make_stage_plan(prob, b=8, eps=1e-310)

    @pytest.mark.parametrize("name", ["Delta", "eps", "lam", "H", "Lstar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        # a NaN error bound would meet every target in one step: the
        # planner rejects such an eps, and no problem carries such a
        # constant for it to read
        if name == "eps":
            with pytest.raises(ValueError, match="eps must be finite"):
                make_stage_plan(planned_on(Delta=1.0, lam=0.5, H=1.0), b=1,
                                eps=value)
            return
        constants = dict(Delta=1.0, lam=0.5, H=1.0, Lstar=0.0)
        constants[name] = value
        with pytest.raises(OverflowError if value == math.inf
                           else ValueError,
                           match=f"constant {name} must be finite"):
            planned_on(**constants)

    def test_plan_that_cannot_run_is_rejected(self):
        # one stage of 784 steps whose schedule has gamma = 5.3e305, so the
        # last stepsize gamma * T overflows
        prob = planned_on(Delta=1e-10, lam=1e-310, H=1e-310)
        with pytest.raises(ValueError, match="gamma \\* T overflows"):
            make_stage_plan(prob, b=1, eps=0.5e-10)
        with pytest.raises(ValueError, match="gamma \\* T overflows"):
            make_budget_plan(prob, b=1, budget=1000)


def reference_budget_stages(Delta, budget, lam, H, b, Lstar):
    """Plain loop: append stages in order while they fit, at most 63."""
    stages, used = [], 0
    for t in range(1, 64):
        eps_t = math.e**-t * Delta
        B_sq = 2.0 * math.e ** (1 - t) * Delta / lam
        T_t = stage_budget(eps_t, B_sq, H, b, Lstar)
        if used + T_t > budget:
            break
        stages.append(Stage(eps_t=eps_t, B_t=math.sqrt(B_sq), T_t=T_t))
        used += T_t
    return tuple(stages)


class TestBudgetPlan:
    @settings(max_examples=200, deadline=None)
    @given(Delta=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 10.0),
           H=st.floats(0.1, 10.0), b=st.integers(1, 256),
           Lstar=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
           budget=st.integers(1, 200000), extra=st.integers(0, 200000))
    def test_matches_reference_loop(self, Delta, lam, H, b, Lstar, budget,
                                    extra):
        counts = []
        problem = planned_on(Delta, lam, H, Lstar)
        for total in (budget, budget + extra):
            want = reference_budget_stages(Delta, total, lam, H, b, Lstar)
            if not want:
                with pytest.raises(ValueError, match="below the first stage"):
                    make_budget_plan(problem, b, total)
                counts.append(0)
                continue
            plan = make_budget_plan(problem, b, total)
            assert plan.stages == want
            assert plan.total_iterations <= total
            assert (plan.theta, plan.lam, plan.Delta, plan.H, plan.b,
                    plan.Lstar) == (math.e, lam, Delta, H, b, Lstar)
            counts.append(len(plan.stages))
        assert counts[0] <= counts[1]

    def test_rejections(self):
        # with Delta = 0 the first stage's target is 0, which no horizon meets
        for kwargs, match in (({"lam": 0.0}, "growth constant"),
                              ({"Delta": 0.0}, "eps and B_sq must be")):
            constants = dict(Delta=1.0, lam=0.5, H=1.0)
            constants.update(kwargs)
            with pytest.raises(ValueError, match=match):
                make_budget_plan(planned_on(**constants), b=1, budget=1000)

    @pytest.mark.parametrize("name", ["Delta", "lam", "H", "Lstar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        # a NaN H or Lstar planned 63 one-step stages; now no problem
        # carries one for a planner to read
        constants = dict(Delta=1.0, lam=0.05, H=1.0, Lstar=0.0)
        constants[name] = value
        with pytest.raises(OverflowError if value == math.inf
                           else ValueError,
                           match=f"constant {name} must be finite"):
            planned_on(**constants)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0,
                                        0.5, -3, 1000.5])
    def test_budget_not_a_finite_number_at_least_one_rejected(self, budget):
        # unchecked, a NaN or infinite budget plans all 63 stages (25074
        # steps here)
        with pytest.raises(ValueError, match="budget must be a finite "
                                             "number >= 1"):
            make_budget_plan(planned_on(Delta=1.0, lam=0.25, H=1.0), b=8,
                             budget=budget)

    @pytest.mark.parametrize("b", [0, -1])
    def test_batch_below_one_rejected(self, b):
        # b = 0 would divide by zero in the error bound
        with pytest.raises(ValueError, match="b must be >= 1"):
            make_budget_plan(planned_on(Delta=1.0, lam=0.25, H=1.0), b=b,
                             budget=1000)

    @pytest.mark.parametrize("bad,match", [
        ({"b": True}, "b must be >= 1 and an integer"),
        ({"budget": True}, "budget must be a finite number >= 1")])
    def test_bool_batch_or_budget_rejected(self, bad, match):
        # unchecked, True planned at b=1, or for a budget of 1, which no
        # first stage fits
        with pytest.raises(ValueError, match=match):
            make_budget_plan(planned_on(Delta=1.0, lam=0.25, H=1.0),
                             **{"b": 8, "budget": 1000, **bad})


class TestPlanSchedules:
    @settings(max_examples=100, deadline=None)
    @given(Delta=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 10.0),
           H=st.floats(0.1, 10.0), b=st.integers(1, 256),
           Lstar=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
           ratio=st.floats(1e-4, 2.0), budget=st.integers(1, 200000))
    def test_made_once_per_plan_and_kept_out_of_its_fields(
            self, Delta, lam, H, b, Lstar, ratio, budget):
        problem = planned_on(Delta, lam, H, Lstar)
        plans = [make_stage_plan(problem, b, ratio * Delta)]
        try:
            plans.append(make_budget_plan(problem, b, budget))
        except ValueError:  # the first stage overruns the budget
            pass
        for plan in plans:
            assert plan.schedules == tuple(
                make_schedule(H, b, stage.T_t, stage.B_t, Lstar)
                for stage in plan.stages)
            assert plan.schedules is plan.schedules
            assert "schedules" not in asdict(plan)

    def test_run_makes_no_schedule(self, monkeypatch):
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
        plan = make_stage_plan(prob, b=8, eps=0.05)
        want = run_restarted(prob, plan, seed=2)[1]

        def no_schedule(*args):
            raise AssertionError("a schedule was made")

        monkeypatch.setattr(optaccel.optimizers, "make_schedule", no_schedule)
        got = run_restarted(prob, plan, seed=2)[1]
        assert trace_to_csv(got) == trace_to_csv(want)
        assert got.header == want.header


class TestRestarted:
    def test_single_stage_equals_plain_run(self):
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
        plan = make_stage_plan(prob, b=4, eps=0.5)
        assert len(plan.stages) == 1
        st = plan.stages[0]
        w_restart, t_restart = run_restarted(prob, plan, seed=3)
        w_plain, t_plain = reference_acc_mb_sgd(prob, b=4, T=st.T_t,
                                                B_override=st.B_t, seed=3)
        assert w_restart.tobytes() == w_plain.tobytes()
        assert t_restart.subopt.tobytes() == t_plain.subopt.tobytes()

    def test_stage_radius_invariant(self):
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
        plan = make_stage_plan(prob, b=8, eps=0.01)
        _, trace = run_restarted(prob, plan, seed=1)
        for idx, st in enumerate(plan.stages, start=1):
            mask = trace.stage == idx
            assert np.all(trace.norm_w[mask] <= st.B_t + 1e-12)

    def test_trace_is_contiguous_across_stages(self):
        prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
        plan = make_stage_plan(prob, b=2, eps=0.05)
        _, trace = run_restarted(prob, plan, seed=0)
        assert len(trace.t) == plan.total_iterations
        np.testing.assert_array_equal(trace.t,
                                      np.arange(1, plan.total_iterations + 1))


def test_realized_minibatch_variance_bound():
    # conditional variance of the minibatch gradient along a real trajectory:
    #   Var(g | w_md) <= 8 H^2 B^2 / (b beta_t^2) + 8 H (L(w_ag) - L*) / b
    #                    + 4 sigma*^2 / b
    from optaccel import make_gaussian_spike_problem, sample_batch
    from optaccel.optimizers import make_schedule, acc_step

    for prob in (
        make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1, seed=3),
        make_interpolation_least_squares(d=8, n_atoms=4, H=2.0, B=1.0, seed=1),
    ):
        meta = prob.meta
        b, T = 4, 60
        # sigma_*^2 = 2 H Lstar for both problems
        sched = make_schedule(meta.H, b, T, meta.B, meta.Lstar)
        stream = prob.stream(7)
        recorder = TraceRecorder(prob, "acc_mb_sgd", b, T, 7)
        w = w_ag = np.zeros(prob.d)
        for t in range(T):
            beta_inv = 1.0 / sched.beta(t)
            w_md = beta_inv * w + (1 - beta_inv) * w_ag
            cond_var = gradient_variance(prob, w_md) / b
            gap = prob.suboptimality(w_ag)
            bound = (8 * meta.H**2 * meta.B**2 / (b * sched.beta(t)**2)
                     + 8 * meta.H * gap / b + 4 * meta.sigma_star_sq / b)
            assert cond_var <= bound * (1 + 1e-9) + 1e-12
            w, w_ag = acc_step(w, w_ag, t, sched, prob, stream, recorder)


# -- the merged accelerated loop against the two loops it replaced, and the
# block-evaluated trace against per-step recording ---------------------------


def reference_header(problem, algorithm, b, T, seed, extra):
    """Run header with each record written out field by field."""
    cfg = problem.config()
    return {"problem": cfg, "problem_hash": config_hash(cfg),
            "algorithm": algorithm, "b": int(b), "T": int(T),
            "seed": int(seed), **extra}


def mark_aborted(recorder, err):
    recorder.aborted = True
    recorder.header["abort_reason"] = str(err)


def reference_acc_mb_sgd(problem, b, T, B_override=None,
                         lstar_override=None, seed=0):
    """The plain accelerated loop: one stage 0 at the origin."""
    meta = problem.meta
    B = meta.B if B_override is None else float(B_override)
    lstar = meta.Lstar if lstar_override is None else float(lstar_override)
    schedule = make_schedule(meta.H, b, T, B, lstar)
    content = {"gamma": schedule.gamma, "T": schedule.T, "b": schedule.b,
               "H": schedule.H, "B": schedule.B, "noise_sq": schedule.noise_sq}
    recorder = ScalarRowRecorder(reference_header(
        problem, "acc_mb_sgd", b, T, seed,
        {"schedule": content,
         "schedule_hash": sha256_text(canonical_json(content))[:16]}))
    stream = problem.stream(seed)
    state = OptimizerState(np.zeros(problem.d), np.zeros(problem.d), 0)
    try:
        for _ in range(T):
            state = reference_acc_step(state, schedule, problem, stream,
                                       recorder)
    except NonFiniteGradientError as err:
        mark_aborted(recorder, err)
    return state.w_ag, recorder.build()


def reference_restarted(problem, plan, seed=0):
    """The restart loop: stages 1..k, each re-centred on the last output."""
    content = {"theta": plan.theta, "lam": plan.lam, "Delta": plan.Delta,
               "H": plan.H, "b": plan.b, "Lstar": plan.Lstar,
               "stages": [{"eps_t": s.eps_t, "B_t": s.B_t, "T_t": s.T_t}
                          for s in plan.stages]}
    recorder = ScalarRowRecorder(reference_header(
        problem, "restarted", plan.b, plan.total_iterations, seed,
        {"plan": content}))
    stream = problem.stream(seed)
    center = np.zeros(problem.d)
    t_offset = 0
    try:
        for stage_idx, stage in enumerate(plan.stages, start=1):
            schedule = make_schedule(plan.H, plan.b, stage.T_t, stage.B_t,
                                     plan.Lstar)
            state = OptimizerState(np.zeros(problem.d), np.zeros(problem.d), 0)
            for _ in range(stage.T_t):
                state = reference_acc_step(state, schedule, problem, stream,
                                           recorder, center=center,
                                           stage=stage_idx, t_offset=t_offset)
            center = center + state.w_ag
            t_offset += stage.T_t
    except NonFiniteGradientError as err:
        mark_aborted(recorder, err)
    return center, recorder.build()


def build(cfg, nan_from):
    """A copy of the configured problem whose gradients are NaN from call
    ``nan_from`` on (never when ``nan_from`` is None)."""
    prob = copy.copy(problem_from_config(cfg))
    if nan_from is not None:
        exact = prob.batch_grad_mean
        calls = [0]

        def batch_grad_mean(w, batch):
            calls[0] += 1
            g = exact(w, batch)
            return g if calls[0] <= nan_from else np.full_like(g, np.nan)

        prob.batch_grad_mean = batch_grad_mean
    return prob


@st.composite
def plans(draw, problem_H):
    """``make_stage_plan`` plans of 0 to 4 stages of a few steps each."""
    n = draw(st.integers(0, 4))
    Delta = draw(st.floats(0.1, 10.0))
    eps = 2.0 * Delta if n == 0 else Delta * math.e**-n
    # a growth constant far above H keeps each stage's budget small
    lam = problem_H * draw(st.floats(20.0, 2000.0))
    Lstar = draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1e-6))
    plan = make_stage_plan(planned_on(Delta, lam, problem_H, Lstar),
                           draw(st.integers(1, 8)), eps)
    assume(len(plan.stages) == n and plan.total_iterations <= 300)
    return plan


@contextmanager
def rows_per_block(cfg, rows):
    """Inside the block the trace recorder evaluates ``rows`` rows at a time
    for ``cfg``'s problem; its own blocks are far longer than these runs."""
    problem = problem_from_config(cfg)
    saved = optaccel.trace._BLOCK_ELEMENTS
    optaccel.trace._BLOCK_ELEMENTS = 4 * problem.d * rows
    try:
        assert TraceRecorder(problem, "", 1, 1, 0).block_rows == rows
        yield
    finally:
        optaccel.trace._BLOCK_ELEMENTS = saved


def near_blocks(block):
    """Step counts just below, at and just above one to three blocks."""
    return st.sampled_from(sorted({max(1, m * block + off)
                                   for m in (1, 2, 3) for off in (-1, 0, 1)}))


def aborts(T, block):
    """None, or the number of gradients a run of ``T`` steps gets before its
    first NaN one, often at or inside a block's edges."""
    edges = [n for n in (block // 2, block - 1, block, block + 1,
                         block + block // 2) if 0 <= n <= T]
    choice = st.none() | st.integers(0, T)
    return choice | st.sampled_from(edges) if edges else choice


@st.composite
def block_edge_plans(draw, problem_H, block):
    """Plans of 1 to 4 stages whose budgets add up to a step count near a
    block boundary; the stage constants are drawn, not planned."""
    total = draw(near_blocks(block))
    n = draw(st.integers(1, 4)) if total > 4 else 1
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=n - 1,
                         max_size=n - 1, unique=True)) if n > 1 else []
    bounds = [0, *sorted(cuts), total]
    Delta = draw(st.floats(0.1, 10.0))
    lam = problem_H * draw(st.floats(0.01, 1.0))
    stages = tuple(
        Stage(eps_t=Delta * math.e**-(i + 1),
              B_t=math.sqrt(2.0 * math.e**-i * Delta / lam),
              T_t=bounds[i + 1] - bounds[i]) for i in range(n))
    return StagePlan(stages=stages, lam=lam, Delta=Delta,
                     H=problem_H, b=draw(st.integers(1, 8)),
                     Lstar=draw(st.sampled_from([0.0, 1e-6])))


def same_run(got, want):
    (w_got, t_got), (w_want, t_want) = got, want
    assert w_got.tobytes() == w_want.tobytes()
    # as lists, so a failure reports the first differing row, not a diff
    # of two long texts
    assert (trace_to_csv(t_got).splitlines()
            == trace_to_csv(t_want).splitlines())
    assert canonical_json(t_got.header) == canonical_json(t_want.header)


class TestOneAcceleratedLoop:
    @settings(max_examples=150, deadline=None)
    @given(cfg=family_configs(), b=st.integers(1, 8),
           lstar_override=st.none() | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32), data=st.data())
    def test_plain_run_matches_reference(self, cfg, b, lstar_override, seed,
                                         data):
        block = data.draw(st.integers(1, 80), label="rows per block")
        T = data.draw(st.integers(1, 60) | near_blocks(block), label="T")
        nan_from = data.draw(aborts(T, block), label="nan_from")
        kwargs = dict(lstar_override=lstar_override, seed=seed)
        with rows_per_block(cfg, block):
            got = run_acc_mb_sgd(build(cfg, nan_from), b, T, **kwargs)
        same_run(got,
                 reference_acc_mb_sgd(build(cfg, nan_from), b, T, **kwargs))

    @settings(max_examples=150, deadline=None)
    @given(cfg=family_configs(), seed=st.integers(0, 2**32), data=st.data())
    def test_restart_matches_reference(self, cfg, seed, data):
        H = problem_from_config(cfg).meta.H
        block = data.draw(st.integers(1, 80), label="rows per block")
        plan = data.draw(plans(H) | block_edge_plans(H, block), label="plan")
        nan_from = data.draw(aborts(plan.total_iterations, block),
                             label="nan_from")
        with rows_per_block(cfg, block):
            got = run_restarted(build(cfg, nan_from), plan, seed=seed)
        same_run(got, reference_restarted(build(cfg, nan_from), plan,
                                          seed=seed))

    def test_abort_in_a_later_stage_returns_last_centre(self):
        cfg = {"family": "growth",
               "params": {"d": 6, "r": 3, "lam": 0.25, "H": 1.0,
                          "Delta": 1.0}, "seed": 5}
        plan = make_stage_plan(planned_on(Delta=1.0, lam=25.0, H=1.0), b=2,
                               eps=0.05)
        assert len(plan.stages) == 3
        first = plan.stages[0].T_t
        for nan_from in (0, first - 1, first, first + 1):
            got = run_restarted(build(cfg, nan_from), plan, seed=4)
            same_run(got, reference_restarted(build(cfg, nan_from), plan,
                                              seed=4))
            assert got[1].aborted and len(got[1].t) == nan_from
            if nan_from < first:
                assert not got[0].any()  # aborted in stage 1: the origin
            else:
                assert got[0].any()


class TestSgdLoop:
    @settings(max_examples=150, deadline=None)
    @given(cfg=family_configs(), b=st.integers(1, 8),
           eta=st.none() | st.floats(1e-3, 2.0),
           seed=st.integers(0, 2**32), data=st.data())
    def test_matches_per_step_recording(self, cfg, b, eta, seed, data):
        block = data.draw(st.integers(1, 80), label="rows per block")
        T = data.draw(st.integers(1, 60) | near_blocks(block), label="T")
        nan_from = data.draw(aborts(T, block), label="nan_from")
        kwargs = dict(seed=seed, eta=eta)
        with rows_per_block(cfg, block):
            got = run_sgd(build(cfg, nan_from), b, T, **kwargs)
        same_run(got, reference_sgd(build(cfg, nan_from), b, T, **kwargs))
