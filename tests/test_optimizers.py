"""Schedule arithmetic, single-step traces, run invariants, restarts."""

import copy
import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optaccel import (
    DeterministicQuadratic,
    DiscreteLeastSquares,
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
    sample_batch,
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


# -- refused calls ------------------------------------------------------------
#
# Every refused library call is one row ``(entry point, bad arguments,
# exception, message)``: the entry point gets its ``CALLS`` arguments with
# the bad ones in their place, and the message is formatted with them.
# The gradient and the trace recorder are set to fail, so each refusal
# comes before the first step and before the recorder.

INTERP8 = make_interpolation_least_squares(d=8, n_atoms=4, H=1.0, B=1.0,
                                           seed=3)
# 1 / (2 H) overflows, and so does the last stepsize of a schedule
TINY_H = problem_from_config({
    "family": "gaussian_spike", "seed": 0,
    "params": {"H": 1e-310, "B": 1.0, "p": 0.5, "s": 0.0, "sign": 1}})
# one stage of 784 steps whose schedule has gamma = 5.3e305, so the last
# stepsize gamma * T overflows
UNRUNNABLE = planned_on(Delta=1e-10, lam=1e-310, H=1e-310)


def acc_step_args():
    prob = one_dim_quadratic()
    return dict(w=np.zeros(1), w_ag=np.zeros(1), t=0,
                schedule=make_schedule(1.0, 1, 4, 1.0, 0.0), problem=prob,
                stream=prob.stream(0),
                recorder=TraceRecorder(prob, "acc_mb_sgd", 1, 4, 0))


CALLS = {
    "make_schedule": (make_schedule,
                      lambda: dict(H=1.0, b=1, T=4, B=1.0, lstar=0.0)),
    "project_ball": (project_ball,
                     lambda: dict(w=np.array([3.0, 4.0]), B=1.0)),
    "acc_step": (acc_step, acc_step_args),
    "run_acc_mb_sgd": (run_acc_mb_sgd,
                       lambda: dict(problem=INTERP8, b=2, T=8)),
    "run_sgd": (run_sgd, lambda: dict(problem=INTERP8, b=1, T=50)),
    "sgd_step": (optaccel.optimizers.sgd_step, lambda: dict(H=1.0)),
    "sample_batch": (sample_batch, lambda: dict(
        problem=INTERP8, b=1, stream=INTERP8.stream(0))),
    "stage_budget": (stage_budget, lambda: dict(eps=0.1, B_sq=1.0, H=1.0,
                                                b=1, Lstar=0.0)),
    "make_stage_plan": (make_stage_plan, lambda: dict(
        problem=planned_on(Delta=1.0, lam=0.5, H=1.0), b=1, eps=0.1)),
    "make_budget_plan": (make_budget_plan, lambda: dict(
        problem=planned_on(Delta=1.0, lam=0.25, H=1.0), b=8, budget=1000)),
    # no problem carries a constant that no rate, stepsize or plan can use
    "ProblemMeta": (ProblemMeta, lambda: dict(
        H=1.0, B=1.0, Lstar=0.0, sigma_star_sq=0.0, lam=0.5, Delta=1.0,
        wstar=np.zeros(1))),
    "DiscreteLeastSquares": (DiscreteLeastSquares, lambda: dict(
        family="two_atoms", atoms=np.eye(2), probs=[0.5, 0.5],
        label_means=np.zeros(2), label_stds=np.zeros(2),
        meta=ProblemMeta(H=1.0, B=1.0, Lstar=0.0, sigma_star_sq=0.0,
                         lam=0.0, Delta=1.0, wstar=np.zeros(2)),
        base_seed=0, params={})),
}

T_AND_B = "T and b must be integers >= 1, got T={T}, b={b}"
PLAN_B = "b must be >= 1 and an integer, got b={b}"
BUDGET = "budget must be a finite number >= 1 and an integer, got {budget}"
FINITE_HB = "H and B must be finite and positive, got H={H}, B={B}"
SGD_STEP = "the SGD step min(1 / (2 H), eta) must be finite and positive, " \
    "got {step} (H={H}, eta={eta})"
OVERFLOWS = "the last stepsize gamma * T overflows a float"


REFUSED_CALLS = [
    # every count argument against each kind of bad count: a fractional
    # one would set the stepsize or budget while a truncated one is
    # recorded and run, and True would run as 1
    *((entry, {key: kind}, ValueError, error)
      for entry, key, error in [
          *((entry, key, T_AND_B) for entry in (
              "make_schedule", "run_acc_mb_sgd", "run_sgd")
            for key in ("b", "T")),
          ("stage_budget", "b", "an integer b >= 1, got H={H}, "
           "Lstar={Lstar}, b={b}"),
          ("make_stage_plan", "b", PLAN_B), ("make_budget_plan", "b", PLAN_B),
          ("make_budget_plan", "budget", BUDGET)]
      for kind in (0, -1, 2.0, 2.5, True)),
    # and the values the cross product does not hold
    *((entry, {"T": 8.5}, ValueError, T_AND_B)
      for entry in ("make_schedule", "run_acc_mb_sgd", "run_sgd")),
    ("run_sgd", {"T": -3}, ValueError, T_AND_B),
    *(("make_budget_plan", {"budget": budget}, ValueError, BUDGET)
      for budget in (math.nan, math.inf, -math.inf, 0.5, -3, 1000.5)),
    # a NaN or infinite constant would give a NaN or zero stepsize
    *(("make_schedule", {name: value}, ValueError, FINITE_HB)
      for name, value in [("H", 0), ("B", -1), ("H", math.nan),
                          ("H", math.inf), ("B", math.nan), ("B", math.inf)]),
    *(("make_schedule", {"lstar": value}, ValueError,
       "lstar must be finite and >= 0, got {lstar}")
      for value in (-0.1, math.nan, math.inf)),
    # H and lstar are finite, 2 H lstar is not; the noise term would give
    # a stepsize of exactly 0
    ("make_schedule", {"lstar": 1e308}, ValueError,
     "noise_sq = 2 H lstar overflows a float, got H={H}, lstar={lstar}"),
    # b B**2 / (noise_sq T**3) = 1e-200 / (5e124 * 4096) is below the least
    # subnormal, so the run would never move; in the second, 2 H lstar is
    # finite, but 2 H lstar T**3 is not
    *(("make_schedule", bad, ValueError, "the base stepsize underflows to "
       "0, got H={H}, b={b}, T={T}, B={B}")
      for bad in ({"H": 1e-175, "T": 16, "B": 1e-100, "lstar": 2.5e299},
                  {"lstar": 8e307})),
    # gamma = 1 / (24 H (T + 1)) = 8.3e307 is finite, but gamma_t(2) is
    # not: the run would step by inf and record NaN rows
    ("make_schedule", {"H": 1e-310}, ValueError, OVERFLOWS),
    # a NaN radius, unchecked, gave a NaN vector
    *(("project_ball", {"B": B}, ValueError, "radius must be positive, "
       "got {B}") for B in (0.0, math.nan)),
    *(("acc_step", {"t": t}, ValueError, "step t={t} beyond schedule "
       "horizon T=4") for t in (4, 5)),
    # a negative eta would run gradient ascent; ``min(0.5, nan)`` is 0.5,
    # so a NaN eta gave the step 1 / (2 H); with an infinite 1 / (2 H) the
    # header's eta was Infinity and the first row NaN
    *((entry, {"eta": eta}, ValueError,
       SGD_STEP.format(step=step, H=1.0, eta="{eta}"))
      for entry, eta, step in [("run_sgd", 0.0, "0.0"),
                               ("run_sgd", -1.0, "-1.0"),
                               ("run_sgd", math.nan, "0.5"),
                               ("sgd_step", math.nan, "0.5")]),
    ("run_sgd", {"problem": TINY_H}, ValueError,
     SGD_STEP.format(step="inf", H=1e-310, eta=None)),
    # unchecked, a NaN gave an IndexError, and an infinite H or Lstar an
    # OverflowError
    *(("stage_budget", {key: value}, ValueError, "eps and B_sq must be "
       "positive, B_sq finite, got eps={eps}, B_sq={B_sq}")
      for key, value in [("eps", 0.0), ("eps", -1.0), ("B_sq", 0.0),
                         ("eps", math.nan), ("B_sq", math.nan),
                         ("B_sq", math.inf)]),
    *(("stage_budget", {key: value}, ValueError,
       "need a finite H > 0, a finite Lstar >= 0 and an integer b >= 1, "
       "got H={H}, Lstar={Lstar}, b={b}")
      for key in ("H", "Lstar") for value in (math.nan, math.inf)),
    # horizons of about 2**63.01 and 1.5e21, which no range indexes;
    # unchecked, the third doubled its horizon past what a float holds
    *(("stage_budget", bad, OverflowError, "the error bound exceeds eps "
       "past 2**63 steps, got eps={eps}, B_sq={B_sq}, H={H}, b={b}, "
       "Lstar={Lstar}")
      for bad in [{"eps": 144.0 / 2**63.01}]
      + [{"eps": eps, "B_sq": 1e3, "H": 1e3, "Lstar": 1.0}
         for eps in (1e-6, 1e-300)]),
    *((entry, {"problem": planned_on(Delta=1.0, lam=0.0, H=1.0)}, ValueError,
       "growth constant must be positive, got 0.0")
      for entry in ("make_stage_plan", "make_budget_plan")),
    ("make_budget_plan", {"budget": 1}, ValueError,
     "budget T={budget} is below the first stage's "),
    # with Delta = 0 the first stage's target is 0, which no horizon meets
    ("make_budget_plan", {"problem": planned_on(Delta=0.0, lam=0.5, H=1.0)},
     ValueError, "eps and B_sq must be positive, B_sq finite, got eps=0.0"),
    # a NaN error bound would meet every target in one step
    *(("make_stage_plan", {"eps": eps}, ValueError,
       "eps must be finite and positive, got {eps}")
      for eps in (math.nan, math.inf)),
    # Delta / eps is inf here, which failed with an OverflowError from
    # math.ceil; eps = 1e-305 still plans, with 703 stages
    ("make_stage_plan", {"problem": make_growth_problem(
        d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=0), "b": 8, "eps": 1e-310},
     ValueError, "Delta / eps must be finite, got Delta=1.0, eps={eps}"),
    *((entry, {"problem": UNRUNNABLE, **bad}, ValueError, OVERFLOWS)
      for entry, bad in [("make_stage_plan", {"eps": 0.5e-10}),
                         ("make_budget_plan", {"b": 1})]),
    # unchecked, a NaN B aborted at t=1 with a NaN radius in the header, an
    # infinite one ran unprojected, and 0 or -1 failed only in the first
    # projection; a NaN H or Lstar planned 63 one-step stages
    *(("ProblemMeta", {name: value},
       OverflowError if value == math.inf else ValueError,
       f"certified constant {name} must be finite and "
       f"{'positive' if name in ('H', 'B') else '>= 0'}, got {value}")
      for name, value in [("B", math.nan), ("B", math.inf), ("B", 0.0),
                          ("B", -1.0)]
      + [(name, value) for name in ("Delta", "lam", "H", "Lstar")
         for value in (math.nan, math.inf)]),
    *(("sample_batch", {"b": b}, ValueError,
       "batch size must be >= 1, got {b}") for b in (0, -1)),
    # the check ``Generator.choice`` made on every draw, made once
    *(("DiscreteLeastSquares", {"probs": probs}, ValueError,
       "probs must be one non-negative weight per atom, summing to 1")
      for probs in ([0.5, 0.4], [1.5, -0.5], [1.0], [0.5, math.nan])),
]


def refused_id(row):
    entry, bad = row[:2]
    return "-".join([entry, *(f"{k}={v}"
                              if isinstance(v, (int, float, list))
                              else k for k, v in bad.items())])


@pytest.mark.parametrize("entry,bad,error,message", REFUSED_CALLS,
                         ids=[refused_id(row) for row in REFUSED_CALLS])
def test_refused_call(monkeypatch, entry, bad, error, message):
    def fail(*args, **kwargs):
        raise AssertionError("a step was taken or a recorder built")

    monkeypatch.setattr(optaccel.optimizers, "_checked_gradient", fail)
    monkeypatch.setattr(optaccel.optimizers, "TraceRecorder", fail)
    call, valid = CALLS[entry]
    args = {**valid(), **bad}
    with pytest.raises(error) as exc:
        call(**args)
    assert message.format(**args) in str(exc.value)


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_valid_call_accepted(entry):
    # so each row is refused for its bad arguments alone
    call, valid = CALLS[entry]
    call(**valid())


def test_inputs_just_inside_a_refusal_accepted():
    # 2 H lstar is finite; b B**2 / (noise_sq T**3) is above the least
    # subnormal at B = 1e-90; every stepsize is finite at H = 1e-308; an
    # eta below an overflowing 1 / (2 H) gives a finite step; a horizon
    # just below 2**63 is planned
    make_schedule(H=1.0, b=1, T=1, B=1.0, lstar=8e307)
    assert make_schedule(H=1e-175, b=1, T=16, B=1e-90,
                         lstar=2.5e299).gamma > 0
    s = make_schedule(H=1e-308, b=1, T=4, B=1.0, lstar=0.0)
    assert math.isfinite(s.gamma_t(s.T - 1))
    assert optaccel.optimizers.sgd_step(1e-310, 0.5) == 0.5
    assert 2**62 < stage_budget(eps=144.0 / 2**63, B_sq=1.0, H=1.0, b=1,
                                Lstar=0.0) < 2**63
