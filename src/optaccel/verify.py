"""End-to-end verification suites binding the library's guarantees to
checkable numbers.

Each suite returns its list of checks, and ``run_suite`` turns them into
a report.  Suites are fully seeded and therefore deterministic: rerunning
one reproduces the identical report, whose ``content_hash`` covers
everything except wall-clock time.  Suite names are the stable CLI surface
(``optaccel verify <suite>``); thresholds are fixed here, not configurable,
because they are the package's acceptance contract.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import optimizers
from .analysis import (_line_fit, _median, certify_assumptions,
                       check_projection_lemma, critical_batch, fit_rate,
                       variance_at)
from .optimizers import accel_error_bound, run_acc_mb_sgd, run_restarted, run_sgd
from .problems import (make_gaussian_spike_problem, make_growth_problem,
                       make_interpolation_least_squares,
                       make_noiseless_quadratic, make_sign_vector_problem)
from .trace import canonical_json, sha256_text

__all__ = ["SUITES", "run_suite", "report_lines"]


def _check(name, value, threshold, op, detail=""):
    passed = {"<=": value <= threshold, ">=": value >= threshold,
              "<": value < threshold, ">": value > threshold}[op]
    return {"name": name, "value": float(value), "op": op,
            "threshold": float(threshold), "passed": bool(passed),
            "detail": detail}


# -- shared fixtures ---------------------------------------------------------

# planting seed 334 carries a large initial gap, so the decaying regime of
# the b=1 curve covers the whole horizon grid
_INTERP = dict(d=32, n_atoms=16, H=1.0, B=4.0, seed=334)
_SPEEDUP_EPS = 1e-3


def _interp_problem():
    return make_interpolation_least_squares(**_INTERP)


def _family_fixtures():
    return [
        make_interpolation_least_squares(d=8, n_atoms=4, H=2.0, B=3.0,
                                         seed=7),
        make_sign_vector_problem(n=4, H=1.0, B=1.0,
                                 sigma_signs=[1, -1, 1, 1, -1, 1, -1, -1]),
        make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=2.0, sign=1,
                                    seed=3),
        make_growth_problem(d=6, r=3, lam=0.1, H=1.0, Delta=1.0, seed=11),
        make_noiseless_quadratic(d=16, H=1.0, B=1.0, seed=42, spread=10.0),
    ]


# -- suites ------------------------------------------------------------------


def suite_assumptions():
    """Per-sample convexity/smoothness and growth certificates, all families."""
    checks = []
    for prob in _family_fixtures():
        rep = certify_assumptions(prob, n_probes=1000, seed=0)
        for check in ("nonneg", "convexity", "smoothness", "grad_lipschitz",
                      "growth"):
            checks.append(_check(f"{prob.family}:{check}",
                                 getattr(rep, f"{check}_violation"),
                                 1e-10 if check == "growth" else 1e-8, "<="))
    return checks


def suite_lemma3():
    """Gradient variance at the minimizer is at most 2 H Lstar."""
    checks = []
    for lstar in (0.01, 0.1, 1.0):
        s = 2.0 * math.sqrt(lstar)  # p = 1/2 makes Lstar = s^2 / 4
        prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=s,
                                           sign=1, seed=7)
        est, se = variance_at(prob, prob.meta.wstar, 100000, seed=11)
        checks.append(_check(
            f"Lstar={lstar}:variance_bound", est,
            2.0 * prob.meta.H * lstar + 3.0 * se, "<=",
            detail=f"estimate {est:.5g} vs 2*H*Lstar={2 * lstar:.5g} + 3se"))
    return checks


def suite_lemma1():
    """Projected-update optimality inequality on random instances."""
    gen = np.random.default_rng(77)
    worst, worst_eq = -math.inf, 0.0
    for _ in range(1000):
        d = int(gen.integers(2, 16))
        B = float(gen.uniform(0.1, 10.0))
        gamma_t = float(gen.uniform(0.0, 1.0))
        w_t = gen.standard_normal(d)
        w_t *= gen.uniform() * B / np.linalg.norm(w_t)
        w_md = gen.standard_normal(d)
        g = gen.standard_normal(d) * gen.uniform(0.1, 5.0)
        probes = gen.standard_normal((100, d))
        probes *= ((gen.uniform(size=(100, 1)) ** (1.0 / d)) * B
                   / np.linalg.norm(probes, axis=1, keepdims=True))
        inst = (w_t, w_md, g, gamma_t, B)
        viol, w_next = check_projection_lemma(inst, probes)
        worst = max(worst, viol)
        eq_viol, _ = check_projection_lemma(inst, [w_next])
        worst_eq = max(worst_eq, abs(eq_viol))
    return [
        _check("max_violation", worst, 1e-9, "<=",
               detail="1000 instances x 100 ball probes"),
        _check("equality_at_update", worst_eq, 1e-12, "<=",
               detail="probe at the projected update itself"),
    ]


def suite_rate_convex():
    """Convex-case rates: deterministic quadratic and interpolation regimes."""
    checks = []

    # zero-noise quadratic: with exact gradients the batch size only enters
    # the stepsize rule; b = 2(T+1) activates the smoothness-limited branch
    quad = make_noiseless_quadratic(d=16, H=1.0, B=1.0, seed=42, spread=10.0)
    fit = fit_rate([(T, run_acc_mb_sgd(quad, b=2 * (T + 1), T=T,
                                       seed=0)[1].final_subopt)
                    for T in (32, 64, 128, 256, 512, 1024, 2048, 4096)])
    checks.append(_check("noiseless_quadratic:slope", fit.slope, -1.85, "<="))
    checks.append(_check("noiseless_quadratic:r_squared",
                         fit.r_squared, 0.98, ">="))

    prob = _interp_problem()
    for b, slope_max in ((1, -0.9), (64, -1.7)):
        fit = fit_rate([(T, _median(_finals(prob, b, T, 20)))
                        for T in (64, 128, 256, 512, 1024, 2048, 4096)])
        checks.append(_check(f"interpolation:b={b}:slope", fit.slope,
                             slope_max, "<=",
                             detail=f"r^2={fit.r_squared:.4f}"))
    return checks


# horizon grids per batch size for the speedup sweep (powers of two wide
# enough to bracket the eps crossing for every b)
_SPEEDUP_GRIDS = {
    1: (1024, 2048, 4096, 8192, 16384),
    2: (512, 1024, 2048, 4096, 8192),
    4: (256, 512, 1024, 2048, 4096),
    8: (128, 256, 512, 1024, 2048),
    16: (64, 128, 256, 512, 1024),
    32: (32, 64, 128, 256, 512),
    64: (16, 32, 64, 128, 256),
    128: (16, 32, 64, 128),
    256: (16, 32, 64, 128),
}


def _finals(prob, b, T, n_seeds):
    """Final suboptimality of the accelerated run of each seed."""
    return [run_acc_mb_sgd(prob, b=b, T=T, seed=s)[1].final_subopt
            for s in range(n_seeds)]


def suite_speedup():
    """Linear minibatch speedup for the accelerated method; none for
    tail-averaged SGD with its step capped at 1/(2H)."""
    prob = _interp_problem()
    eps = _SPEEDUP_EPS
    threshold = math.sqrt(prob.meta.H * prob.meta.B**2 / eps)
    # each b's horizons run in ascending order only until the first whose
    # median meets eps: no check reads a longer one
    table = {b: next((T for T in Ts
                      if _median(_finals(prob, b, T, 20)) <= eps), None)
             for b, Ts in _SPEEDUP_GRIDS.items()}
    checks = []

    reached = [T for T in table.values() if T is not None]
    mono = all(t2 <= t1 for t1, t2 in zip(reached, reached[1:]))
    checks.append(_check("table_monotone", 1.0 if mono else 0.0, 1.0, ">=",
                         detail=f"rows={tuple(table.items())}"))

    tested = 0
    for b in sorted(_SPEEDUP_GRIDS)[:-1]:
        T1, T2 = table.get(b), table.get(2 * b)
        if T1 is None or T2 is None or T1 <= threshold:
            continue  # saturated or unreached: outside the noise-dominated regime
        tested += 1
        checks.append(_check(f"halving:b={b}->{2 * b}", T2 / T1, 0.6, "<=",
                             detail=f"T_to_eps {T1} -> {T2}"))
    checks.append(_check("regime_pairs_tested", tested, 3, ">="))

    bstar = critical_batch(table)
    checks.append(_check("critical_batch_finite",
                         0.0 if bstar is None else 1.0, 1.0, ">=",
                         detail=f"b*={bstar}"))
    if bstar is not None:
        checks.append(_check("critical_batch:lower", bstar,
                             threshold / 4.0, ">="))
        checks.append(_check("critical_batch:upper", bstar,
                             threshold * 4.0, "<="))

    # SGD contrast: constant stepsize tuned per batch size over a small
    # grid; the running tail average at step t equals a fresh run with
    # horizon t, so one long trace yields the whole horizon grid
    sgd_tte = {}
    H = prob.meta.H
    for b in (1, 4, 16):
        best = None
        for eta in (1 / (2 * H), 1 / (4 * H), 1 / (8 * H)):
            curves = [run_sgd(prob, b=b, T=2048, seed=s, eta=eta)[1].subopt
                      for s in range(20)]
            cols = enumerate(zip(*curves, strict=True), 1)
            t_hit = next((t for t, col in cols if _median(col) <= eps), None)
            if t_hit is not None and (best is None or t_hit < best):
                best = t_hit
        sgd_tte[b] = best
    vals = list(sgd_tte.values())
    spread = math.inf if None in vals else (max(vals) - min(vals)) / min(vals)
    checks.append(_check("sgd_no_speedup_spread", spread, 0.25, "<",
                         detail=f"T_to_eps={sgd_tte}"))
    return checks


def suite_rate_restart():
    """Restarted runs converge linearly; plain runs do not."""
    prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
    delta = prob.meta.Delta
    plan = optimizers.make_stage_plan(prob, b=8,
                                      eps=float(np.exp(-5) * delta))
    runs = [run_restarted(prob, plan, seed=s)[1] for s in range(20)]
    ends = [[v for _, _, v in tr.stage_end_subopts()] for tr in runs]
    med = [_median(stage) for stage in zip(*ends, strict=True)]
    checks = [_check(f"stage_{t_idx}_subopt", m,
                     2.0 * math.exp(-t_idx) * delta, "<=")
              for t_idx, m in enumerate(med, start=1)]

    cum = np.cumsum([st.T_t for st in plan.stages]).astype(float)
    checks.append(_check("restarted_log_linear_r2",
                         _line_fit(cum, np.log(med)).r_squared, 0.95, ">="))

    # plain accelerated run on the same total budget, probed at octave
    # checkpoints: a power law should explain it better than a line
    T_total = plan.total_iterations
    curves = [run_acc_mb_sgd(prob, b=8, T=T_total, seed=s)[1].subopt
              for s in range(20)]
    cps = np.array(sorted(T_total // 2**k for k in range(5)), dtype=int)
    vals = np.array([_median([sub[c - 1] for sub in curves]) for c in cps])
    r2_loglog = _line_fit(np.log(cps.astype(float)), np.log(vals)).r_squared
    r2_loglin = _line_fit(cps.astype(float), np.log(vals)).r_squared
    checks.append(_check("plain_power_law_vs_linear",
                         r2_loglog - r2_loglin, 0.0, ">",
                         detail=f"log-log r2={r2_loglog:.4f}, "
                                f"log-linear r2={r2_loglin:.4f}"))
    return checks


def suite_sigma_star():
    """Variance-at-minimizer parameterization: rate at b=64, floor at b=1."""
    prob = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                       seed=2)
    meta = prob.meta
    # sigma_*^2 = 2 H Lstar exactly for this problem, so the default noise
    # parameter of each run is sigma_*^2
    sigma = math.sqrt(meta.sigma_star_sq)
    T = 1024
    checks = []

    f64 = _finals(prob, 64, T, 40)
    bound = accel_error_bound(T, meta.H, meta.B**2, 64, Lstar=meta.Lstar)
    checks.append(_check("b=64:median_within_bound", _median(f64),
                         3.0 * bound, "<=",
                         detail=f"bound={bound:.4g}"))

    f1 = _finals(prob, 1, T, 40)
    floor = sigma * meta.B / (10.0 * math.sqrt(T))
    checks.append(_check("b=1:no_acceleration_floor", _median(f1),
                         floor, ">=",
                         detail="median must stay above sigma*B/(10 sqrt(T))"))
    return checks


SUITES = {
    "assumptions": suite_assumptions,
    "lemma1": suite_lemma1,
    "lemma3": suite_lemma3,
    "rate_convex": suite_rate_convex,
    "rate_restart": suite_rate_restart,
    "speedup": suite_speedup,
    "sigma_star": suite_sigma_star,
}


def run_suite(name: str) -> dict:
    """Run one suite and build its report; an unknown name is a
    ``ValueError`` that lists the suites."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"expected one of {sorted(SUITES)}")
    t0 = time.perf_counter()
    checks = SUITES[name]()
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "content_hash": sha256_text(canonical_json({"suite": name,
                                                    "checks": checks})),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def report_lines(report: dict) -> list[str]:
    lines = [f"suite {report['suite']}: "
             f"{'PASS' if report['passed'] else 'FAIL'} "
             f"({report['elapsed_s']}s, hash {report['content_hash'][:12]})"]
    for c in report["checks"]:
        mark = "ok " if c["passed"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}: {c['value']:.6g} "
                     f"{c['op']} {c['threshold']:.6g}"
                     + (f"  ({c['detail']})" if c["detail"] else ""))
    return lines
