"""Restarting the convex-rate method yields linear convergence under growth.

The meta-scheme runs the accelerated method in stages with geometrically
shrinking targets and radii, re-centering on each stage's output.  The plan
is made from the problem's certified constants (initial gap, growth
constant, smoothness, minimum loss), and each stage shrinks the target by
a factor of e.  On an objective with quadratic growth the end-of-stage gap
drops by a roughly constant factor per stage; the plain (non-restarted)
method on the same budget decays polynomially instead.  Run:

    python demos/04_restart_linear_convergence.py
"""

import math

import numpy as np

from optaccel import (
    make_growth_problem,
    make_stage_plan,
    run_acc_mb_sgd,
    run_restarted,
)

SEEDS = 10


def main():
    prob = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
    plan = make_stage_plan(prob, b=8, eps=math.exp(-5))
    print("stage plan (theta = e):")
    for i, st in enumerate(plan.stages, 1):
        print(f"  stage {i}: target {st.eps_t:.4f}  radius {st.B_t:.3f}  "
              f"budget {st.T_t}")
    print(f"total budget: {plan.total_iterations} iterations\n")

    ends = []
    for s in range(SEEDS):
        _, tr = run_restarted(prob, plan, seed=s)
        ends.append([v for _, _, v in tr.stage_end_subopts()])
    med = np.median(np.array(ends), axis=0)
    print("restarted: median end-of-stage suboptimality")
    for i, m in enumerate(med, 1):
        print(f"  stage {i}: {m:.3e}   (target was {math.exp(-i):.3e})")
    ratios = med[1:] / med[:-1]
    print(f"  per-stage contraction factors: "
          f"{[f'{r:.1e}' for r in ratios]}  (roughly constant = linear)\n")

    subs = []
    for s in range(SEEDS):
        _, tr = run_acc_mb_sgd(prob, b=8, T=plan.total_iterations, seed=s)
        subs.append(tr.subopt)
    med_tr = np.median(np.array(subs), axis=0)
    print("plain accelerated method on the same budget:")
    for k in reversed(range(5)):
        t = plan.total_iterations // 2**k
        print(f"  t={t:5d}: subopt {med_tr[t - 1]:.3e}")
    print("plain decay bends on a log-linear axis; restarts straighten it.")


if __name__ == "__main__":
    main()
