"""Convergence-rate check of the accelerated minibatch method.

Two regimes on display: a zero-noise quadratic where only the deterministic
part of the rate is visible, and a realizable regression where the batch
size decides whether the averaged-noise term or the accelerated term
dominates.  Run:

    python demos/02_accelerated_rates.py        (a few seconds)
"""

import numpy as np

from optaccel import (
    fit_rate,
    make_interpolation_least_squares,
    make_noiseless_quadratic,
    make_schedule,
    run_acc_mb_sgd,
)


def main():
    sched = make_schedule(H=1.0, b=8, T=6, B=1.0, lstar=0.0)
    print("schedule for (H=1, b=8, T=6, B=1, no noise): "
          f"gamma = {sched.gamma:.5g}")
    print("  t, beta_t, gamma_t:",
          [(t, sched.beta(t), round(sched.gamma_t(t), 5)) for t in range(6)])

    print("\nzero-noise quadratic, d=16 (exact gradients; batch size only"
          " sets the stepsize branch):")
    quad = make_noiseless_quadratic(d=16, H=1.0, B=1.0, seed=42, spread=10.0)
    grid = []
    for T in (32, 64, 128, 256, 512, 1024):
        _, tr = run_acc_mb_sgd(quad, b=2 * (T + 1), T=T, seed=0)
        grid.append((T, tr.final_subopt))
        print(f"  T={T:5d}  subopt={tr.final_subopt:.3e}")
    fit = fit_rate(grid)
    print(f"  log-log slope {fit.slope:.2f} (r^2={fit.r_squared:.3f});"
          " steeper than -2, as the deterministic bound only caps the rate")

    print("\nrealizable regression d=32, 16 atoms, medians over 10 seeds:")
    prob = make_interpolation_least_squares(d=32, n_atoms=16, H=1.0, B=4.0,
                                            seed=334)
    for b in (1, 64):
        grid = []
        for T in (64, 128, 256, 512, 1024, 2048):
            finals = [run_acc_mb_sgd(prob, b=b, T=T, seed=s)[1].final_subopt
                      for s in range(10)]
            grid.append((T, float(np.median(finals))))
        fit = fit_rate(grid)
        regime = ("noise-averaging regime, slope near -1" if b == 1
                  else "acceleration-dominated regime, slope below -1.7")
        print(f"  b={b:3d}: slope {fit.slope:.2f}  ({regime})")


if __name__ == "__main__":
    main()
