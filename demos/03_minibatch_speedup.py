"""Minibatch parallelization speedup, and SGD's lack of one.

For the accelerated method on a realizable problem, the iterations needed
to reach a fixed error halve every time the batch size doubles, until a
critical batch size where the deterministic part of the rate takes over.
Plain SGD reaches the same error with the same total sample count, but
minibatching buys it almost nothing.  Each batch size runs its horizon
grid in ascending order and stops at the first horizon whose median final
error meets the target.  Run:

    python demos/03_minibatch_speedup.py        (about 10 seconds)
"""

import numpy as np

from optaccel import (
    critical_batch,
    make_interpolation_least_squares,
    run_acc_mb_sgd,
    run_sgd,
)

GRIDS = {
    1: (1024, 2048, 4096, 8192),
    2: (512, 1024, 2048, 4096),
    4: (256, 512, 1024, 2048),
    8: (128, 256, 512, 1024),
    16: (64, 128, 256, 512),
    32: (32, 64, 128, 256),
    64: (16, 32, 64, 128),
    128: (16, 32, 64, 128),
    256: (16, 32, 64, 128),
}
EPS = 3e-3
SEEDS = 10


def main():
    prob = make_interpolation_least_squares(d=32, n_atoms=16, H=1.0, B=4.0,
                                            seed=334)
    # each b stops at its first horizon whose median meets EPS
    table = {b: next((T for T in Ts if np.median(
        [run_acc_mb_sgd(prob, b=b, T=T, seed=s)[1].final_subopt
         for s in range(SEEDS)]) <= EPS), None)
        for b, Ts in GRIDS.items()}
    print(f"accelerated method, iterations to reach {EPS:g} "
          f"(median over {SEEDS} seeds):")
    print("  b     T_to_eps")
    for b, T in table.items():
        print(f"  {b:<5d} {T if T is not None else 'not reached'}")
    bstar = critical_batch(table)
    thr = np.sqrt(prob.meta.H * prob.meta.B**2 / EPS)
    print(f"critical batch size: {bstar} "
          f"(saturation scale sqrt(H B^2 / eps) = {thr:.0f})")

    print("\nplain SGD (tail-averaged, stepsize 1/(2H)):")
    for b in (1, 4, 16):
        subs = [run_sgd(prob, b=b, T=2048, seed=s)[1].subopt
                for s in range(SEEDS)]
        # the running tail average at step t is a run of horizon t
        med = np.median(subs, axis=0)
        t = next((t for t, m in enumerate(med, 1) if m <= EPS), None)
        print(f"  b={b:<3d} T_to_eps={t}")
    print("SGD's count barely moves with b: no parallelization speedup.")


if __name__ == "__main__":
    main()
