"""Tour of the built-in problem families and their certified metadata.

Each family is a stochastic least-squares objective with every constant
(smoothness, minimizer norm, minimum loss, gradient variance at the
minimizer, growth constant, initial gap) available in closed form, so
optimizer runs can be scored exactly.  Run:

    python demos/01_problem_zoo.py
"""

import numpy as np

from optaccel import (
    certify_assumptions,
    exact_min,
    make_gaussian_spike_problem,
    make_growth_problem,
    make_interpolation_least_squares,
    make_sign_vector_problem,
    minibatch_gradient,
    sample_batch,
    variance_at,
)


def describe(prob):
    m = prob.meta
    print(f"\n== {prob.family} (d={prob.d}) ==")
    print(f"  H={m.H:g}  B={m.B:.4g}  Lstar={m.Lstar:g}  "
          f"sigma*^2={m.sigma_star_sq:g}  lambda={m.lam:.4g}  "
          f"Delta={m.Delta:.4g}")
    wstar, lstar = exact_min(prob)
    print(f"  closed-form minimum: L* = {lstar:.3e} at ||w*|| = "
          f"{np.linalg.norm(wstar):.4g}")
    rep = certify_assumptions(prob, n_probes=500, seed=0)
    print(f"  certificate probes: worst smoothness violation "
          f"{rep.smoothness_violation:.1e}, growth violation "
          f"{rep.growth_violation:.1e}")


def main():
    # realizable regression: some weight vector fits every sample exactly
    interp = make_interpolation_least_squares(d=16, n_atoms=8, H=1.0, B=2.0,
                                              seed=1)
    describe(interp)
    est, se = variance_at(interp, interp.meta.wstar, 20000, seed=0)
    print(f"  gradient variance at the interpolator: {est:.1e} (exactly 0)")

    # orthogonal design with one sign per coordinate; fully isotropic
    signs = [1, -1, 1, 1, -1, 1, -1, -1]
    sign_prob = make_sign_vector_problem(n=4, H=1.0, B=1.0, sigma_signs=signs)
    describe(sign_prob)
    print(f"  initial gap equals H*B^2/(4n) = {1.0 / 16:.4g}")

    # one rare informative coordinate with label noise: Lstar > 0
    spike = make_gaussian_spike_problem(H=1.0, B=1.0, p=0.5, s=1.0, sign=1,
                                        seed=2)
    describe(spike)
    est, se = variance_at(spike, spike.meta.wstar, 100000, seed=3)
    print(f"  Monte Carlo variance at w*: {est:.4f} +- {se:.4f} "
          f"(analytic p*H*s^2 = {0.5:.4f}, bound 2*H*Lstar = {0.5:.4f})")

    # rank-deficient design: a whole affine subspace of minimizers, but the
    # loss still grows quadratically with the distance to it
    growth = make_growth_problem(d=6, r=3, lam=0.25, H=1.0, Delta=1.0, seed=5)
    describe(growth)

    # sampling is counter-keyed: batch t never depends on earlier draws
    stream = spike.stream(run_seed=0)
    stream.position = 3
    direct = sample_batch(spike, 4, stream)
    replay = spike.stream(run_seed=0)
    for _ in range(3):
        sample_batch(spike, 4, replay)
    again = sample_batch(spike, 4, replay)
    print(f"\nbatch 3 reproducible out of order: "
          f"{np.array_equal(direct[1], again[1])}")
    g = minibatch_gradient(spike, np.array([0.2]), direct)
    print(f"minibatch gradient at w=0.2 on that batch: {g}")


if __name__ == "__main__":
    main()
