"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


@st.composite
def family_configs(draw):
    """A valid config of one of the five built-in families, at small d."""
    family = draw(st.sampled_from(["interpolation_least_squares",
                                   "sign_vector", "gaussian_spike", "growth",
                                   "noiseless_quadratic"]))
    H = draw(st.floats(0.1, 10.0))
    B = draw(st.floats(0.1, 10.0))
    if family == "interpolation_least_squares":
        d = draw(st.integers(1, 6))
        params = {"d": d, "n_atoms": draw(st.integers(1, d)), "H": H, "B": B}
    elif family == "sign_vector":
        n = draw(st.integers(1, 3))
        params = {"n": n, "H": H, "B": B, "sigma_signs": draw(st.lists(
            st.sampled_from([-1, 1]), min_size=2 * n, max_size=2 * n))}
    elif family == "gaussian_spike":
        params = {"H": H, "B": B, "p": draw(st.floats(0.01, 1.0)),
                  "s": draw(st.floats(0.0, 2.0)),
                  "sign": draw(st.sampled_from([-1, 1]))}
    elif family == "growth":
        d = draw(st.integers(2, 6))
        r = draw(st.integers(1, d - 1))
        params = {"d": d, "r": r, "lam": H / r * draw(st.floats(0.1, 1.0)),
                  "H": H, "Delta": draw(st.floats(0.1, 10.0))}
    else:
        params = {"d": draw(st.integers(1, 6)), "H": H, "B": B,
                  "spread": draw(st.floats(1.0, 100.0))}
    return {"family": family, "params": params,
            "seed": draw(st.integers(0, 2**32))}
