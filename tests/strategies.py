"""Hypothesis strategies shared by the test modules.  The one list of problem
families: ``FAMILY_PARAMS`` (a params strategy each) and ``FAMILY_EXAMPLES``
(one config each), keyed exactly like ``problems._FAMILIES``."""

from hypothesis import strategies as st

_SCALE = st.floats(0.1, 10.0)


@st.composite
def _growth_params(draw):
    d = draw(st.integers(2, 10))
    r, H = draw(st.integers(1, d - 1)), draw(_SCALE)
    # u = 1 puts the largest atom's squared norm at H
    u = draw(st.just(1.0) | st.floats(0.1, 1.0))
    return {"d": d, "r": r, "lam": H / r * u, "H": H, "Delta": draw(_SCALE)}


FAMILY_PARAMS = {
    # d reaches 16, where a full-rank design's smallest eigenvalue is small
    "interpolation_least_squares": st.integers(1, 16).flatmap(
        lambda d: st.fixed_dictionaries({
            "d": st.just(d), "n_atoms": st.integers(1, d), "H": _SCALE,
            "B": _SCALE})),
    "sign_vector": st.integers(1, 4).flatmap(
        lambda n: st.fixed_dictionaries({
            "n": st.just(n), "H": _SCALE, "B": _SCALE, "sigma_signs": st.lists(
                st.sampled_from([-1, 1]), min_size=2 * n, max_size=2 * n)})),
    # s = 0 is a noise-free design, drawn by counter; p = 1 leaves the atom
    # x = 0 with probability 0
    "gaussian_spike": st.fixed_dictionaries({
        "H": _SCALE, "B": _SCALE, "p": st.just(1.0) | st.floats(0.01, 1.0),
        "s": st.just(0.0) | st.floats(0.0, 2.0),
        "sign": st.sampled_from([-1, 1])}),
    "growth": _growth_params(),
    "noiseless_quadratic": st.fixed_dictionaries({
        "d": st.integers(1, 6), "H": _SCALE, "B": _SCALE,
        "spread": st.floats(1.0, 100.0)}),
}

FAMILY_EXAMPLES = {cfg["family"]: cfg for cfg in [
    {"family": "interpolation_least_squares", "seed": 7,
     "params": {"d": 8, "n_atoms": 4, "H": 2.0, "B": 3.0}},
    {"family": "sign_vector", "seed": 3,
     "params": {"n": 2, "H": 1.0, "B": 1.0, "sigma_signs": [1, -1, 1, 1]}},
    {"family": "gaussian_spike", "seed": 2,
     "params": {"H": 1.0, "B": 1.0, "p": 0.5, "s": 1.0, "sign": 1}},
    {"family": "growth", "seed": 11,
     "params": {"d": 6, "r": 3, "lam": 0.1, "H": 1.0, "Delta": 1.0}},
    {"family": "noiseless_quadratic", "seed": 42,
     "params": {"d": 4, "H": 1.0, "B": 1.0, "spread": 10.0}}]}


def family_config(family):
    """A valid config of ``family``, with params from ``FAMILY_PARAMS``."""
    return st.fixed_dictionaries({
        "family": st.just(family), "params": FAMILY_PARAMS[family],
        "seed": st.integers(0, 2**32)})


def family_configs():
    """A valid config of any family in ``FAMILY_PARAMS``, at small d."""
    return st.sampled_from(sorted(FAMILY_PARAMS)).flatmap(family_config)
