"""Reference oracles that the tests compare the library against."""

import numpy as np


def gradient_variance(problem, w) -> float:
    """Exact ``E ||grad l(w; z) - grad L(w)||**2`` of a finite design.

    Worked out from the design alone: with ``r_j = <atoms[j], w> -
    label_means[j]``, a sample at atom ``j`` has gradient
    ``atoms[j] * (r_j - noise)``, so ``E ||grad l||**2 = sum_j probs[j]
    ||atoms[j]||**2 (r_j**2 + label_stds[j]**2)`` and ``grad L(w) = sum_j
    probs[j] r_j atoms[j]``.
    """
    a, p = problem.atoms, problem.probs
    r = a @ np.asarray(w, dtype=float) - problem.label_means
    second = p @ (np.einsum("ja,ja->j", a, a) * (r**2 + problem.label_stds**2))
    mean = (p * r) @ a
    return float(second - mean @ mean)
