"""Test oracles: reference functions that only the tests call.

The energy-distance two-sample test compares the laws of two samples; the
acceptance suite runs it on the coupled jumps' mirror images, and
``test_wasserstein_metrics.py`` checks it on its own.
"""

import numpy as np

from stablecouple.wasserstein_metrics import _pairwise_norms


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| between two samples."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return float(2.0 * _pairwise_norms(x, y).mean() - _pairwise_norms(x, x).mean()
                 - _pairwise_norms(y, y).mean())


def energy_distance_test(x: np.ndarray, y: np.ndarray,
                         rng: np.random.Generator, n_perm: int = 199,
                         max_n: int = 1024) -> tuple[float, float]:
    """Permutation two-sample test based on the energy distance.

    Returns (statistic, p-value).  Samples larger than ``max_n`` per group
    are subsampled (seeded) before the O(n^2) permutation calibration; the
    test stays exact at its level on the subsample.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] > max_n:
        x = x[rng.choice(x.shape[0], max_n, replace=False)]
    if y.shape[0] > max_n:
        y = y[rng.choice(y.shape[0], max_n, replace=False)]
    n, m = x.shape[0], y.shape[0]
    pooled = np.vstack([x, y])
    dmat = _pairwise_norms(pooled, pooled)
    # column k marks group a of labelling k: the observed one, then the
    # permutations; the block sums of D follow from m'Dm, 1'Dm and 1'D1
    marks = np.zeros((n + m, 1 + n_perm))
    marks[:n, 0] = 1.0
    for k in range(1, 1 + n_perm):
        marks[rng.permutation(n + m)[:n], k] = 1.0
    dm = dmat @ marks
    aa = np.einsum("ik,ik->k", marks, dm)
    ab = dm.sum(axis=0) - aa
    bb = dmat.sum() - 2.0 * ab - aa
    stat = 2.0 * ab / (n * m) - aa / (n * n) - bb / (m * m)
    p_value = (1.0 + np.count_nonzero(stat[1:] >= stat[0])) / (1.0 + n_perm)
    return float(stat[0]), float(p_value)
