"""Empirical Wasserstein distances, rate fit, energy-distance test."""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablecouple import wasserstein_metrics
from stablecouple.wasserstein_metrics import (
    DegenerateFitError,
    bootstrap_wp_stderr,
    contraction_rate_fit,
    coupling_wp_upper,
    energy_distance,
    energy_distance_test,
    exact_empirical_wp,
    exact_wp_with_stderr,
)
from stablecouple.stable_noise import isotropic_stable, sample_increment
from stablecouple.streams import derive_stream


def rng_at(index: int) -> np.random.Generator:
    return derive_stream(314159, index)


def brute_force_wp(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Enumerate all assignments; feasible for n <= 7."""
    n = len(x)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.linalg.norm(x[i] - y[perm[i]]) ** p for i in range(n)])
        best = min(best, cost)
    return best ** (1.0 / p)


# ------------------------------ coupling upper --------------------------------


def test_coupling_upper_identical_pairs_zero():
    xs = np.ones((10, 2))
    val, se = coupling_wp_upper(xs, xs, 2.0)
    assert val == 0.0 and se == 0.0


def test_coupling_upper_hand_value():
    xs = np.array([[0.0], [0.0]])
    ys = np.array([[1.0], [3.0]])
    val, _ = coupling_wp_upper(xs, ys, 1.0)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_coupling_upper_dominates_exact():
    rng = rng_at(0)
    for trial in range(25):
        n = 32
        xs = rng.standard_normal((n, 2))
        ys = rng.standard_normal((n, 2)) + 0.5
        p = rng.choice([1.0, 2.0, 3.0])
        upper, _ = coupling_wp_upper(xs, ys, p)
        exact = exact_empirical_wp(xs, ys, p)
        assert upper >= exact - 1e-12


# -------------------------------- exact solver --------------------------------


def test_exact_wp_identical_is_zero():
    pts = rng_at(1).standard_normal((20, 3))
    assert exact_empirical_wp(pts, pts.copy(), 2.0) == pytest.approx(0.0, abs=1e-12)


def test_exact_wp_hand_instance():
    mu = np.array([[0.0], [2.0]])
    nu = np.array([[1.0], [3.0]])
    # sorted pairing costs (1 + 1)/2 -> 1; crossed pairing (9 + 1)/2 -> sqrt(5)
    assert exact_empirical_wp(mu, nu, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_exact_wp_matches_brute_force():
    rng = rng_at(2)
    for n in (2, 3, 5, 7):
        for d in (1, 2):
            xs = rng.standard_normal((n, d))
            ys = rng.standard_normal((n, d))
            for p in (1.0, 2.0):
                got = exact_empirical_wp(xs, ys, p)
                want = brute_force_wp(xs, ys, p)
                assert got == pytest.approx(want, rel=1e-10)


def test_exact_wp_sorting_equals_assignment_path():
    rng = rng_at(3)
    for _ in range(100):
        xs = rng.standard_normal((64, 1))
        ys = rng.standard_normal((64, 1))
        fast = exact_empirical_wp(xs, ys, 2.0)
        # force the generic assignment path by lifting to 2-d with a zero column
        lift = lambda a: np.hstack([a, np.zeros_like(a)])
        slow = exact_empirical_wp(lift(xs), lift(ys), 2.0)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_exact_wp_errors():
    with pytest.raises(ValueError):
        exact_empirical_wp(np.zeros((3, 1)), np.zeros((4, 1)), 1.0)
    with pytest.raises(ValueError):
        exact_empirical_wp(np.zeros((2000, 1)), np.zeros((2000, 1)), 1.0)
    with pytest.raises(ValueError, match="finite"):
        exact_empirical_wp(np.array([[np.nan]]), np.zeros((1, 1)), 1.0)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="p must lie in"):
            exact_empirical_wp(np.zeros((3, 1)), np.ones((3, 1)), p)
        with pytest.raises(ValueError, match="p must lie in"):
            coupling_wp_upper(np.zeros((3, 1)), np.ones((3, 1)), p)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_exact_wp_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    n, d = 12, 2
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, d))
    c = rng.standard_normal((n, d))
    p = 2.0
    dab = exact_empirical_wp(a, b, p)
    dba = exact_empirical_wp(b, a, p)
    assert dab == pytest.approx(dba, rel=1e-12)
    dac = exact_empirical_wp(a, c, p)
    dcb = exact_empirical_wp(c, b, p)
    assert dab <= dac + dcb + 1e-9


def test_exact_wp_monotone_in_p():
    rng = rng_at(4)
    xs = rng.standard_normal((40, 2))
    ys = rng.standard_normal((40, 2)) + 1.0
    vals = [exact_empirical_wp(xs, ys, p) for p in (1.0, 2.0, 4.0)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 1e-11


def test_bootstrap_stderr_positive():
    rng = rng_at(5)
    xs = rng.standard_normal((64, 1))
    ys = rng.standard_normal((64, 1))
    se = bootstrap_wp_stderr(xs, ys, 1.0, rng_at(6), n_boot=40)
    assert se > 0.0


def rank_pairing(xs, ys):
    """sigma pairing x_i with the y of the same rank, as the 1-d sort does."""
    sigma = np.empty(len(xs), dtype=int)
    sigma[np.argsort(xs[:, 0], kind="stable")] = np.argsort(ys[:, 0],
                                                            kind="stable")
    return sigma


@pytest.mark.parametrize("d, p", [(1, 1.0), (2, 2.0), (3, 1.5)])
def test_bootstrap_reuses_cost_bitwise(d, p):
    # the dual plug-in on one fresh solve; rng and n_boot are unused
    xs = rng_at(7).standard_normal((24, d))
    ys = rng_at(8).standard_normal((24, d)) + 0.5
    if d == 1:
        value, u, v = wasserstein_metrics._sorted_wp(xs, ys, p)
    else:
        value, cost, sigma = wasserstein_metrics._assigned_wp(xs, ys, p)
        u, v = wasserstein_metrics._dual_potentials(cost, sigma)
    want = wasserstein_metrics._wp_stderr(u + v, value, p)
    assert np.array_equal(bootstrap_wp_stderr(xs, ys, p, rng_at(9), n_boot=15),
                          want)


def serial_exact_and_stderr(xs, ys, p):
    """The exact value and the dual se from Bellman-Ford on the full cost
    matrix, whatever the dimension; in one dimension sigma pairs the ranks."""
    cost = wasserstein_metrics._pairwise_norms(xs, ys) ** p
    if xs.shape[1] == 1:
        sigma = rank_pairing(xs, ys)
    else:
        sigma = wasserstein_metrics._assigned_wp(xs, ys, p)[2]
    u, v = wasserstein_metrics._dual_potentials(cost, sigma)
    value = exact_empirical_wp(xs, ys, p)
    return value, wasserstein_metrics._wp_stderr(u + v, value, p)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_exact_wp_with_stderr_is_bitwise_serial(d, p):
    # one core call gives the bits of the separate calls; and the se of the
    # Bellman-Ford potentials on the full matrix, bitwise for d >= 2 (the
    # same solve) and to rounding in one dimension (the sorted scans)
    xs = rng_at(10).standard_normal((24, d))
    ys = rng_at(11).standard_normal((24, d)) + 0.5
    got = exact_wp_with_stderr(xs, ys, p)
    assert np.array_equal(got[0], exact_empirical_wp(xs, ys, p))
    assert np.array_equal(bootstrap_wp_stderr(xs, ys, p, derive_stream(12, 0), 15),
                          got[1])
    want = serial_exact_and_stderr(xs, ys, p)
    assert got[0] == want[0]
    if d == 1:
        assert got[1] == pytest.approx(want[1], rel=1e-12)
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("d, p", [(1, 1.0), (1, 2.0), (2, 2.0), (2, 1.0),
                                  (3, 2.0)])
def test_bootstrap_stderr_matches_spread_across_seeds(d, p):
    # coupled pairs, as the wp stage gets them: X heavy-tailed, Y = X plus a
    # small independent shift.  The se must keep each pair together, so its
    # median must match the spread of the exact W_p over independent
    # samples; a resample that splits the pairs overstates it about 25 times.
    # 48 samples, since the spread of a heavy-tailed W_p is itself noisy
    spec = isotropic_stable(d, 1.5)
    exact, se = [], []
    for seed in range(48):
        rng = derive_stream(2718, seed)
        xs = sample_increment(spec, 0.25, rng, size=64)
        ys = xs + 0.1 * rng.standard_normal(xs.shape)
        value, stderr = exact_wp_with_stderr(xs, ys, p)
        exact.append(value)
        se.append(stderr)
    ratio = float(np.median(se)) / float(np.std(exact, ddof=1))
    assert abs(ratio - 1.0) <= 0.25, ratio


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_dual_potentials_certify_the_assignment(d, p):
    # feasible on the full matrix and tight on the optimal pairing; in one
    # dimension the sorted scans also give Bellman-Ford's potentials on the
    # pairing of the ranks, with repeated values and merged pairs x_i = y_i
    rng = derive_stream(31, 10 * d + int(2 * p))
    for n in (2, 7, 40):
        xs = rng.standard_normal((n, d))
        ys = 0.5 * xs + rng.standard_normal((n, d))
        if d == 1:
            xs = np.round(xs, 1)
            ys[::3] = xs[::3]
            value, u, v = wasserstein_metrics._sorted_wp(xs, ys, p)
            cost = wasserstein_metrics._pairwise_norms(xs, ys) ** p
            sigma = rank_pairing(xs, ys)
        else:
            value, cost, sigma = wasserstein_metrics._assigned_wp(xs, ys, p)
            u, v = wasserstein_metrics._dual_potentials(cost, sigma)
        tol = 1e-12 * cost.max()
        assert (u[:, None] + v[None, :] <= cost + tol).all()
        assert np.allclose(u + v[sigma], cost[np.arange(n), sigma],
                           rtol=0.0, atol=tol)
        assert u.sum() + v.sum() == pytest.approx(n * value ** p, rel=1e-12)
        if d == 1:
            bellman_ford = wasserstein_metrics._dual_potentials(cost, sigma)
            assert np.allclose(u, bellman_ford[0], rtol=0.0, atol=tol)
            assert np.allclose(v, bellman_ford[1], rtol=0.0, atol=tol)


def test_dual_rejects_a_non_optimal_assignment(monkeypatch):
    import scipy.optimize

    solve = scipy.optimize.linear_sum_assignment

    def worse(cost):
        rows, cols = solve(cost)
        return rows, np.roll(cols, 1)

    xs = rng_at(17).standard_normal((16, 2))
    ys = rng_at(18).standard_normal((16, 2))
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", worse)
    with pytest.raises(ValueError, match="not optimal"):
        exact_wp_with_stderr(xs, ys, 2.0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_both_stderrs_are_zero_at_the_point_masses(d, p):
    # n = 1000 pairs (x0, y0) at r0 = 0.7, as the wp stage sees t = 0: both
    # se columns are exactly 0, not the rounding noise of an uncentred sd
    x0 = np.full(d, 0.35)
    y0 = np.full(d, -0.35)
    x0[1:] = y0[1:] = 0.0
    xs, ys = np.tile(x0, (1000, 1)), np.tile(y0, (1000, 1))
    assert coupling_wp_upper(xs, ys, p)[1] == 0.0
    assert exact_wp_with_stderr(xs, ys, p)[1] == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dual_stderr_is_zero_without_spread(d):
    # one pair, and the t = 0 point masses, where every pair is (x0, y0);
    # a RuntimeWarning from a 1-sample sd would fail the test
    x0 = rng_at(20).standard_normal(d)
    y0 = x0 + 0.7
    assert exact_wp_with_stderr(x0[None], y0[None], 1.5)[1] == 0.0
    for p in (1.0, 1.5, 2.0):
        value, se = exact_wp_with_stderr(np.tile(x0, (256, 1)),
                                         np.tile(y0, (256, 1)), p)
        assert value > 0.0 and se == 0.0


def test_pooled_solve_error_reaches_caller():
    # |x - y|^3 overflows to inf everywhere, which the exact solve rejects
    xs = np.full((8, 2), 1e150)
    before = threading.active_count()
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as serial:
            exact_empirical_wp(xs, -xs, 3.0)
        with pytest.raises(type(serial.value)):
            exact_wp_with_stderr(xs, -xs, 3.0)
        with pytest.raises(type(serial.value)):
            bootstrap_wp_stderr(xs, -xs, 3.0, rng_at(16), n_boot=5)
    assert threading.active_count() == before


# --------------------------------- rate fit -----------------------------------


def test_rate_fit_exact_exponential():
    t = np.linspace(0.0, 5.0, 26)
    fit = contraction_rate_fit(t, np.exp(-0.7 * t))
    assert fit.lambda_hat == pytest.approx(0.7, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_noisy_exponential():
    rng = rng_at(7)
    t = np.linspace(0.0, 5.0, 50)
    v = 2.0 * np.exp(-1.3 * t) * (1.0 + 0.01 * rng.standard_normal(50))
    fit = contraction_rate_fit(t, v, 0.01 * v)
    assert fit.lambda_hat == pytest.approx(1.3, abs=0.05)
    assert fit.lambda_stderr < 0.05


def test_rate_fit_constant_series():
    t = np.linspace(0.0, 3.0, 10)
    fit = contraction_rate_fit(t, np.full(10, 2.5))
    assert fit.lambda_hat == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_degenerate():
    with pytest.raises(DegenerateFitError):
        contraction_rate_fit([0, 1, 2], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        contraction_rate_fit([0, 1], [1.0, 0.5])


# ------------------------------ energy distance -------------------------------


def test_energy_distance_zero_for_identical():
    x = rng_at(8).standard_normal((200, 2))
    assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_energy_test_accepts_same_law():
    rng = rng_at(9)
    x = rng.standard_normal((800, 2))
    y = rng.standard_normal((800, 2))
    _, p = energy_distance_test(x, y, rng_at(10), n_perm=199)
    assert p > 0.01


def test_energy_test_rejects_shifted_law():
    rng = rng_at(11)
    x = rng.standard_normal((800, 2))
    y = rng.standard_normal((800, 2)) + 0.4
    _, p = energy_distance_test(x, y, rng_at(12), n_perm=199)
    assert p <= 0.01
