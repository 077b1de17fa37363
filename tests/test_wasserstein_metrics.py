"""Empirical Wasserstein distances, rate fit, energy-distance test."""

import itertools
import math
import pathlib
import signal
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
    exact_empirical_wp,
    exact_wp_with_stderr,
)
from stablecouple.coupling_engine import read_table
from stablecouple.stable_noise import isotropic_stable
from stablecouple.streams import derive_stream

from oracles import energy_distance, energy_distance_test, sample_increment


_DATA = pathlib.Path(__file__).parent / "data"


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
        value, u, v = wasserstein_metrics._assigned_wp(xs, ys, p)
    want = wasserstein_metrics._wp_stderr(u + v, value, p)
    assert np.array_equal(bootstrap_wp_stderr(xs, ys, p, rng_at(9), n_boot=15),
                          want)


def serial_exact_and_stderr(xs, ys, p):
    """The exact value and the dual se from the shortest-path search on the
    full cost matrix, whatever the dimension; in one dimension sigma pairs
    the ranks and the sorted scans' column potentials weight the search."""
    cost = wasserstein_metrics._pairwise_norms(xs, ys) ** p
    if xs.shape[1] == 1:
        sigma = rank_pairing(xs, ys)
        weights = wasserstein_metrics._sorted_wp(xs, ys, p)[2]
    else:
        sigma, weights = wasserstein_metrics._assignment(cost)
    u, v = wasserstein_metrics._dual_potentials(cost, sigma, weights)
    value = exact_empirical_wp(xs, ys, p)
    return value, wasserstein_metrics._wp_stderr(u + v, value, p)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_exact_wp_with_stderr_is_bitwise_serial(d, p):
    # one core call gives the bits of the separate calls; and the se of the
    # searched potentials on the full matrix, bitwise for d >= 2 (the same
    # solve) and to rounding in one dimension (the sorted scans)
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
    # dimension the sorted scans also give the searched potentials on the
    # pairing of the ranks, with repeated values and merged pairs x_i = y_i.
    # The search's weights do not matter: the solver's column prices, those
    # plus 1 and the returned potentials give the same (u, v) to rounding
    rng = derive_stream(31, 10 * d + int(2 * p))
    for n in (2, 7, 40):
        xs = rng.standard_normal((n, d))
        ys = 0.5 * xs + rng.standard_normal((n, d))
        if d == 1:
            xs = np.round(xs, 1)
            ys[::3] = xs[::3]
        cost = wasserstein_metrics._pairwise_norms(xs, ys) ** p
        if d == 1:
            value, u, v = wasserstein_metrics._sorted_wp(xs, ys, p)
            sigma, prices = rank_pairing(xs, ys), v
        else:
            value, u, v = wasserstein_metrics._assigned_wp(xs, ys, p)
            sigma, prices = wasserstein_metrics._assignment(cost)
            if prices is None:  # the diagonal exit, whose prices are 0
                prices = np.zeros(n)
        tol = 1e-12 * cost.max()
        assert (u[:, None] + v[None, :] <= cost + tol).all()
        assert np.allclose(u + v[sigma], cost[np.arange(n), sigma],
                           rtol=0.0, atol=tol)
        assert u.sum() + v.sum() == pytest.approx(n * value ** p, rel=1e-12)
        for weights in (prices, prices + 1.0, v):
            searched = wasserstein_metrics._dual_potentials(cost, sigma, weights)
            assert np.allclose(u, searched[0], rtol=0.0, atol=tol)
            assert np.allclose(v, searched[1], rtol=0.0, atol=tol)


def test_dual_rejects_a_non_optimal_assignment(monkeypatch):
    solve = wasserstein_metrics._assignment

    def worse(cost):
        sigma, v = solve(cost)
        return np.roll(sigma, 1), v

    xs = rng_at(17).standard_normal((16, 2))
    ys = rng_at(18).standard_normal((16, 2))
    monkeypatch.setattr(wasserstein_metrics, "_assignment", worse)
    with pytest.raises(ValueError, match="not optimal"):
        exact_wp_with_stderr(xs, ys, 2.0)


def solver_instance(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n x n cost matrix of one test family; the last two have ties."""
    if family == "cauchy_d3_p1":
        return wasserstein_metrics._pairwise_norms(rng.standard_cauchy((n, 3)),
                                                   rng.standard_cauchy((n, 3)))
    if family == "integer":
        return rng.integers(0, 3, (n, n)).astype(float)
    x = rng.standard_normal((n, 2))
    if family == "gauss":
        y = rng.standard_normal((n, 2)) + 0.5
    elif family == "half_merged":  # coupled pairs, half of them merged
        y = x + 0.3 * rng.standard_normal((n, 2))
        y[::2] = x[::2]
    else:  # the t = 0 point masses
        x, y = np.tile([0.35, 0.0], (n, 1)), np.tile([-0.35, 0.0], (n, 1))
    return wasserstein_metrics._pairwise_norms(x, y) ** 2


@pytest.mark.parametrize("family, n", [
    ("gauss", 1), ("gauss", 2), ("gauss", 3), ("gauss", 64), ("gauss", 300),
    ("cauchy_d3_p1", 200), ("half_merged", 200), ("point_masses", 100),
    ("integer", 2), ("integer", 3), ("integer", 40), ("integer", 120)])
def test_assignment_matches_scipy(family, n):
    # scipy's solver is the reference; sigma must be the same where the
    # optimum is unique, and cost the same where ties make it not
    from scipy.optimize import linear_sum_assignment

    rng = rng_at(40 + n)
    rows = np.arange(n)
    for _ in range(3 if n > 100 else 10):
        cost = solver_instance(family, n, rng)
        sigma, v = wasserstein_metrics._assignment(cost)
        reference = linear_sum_assignment(cost)[1]
        assert np.array_equal(np.sort(sigma), rows)
        assert cost[rows, sigma].sum() == pytest.approx(
            cost[rows, reference].sum(), rel=1e-12, abs=0.0)
        if family not in ("point_masses", "integer"):
            assert np.array_equal(sigma, reference)
        wasserstein_metrics._dual_potentials(cost, sigma, v)


def test_raised_prices_leave_few_rows_to_the_finish(monkeypatch):
    # a winning bid leaves its row epsilon above its cheapest column; without
    # the raises before the finish about half of these 256 coupled pairs
    # (123) are released and each placed by its own augmenting path
    from scipy.optimize import linear_sum_assignment

    cost = solver_instance("half_merged", 256, rng_at(296))
    augment = wasserstein_metrics._augment
    placed = []

    def counted(cost, v, sigma, owner, i):
        placed.append(i)
        return augment(cost, v, sigma, owner, i)

    monkeypatch.setattr(wasserstein_metrics, "_augment", counted)
    sigma, v = wasserstein_metrics._assignment(cost)
    assert 0 < len(placed) <= 2 * wasserstein_metrics._FREE_END
    assert np.array_equal(sigma, linear_sum_assignment(cost)[1])
    wasserstein_metrics._dual_potentials(cost, sigma, v)


def test_raise_sweeps_stop_once_no_price_moves(monkeypatch):
    # the ot_d2 benchmark's seed 11 at t = 0.125, as the engine drew it from
    # a single random stream (x0, x1, y0, y1 per path, pinned so the instance
    # does not move with the engine's streams): after five sweeps one row
    # keeps a slack of about 7e-18 whose raise rounds away (v + s == v), so
    # every later sweep would repeat the one before; with the cap lifted the
    # sweeps must still end, with the default cap's sigma and v
    pos = read_table(_DATA / "ot_d2_seed11_t0125.csv")
    assert pos.shape == (256, 4)
    cost = wasserstein_metrics._power(
        wasserstein_metrics._pairwise_norms(pos[:, :2], pos[:, 2:]), 2.0)
    want = wasserstein_metrics._assignment(cost)
    monkeypatch.setattr(wasserstein_metrics, "_RAISE_SWEEPS", 10 ** 6)

    def too_long(*_):
        raise TimeoutError("the raise sweeps ran to the lifted cap")

    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(5)
    try:
        got = wasserstein_metrics._assignment(cost)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("d", [2, 3])
def test_diagonal_exit_takes_no_search(d, monkeypatch):
    # the t = 0 point masses and a fully merged ensemble: the coupled
    # pairing is optimal as it stands, and its potentials (the diagonal and
    # 0) are those the search gives from the prices 0, bit for bit
    x0 = np.zeros(d)
    x0[0] = 0.35
    masses = np.tile(x0, (64, 1)), np.tile(-x0, (64, 1))
    xs = rng_at(21).standard_cauchy((64, d))
    merged = xs, xs.copy()
    for p in (1.0, 2.0):
        for x, y in (masses, merged):
            cost = wasserstein_metrics._pairwise_norms(x, y) ** p
            n = len(cost)
            searched = wasserstein_metrics._dual_potentials(
                cost, np.arange(n), np.zeros(n))
            value, u, v = wasserstein_metrics._assigned_wp(x, y, p)
            assert np.array_equal(u, searched[0])
            assert np.array_equal(v, searched[1])
            assert np.array_equal(np.signbit(v), np.signbit(searched[1]))
    want = [exact_wp_with_stderr(x, y, 2.0) for x, y in (masses, merged)]

    def no_search(*args):
        raise AssertionError("the diagonal exit ran a search")

    monkeypatch.setattr(wasserstein_metrics, "_search", no_search)
    got = [exact_wp_with_stderr(x, y, 2.0) for x, y in (masses, merged)]
    assert got == want
    assert got[0] == (0.7, 0.0) and got[1] == (0.0, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
def test_pairwise_norms_is_bitwise_linalg_norm(d):
    # squared planes added in order below d = 8, the pairwise row sum from
    # d = 8 on: both the bits of numpy's norm of the (n, m, d) differences
    rng = rng_at(60 + d)
    a, b = rng.standard_cauchy((37, d)), rng.standard_cauchy((23, d))
    for x, y in ((a, b), (a, a)):
        got = wasserstein_metrics._pairwise_norms(x, y)
        want = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_pairwise_norms_peak_memory():
    # the (d, n, m) differences squared in place, plus the one plane of
    # their sum: squaring a copy of them held 2.01 MiB at 256^2, d = 2
    import tracemalloc

    rng = rng_at(70)
    a, b = rng.standard_cauchy((256, 2)), rng.standard_cauchy((256, 2))
    plane = 256 * 256 * 8
    tracemalloc.start()
    try:
        wasserstein_metrics._pairwise_norms(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * plane + 64 * 1024


@pytest.mark.parametrize("d", [1, 2])
def test_overflowing_costs_raise_in_every_dimension(d):
    # |x - y|^3 overflows for these points; no warning leaks before the error
    x = np.linspace(1e150, 2e150, 8)[:, None] * np.eye(1, d)
    for exact in (exact_empirical_wp, exact_wp_with_stderr):
        with pytest.raises(ValueError,
                           match=r"^\|x - y\|\^3 overflows for these samples$"):
            exact(x, -x, 3.0)


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
    assert fit.lambda_stderr == pytest.approx(0.0, abs=1e-10)


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


def test_energy_test_matches_the_permutation_loop():
    # the batched statistics against one block gather per labelling, over
    # the same permutations in the same order, with groups of unequal size
    rng = rng_at(13)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((30, 2)) + 0.2
    stat, p = energy_distance_test(x, y, rng_at(14), n_perm=99)
    pooled = np.vstack([x, y])
    dmat = wasserstein_metrics._pairwise_norms(pooled, pooled)

    def stat_for(idx_a):
        a = np.zeros(70, dtype=bool)
        a[idx_a] = True
        return (2.0 * dmat[np.ix_(a, ~a)].mean() - dmat[np.ix_(a, a)].mean()
                - dmat[np.ix_(~a, ~a)].mean())

    observed = stat_for(np.arange(40))
    draws = rng_at(14)
    count = sum(stat_for(draws.permutation(70)[:40]) >= observed
                for _ in range(99))
    assert stat == pytest.approx(observed, rel=0.0, abs=1e-12)
    assert p == (1.0 + count) / 100.0
