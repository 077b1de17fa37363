"""Reflection algebra, coupled jumps, drift steps, coupled simulation."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stablecouple.coupling_engine import (
    DriftBlowupError,
    _bridge_exits,
    _drift_flow,
    EventBudgetError,
    ExcessComponent,
    SchemeConfig,
    _WINDOW,
    _mirror,
    _mirrored_kick,
    coupled_jump,
    lyapunov_decay_series,
    read_positions_csv,
    simulate_coupled_ensemble,
    write_paths_csv,
    write_positions_csv,
    write_table,
)
from stablecouple.drift_models import (
    DriftCondition,
    DriftField,
    linear_drift,
    monomial_drift,
    power_potential_drift,
)
from stablecouple.lyapunov import build_lyapunov
from stablecouple.stable_noise import _rownorm, decompose, isotropic_stable
from stablecouple.streams import derive_stream


def rng_at(index: int) -> np.random.Generator:
    return derive_stream(424242, index)


# ------------------------------- reflection ----------------------------------


def mirror(x, y, z):
    """``_mirror(z, x - y, |x - y|)`` on rows, the call ``coupled_jump`` makes."""
    diff = np.atleast_2d(x - y)
    return _mirror(np.atleast_2d(z), diff, _rownorm(diff))


def test_reflect_examples():
    x, y = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert np.allclose(mirror(x, y, np.array([0.0, 1.0])), [0.0, 1.0])
    assert np.allclose(mirror(x, y, np.array([1.0, 0.0])), [-1.0, 0.0])


finite_vec = arrays(np.float64, 3, elements=st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(x=finite_vec, y=finite_vec, z=finite_vec)
def test_reflect_properties(x, y, z):
    # the engine mirrors only a jump with delta <= |z| <= a |x - y|, so
    # never at a vanishing separation
    assume(np.linalg.norm(x - y) > 1e-100)
    phi = mirror(x, y, z)[0]
    # involution
    assert np.allclose(mirror(x, y, phi)[0], z, atol=1e-9)
    # isometry
    assert np.linalg.norm(phi) == pytest.approx(np.linalg.norm(z), rel=1e-12,
                                                abs=1e-12)
    e = x - y
    # z + phi(z) orthogonal to x - y; z - phi(z) parallel to it
    assert abs(float((z + phi) @ e)) <= 1e-9 * (1.0 + np.linalg.norm(z)) * (
        1.0 + np.linalg.norm(e))
    diff = z - phi
    cross = np.cross(diff, e) if len(e) == 3 else None
    if cross is not None:
        assert np.linalg.norm(cross) <= 1e-6 * (1.0 + np.linalg.norm(diff)) * (
            1.0 + np.linalg.norm(e))


def test_reflect_batched_matches_loop():
    rng = rng_at(0)
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal((40, 3))
    zs = rng.standard_normal((40, 3))
    batch = mirror(xs, ys, zs)
    for i in range(40):
        assert np.allclose(batch[i], mirror(xs[i], ys[i], zs[i])[0], atol=1e-12)


# ------------------------------ coupled jump ---------------------------------


def jump_round(x, y, z, a, l0, merged=None):
    """One event round of the engine's coupled jump on rows (x, y, z)."""
    x, y, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, y, z))
    if merged is None:
        merged = np.zeros(len(z), dtype=bool)
    return coupled_jump(x, y, z, np.linalg.norm(z, axis=1), merged, a, l0)


def test_coupled_jump_synchronous_when_large_z():
    x, y = np.array([0.3, 0.0]), np.array([0.0, 0.0])
    z = np.array([1.0, 0.0])  # |z| > a |x-y|
    dx, dy = jump_round(x, y, z, a=0.25, l0=1.0)
    assert np.allclose(dx, z) and np.allclose(dy, z)


def test_coupled_jump_synchronous_when_far_apart():
    x, y = np.array([3.0, 0.0]), np.array([0.0, 0.0])
    z = np.array([0.01, 0.0])
    dx, dy = jump_round(x, y, z, a=0.25, l0=1.0)
    assert np.allclose(dx, z) and np.allclose(dy, z)


def test_coupled_jump_merged_pair_synchronous():
    # the same small jump reflects the unmerged row and not the merged one,
    # nor an unmerged row at separation 0, where no jump fits in the band
    x = np.array([[0.3, 0.0], [0.3, 0.0], [0.2, 0.1]])
    y = np.array([[0.0, 0.0], [0.0, 0.0], [0.2, 0.1]])
    z = np.array([[0.01, 0.0], [0.01, 0.0], [0.01, 0.0]])
    dx, dy = jump_round(x, y, z, a=0.25, l0=1.0,
                        merged=np.array([True, False, False]))
    assert np.array_equal(dx[0], z[0]) and np.array_equal(dy[0], z[0])
    assert np.array_equal(dx[1], z[1]) and np.array_equal(dy[1], -z[1])
    assert np.array_equal(dx[2], z[2]) and np.array_equal(dy[2], z[2])


def test_coupled_jump_distance_algebra():
    # X takes z and Y its mirror, so the separation moves to |r + 2 <e, z>|;
    # oracle is the direct vector computation
    rng = rng_at(4)
    x = rng.standard_normal((200, 3))
    y = x + 0.4 * rng.standard_normal((200, 3))
    r = np.linalg.norm(x - y, axis=1)
    near = r <= 1.0
    x, y, r = x[near], y[near], r[near]
    assert len(r) >= 150
    e = (x - y) / r[:, None]
    z = 0.2 * r[:, None] * rng.standard_normal(x.shape)
    z *= np.minimum(1.0, 0.45 * r / np.linalg.norm(z, axis=1))[:, None]
    dx, dy = jump_round(x, y, z, a=0.5, l0=1.0)
    r_new = np.linalg.norm(x + dx - y - dy, axis=1)
    zdot = np.einsum("ij,ij->i", e, z)
    assert np.array_equal(dx, z)
    assert np.allclose(r_new, np.abs(r + 2 * zdot), rtol=1e-9, atol=1e-12)


# -------------------------------- drift steps --------------------------------


def test_step_drift_linear_exact():
    field = linear_drift(1.0, 1)
    x = _drift_flow(field, np.array([[1.0]]), np.array([2.0]))[0]
    assert x[0] == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_step_drift_zero_field():
    field = DriftField(evaluate=lambda x: np.zeros_like(x), d=2, label="null")
    x = _drift_flow(field, np.array([[1.0, -2.0]]), np.array([0.7]))[0]
    assert np.allclose(x, [1.0, -2.0])


def test_step_drift_riccati():
    field = power_potential_drift(1.5, 1)
    x = _drift_flow(field, np.array([[1.0]]), np.array([0.1]))[0]
    assert x[0] == pytest.approx(1.0 / 1.3, rel=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rownorm_is_bitwise_linalg_norm(d):
    # zeros, subnormals (whose squares underflow), overflowing squares,
    # infinities and nans, in every combination, plus ordinary rows
    special = [0.0, -0.0, 5e-324, 2.2e-310, 1e-160, 1.0, -3.5, 1e300, -1e300,
               np.inf, -np.inf, np.nan]
    rows = np.array(list(itertools.product(special, repeat=d)))
    rows = np.vstack([rows, rng_at(40 + d).standard_normal((64, d))])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(rows, axis=1)
        assert np.array_equal(_rownorm(rows), want, equal_nan=True)
        assert np.array_equal(_rownorm(rows, keepdims=True),
                              np.linalg.norm(rows, axis=1, keepdims=True),
                              equal_nan=True)
        stack = rows.reshape(2, -1, d)
        assert np.array_equal(_rownorm(stack), np.linalg.norm(stack, axis=-1),
                              equal_nan=True)


@pytest.mark.parametrize("field", [power_potential_drift(1.5, 2),
                                   monomial_drift(2.0, 1.0, 2),
                                   linear_drift(1.0, 2)],
                         ids=["power_potential", "monomial", "linear"])
def test_stacked_drift_flow_is_bitwise_two_flows(field):
    # the engine flows X and the live Y rows in one call; rows never
    # interact, so the stacked call must give each row its own bits
    rng = rng_at(50)
    a = rng.standard_normal((7, 2)) * np.array([[3.0], [0.1], [1.0], [40.0],
                                                [1.0], [0.5], [2.0]])
    b = rng.standard_normal((5, 2))
    ha = rng.uniform(1e-4, 0.03, 7)          # every row active at first
    hb = np.array([0.0, 2e-3, 0.0, 0.017, 6e-3])  # partly active from the start
    for hx, hy in ((ha, ha[:5]), (ha, hb)):
        both = _drift_flow(field, np.concatenate((a, b)),
                           np.concatenate((hx, hy)))
        assert np.array_equal(both[:7], _drift_flow(field, a, hx))
        assert np.array_equal(both[7:], _drift_flow(field, b, hy))
    assert np.array_equal(_drift_flow(field, b, hb)[hb == 0.0], b[hb == 0.0])


def test_step_drift_stable_far_from_origin():
    # a heavy-tailed jump can leave a path far out where the superlinear
    # drift is stiff; the stability-capped steps must contract it back
    # (here onto the Riccati collapse 1/(3 t)) instead of overflowing
    field = power_potential_drift(1.5, 1)
    x = _drift_flow(field, np.array([[1e8]]), np.array([0.01]))[0]
    assert np.isfinite(x).all()
    assert x[0] == pytest.approx(1.0 / (3.0 * 0.01), rel=1e-4)


def test_heavy_tail_simulation_stays_finite():
    # regression: alpha = 0.9 routinely throws paths far out; the run must
    # finish without tripping the non-finite guard
    spec = isotropic_stable(1, 0.9)
    field = power_potential_drift(1.5, 1)
    cond = dataclasses.replace(field.claimed_condition, k1=0.125, l0=0.125)
    lyap = build_lyapunov(spec, cond)
    grid = np.linspace(0.0, 1.0, 5)
    ens = simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                    spec, lyap, SchemeConfig(), 1.0, grid, 64,
                                    seed=5)
    assert np.isfinite(ens.xs).all() and np.isfinite(ens.ys).all()


# ------------------------------ hitting bound --------------------------------


def test_hitting_time_bound_hand_values():
    # under dr = -K2 r^(theta-1) with theta = 3, K2 = 1 the separation falls
    # from 2 to L0 = 1 at t = 0.5, within the cap t0 = 1; the odd monomial
    # drift -|x| x integrates the same ODE in one dimension
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    assert cond.hitting_cap == pytest.approx(1.0, rel=1e-12)
    field = monomial_drift(1.0, 1.0, 1)
    r = _drift_flow(field, np.array([[2.0]]), np.array([0.5]))[0, 0]
    assert r == pytest.approx(cond.l0, rel=1e-8)


def test_hitting_time_bound_limits():
    # the cap holds from any start: r(t0) = r0 / (1 + r0 t0) stays below
    # L0 and tends to it as r0 grows; the engine's flow from r0 = 1e9 lands
    # there within its stiff-start error
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    t0 = cond.hitting_cap
    field = monomial_drift(1.0, 1.0, 1)
    r = _drift_flow(field, np.array([[1e9]]), np.array([t0]))[0, 0]
    assert r == pytest.approx(cond.l0, rel=1e-5)


def test_hitting_time_bound_domain():
    # no finite cap without superlinear contraction
    cond2 = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    assert cond2.hitting_cap is None


# ----------------------------- coupled simulation ----------------------------


def _example_model():
    spec = isotropic_stable(1, 1.5)
    field = power_potential_drift(1.5, 1)
    cond = field.claimed_condition
    lyap = build_lyapunov(spec, cond)
    return spec, field, cond, lyap


def test_equal_start_is_merged_immediately():
    spec, field, _, lyap = _example_model()
    grid = np.linspace(0.0, 0.5, 6)
    ens = simulate_coupled_ensemble(np.array([0.4]), np.array([0.4]), field,
                                    spec, lyap, SchemeConfig(), 0.5, grid, 4,
                                    seed=7)
    assert ens.merged.all()
    assert np.array_equal(ens.xs, ens.ys)


def test_merge_is_absorbing():
    spec, field, _, lyap = _example_model()
    cfg = SchemeConfig(eps_couple=5e-2)  # generous threshold to force merges
    grid = np.linspace(0.0, 3.0, 31)
    ens = simulate_coupled_ensemble(np.array([0.1]), np.array([-0.1]), field,
                                    spec, lyap, cfg, 3.0, grid, 128, seed=11)
    merged = ens.merged
    for i in range(merged.shape[0]):
        idx = np.nonzero(merged[i])[0]
        if idx.size:
            assert merged[i, idx[0]:].all()
            assert np.array_equal(ens.xs[i, idx[0]:], ens.ys[i, idx[0]:])
    assert merged[:, -1].any()


def test_determinism_same_seed():
    spec, field, _, lyap = _example_model()
    grid = np.linspace(0.0, 0.5, 3)
    a = simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                  spec, lyap, SchemeConfig(), 0.5, grid, 64,
                                  seed=99)
    b = simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                  spec, lyap, SchemeConfig(), 0.5, grid, 64,
                                  seed=99)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.merged, b.merged)


def test_synchronous_difference_is_drift_ode():
    # lyap=None is synchronous: every jump and the small-jump proxy cancel in
    # the difference, so x - y follows the pair drift ODE; linear drift solves
    # it in closed form
    spec = isotropic_stable(1, 1.5)
    field = linear_drift(1.0, 1)
    cfg = SchemeConfig()
    grid = np.linspace(0.0, 3.0, 13)
    ens = simulate_coupled_ensemble(np.array([0.5]), np.array([-0.5]), field,
                                    spec, None, cfg, 3.0, grid, 32, seed=5)
    want = 1.0 * np.exp(-grid)
    for i in range(32):
        assert np.allclose(ens.r[i], want, rtol=1e-7, atol=1e-10)


def test_synchronous_phase_riccati_envelope():
    # r0 > L0 keeps the coupling synchronous; for the odd monomial drift the
    # centered pair is the slowest-contracting configuration, so the Riccati
    # solution 1/(t + 1/r0) is a pathwise upper envelope until L0 is hit
    spec = isotropic_stable(1, 1.5)
    field = monomial_drift(2.0, 1.0, 1)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    lyap = build_lyapunov(spec, cond)
    grid = np.linspace(0.0, 0.6, 121)
    ens = simulate_coupled_ensemble(np.array([1.0]), np.array([-1.0]), field,
                                    spec, lyap, SchemeConfig(), 0.6, grid, 16,
                                    seed=31)
    envelope = 1.0 / (grid + 0.5)
    r = ens.r
    crossings = 0
    for i in range(16):
        # grid values only see window boundaries: near L0 a path can dip
        # below mid-window and bounce back on a reflected jump of relative
        # size up to 2a, so the crossing is asserted with that allowance
        by_half = grid <= 0.5 + 0.03
        assert r[i][by_half].min() <= 1.0 + 2.5 * 0.025
        crossings += bool((r[i] <= 1.0).any())
        # strictly above the interface the phase is purely synchronous:
        # continuous, nonincreasing, below the Riccati envelope
        strict = r[i] > 1.1
        band = strict[:-1] & strict[1:]
        assert np.all(r[i][strict] <= envelope[strict] * (1 + 1e-7))
        assert np.all(np.diff(r[i])[band] <= 1e-12)
    assert crossings >= 13


def test_marginal_ensemble_matches_exact_increment_law():
    # pure-noise marginal (zero drift): scheme output vs the exact sampler
    from stablecouple.stable_noise import sample_increment

    spec = isotropic_stable(1, 1.5)
    field = DriftField(evaluate=lambda x: np.zeros_like(x), d=1, label="null")
    grid = np.array([0.0, 1.0])
    x0 = np.array([0.0])
    xs = simulate_coupled_ensemble(x0, x0, field, spec, None, SchemeConfig(),
                                   1.0, grid, 4000, seed=21).xs
    exact = sample_increment(spec, 1.0, rng_at(9), size=4000)[:, 0]
    got = xs[:, 1, 0]
    for q in (0.5, 1.0, 2.0):
        ca, cb = np.cos(q * got), np.cos(q * exact)
        se = math.sqrt(ca.var(ddof=1) / len(ca) + cb.var(ddof=1) / len(cb))
        assert abs(ca.mean() - cb.mean()) < 4.0 * se


def test_excess_component_cancels_in_difference():
    spec = isotropic_stable(1, 1.5)
    field = linear_drift(1.0, 1)
    excess = ExcessComponent(rate=3.0,
                             sampler=lambda rng, n: rng.uniform(-1, 1, (n, 1)))
    grid = np.linspace(0.0, 1.0, 5)
    ens = simulate_coupled_ensemble(np.array([2.0]), np.array([1.0]), field,
                                    spec, None, SchemeConfig(), 1.0, grid, 16,
                                    seed=3, excess=excess)
    want = 1.0 * np.exp(-grid)
    for i in range(16):
        assert np.allclose(ens.r[i], want, rtol=1e-7, atol=1e-10)


_NULL_FIELD = DriftField(evaluate=lambda x: np.zeros_like(x), d=1, label="null")


def _one_window(monkeypatch, r0: float, lyap, n: int = 20_000):
    """One window of the engine's length from (r0/2, -r0/2) under zero drift: the
    ensemble, and the next draws of the engine's stream after the run."""
    import stablecouple.coupling_engine as engine

    streams = []

    def spy(seed, index):
        streams.append(derive_stream(seed, index))
        return streams[-1]

    monkeypatch.setattr(engine, "derive_stream", spy)
    h = engine._WINDOW
    ens = simulate_coupled_ensemble(np.array([0.5 * r0]), np.array([-0.5 * r0]),
                                    _NULL_FIELD, isotropic_stable(1, 1.5), lyap,
                                    SchemeConfig(), h, np.array([0.0, h]), n,
                                    seed=29)
    return ens, streams[0].random(4).tolist()


def test_mirrored_band_merges_at_the_bridge_crossing_rate(monkeypatch):
    # zero drift and a r0 < delta_floor: no explicit jump reflects and r
    # stays r0 until the window end, where the mirrored band moves it as a
    # Brownian motion of variance 4 var_band h, which hits 0 within the
    # window with probability 2 Phi(-r0 / (2 sqrt(var_band h)))
    spec, _, _, lyap = _example_model()
    cfg = SchemeConfig()
    r0 = 0.05
    assert r0 <= lyap.l0 and lyap.a * r0 < cfg.delta_floor
    ens, _ = _one_window(monkeypatch, r0, lyap)
    sd = math.sqrt(decompose(spec, lyap.a * r0).small_var_per_coord * _WINDOW)
    want = math.erfc(r0 / (2.0 * sd) / math.sqrt(2.0))
    n = ens.n_paths
    got = ens.merged[:, -1].mean()
    assert 0.1 < want < 0.5
    assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n)
    assert np.array_equal(ens.xs[ens.merged[:, -1], -1], ens.ys[ens.merged[:, -1], -1])


def test_bridge_exits_complete_the_double_barrier_law():
    # P(first exit at 0) + P(first exit at l0) + P(no exit) = 1, with the
    # no-exit probability from the classical image sum over k in Z of
    # phi(c + 2 k l0) - phi(ra + rb + 2 k l0), c = rb - ra; the two exits
    # swap under r -> l0 - r; a far barrier leaves the one-barrier law
    l0 = 1.0
    ra, rb = np.meshgrid([0.05, 0.3, 0.5, 0.9, 1.0], [-0.5, 0.0, 0.1, 0.5, 0.95, 1.0, 1.7])
    ra, rb = ra.ravel(), rb.ravel()
    for var in (0.01, 0.3, 1.0, 4.0):
        v = np.full(ra.shape, var)
        p0, pl = _bridge_exits(ra, rb, l0, v)
        k = np.arange(-40, 41)[:, None]
        phi = lambda z: np.exp(-z * z / (2.0 * var))
        stay = ((phi(rb - ra + 2 * k * l0) - phi(ra + rb + 2 * k * l0)).sum(axis=0)
                / phi(rb - ra))
        stay = np.where((rb > 0.0) & (rb < l0), stay, 0.0)
        assert np.allclose(p0 + pl + stay, 1.0, rtol=0.0, atol=1e-13)
        inner = ra < l0
        q0, ql = _bridge_exits(l0 - ra[inner], l0 - rb[inner], l0, v[inner])
        assert np.allclose(q0, pl[inner], atol=1e-15)
        assert np.allclose(ql, p0[inner], atol=1e-15)
    p0, pl = _bridge_exits(np.array([0.05]), np.array([0.1]), 50.0, np.array([0.01]))
    assert p0[0] == pytest.approx(math.exp(-2.0 * 0.05 * 0.1 / 0.01), rel=1e-14)
    assert pl[0] == 0.0


def test_mirrored_kick_stops_at_l0_and_keeps_y_gaussian():
    # the band's separation leaves (0, L0) through L0 with probability about
    # 2 Phi(-(L0 - r_a) / (2 sd)); such a pair ends exactly at L0, never above,
    # and y's kick is still N(0, var I) along and across x - y
    n, l0, ra, var = 20_000, 1.0, 0.9, 0.01
    rng = np.random.default_rng(41)
    x = np.zeros((n, 2))
    y = np.tile([-ra * 0.6, -ra * 0.8], (n, 1))
    y0 = y.copy()
    merged = np.zeros(n, dtype=bool)
    _mirrored_kick(x, y, np.arange(n), np.full(n, var), l0, merged, rng)
    r = _rownorm(x - y)
    assert not merged.any()
    assert r.max() <= l0 * (1.0 + 1e-12)
    at_l0 = np.abs(r - l0) <= 1e-12
    want = math.erfc((l0 - ra) / (2.0 * math.sqrt(var)) / math.sqrt(2.0))
    assert abs(at_l0.mean() - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n)
    e = np.array([0.6, 0.8])
    dy = y - y0
    for comp in (dy @ e, dy @ np.array([-0.8, 0.6])):
        z = comp / math.sqrt(var)
        for q in (-1.5, -0.5, 0.0, 0.5, 1.5):
            p = 0.5 * math.erfc(-q / math.sqrt(2.0))
            assert abs((z <= q).mean() - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_band_draws_nothing_outside_l0_or_without_profile(monkeypatch):
    # no pair has the band beyond L0 (zero drift keeps r = r0) or with
    # lyap=None, so those runs end the stream at the same place and the
    # ensemble beyond L0 equals the synchronous one
    _, _, _, lyap = _example_model()
    far = 2.0 * lyap.l0
    ens_far, next_far = _one_window(monkeypatch, far, lyap, n=256)
    sync_far, next_sync_far = _one_window(monkeypatch, far, None, n=256)
    _, next_sync_near = _one_window(monkeypatch, 0.05, None, n=256)
    _, next_band = _one_window(monkeypatch, 0.05, lyap, n=256)
    assert next_far == next_sync_far == next_sync_near
    assert _ensemble_digest(ens_far) == _ensemble_digest(sync_far)
    assert next_band != next_far  # the band rows draw their variates
    # and lyap=None draws what the engine drew before the band existed: at
    # the former default floor 2e-3 the synchronous golden has the digest of
    # the engine without the band (with the Lévy constant from math.lgamma)
    old_floor = _golden_synchronous_d1(SchemeConfig(delta_floor=2e-3))
    assert _ensemble_digest(old_floor) == (
        "19a04c797b45a2179fdd05ee1a69ff73b8cd246e2dc93719e0deefccb2add985")


def _ensemble_digest(ens) -> str:
    h = hashlib.sha256()
    for arr in (ens.times, ens.xs, ens.ys, ens.merged):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _golden_reflecting_d1():
    # reflection with a wide merge threshold: 59 of 64 pairs merge by t = 1
    spec, field, _, lyap = _example_model()
    return simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                     spec, lyap, SchemeConfig(eps_couple=5e-2),
                                     1.0, np.linspace(0.0, 1.0, 5), 64, seed=17)


def _golden_synchronous_d1(cfg=SchemeConfig()):
    spec, field, _, _ = _example_model()
    excess = ExcessComponent(rate=3.0,
                             sampler=lambda rng, n: rng.uniform(-1, 1, (n, 1)))
    return simulate_coupled_ensemble(np.array([0.5]), np.array([-0.5]), field,
                                     spec, None, cfg, 1.0,
                                     np.linspace(0.0, 1.0, 5), 64, seed=5,
                                     excess=excess)


def _golden_merging_d2():
    # 225 of 300 pairs merge by t = 0.5, so the merge step and the rows of
    # merged pairs inside an event round are exercised
    spec = isotropic_stable(2, 1.7)
    field = linear_drift(1.0, 2)
    lyap = build_lyapunov(spec, field.claimed_condition)
    x0 = np.array([0.2, 0.0])
    return simulate_coupled_ensemble(x0, -x0, field, spec, lyap,
                                     SchemeConfig(eps_couple=0.15), 0.5,
                                     np.linspace(0.0, 0.5, 6), 300, seed=3)


@pytest.mark.parametrize("make, merged_at_end, sha256", [
    (_golden_reflecting_d1, 59,
     "634048cbfd2ec8418180e2a38ea4f8698dc10b1c551125ecb2571acba322cc9a"),
    (_golden_synchronous_d1, 0,
     "0d9590ec156aedba880fb0378a4d33227ee7f4d243896f968a0c1c8b0e945709"),
    (_golden_merging_d2, 225,
     "539d314c916fc6a468e9030c351b0f235f090a1762743becd6e73647aa07027b"),
], ids=["reflecting_d1", "synchronous_d1", "merging_d2"])
def test_ensemble_golden_digests(make, merged_at_end, sha256):
    # times, xs, ys and merged pinned bitwise (recorded with Python 3.11,
    # numpy 2.4 and scipy 1.17 on x86-64): a change to the engine's hot path
    # must not move a bit of any of them
    ens = make()
    assert int(ens.merged[:, -1].sum()) == merged_at_end
    assert _ensemble_digest(ens) == sha256


@pytest.mark.parametrize("n_paths", [0, -1])
def test_nonpositive_n_paths_rejected(n_paths):
    spec, field, _, lyap = _example_model()
    with pytest.raises(ValueError, match="n_paths"):
        simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                  spec, lyap, SchemeConfig(), 0.5,
                                  np.array([0.0, 0.5]), n_paths, seed=1)


def test_event_budget_guard():
    # delta_floor = 1e-7 puts about 8e11 expected explicit jumps on 64 paths
    # over t = 1: the run is refused before the drift is evaluated once
    spec, field, _, lyap = _example_model()
    calls = []

    def counted(x):
        calls.append(len(x))
        return field.evaluate(x)

    watched = dataclasses.replace(field, evaluate=counted)
    grid = np.array([0.0, 1.0])
    with pytest.raises(EventBudgetError, match="budget"):
        simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), watched,
                                  spec, lyap, SchemeConfig(delta_floor=1e-7),
                                  1.0, grid, 64, seed=1)
    assert calls == []


def test_nan_guard():
    spec = isotropic_stable(1, 1.5)
    bad = DriftField(evaluate=lambda x: x * np.inf, d=1, label="blowup")
    grid = np.array([0.0, 0.1])
    with pytest.raises(DriftBlowupError):
        simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), bad,
                                  spec, None, SchemeConfig(), 0.1, grid, 4,
                                  seed=1)


def test_decay_series_zero_at_equal_start():
    spec, field, _, lyap = _example_model()
    grid = np.linspace(0.0, 0.5, 6)
    ens = simulate_coupled_ensemble(np.array([0.4]), np.array([0.4]), field,
                                    spec, lyap, SchemeConfig(), 0.5, grid, 32,
                                    seed=2)
    series = lyapunov_decay_series(ens, lyap)
    assert np.allclose(series.mean, 0.0)
    assert np.allclose(series.stderr, 0.0)


def test_decay_series_start_value_deterministic():
    spec, field, _, lyap = _example_model()
    grid = np.linspace(0.0, 0.5, 3)
    ens = simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                    spec, lyap, SchemeConfig(), 0.5, grid, 64,
                                    seed=8)
    series = lyapunov_decay_series(ens, lyap)
    assert series.mean[0] == pytest.approx(float(lyap.value(0.5)), rel=1e-12)
    assert series.stderr[0] <= 1e-15


def test_positions_csv_roundtrip(tmp_path):
    # "%.17g" round-trips float64, so the read-back is exact
    for d in (1, 2):
        spec = isotropic_stable(d, 1.5)
        field = power_potential_drift(1.5, d)
        lyap = build_lyapunov(spec, field.claimed_condition)
        x0 = np.zeros(d)
        x0[0] = 0.25
        grid = np.linspace(0.0, 0.5, 3)
        ens = simulate_coupled_ensemble(x0, -x0, field, spec, lyap,
                                        SchemeConfig(), 0.5, grid, 8, seed=13)
        f = tmp_path / f"positions{d}.csv"
        write_positions_csv(f, ens)
        back = read_positions_csv(f)
        assert np.array_equal(back.times, ens.times)
        assert np.array_equal(back.xs, ens.xs)
        assert np.array_equal(back.ys, ens.ys)
        assert np.array_equal(back.merged, ens.merged)
    f2 = tmp_path / "paths.csv"
    write_paths_csv(f2, ens, lyap)
    header = f2.read_text().splitlines()[0]
    assert header == "path_id,t,r,psi_r,merged"


def test_write_table_golden_bytes(tmp_path):
    f = tmp_path / "t.csv"
    write_table(f, ["a", "b", "c"],
                [[0.0, 512.0, 1.0],
                 [-0.0, np.nan, 1e-300],
                 [np.inf, -np.inf, 0.1],
                 [3.0, -2.5, 1.0 / 3.0]])
    assert f.read_text() == ("a,b,c\n"
                             "0,512,1\n"
                             "-0,nan,1e-300\n"
                             "inf,-inf,0.10000000000000001\n"
                             "3,-2.5,0.33333333333333331\n")
