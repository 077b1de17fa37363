"""Reflection algebra, coupled jumps, drift steps, coupled simulation."""

import dataclasses
import hashlib
import itertools
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stablecouple.coupling_engine import (
    DriftBlowupError,
    _bridge_exits,
    _drift_flow,
    EventBudgetError,
    SchemeConfig,
    _STABILITY_MARGIN,
    _WINDOW,
    _mirror,
    _mirrored_kick,
    _rk4_one,
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

from oracles import sample_increment


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


def jump_round(x, y, z, a, l0):
    """Y's increment in one event round of the engine on rows (x, y, z)."""
    x, y, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, y, z))
    return coupled_jump(x, y, z, np.linalg.norm(z, axis=1), a, l0)


def test_coupled_jump_synchronous_when_large_z():
    x, y = np.array([0.3, 0.0]), np.array([0.0, 0.0])
    z = np.array([1.0, 0.0])  # |z| > a |x-y|
    assert np.allclose(jump_round(x, y, z, a=0.25, l0=1.0), z)


def test_coupled_jump_synchronous_when_far_apart():
    x, y = np.array([3.0, 0.0]), np.array([0.0, 0.0])
    z = np.array([0.01, 0.0])
    assert np.allclose(jump_round(x, y, z, a=0.25, l0=1.0), z)


def test_coupled_jump_merged_pair_synchronous():
    # the engine's settle step keeps y bitwise equal to x on a merged pair,
    # so r = 0 and no jump fits in the band |z| <= a r: such a pair takes z
    # on both rows for radii down to 0 and a up to 1/2, while the same jump
    # reflects the pair at separation 0.3 in the last row
    sizes = np.array([0.0, 5e-324, 1e-300, 1e-6, 0.01, 1.0, 40.0])
    x = np.vstack([rng_at(5).standard_normal((len(sizes), 2)), [[0.3, 0.0]]])
    y = x.copy()
    y[-1] = 0.0
    z = np.vstack([sizes[:, None] * [[0.6, -0.8]], [[0.01, 0.0]]])
    radius = np.append(sizes, 0.01)  # |z| row by row, with no underflow
    for a in (0.05, 0.25, 0.5):
        dy = coupled_jump(x, y, z, radius, a, 1.0)
        assert np.array_equal(dy[:-1], z[:-1])
        assert np.array_equal(dy[-1], -z[-1])
        # with every pair merged and every radius positive, no row reflects
        # and Y's increment is z itself, which the engine adds once to both
        zs = z[1:-1]
        assert coupled_jump(x[1:-1], y[1:-1], zs, radius[1:-1], a, 1.0) is zs


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
    dy = jump_round(x, y, z, a=0.5, l0=1.0)
    r_new = np.linalg.norm(x + z - y - dy, axis=1)
    zdot = np.einsum("ij,ij->i", e, z)
    assert np.allclose(r_new, np.abs(r + 2 * zdot), rtol=1e-9, atol=1e-12)


def test_line_reflection_is_bitwise_the_mirror():
    # on the line coupled_jump takes -z for the mirror; over separations from
    # the least subnormal to 1e300, of both signs, and jumps up to the
    # separation (the reflected rows) or twice it (the synchronous ones), the
    # increment must have the bits of the general arithmetic
    rng = rng_at(90)
    r = np.concatenate(([5e-324, 1e-320, 2.2e-308], np.logspace(-300, 300, 61)))
    diff = np.concatenate((r, -r))
    z = (np.where(rng.random(len(diff)) < 0.5, -1.0, 1.0) * np.abs(diff)
         * np.where(np.arange(len(diff)) % 3, rng.uniform(0.8, 1.0, len(diff)),
                    2.0))
    x, y, z = diff[:, None], np.zeros((len(diff), 1)), z[:, None]
    assert (z != 0.0).all()
    radius = np.abs(z[:, 0])
    do_refl = radius <= np.abs(diff)
    assert 0 < do_refl.sum() < len(diff)
    want = np.where(do_refl[:, None], _mirror(z, x - y, np.abs(diff)), z)
    assert _same_bits(coupled_jump(x, y, z, radius, 1.0, math.inf), want)
    assert _same_bits(want[do_refl], -z[do_refl])


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


# the drifts -c |x|^q x with their (c, q), and the linear drift -x
_FLOWS = {"power_potential": (power_potential_drift(1.5, 2), (3.0, 1.0)),
          "monomial": (monomial_drift(2.0, 1.0, 2), (2.0, 1.0)),
          "linear": (linear_drift(1.0, 2), None)}


def _points_within_3(n, seed):
    # n points of R^2, radii spread over (0, 3], directions uniform
    g = rng_at(seed).standard_normal((n, 2))
    return 3.0 * np.linspace(0.02, 1.0, n)[:, None] * g / _rownorm(g, True)


@pytest.mark.parametrize("name", _FLOWS)
def test_drift_flow_takes_one_rk4_step_per_window(name):
    # from |x| <= 3 the stability cap is above the window, so a flow over at
    # most one window is one RK4 step, four evaluations of the drift, and
    # eight windows are eight steps (0.1, which ten steps of 0.01 miss by
    # 1e-17 in floating point, would take an eleventh)
    field = _FLOWS[name][0]
    calls = []
    counted = DriftField(evaluate=lambda x: calls.append(len(x))
                         or field.evaluate(x), d=2, label="counted")
    x = _points_within_3(40, 60)
    for h in (np.full(40, _WINDOW), np.full(40, 1e-4),
              rng_at(61).uniform(1e-6, _WINDOW, 40)):
        calls.clear()
        _drift_flow(counted, x, h)
        assert calls == [40] * 4
    calls.clear()
    _drift_flow(counted, x, np.full(40, 8 * _WINDOW))
    assert calls == [40] * 32


@pytest.mark.parametrize("name", _FLOWS)
def test_one_window_drift_flow_matches_closed_form(name):
    # b = -c |x|^q x keeps the direction and gives
    # |x|_h = |x| (1 + c q |x|^q h)^(-1/q); b = -x gives x e^(-h)
    field, cq = _FLOWS[name]
    x = _points_within_3(60, 62)
    r = _rownorm(x, keepdims=True)
    for h in (2e-3, 5e-3, 7.5e-3, _WINDOW):
        got = _drift_flow(field, x, np.full(len(x), h))
        if cq is None:
            want = x * math.exp(-h)
        else:
            c, q = cq
            want = x * (1.0 + c * q * r ** q * h) ** (-1.0 / q)
        assert (_rownorm(got - want) <= 1e-6 * _rownorm(want)).all()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 10))
def test_rownorm_is_bitwise_linalg_norm(d):
    # zeros, subnormals (whose squares underflow), overflowing squares,
    # infinities and nans, in every combination up to d = 3 and drawn at
    # random beyond, plus ordinary rows; d < 8 takes the column sum, d >= 8
    # the reduction, and d = 1 is |v|, which is linalg.norm's sqrt(v v)
    # wherever v v neither underflows nor overflows (the edges 2^-511 and
    # 2^512 are probed from inside)
    special = [0.0, -0.0, 5e-324, 2.2e-310, 1e-160, 1.0, -3.5, 1e300, -1e300,
               np.inf, -np.inf, np.nan]
    if d == 1:
        special += [2.0 ** -511, -np.nextafter(2.0 ** 512, 0.0)]
    rng = rng_at(40 + d)
    rows = (np.array(list(itertools.product(special, repeat=d))) if d <= 3
            else rng.choice(special, (4096, d)))
    rows = np.vstack([rows, rng.standard_normal((64, d))])
    # strided views of an (n, T, d) array, as the engine's record is read
    xs = rng.standard_cauchy((len(rows), 3, d))
    xs[:, 1, :] = rows
    with np.errstate(over="ignore", invalid="ignore"):
        for v in (rows, rows.reshape(2, -1, d), xs, xs[:, 1, :], xs[:, 2, :],
                  rows[0], rows[-1]):
            for keepdims in (False, True):
                got = _rownorm(v, keepdims=keepdims)
                want = np.linalg.norm(v, axis=-1, keepdims=keepdims)
                assert got.shape == want.shape
                if d > 1:
                    assert np.array_equal(got, want, equal_nan=True)
                    continue
                mag = np.abs(v if keepdims else v[..., 0])
                assert _same_bits(got, mag)
                inside = (mag == 0.0) | ((mag >= 2.0 ** -511) & (mag < 2.0 ** 512))
                assert _same_bits(got[inside], want[inside])
                assert np.isnan(want[np.isnan(mag)]).all()


@pytest.mark.parametrize("d", range(1, 10))
def test_rownorm_warns_where_linalg_norm_does(d):
    # the suite turns RuntimeWarnings into errors, so the column sum must
    # warn (overflow in a square or in the sum) exactly where the reduction
    # does, and stay quiet on subnormals, infinities and nans; it may warn
    # once per column where the reduction warns once; d = 1 squares nothing
    # and never warns
    def warned(norm, v):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            norm(v)
        return {w.category for w in caught}

    linalg = lambda v: np.linalg.norm(v, axis=-1)
    for value, loud in ((1.0, False), (5e-324, False), (np.inf, False),
                        (np.nan, False), (1e300, True), (1e154, d > 1)):
        for v in (np.full((5, d), value), np.full(d, value)):
            if d == 1:
                assert warned(_rownorm, v) == set()
                continue
            assert warned(_rownorm, v) == warned(linalg, v)
            assert warned(_rownorm, v) == ({RuntimeWarning} if loud else set())


@pytest.mark.parametrize("field", [power_potential_drift(1.5, 2),
                                   monomial_drift(2.0, 1.0, 2),
                                   linear_drift(1.0, 2)],
                         ids=["power_potential", "monomial", "linear"])
def test_stacked_drift_flow_is_bitwise_two_flows(field):
    # the engine flows the x and y rows of its pairs, interleaved, in one
    # call; rows never interact, so the stacked call must give each row its
    # own bits, and equal rows must stay equal
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

    # the pair layout: rows (x_i, y_i) interleaved, each horizon repeated;
    # pairs 0, 2 and 4 are merged (y_i = x_i), and on pair 2 the stability
    # cap (or, for the linear drift, the window) binds, so it takes more
    # than one step
    x = a[:6].copy()
    x[2] = [30.0, -40.0]
    y = x + 0.1 * rng.standard_normal((6, 2))
    y[::2] = x[::2]
    h = np.array([4e-3, 0.03, 0.03, 0.0, 7e-3, 0.012])
    assert _rk4_one(field, x[2:3], h[2:3])[1][0] < h[2]
    pairs = np.stack((x, y), axis=1)
    got = _drift_flow(field, pairs.reshape(12, 2), h.repeat(2)).reshape(6, 2, 2)
    assert np.array_equal(got[:, 0], _drift_flow(field, x, h))
    assert np.array_equal(got[:, 1], _drift_flow(field, y, h))
    assert np.array_equal(got[::2, 0], got[::2, 1])


def _rk4_out_of_place(field, x, remaining):
    # the step as written out of place, x + h / 6 (k1 + 2 k2 + 2 k3 + k4),
    # with the engine's stability cap
    b = field.evaluate
    k1 = b(x)
    scale = _rownorm(k1) / (1.0 + _rownorm(x))
    cap = _STABILITY_MARGIN / np.maximum(scale, _STABILITY_MARGIN / _WINDOW)
    step = np.minimum(remaining, cap)
    h = step[:, None]
    k2 = b(x + 0.5 * h * k1)
    k3 = b(x + 0.5 * h * k2)
    k4 = b(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), step


_STEP_FIELDS = {
    "power_potential": lambda d: power_potential_drift(1.5, d),
    "monomial": lambda d: monomial_drift(2.0, 1.0, d),
    "monomial_q1.7": lambda d: monomial_drift(0.5, 1.7, d),
    "linear": lambda d: linear_drift(1.0, d),
    "returns_its_input": lambda d: DriftField(evaluate=lambda x: x, d=d,
                                              label="identity"),
}


@pytest.mark.parametrize("name", _STEP_FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_rk4_step_is_bitwise_the_out_of_place_step(name, d):
    # _rk4_one builds its stages and the combination in place; + and * are
    # commutative, so every bit is the out-of-place step's, and a field that
    # returns its own input (b(x) = x) must not see its stages overwritten;
    # the caller's x is left as it was
    field = _STEP_FIELDS[name](d)
    rng = rng_at(70 + d)
    scale = np.array([1e-3, 0.1, 1.0, 3.0, 40.0, 1e4])
    x = rng.standard_normal((60, d)) * np.repeat(scale, 10)[:, None]
    x_before = x.copy()
    remaining = rng.uniform(1e-5, 2 * _WINDOW, 60)
    got, step = _rk4_one(field, x, remaining)
    want, want_step = _rk4_out_of_place(field, x, remaining)
    assert np.array_equal(x, x_before)
    assert np.array_equal(step, want_step)
    assert np.array_equal(got, want)


def _flow_out_of_place(field, x, h):
    # _drift_flow's loop on the out-of-place step: every row's first step,
    # then the rows with time left until none has any
    x, step = _rk4_out_of_place(field, x, h)
    remaining = h - step
    while (remaining > 0.0).any():
        act = remaining > 0.0
        x[act], step = _rk4_out_of_place(field, x[act], remaining[act])
        remaining[act] -= step
    return x


@pytest.mark.parametrize("name", _STEP_FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_uncapped_rk4_step_is_bitwise_the_capped_step(name, d):
    # every row's scale |b(x)| / (1 + |x|) is at most _STABILITY_MARGIN /
    # _WINDOW, so _rk4_one skips the per-row cap; its rows and steps must be
    # the capped step's for horizons below and above the window, a step
    # that cuts no row short must hand back the horizons themselves, and a
    # flow must be the capped steps' loop, also over horizons of many windows
    field = _STEP_FIELDS[name](d)
    rng = rng_at(80 + d)
    x = rng.standard_normal((60, d)) * np.repeat([1e-3, 0.1, 1.0], 20)[:, None]
    scale = _rownorm(field.evaluate(x)) / (1.0 + _rownorm(x))
    assert scale.max() <= _STABILITY_MARGIN / _WINDOW
    below = rng.uniform(0.0, _WINDOW, 60)
    for remaining in (below, rng.uniform(1e-5, 2 * _WINDOW, 60),
                      np.full(60, 2.0)):
        got, step = _rk4_one(field, x, remaining)
        want, want_step = _rk4_out_of_place(field, x, remaining)
        assert _same_bits(step, want_step)
        assert _same_bits(got, want)
    assert _rk4_one(field, x, below)[1] is below
    for h in (below, rng.uniform(0.0, 3 * _WINDOW, 60), np.full(60, 2.0)):
        assert _same_bits(_drift_flow(field, x, h), _flow_out_of_place(field, x, h))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_nonfinite_drift_on_an_uncapped_step_raises(bad, d):
    # every other row is far below the stability cap, so the step would take
    # the uncapped path; the one non-finite drift value must still stop it
    def b(x):
        out = -x
        out[3] = bad
        return out

    field = DriftField(evaluate=b, d=d, label="nonfinite")
    x = np.linspace(0.1, 1.0, 8 * d).reshape(8, d)
    for step in (_rk4_one, _drift_flow):
        with pytest.raises(DriftBlowupError, match="non-finite drift"):
            step(field, x, np.full(8, 1e-3))


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


@pytest.mark.parametrize("lyap_on, cfg, n", [
    (True, SchemeConfig(), 64),
    (True, SchemeConfig(eps_couple=5e-2), 8),
    (True, SchemeConfig(delta_floor=5e-3), 128),
    (False, SchemeConfig(), 16),
], ids=["headline_cfg", "wide_merge", "many_rounds", "synchronous"])
def test_merge_test_runs_twice_per_window(monkeypatch, lyap_on, cfg, n):
    # the merge test runs once at the start and twice per window, after the
    # last event round and after the kick, however many rounds the window
    # has: a merge test inside the rounds would show here
    import stablecouple.coupling_engine as engine

    calls = dict(settle=0, rounds=0, flows=0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "_settle", counting("settle", engine._settle))
    monkeypatch.setattr(engine, "coupled_jump",
                        counting("rounds", engine.coupled_jump))
    monkeypatch.setattr(engine, "_drift_flow", counting("flows", engine._drift_flow))
    spec, field, _, lyap = _example_model()
    simulate_coupled_ensemble(np.array([0.1]), np.array([-0.1]), field, spec,
                              lyap if lyap_on else None, cfg, 0.5,
                              np.linspace(0.0, 0.5, 6), n, seed=19)
    windows = calls["flows"] - calls["rounds"]  # one flow per round and window end
    assert windows == 50
    assert calls["rounds"] > windows
    assert calls["settle"] == 1 + 2 * windows


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


_NULL_FIELD = DriftField(evaluate=lambda x: np.zeros_like(x), d=1, label="null")


def _one_window(monkeypatch, r0: float, lyap, n: int = 20_000):
    """One window of the engine's length from (r0/2, -r0/2) under zero drift: the
    ensemble, and the next draws of each of the engine's streams after the
    run, by stream index."""
    import stablecouple.coupling_engine as engine

    streams = {}

    def spy(seed, index):
        streams[index] = derive_stream(seed, index)
        return streams[index]

    monkeypatch.setattr(engine, "derive_stream", spy)
    h = engine._WINDOW
    ens = simulate_coupled_ensemble(np.array([0.5 * r0]), np.array([-0.5 * r0]),
                                    _NULL_FIELD, isotropic_stable(1, 1.5), lyap,
                                    SchemeConfig(), h, np.array([0.0, h]), n,
                                    seed=29)
    assert sorted(streams) == [0, 1, 2, 3]
    return ens, {index: rng.random(4).tolist() for index, rng in streams.items()}


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


def test_bridge_exits_end_on_a_nan_input():
    # a nan never falls below the series' stopping bound; the alarm turns a
    # loop that never ends into a failure
    def hang(signum, frame):
        raise TimeoutError("_bridge_exits did not return on a nan input")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        p0, pl = _bridge_exits(np.array([0.5]), np.array([np.nan]), 1.0,
                               np.array([0.01]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.isnan(p0).all() and np.isnan(pl).all()


def _bridge_exits_route_by_route(ra, rb, l0, var):
    # the series one route at a time, each shifted by 2 k l0 on its own
    c = rb - ra

    def ratio(length):
        return np.exp(-(length - c) * (length + c) / (2.0 * var))

    to0, tol = ra + np.abs(rb), (l0 - ra) + np.abs(l0 - rb)
    via_l0, via_0 = (l0 - ra) + l0 + np.abs(rb), ra + l0 + np.abs(l0 - rb)
    p0, pl = np.zeros_like(ra), np.zeros_like(ra)
    k = 0
    while True:
        back0, backl = ratio(via_l0 + 2 * k * l0), ratio(via_0 + 2 * k * l0)
        p0 += ratio(to0 + 2 * k * l0) - back0
        pl += ratio(tol + 2 * k * l0) - backl
        if max(back0.max(), backl.max()) < 1e-17:
            return p0, pl
        k += 1


def test_bridge_exits_are_bitwise_the_route_by_route_series():
    # _bridge_exits puts the four routes through exp as one array; every bit
    # is the route-by-route sum's, for bridges that stop after the first
    # term and for wide ones that need many
    rng = rng_at(80)
    for l0, sd in ((1.0, 1e-2), (1.0, 0.3), (1.0, 3.0), (0.05, 1.0)):
        ra = rng.uniform(1e-3, 1.0, 500) * l0
        rb = ra + sd * rng.standard_normal(500)
        var = sd * sd * rng.uniform(0.5, 2.0, 500)
        got = _bridge_exits(ra, rb, l0, var)
        want = _bridge_exits_route_by_route(ra, rb, l0, var)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_mirrored_kick_stops_at_l0_and_keeps_y_gaussian():
    # the band's separation leaves (0, L0) through L0 with probability about
    # 2 Phi(-(L0 - r_a) / (2 sd)); such a pair ends exactly at L0, never above,
    # and y's kick is still N(0, var I) along and across x - y
    n, l0, ra, var = 20_000, 1.0, 0.9, 0.01
    rng = np.random.default_rng(41)
    y0 = np.tile([-ra * 0.6, -ra * 0.8], (n, 1))
    pairs = np.stack((np.zeros((n, 2)), y0), axis=1)
    merged = np.zeros(n, dtype=bool)
    x, y = pairs[:, 0], pairs[:, 1]
    _mirrored_kick(pairs, np.arange(n), _rownorm(x - y), np.full(n, var), l0,
                   merged, rng)
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


class _FixedDraws:
    """A generator stand-in that serves given normals and uniforms."""

    def __init__(self, normals, uniforms):
        self._normals, self._uniforms = normals, uniforms

    def standard_normal(self, shape):
        assert shape == self._normals.shape
        return self._normals.copy()

    def random(self, n):
        assert n == len(self._uniforms)
        return self._uniforms.copy()


def test_line_kick_is_bitwise_the_planar_kick():
    # on the line _mirrored_kick takes g.e as one product; run on the same
    # pairs laid on the first axis of the plane, with a zero second normal,
    # the d >= 2 einsum must give the same bits, zero draws (g = +-0, whose
    # product einsum turns into +0) and y = -0 included
    n, l0 = 12, 1.0
    rng = rng_at(95)
    g = rng.standard_normal(n)
    g[:4] = [0.0, -0.0, 0.0, -0.0]
    g[4] = -5e-324
    x = rng.uniform(0.05, 0.9, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    y = np.where(np.arange(n) < 8, -0.0, 0.5 * x)
    u = rng.random(n)
    var = np.full(n, 0.01)
    out = []
    for d in (1, 2):
        pairs = np.zeros((n, 2, d))
        pairs[:, 0, 0], pairs[:, 1, 0] = x, y
        merged = np.zeros(n, dtype=bool)
        normals = np.zeros((n, d))
        normals[:, 0] = g
        _mirrored_kick(pairs, np.arange(n), np.abs(x - y), var, l0, merged,
                       _FixedDraws(normals, u))
        out.append((pairs[:, :, 0], merged))
    assert _same_bits(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


def test_band_draws_nothing_outside_l0_or_without_profile(monkeypatch):
    # no pair has the band beyond L0 (zero drift keeps r = r0) or with
    # lyap=None, so those runs end every stream at the same place and the
    # ensemble beyond L0 equals the synchronous one; the clock, radius and
    # direction streams (0, 1, 2) end at the same place in all four runs,
    # since the band draws only from the kick stream (3)
    _, _, _, lyap = _example_model()
    far = 2.0 * lyap.l0
    ens_far, next_far = _one_window(monkeypatch, far, lyap, n=256)
    sync_far, next_sync_far = _one_window(monkeypatch, far, None, n=256)
    _, next_sync_near = _one_window(monkeypatch, 0.05, None, n=256)
    _, next_band = _one_window(monkeypatch, 0.05, lyap, n=256)
    assert next_far == next_sync_far == next_sync_near
    assert _ensemble_digest(ens_far) == _ensemble_digest(sync_far)
    for index in (0, 1, 2):
        assert next_band[index] == next_far[index]
    assert next_band[3] != next_far[3]  # the band rows draw their variates
    # and lyap=None draws no band variates at any floor: the synchronous
    # golden is pinned at the former default floor 2e-3 as well
    old_floor = _golden_synchronous_d1(SchemeConfig(delta_floor=2e-3))
    assert _ensemble_digest(old_floor) == (
        "d642ed8b35469b0ed7fce8b070281353694b9f75fd937e69834083f04f478e0a")


def _ensemble_digest(ens) -> str:
    h = hashlib.sha256()
    for arr in (ens.times, ens.xs, ens.ys, ens.merged):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _golden_reflecting_d1():
    # reflection with a wide merge threshold: 57 of 64 pairs merge by t = 1
    spec, field, _, lyap = _example_model()
    return simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                     spec, lyap, SchemeConfig(eps_couple=5e-2),
                                     1.0, np.linspace(0.0, 1.0, 5), 64, seed=17)


def _golden_synchronous_d1(cfg=SchemeConfig()):
    spec, field, _, _ = _example_model()
    return simulate_coupled_ensemble(np.array([0.5]), np.array([-0.5]), field,
                                     spec, None, cfg, 1.0,
                                     np.linspace(0.0, 1.0, 5), 64, seed=5)


def _golden_merging_d2():
    # 228 of 300 pairs merge by t = 0.5, so the merge step and the rows of
    # merged pairs inside an event round are exercised
    spec = isotropic_stable(2, 1.7)
    field = linear_drift(1.0, 2)
    lyap = build_lyapunov(spec, field.claimed_condition)
    x0 = np.array([0.2, 0.0])
    return simulate_coupled_ensemble(x0, -x0, field, spec, lyap,
                                     SchemeConfig(eps_couple=0.15), 0.5,
                                     np.linspace(0.0, 0.5, 6), 300, seed=3)


@pytest.mark.parametrize("make, merged_at_end, sha256", [
    (_golden_reflecting_d1, 57,
     "ad31f1080e973e2e7f7b473e2db69dffc3a791feb0f534cd17b590e2b24771f1"),
    (_golden_synchronous_d1, 0,
     "60885986f0e8f72ab8fef5ae40da55760af961c6f5145e35317e70780a0d5aff"),
    (_golden_merging_d2, 228,
     "fbc04177efb4b9aa4b2adee786f0ffaf2fa4f5e6aa5ee32a9705119e61e6f226"),
], ids=["reflecting_d1", "synchronous_d1", "merging_d2"])
def test_ensemble_golden_digests(make, merged_at_end, sha256):
    # times, xs, ys and merged pinned bitwise (recorded with Python 3.11,
    # numpy 2.4 and scipy 1.17 on x86-64): a change to the engine's hot path
    # must not move a bit of any of them
    ens = make()
    assert int(ens.merged[:, -1].sum()) == merged_at_end
    assert _ensemble_digest(ens) == sha256


@pytest.mark.parametrize("make", [_golden_reflecting_d1, _golden_synchronous_d1,
                                  _golden_merging_d2],
                         ids=["reflecting_d1", "synchronous_d1", "merging_d2"])
def test_ensemble_is_bitwise_the_same_for_any_draw_block(monkeypatch, make):
    # the clock gaps and jumps are a prefix of their streams whatever the
    # block they are drawn in: one row per block, a prime that splits rounds
    # across refills, and the default give the same bits
    import stablecouple.coupling_engine as engine

    want = _ensemble_digest(make())
    for block in (1, 97):
        monkeypatch.setattr(engine, "_DRAW_BLOCK", block)
        assert _ensemble_digest(make()) == want


class _Recorder:
    """A generator whose calls are logged as ("draw", index, rows)."""

    def __init__(self, rng, index, log):
        self._rng, self._index, self._log = rng, index, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(size, *args, **kwargs):
            self._log.append(("draw", self._index, np.atleast_1d(size)[0]))
            return method(size, *args, **kwargs)
        return call


@pytest.mark.parametrize("make", [_golden_reflecting_d1, _golden_merging_d2],
                         ids=["reflecting_d1", "merging_d2"])
@pytest.mark.parametrize("block", [None, 10 ** 6], ids=["default", "whole_run"])
def test_generators_are_called_on_refills_and_at_window_ends(monkeypatch, make,
                                                              block):
    # after each pair's first clock gap, the clock, radius and direction
    # streams (0, 1, 2) are called only to draw a block, so an event round
    # makes no generator call; the kick stream (3) is called only between a
    # window's two merge tests, that is at the window end
    import stablecouple.coupling_engine as engine

    log = []

    def marking(event, fn):
        def wrapped(*args, **kwargs):
            log.append((event,))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "derive_stream", lambda seed, index: _Recorder(
        derive_stream(seed, index), index, log))
    monkeypatch.setattr(engine, "coupled_jump", marking("round", engine.coupled_jump))
    monkeypatch.setattr(engine, "_settle", marking("settle", engine._settle))
    if block is not None:
        monkeypatch.setattr(engine, "_DRAW_BLOCK", block)
    ens = make()
    # the start: the first merge test, then each pair's first clock gap
    assert log[:2] == [("settle",), ("draw", 0, ens.n_paths)]
    settles = 1
    refills = {0: 0, 1: 0, 2: 0}
    for event in log[2:]:
        if event[0] == "settle":
            settles += 1
        elif event[0] == "draw" and event[1] == 3:
            assert settles % 2 == 0  # between a window's two merge tests
        elif event[0] == "draw":
            assert event[2] >= engine._DRAW_BLOCK
            refills[event[1]] += 1
    rounds = sum(event[0] == "round" for event in log)
    assert len(set(refills.values())) == 1  # the three streams go in step
    assert rounds > 4 * refills[0] and settles > 100
    if block is not None:
        # one block holds the whole run: it is drawn once, before the first
        # round
        assert refills[0] == 1
        assert [event[1] for event in log[2:5]] == [0, 1, 2]


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


def test_engine_restores_numpy_error_state():
    # the engine quiets overflow and invalid once, around its window loop:
    # the caller's error state is back after a run, a drift blowup and a
    # refused budget, and a direct flow, outside that block, stays quiet
    spec, field, _, lyap = _example_model()
    blowup = DriftField(evaluate=lambda x: x * np.inf, d=1, label="blowup")
    x0, y0, grid = np.array([0.25]), np.array([-0.25]), np.array([0.0, 0.1])
    for state in (np.geterr(), dict(divide="print", over="raise",
                                    under="ignore", invalid="raise")):
        with np.errstate(**state):
            before = np.geterr()
            simulate_coupled_ensemble(x0, y0, field, spec, lyap,
                                      SchemeConfig(), 0.1, grid, 16, seed=1)
            assert np.geterr() == before
            with pytest.raises(DriftBlowupError):
                simulate_coupled_ensemble(x0, y0, blowup, spec, None,
                                          SchemeConfig(), 0.1, grid, 4, seed=1)
            assert np.geterr() == before
            with pytest.raises(EventBudgetError):
                simulate_coupled_ensemble(x0, y0, field, spec, lyap,
                                          SchemeConfig(delta_floor=1e-7), 1.0,
                                          grid, 64, seed=1)
            assert np.geterr() == before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _drift_flow(power_potential_drift(1.5, 1),
                        np.array([[1e8], [0.3], [-2.0], [0.0]]),
                        np.full(4, _WINDOW))
    assert np.isfinite(x).all()


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
