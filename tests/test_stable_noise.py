"""Noise constants against independent oracles, sampler laws, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from stablecouple.stable_noise import (
    _large_jumps,
    _rownorm,
    _unit_directions,
    decompose,
    isotropic_stable,
    levy_constant,
    pareto_radius,
    sphere_surface,
)
from stablecouple.streams import derive_stream

from oracles import sample_increment, sample_truncated_jump


def rng_at(index: int) -> np.random.Generator:
    return derive_stream(20250810, index)


# --------------------------- closed-form constants --------------------------


def test_levy_constant_cauchy():
    # d=1, alpha=1 is the Cauchy jump measure dz / (pi z^2)
    assert levy_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_levy_constant_d2_alpha1():
    assert levy_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_levy_constant_d1_alpha15():
    # hand evaluation with Gamma(1.25) = 0.9064024771..., |Gamma(-0.75)| = 4.8341465...
    assert levy_constant(1, 1.5) == pytest.approx(0.2992067103010745, rel=1e-12)


def test_levy_constant_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for d, a in [(1, 0.8), (1, 1.5), (2, 1.5), (3, 1.2), (5, 0.3), (2, 1.99)]:
        want = float(mp.mpf(2) ** a * mp.gamma((d + a) / mp.mpf(2))
                     * mp.pi ** (-mp.mpf(d) / 2) / abs(mp.gamma(-mp.mpf(a) / 2)))
        assert levy_constant(d, a) == pytest.approx(want, rel=1e-12)


def test_levy_constant_domain_errors():
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            levy_constant(1, bad)
    with pytest.raises(ValueError):
        levy_constant(0, 1.0)


def test_sphere_surface_values():
    assert sphere_surface(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_surface(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_surface(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_surface(0)


def test_sphere_surface_gaussian_oracle():
    # omega_d Gamma(d/2) / 2 should equal the Gaussian integral pi^{d/2}
    for d in (1, 2, 3, 4, 7):
        radial, _ = integrate.quad(lambda s: s ** (d - 1) * math.exp(-s * s),
                                   0, np.inf)
        assert sphere_surface(d) * radial == pytest.approx(math.pi ** (d / 2.0),
                                                           rel=1e-10)


def _one_minus_cos_integral_1d(alpha: float) -> float:
    # 2 int_0^inf (1 - cos s) s^{-1-alpha} ds, oscillatory tail via QAWF
    a_split = 20.0
    head, _ = integrate.quad(lambda s: (1.0 - math.cos(s)) * s ** (-1.0 - alpha),
                             0, a_split, limit=200)
    tail_power = a_split ** (-alpha) / alpha
    tail_cos, _ = integrate.quad(lambda s: s ** (-1.0 - alpha), a_split, np.inf,
                                 weight="cos", wvar=1.0)
    return 2.0 * (head + tail_power - tail_cos)


def _first_coordinate_marginal_mass(d: int, alpha: float) -> float:
    # the z1-marginal of |z|^{-d-alpha} dz is M |w|^{-1-alpha} dw
    if d == 1:
        return 1.0
    om = sphere_surface(d - 1) if d > 2 else 2.0
    val, _ = integrate.quad(
        lambda r: r ** (d - 2) * (1.0 + r * r) ** (-(d + alpha) / 2.0),
        0, np.inf, limit=200)
    return om * val if d > 2 else 2.0 * val


@pytest.mark.parametrize("d,alpha", [(1, 0.8), (1, 1.0), (1, 1.5),
                                     (2, 1.0), (2, 1.5), (3, 1.2)])
def test_levy_constant_normalizes_generator(d, alpha):
    # quadrature oracle: c_dalpha int (1 - cos z1) |z|^{-d-alpha} dz = 1,
    # i.e. the jump measure generates exactly exp(-t |xi|^alpha)
    total = (_first_coordinate_marginal_mass(d, alpha)
             * _one_minus_cos_integral_1d(alpha))
    assert levy_constant(d, alpha) * total == pytest.approx(1.0, rel=1e-8)


# ------------------------------- decomposition ------------------------------


def test_decompose_cauchy_by_hand():
    spec = isotropic_stable(1, 1.0)
    dec = decompose(spec, 1.0)
    assert dec.rate_above == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert dec.small_var_per_coord == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_decompose_quadrature_oracle():
    spec = isotropic_stable(2, 1.4)
    delta = 0.37
    dec = decompose(spec, delta)
    rate, _ = integrate.quad(
        lambda s: spec.c_dalpha * spec.omega_d * s ** (-1.0 - spec.alpha),
        delta, np.inf)
    var, _ = integrate.quad(
        lambda s: spec.c_dalpha * spec.omega_d * s ** (1.0 - spec.alpha) / spec.d,
        0, delta)
    assert dec.rate_above == pytest.approx(rate, rel=1e-8)
    assert dec.small_var_per_coord == pytest.approx(var, rel=1e-8)


def test_decompose_rejects_bad_delta():
    spec = isotropic_stable(1, 1.5)
    with pytest.raises(ValueError):
        decompose(spec, 0.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_decompose_rejects_nan_and_inf_delta(delta):
    # a nan radius would give nan rates, and an infinite one a zero rate with
    # an infinite variance
    spec = isotropic_stable(1, 1.5)
    with pytest.raises(ValueError, match="positive and finite"):
        decompose(spec, delta)


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(0.2, 1.9), delta=st.floats(0.01, 10.0),
       d=st.integers(1, 4))
def test_decompose_doubling_scaling(alpha, delta, d):
    spec = isotropic_stable(d, alpha)
    one = decompose(spec, delta)
    two = decompose(spec, 2.0 * delta)
    assert two.rate_above / one.rate_above == pytest.approx(2.0 ** -alpha, rel=1e-10)
    assert (two.small_var_per_coord / one.small_var_per_coord
            == pytest.approx(2.0 ** (2.0 - alpha), rel=1e-10))


# --------------------------------- samplers ---------------------------------


def test_pareto_radius_boundary():
    assert pareto_radius(0.7, 1.3, 1.0) == pytest.approx(0.7, rel=1e-15)


def test_large_jump_tail_probability():
    spec = isotropic_stable(2, 1.5)
    delta = 1.0
    rng = rng_at(1)
    _, z = _large_jumps(delta, spec.alpha, spec.d, 100_000, rng, rng)
    radius = np.linalg.norm(z, axis=1)
    assert radius.min() >= delta
    hits = radius > 2.0 * delta
    want = 2.0 ** -spec.alpha
    se = math.sqrt(want * (1 - want) / len(radius))
    assert abs(hits.mean() - want) < 3.0 * se


def test_large_jump_isotropy():
    spec = isotropic_stable(3, 1.2)
    rng = rng_at(4)
    _, z = _large_jumps(0.5, spec.alpha, spec.d, 100_000, rng, rng)
    direc = z / np.linalg.norm(z, axis=1, keepdims=True)
    se = direc.std(axis=0) / math.sqrt(len(direc))
    assert np.all(np.abs(direc.mean(axis=0)) < 3.0 * se)


def test_large_jump_single_shape():
    # one jump comes back as a row, with its radius
    spec = isotropic_stable(2, 1.5)
    rng = rng_at(3)
    radius, z = _large_jumps(1.0, spec.alpha, spec.d, 1, rng, rng)
    assert radius.shape == (1,) and z.shape == (1, 2)
    assert np.linalg.norm(z[0]) == pytest.approx(radius[0], rel=1e-15)


def test_line_jump_direction_is_a_uniform_sign():
    # on the line each jump is +-radius, negative exactly when its uniform
    # from the direction stream is below 1/2; the radius stream is untouched
    radius, z = _large_jumps(0.5, 1.5, 1, 100_000, rng_at(7), rng_at(8))
    assert z.shape == (100_000, 1)
    u = rng_at(7).random(100_000)
    assert np.array_equal(radius, pareto_radius(0.5, 1.5, 1.0 - u))
    negative = rng_at(8).random(100_000) < 0.5
    assert np.array_equal(z[:, 0], np.where(negative, -radius, radius))
    assert abs(negative.mean() - 0.5) < 3.0 * 0.5 / math.sqrt(len(negative))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_large_jumps_drawn_in_parts_are_the_jumps_drawn_at_once(d):
    # each jump takes one row of each stream, so the engine may draw its
    # jumps in blocks of any size: the parts concatenate to the whole, bitwise
    whole = _large_jumps(0.02, 1.5, d, 1000, rng_at(9), rng_at(10))
    streams = rng_at(9), rng_at(10)
    parts = [_large_jumps(0.02, 1.5, d, k, *streams) for k in (1, 0, 336, 663)]
    for got, want in zip(zip(*parts), whole):
        assert np.array_equal(np.concatenate(got), want)


def test_line_directions_are_bitwise_normalized_draws():
    # on the line the normalized draw g / |g| is its sign, +-1, over the
    # normal sampler's range (numpy draws 0 or more than 1e-17 in magnitude;
    # a zero draw, of either sign, stays as drawn)
    g = rng_at(5).standard_normal((200_000, 1))
    g[:6, 0] = [0.0, -0.0, 6e-17, -3.7, 40.0, 2.0 ** -511]
    norm = _rownorm(g, keepdims=True)
    want = g / np.where(norm == 0.0, 1.0, norm)
    for d in (1, 2):
        drawn = rng_at(6).standard_normal((1000, d))
        got = _unit_directions(d, 1000, rng_at(6))
        assert np.array_equal(got, drawn / _rownorm(drawn, keepdims=True))
    got = _unit_directions(1, len(g), _Replay(g))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, want)


class _Replay:
    """A generator stand-in whose normal draws are the given array."""

    def __init__(self, draws):
        self.draws = draws

    def standard_normal(self, shape):
        assert shape == self.draws.shape
        return self.draws.copy()


@pytest.mark.parametrize("d,alpha", [(1, 0.8), (1, 1.5), (2, 1.5), (3, 1.2)])
def test_increment_characteristic_function(d, alpha):
    spec = isotropic_stable(d, alpha)
    rng = rng_at(10 + d)
    n = 100_000
    z = sample_increment(spec, 1.0, rng, size=n)
    for q in (0.5, 1.0, 2.0):
        xi = np.zeros(d)
        xi[0] = q
        c = np.cos(z @ xi)
        se = c.std(ddof=1) / math.sqrt(n)
        assert abs(c.mean() - math.exp(-q ** alpha)) < 3.5 * se


def test_increment_cauchy_ks():
    spec = isotropic_stable(1, 1.0)
    z = sample_increment(spec, 1.0, rng_at(20), size=100_000)[:, 0]
    assert stats.kstest(z, "cauchy").pvalue > 0.01


def test_increment_rejects_bad_t():
    spec = isotropic_stable(1, 1.5)
    with pytest.raises(ValueError):
        sample_increment(spec, 0.0, rng_at(0))


def test_increment_self_similarity():
    # Z_t and t^{1/alpha} Z_1 agree in law: compare empirical CFs on a grid
    spec = isotropic_stable(1, 1.5)
    rng = rng_at(21)
    n, t = 100_000, 2.5
    zt = sample_increment(spec, t, rng, size=n)[:, 0]
    z1 = t ** (1.0 / spec.alpha) * sample_increment(spec, 1.0, rng, size=n)[:, 0]
    for q in (0.3, 0.7, 1.1):
        ca, cb = np.cos(q * zt), np.cos(q * z1)
        se = math.sqrt(ca.var(ddof=1) / n + cb.var(ddof=1) / n)
        assert abs(ca.mean() - cb.mean()) < 3.5 * se


def test_increment_rotation_invariance():
    spec = isotropic_stable(2, 1.5)
    z = sample_increment(spec, 1.0, rng_at(22), size=100_000)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    xi = np.array([1.0, 0.0])
    ca = np.cos(z @ xi)
    cb = np.cos(z @ (rot @ xi))
    se = math.sqrt(ca.var(ddof=1) / len(ca) + cb.var(ddof=1) / len(cb))
    assert abs(ca.mean() - cb.mean()) < 3.5 * se


def test_decomposition_reproduces_increment_law():
    # compound Poisson above delta plus matched Gaussian below approximates
    # the exact increment; empirical CFs must agree within combined error
    spec = isotropic_stable(1, 1.5)
    delta, t, n = 0.01, 1.0, 30_000
    dec = decompose(spec, delta)
    rng = rng_at(23)

    counts = rng.poisson(dec.rate_above * t, n)
    total = int(counts.sum())
    _, jumps = _large_jumps(delta, spec.alpha, spec.d, total, rng, rng)
    approx = np.zeros((n, 1))
    np.add.at(approx, np.repeat(np.arange(n), counts), jumps)
    approx += (rng.standard_normal((n, 1))
               * math.sqrt(dec.small_var_per_coord * t))
    exact = sample_increment(spec, t, rng, size=n)
    for q in (0.5, 1.0, 2.0):
        ca = np.cos(q * approx[:, 0])
        cb = np.cos(q * exact[:, 0])
        se = math.sqrt(ca.var(ddof=1) / n + cb.var(ddof=1) / n)
        assert abs(ca.mean() - cb.mean()) < 5.0 * se


def test_truncated_jump_support_and_law():
    spec = isotropic_stable(2, 1.3)
    rng = rng_at(24)
    z = sample_truncated_jump(spec, 0.5, 3.0, rng, size=50_000)
    radius = np.linalg.norm(z, axis=1)
    assert radius.min() >= 0.5 and radius.max() <= 3.0
    # conditional CDF on the annulus: P(R <= s) = (lo^-a - s^-a)/(lo^-a - hi^-a)
    a = spec.alpha
    s = 1.0
    want = (0.5 ** -a - s ** -a) / (0.5 ** -a - 3.0 ** -a)
    got = (radius <= s).mean()
    se = math.sqrt(want * (1 - want) / len(radius))
    assert abs(got - want) < 3.5 * se
