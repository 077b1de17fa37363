"""Drift fields, dissipativity probing, small-alpha gate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablecouple.drift_models import (
    DriftCondition,
    check_small_alpha_gate,
    drift_from_label,
    linear_drift,
    monomial_drift,
    power_potential_drift,
    verify_dissipativity,
)
from stablecouple.drift_models import DriftField
from stablecouple.stable_noise import isotropic_stable
from stablecouple.streams import derive_stream


def rng_at(index: int) -> np.random.Generator:
    return derive_stream(77, index)


def test_condition_validation():
    with pytest.raises(ValueError):
        DriftCondition(k1=0.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(ValueError):
        DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="l0 must be positive and finite"):
            DriftCondition(k1=1.0, k2=1.0, l0=bad, theta=2.0)
        with pytest.raises(ValueError, match="theta must lie in"):
            DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=bad)


def test_power_potential_origin_and_hand_value():
    field = power_potential_drift(1.5, 1)
    assert field(np.array([0.0])) == pytest.approx(0.0)
    # beta=1.5, x=1: b = -2 * 1.5 * |1|^1 * 1 = -3
    assert field(np.array([1.0]))[0] == pytest.approx(-3.0, rel=1e-14)


def test_power_potential_claimed_constants():
    field = power_potential_drift(1.5, 2)
    cond = field.claimed_condition
    assert cond.k2 == pytest.approx(1.5 * 2.0 ** -0.5, rel=1e-14)
    assert cond.theta == pytest.approx(3.0)
    assert cond.k1 == 1.0 and cond.l0 == 1.0


def test_power_potential_rejects_beta():
    with pytest.raises(ValueError):
        power_potential_drift(1.0, 1)


def test_linear_drift_values_and_flow():
    field = linear_drift(2.0, 3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(field(e1), -2.0 * e1)
    # batch form
    xs = rng_at(0).standard_normal((50, 3))
    ys = rng_at(1).standard_normal((50, 3))
    lhs = np.einsum("ij,ij->i", field(xs) - field(ys), xs - ys)
    assert np.allclose(lhs, -2.0 * np.linalg.norm(xs - ys, axis=1) ** 2,
                       rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_potential_global_inequality(d):
    # <b(x)-b(y), x-y> <= -beta 2^(4-3beta) |x-y|^(2 beta), zero violations
    beta = 1.5
    field = power_potential_drift(beta, d)
    rng = rng_at(2 + d)
    xs = rng.uniform(-10, 10, (10_000, d))
    ys = rng.uniform(-10, 10, (10_000, d))
    diff = xs - ys
    r = np.linalg.norm(diff, axis=1)
    keep = r > 0
    lhs = np.einsum("ij,ij->i", field(xs[keep]) - field(ys[keep]), diff[keep])
    rhs = -beta * 2.0 ** (4 - 3 * beta) * r[keep] ** (2 * beta)
    assert np.all(lhs <= rhs + 1e-10 * (1 + np.abs(rhs)))


def test_verify_dissipativity_linear_zero_violations():
    field = linear_drift(1.3, 2)
    cond = DriftCondition(k1=0.7, k2=1.3, l0=2.0, theta=2.0)
    rep = verify_dissipativity(field, cond, n_probes=5000, radius=5.0,
                               rng=rng_at(6))
    assert rep.violations == 0
    assert rep.ok


def test_verify_dissipativity_power_potential():
    field = power_potential_drift(1.5, 1)
    rep = verify_dissipativity(field, field.claimed_condition, n_probes=10_000,
                               radius=10.0, rng=rng_at(7))
    assert rep.violations == 0


def test_verify_dissipativity_flags_antidissipative():
    field = DriftField(evaluate=lambda x: np.asarray(x, dtype=float), d=2,
                       label="expanding")
    cond = DriftCondition(k1=0.5, k2=1.0, l0=1.0, theta=2.0)
    rep = verify_dissipativity(field, cond, n_probes=2000, radius=3.0,
                               rng=rng_at(8))
    assert rep.violations > 0
    assert rep.worst_margin > 0
    assert rep.witness_x is not None


def test_verify_dissipativity_monotone_in_k1():
    field = power_potential_drift(1.2, 2)
    base = DriftCondition(k1=0.1, k2=field.claimed_condition.k2, l0=1.0,
                          theta=field.claimed_condition.theta)
    counts = []
    for k1 in (0.1, 0.5, 2.0):
        cond = DriftCondition(k1=k1, k2=base.k2, l0=base.l0, theta=base.theta)
        rep = verify_dissipativity(field, cond, n_probes=4000, radius=4.0,
                                   rng=rng_at(9))
        counts.append(rep.violations)
    assert counts[0] >= counts[1] >= counts[2]


def test_verify_dissipativity_input_validation():
    field = linear_drift(1.0, 1)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(ValueError):
        verify_dissipativity(field, cond, n_probes=0, radius=1.0, rng=rng_at(0))
    with pytest.raises(ValueError):
        verify_dissipativity(field, cond, n_probes=10, radius=0.0, rng=rng_at(0))


# ------------------------------ small-alpha gate -----------------------------


def test_gate_margin_hand_value():
    spec = isotropic_stable(1, 1.0)
    cond = DriftCondition(k1=0.05, k2=1.0, l0=1.0, theta=2.0)
    res = check_small_alpha_gate(spec, cond)
    assert res.passed
    assert res.margin == pytest.approx(1.0 / (4.0 * math.pi) - 0.05, abs=1e-15)


def test_gate_fails_for_large_k1():
    spec = isotropic_stable(1, 1.0)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    res = check_small_alpha_gate(spec, cond)
    assert not res.passed
    assert res.margin == pytest.approx(1.0 / (4.0 * math.pi) - 1.0, abs=1e-12)


def test_gate_vacuous_above_one():
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=100.0, k2=1.0, l0=1.0, theta=2.0)
    res = check_small_alpha_gate(spec, cond)
    assert res.passed and res.margin == float("inf")


@settings(max_examples=40, deadline=None)
@given(k1=st.floats(1e-4, 10.0), l0=st.floats(0.05, 5.0),
       alpha=st.floats(0.2, 1.0), d=st.integers(1, 3))
def test_gate_monotone_in_k1_l0(k1, l0, alpha, d):
    spec = isotropic_stable(d, alpha)
    bigger = check_small_alpha_gate(
        spec, DriftCondition(k1=k1, k2=1.0, l0=l0, theta=2.0)).margin
    smaller = check_small_alpha_gate(
        spec, DriftCondition(k1=k1 / 2.0, k2=1.0, l0=l0 / 2.0, theta=2.0)).margin
    assert smaller >= bigger


def test_registry_labels():
    assert drift_from_label("linear", 2, kappa=3.0).label.startswith("linear")
    assert drift_from_label("power_potential", 1, beta=1.5).claimed_condition.theta == 3.0
    field = drift_from_label("monomial", 1, c=2.0, q=1.0)
    assert field(np.array([2.0]))[0] == pytest.approx(-8.0)
    with pytest.raises(ValueError):
        drift_from_label("nope", 1)


def test_registry_fields_are_continuous():
    # sampled continuity probe: |b(x) - b(x + h)| -> 0 with |h| on random points
    rng = rng_at(20)
    for label, params in (("linear", {"kappa": 2.0}),
                          ("power_potential", {"beta": 1.5}),
                          ("monomial", {"c": 2.0, "q": 1.0})):
        field = drift_from_label(label, 2, **params)
        xs = rng.uniform(-3, 3, (200, 2))
        for h in (1e-3, 1e-5):
            bump = h * rng.standard_normal((200, 2))
            delta = np.linalg.norm(field(xs + bump) - field(xs), axis=1)
            assert np.all(delta <= 50.0 * np.linalg.norm(bump, axis=1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_point_drift_is_bitwise_batch_row(d):
    # a point (d,) and a batch (n, d) go through the same row norm
    xs = 3.0 * rng_at(30 + d).standard_normal((50, d))
    for field in (monomial_drift(2.0, 0.7, d), power_potential_drift(1.5, d)):
        batch = field(xs)
        assert all(np.array_equal(field(x), row) for x, row in zip(xs, batch))
