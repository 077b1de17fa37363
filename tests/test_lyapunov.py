"""Lyapunov construction, generator jump term, rates, certificates."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from stablecouple.drift_models import DriftCondition
from stablecouple.lyapunov import (
    CertificateError,
    ContractionCertificate,
    GateError,
    RateSweep,
    Regime,
    _jump_term,
    build_lyapunov,
    contraction_certificate,
    default_radial_grid,
    distance_generator_bound,
    rate_sweep,
    small_distance_rate,
    tail_envelope_positivity,
)
from stablecouple.stable_noise import isotropic_stable
from stablecouple.streams import derive_stream


# ------------------------------ construction --------------------------------


def test_high_alpha_constants_frozen(high_alpha_model):
    spec, cond, lyap = high_alpha_model
    assert lyap.regime is Regime.HIGH_ALPHA
    # independent evaluation with c_dalpha(1, 1.5) = 0.299207...
    assert lyap.big_c == pytest.approx(2.3936536824086, rel=1e-12)
    assert lyap.c1 == pytest.approx(40.1166993430487, rel=1e-12)
    assert lyap.a == pytest.approx(1.0 / lyap.c1, rel=1e-15)
    assert lyap.c2 == pytest.approx(20.0 * lyap.c1, rel=1e-15)
    decay = math.exp(-2.0 * lyap.c1)
    assert lyap.A == pytest.approx(lyap.c1 / lyap.c2 * decay, rel=1e-13)
    assert lyap.B == pytest.approx(-(lyap.c1 + lyap.c2) * lyap.c1 / 2 * decay,
                                   rel=1e-13)


def test_low_alpha_constants_by_hand(low_alpha_model):
    _, _, lyap = low_alpha_model
    assert lyap.regime is Regime.LOW_ALPHA
    assert lyap.a == 0.25
    assert lyap.c == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert lyap.c0 == pytest.approx(10.0, rel=1e-15)
    assert lyap.A == pytest.approx(1.0 / 20.0, rel=1e-15)
    assert lyap.B == pytest.approx(-21.0 / 8.0, rel=1e-15)


def test_low_alpha_gate_enforced():
    spec = isotropic_stable(1, 1.0)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(GateError) as err:
        build_lyapunov(spec, cond)
    assert err.value.margin == pytest.approx(1.0 / (4 * math.pi) - 1.0, abs=1e-12)


def test_value_at_zero_and_domain(high_alpha_model, low_alpha_model):
    for _, _, lyap in (high_alpha_model, low_alpha_model):
        assert lyap.value(0.0) == 0.0
        with pytest.raises(ValueError):
            lyap.value(-0.1)
        with pytest.raises(ValueError):
            lyap.prime(-1.0)


def _one_sided_derivatives(lyap):
    """Exact branch-formula derivatives at the gluing radius from each side."""
    s = lyap.switch_r
    if lyap.regime is Regime.HIGH_ALPHA:
        left1 = lyap.c1 * math.exp(-lyap.c1 * s)
        left2 = -lyap.c1 ** 2 * math.exp(-lyap.c1 * s)
    else:
        left1 = 1.0 - lyap.c * (1.0 + lyap.alpha) * s ** lyap.alpha
        left2 = -lyap.c * lyap.alpha * (1.0 + lyap.alpha) * s ** (lyap.alpha - 1.0)
    right1 = lyap.A * lyap.tail_exp
    right2 = lyap.A * lyap.tail_exp ** 2 + 2.0 * lyap.B
    return left1, right1, left2, right2


def test_gluing_closed_forms(high_alpha_model, low_alpha_model):
    spec_h, _, high = high_alpha_model
    _, _, low = low_alpha_model
    l1, r1, l2, r2 = _one_sided_derivatives(high)
    # both one-sided slopes equal c1 e^{-2 c1 L0}, analytically forced
    assert l1 == pytest.approx(high.c1 * math.exp(-2 * high.c1 * high.l0), rel=1e-12)
    assert r1 == pytest.approx(l1, rel=1e-12)
    assert r2 == pytest.approx(l2, rel=1e-10)

    l1, r1, l2, r2 = _one_sided_derivatives(low)
    assert l1 == pytest.approx(0.5, rel=1e-14)           # 1 - c(1+a)(2L0)^a = 1/2
    assert r1 == pytest.approx(0.5, rel=1e-14)           # A c0 = 1/2
    assert l2 == pytest.approx(-0.25, rel=1e-14)         # -alpha/(4 L0)
    assert r2 == pytest.approx(-0.25, rel=1e-14)


def test_gluing_finite_differences(high_alpha_model, low_alpha_model):
    # seam-crossing central differences converge only because the pieces glue
    # C^2; their accuracy is limited by roundoff (~1e-6 on the curvature) and
    # the third-derivative jump (~1e-4 on the slope), so exactness to 1e-9 is
    # certified by the closed-form one-sided limits above, not by these.
    h = 1e-5
    for _, _, lyap in (high_alpha_model, low_alpha_model):
        s = lyap.switch_r
        fd_prime = (lyap.value(s + h) - lyap.value(s - h)) / (2 * h)
        fd_second = (lyap.value(s + h) - 2 * lyap.value(s) + lyap.value(s - h)) / h ** 2
        scale = 1.0 + abs(float(lyap._piecewise(s, 2)))
        assert abs(fd_prime - float(lyap.prime(s))) <= 1e-3 * scale
        assert abs(fd_second - float(lyap._piecewise(s, 2))) <= 1e-2 * scale


def test_monotone_concave_profile(high_alpha_model, low_alpha_model):
    for _, _, lyap in (high_alpha_model, low_alpha_model):
        grid = np.geomspace(1e-6 * lyap.l0, 10 * lyap.l0, 500)
        primes = lyap.prime(grid)
        assert np.all(primes > 0.0)
        inner = grid[grid < lyap.switch_r]
        assert np.all(lyap._piecewise(inner, 2) < 0.0)


def _second_difference(lyap, r, h):
    """psi(r+h) + psi(r-h) - 2 psi(r) on the core, independent of the package.

    High alpha: -4 e^(-c1 r) sinh^2(c1 h / 2) in closed form; low alpha:
    -c ((r+h)^p + (r-h)^p - 2 r^p), p = 1 + alpha, at 50 digits.
    """
    if lyap.regime is Regime.HIGH_ALPHA:
        return -4.0 * math.exp(-lyap.c1 * r) * math.sinh(lyap.c1 * h / 2.0) ** 2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        r, h, p = mp.mpf(r), mp.mpf(h), 1 + mp.mpf(lyap.alpha)
        return float(-lyap.c * ((r + h) ** p + (r - h) ** p - 2 * r ** p))


def test_second_difference_taylor_bound(high_alpha_model, low_alpha_model):
    # psi(r+2u) + psi(r-2u) - 2 psi(r) <= 4 psi''((1+2a) r) u^2 for |u| <= a r
    for _, _, lyap in (high_alpha_model, low_alpha_model):
        for r in np.linspace(0.05, lyap.l0, 9):
            for u in np.linspace(1e-4 * r, lyap.a * r, 7):
                lhs = _second_difference(lyap, r, 2.0 * u)
                curv = float(lyap._piecewise((1.0 + 2.0 * lyap.a) * r, 2))
                rhs = 4.0 * curv * u ** 2
                assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


# ------------------------------- jump-term series -----------------------------


def jump_term_at(lyap, spec, r: float) -> float:
    """J(r) at one radius from the series the sweep runs."""
    return float(_jump_term(lyap, spec, [r])[0])


def test_jump_term_nonpositive_for_concave(high_alpha_model, low_alpha_model):
    for spec, _, lyap in (high_alpha_model, low_alpha_model):
        for r in (0.05, 0.3, 1.0):
            assert jump_term_at(lyap, spec, r) <= 0.0


@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 1.0])
def test_jump_term_d1_adaptive_quad_oracle(high_alpha_model, r):
    spec, _, lyap = high_alpha_model
    mine = jump_term_at(lyap, spec, r)
    direct, err = integrate.quad(
        lambda s: _second_difference(lyap, r, 2.0 * s)
        * spec.c_dalpha * s ** (-1.0 - spec.alpha),
        0.0, lyap.a * r, limit=400, epsabs=1e-16, epsrel=1e-12)
    assert mine == pytest.approx(direct, rel=1e-8)


def test_jump_term_d1_low_alpha_oracle(low_alpha_model):
    spec, _, lyap = low_alpha_model
    r = 0.8
    mine = jump_term_at(lyap, spec, r)
    # alpha = 1, psi = r - r^2/8: second difference at displacement 2s is -s^2
    direct, _ = integrate.quad(
        lambda s: -(s ** 2) * spec.c_dalpha * s ** (-2.0), 0.0, lyap.a * r)
    assert mine == pytest.approx(direct, rel=1e-10)
    assert mine == pytest.approx(-spec.c_dalpha * lyap.a * r, rel=1e-10)


def test_jump_term_d2_brute_force_oracle():
    spec = isotropic_stable(2, 1.5)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    lyap = build_lyapunov(spec, cond)
    r = 0.7
    mine = jump_term_at(lyap, spec, r)
    z_d = 2.0  # int_{-1}^{1} (1-t^2)^{-1/2} dt = pi; rho_2(t) = 1/(pi sqrt(1-t^2))
    brute, _ = integrate.dblquad(
        lambda t, s: (spec.c_dalpha * spec.omega_d / 2.0 * s ** (-1.0 - spec.alpha)
                      * _second_difference(lyap, r, 2.0 * s * abs(t))
                      * (1.0 - t * t) ** -0.5 / math.pi),
        0.0, lyap.a * r, -1.0, 1.0, epsabs=1e-14, epsrel=1e-10)
    assert mine == pytest.approx(brute, rel=1e-7)


def test_jump_term_d2_low_alpha_reference():
    # d = 2, alpha = 0.7, K1 = 0.01, L0 = 0.5 at r = 0.3: a 40-digit mpmath
    # double quadrature of the defining integral gives this value
    spec = isotropic_stable(2, 0.7)
    cond = DriftCondition(k1=0.01, k2=1.0, l0=0.5, theta=2.0)
    lyap = build_lyapunov(spec, cond)
    assert jump_term_at(lyap, spec, 0.3) == pytest.approx(-0.009773066557339368,
                                                         rel=1e-14)


def test_rate_sweep_matches_scalar_generator_bound(high_alpha_model,
                                                   low_alpha_model):
    spec2 = isotropic_stable(2, 1.5)
    cond2 = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    for spec, cond, lyap in (high_alpha_model,
                             (spec2, cond2, build_lyapunov(spec2, cond2)),
                             low_alpha_model):
        sweep = rate_sweep(lyap, spec, cond)
        below = sweep.rs <= cond.l0
        # one distance_generator_bound call per radius, on the whole grid
        gen = np.array([distance_generator_bound(lyap, spec, cond, float(r))
                        for r in sweep.rs])
        ratios = -gen[below] / lyap.value(sweep.rs[below])
        assert np.array_equal(sweep.ratios[below], ratios)
        assert np.array_equal(sweep.generator_bound, gen)
        assert np.array_equal(sweep.psi, lyap.value(sweep.rs))


# ------------------------------- rates and sweeps -----------------------------


def test_small_distance_rate_values(high_alpha_model, low_alpha_model):
    spec, cond, lyap = high_alpha_model
    lam1 = small_distance_rate(lyap, spec, cond)
    assert lam1 == pytest.approx(
        lyap.big_c * lyap.c1 ** 0.5 * math.exp(-2.0) / 2.0, rel=1e-12)
    assert lam1 == pytest.approx(1.0258998198510942, rel=1e-12)

    spec_l, cond_l, lyap_l = low_alpha_model
    lam1_l = small_distance_rate(lyap_l, spec_l, cond_l)
    assert lam1_l == pytest.approx(1.0 / (4 * math.pi) - 0.05, abs=1e-14)


def test_valid_small_distance_chain_high_alpha(high_alpha_model):
    # the provable small-distance statement: -L psi(r) >= lambda1 r psi'(r)
    spec, cond, lyap = high_alpha_model
    lam1 = small_distance_rate(lyap, spec, cond)
    for r in np.geomspace(1e-3, cond.l0, 25):
        gen = distance_generator_bound(lyap, spec, cond, float(r))
        floor = lam1 * r * float(lyap.prime(r))
        assert -gen >= floor * (1.0 - 1e-9)


def test_low_alpha_ratio_dominates_lambda1(low_alpha_model):
    spec, cond, lyap = low_alpha_model
    lam1 = small_distance_rate(lyap, spec, cond)
    for r in np.geomspace(1e-4, cond.l0, 25):
        gen = distance_generator_bound(lyap, spec, cond, float(r))
        ratio = -gen / float(lyap.value(r))
        assert ratio >= lam1 * (1.0 - 1e-9)


def test_low_alpha_jump_slope_dominates_lambda1():
    # alpha in (0, 1]: J(r) = -C r, and C >= lambda1 + K1 proves
    # lambda1_psi = lambda1 (contraction_certificate); C does not depend on K1
    for d in (1, 2, 3, 5, 8):
        for alpha in np.linspace(0.05, 1.0, 40):
            spec = isotropic_stable(d, float(alpha))
            for l0 in (0.1, 0.5, 1.0, 2.0):
                cond = DriftCondition(k1=1e-12, k2=1.0, l0=l0, theta=2.0)
                lyap = build_lyapunov(spec, cond)
                rs = np.geomspace(1e-4 * l0, l0, 5)
                slope = -_jump_term(lyap, spec, rs) / rs
                np.testing.assert_allclose(slope, slope[0], rtol=1e-15)
                floor = small_distance_rate(lyap, spec, cond) + cond.k1
                assert np.all(slope >= floor * (1.0 - 1e-14))


def test_rate_sweep_positive_both_regimes(high_alpha_model, low_alpha_model):
    for spec, cond, lyap in (high_alpha_model, low_alpha_model):
        sweep = rate_sweep(lyap, spec, cond)
        assert sweep.certified
        assert sweep.lambda_star > 0.0
        assert sweep.tail_increasing


def test_require_certified_rejects_falling_tail():
    # lambda* > 0, but the ratio falls over the last grid points: the
    # infimum over the unbounded tail may lie beyond the grid
    rs = np.linspace(0.5, 5.0, 10)
    ratios = np.array([3.0, 2.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.2, 3.1])
    sweep = RateSweep(rs=rs, ratios=ratios, lambda_star=1.0, argmin_r=rs[2],
                      tail_increasing=bool(ratios[-1] > ratios[-2] > ratios[-3]),
                      psi=np.ones(10), generator_bound=-ratios)
    assert sweep.certified
    with pytest.raises(CertificateError, match="not increasing at grid end") as info:
        sweep.require_certified()
    assert info.value.r == rs[-1]


def test_exact_equality_branch_far_tail(high_alpha_model):
    # with drift at the equality branch, -L psi >= 0.5 K2 A c2 e^{c2 dd} r^{theta-1}
    spec, cond, lyap = high_alpha_model
    for dd in np.linspace(0.0, min(500.0 / lyap.c2, 8.0 * lyap.l0), 40):
        r = lyap.switch_r + dd
        lhs = cond.k2 * r ** (cond.theta - 1.0) * float(lyap.prime(r))
        rhs = 0.5 * cond.k2 * lyap.A * lyap.c2 * math.exp(lyap.c2 * dd) \
            * r ** (cond.theta - 1.0)
        assert lhs >= rhs * (1.0 - 1e-12)


def test_tail_underflow_is_certificate_error():
    # alpha = 1.2 with K1 = K2 = L0 = 1: c1 = 5.5e4, so A = (c1/c2) e^(-2 L0 c1)
    # underflows to 0 and psi would be 0 * inf = nan on its tail
    spec = isotropic_stable(1, 1.2)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(CertificateError) as info:
        build_lyapunov(spec, cond)
    assert info.value.r == 2.0 * cond.l0


def test_large_c1_core_ratio():
    # alpha = 1.5 with K1 = 3: 2 L0 c1 = 690 puts c1 r > 600 on the core
    # while A = e^(-690) / 20 is still positive
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=3.0, k2=1.0, l0=1.0, theta=2.0)
    lyap = build_lyapunov(spec, cond)
    assert 600.0 < 2.0 * cond.l0 * lyap.c1 < 745.0 and lyap.A > 0.0
    # either side of c1 r = 600 the two forms of c1 / expm1(c1 r) agree
    for x in (599.0, 601.0, 2.0 * cond.l0 * lyap.c1):
        r = x / lyap.c1
        assert lyap.prime_over_value(r) == pytest.approx(
            lyap.c1 * math.exp(-x), rel=1e-13)
    assert tail_envelope_positivity(lyap).ok


# ------------------------------ tail envelope --------------------------------


def test_tail_envelope_low_alpha_bracket(low_alpha_model):
    _, _, lyap = low_alpha_model
    rep = tail_envelope_positivity(lyap)
    assert rep.ok
    # -4B/(A c0^2) = 2 + alpha/(L0 c0) = 2.1 exactly
    assert -4.0 * lyap.B / (lyap.A * lyap.c0 ** 2) == pytest.approx(2.1, rel=1e-12)
    assert rep.value_at_stationary == pytest.approx(
        (-2.0 * lyap.B / lyap.c0) * (1.0 - math.log(2.1)), rel=1e-12)


def test_tail_envelope_high_alpha_bracket(high_alpha_model):
    _, _, lyap = high_alpha_model
    rep = tail_envelope_positivity(lyap)
    assert rep.ok
    # c2 = 20 c1 makes the bracket exactly 1 - log(2(c1+c2)/c2) = 1 - log 2.1
    assert -4.0 * lyap.B / (lyap.A * lyap.c2 ** 2) == pytest.approx(2.1, rel=1e-12)
    assert rep.value_at_stationary == pytest.approx(
        (-2.0 * lyap.B / lyap.c2) * (1.0 - math.log(2.1)), rel=1e-12)


def test_tail_envelope_value_at_switch(high_alpha_model):
    _, _, lyap = high_alpha_model
    # g(2 L0) = A c2 / 2 > 0 bounds the convex infimum from above
    g_switch = 0.5 * lyap.A * lyap.c2
    assert g_switch > 0.0
    rep = tail_envelope_positivity(lyap)
    assert rep.stationary_r >= lyap.switch_r
    assert 0.0 < rep.value_at_stationary <= g_switch * (1.0 + 1e-12)
    # a weak quadratic pulls the stationary point below 2 L0: g is increasing
    # on [2 L0, inf) and its infimum is exactly g(2 L0)
    flat = dataclasses.replace(lyap, B=-0.01 * lyap.A * lyap.c2 ** 2)
    rep = tail_envelope_positivity(flat)
    assert rep.stationary_r == lyap.switch_r
    assert rep.value_at_stationary == pytest.approx(g_switch, rel=1e-12)
    assert rep.ok


# ------------------------------- certificates ---------------------------------


def test_certificate_t0_hand_value():
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    cert = contraction_certificate(spec, cond, 1.0)
    assert cert.t0 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("l0, p", [(1.0, 1.0), (0.5, 4.0)])
def test_certificate_prefactor_covers_closed_form_envelope(l0, p):
    # theta = 3 and K2 = 2^-1.5 (monomial(1, 1) holds it), so t0 =
    # 2^1.5 / L0 > 1 and the envelope cap = max(L0, 1/K2) = 2^1.5.
    # Exactly, m_c = inf_{u >= L0} (u^(1/p) v u)/(1+u) = 1/2 (at u = 1)
    # and the phase supremum sup_{u >= L0} min(u, cap)(1+u)/(u^(1/p) v u)
    # = 1 + cap (at u = cap); a grid over u misses both on the unsafe side
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=1.0, k2=2.0 ** -1.5, l0=l0, theta=3.0)
    cert = contraction_certificate(spec, cond, p)
    grow = math.exp(cert.lam * cert.t0 / p)
    third = ((cert.c_p * l0) ** (1.0 / p) * grow / 0.5
             + grow * (1.0 + 2.0 ** 1.5))
    assert cert.prefactor >= third * (1.0 - 1e-12)


def test_certificate_theta2_omits_t0(high_alpha_model):
    spec, cond, _ = high_alpha_model
    cert = contraction_certificate(spec, cond, 1.0)
    assert cert.t0 is None
    assert "t0" not in cert.to_record()


def test_certificate_cp_finite_and_lambda_min(high_alpha_model, low_alpha_model):
    spec, cond, lyap = high_alpha_model
    cert = contraction_certificate(spec, cond, 1.0)
    assert 1.0 <= cert.c_p < math.inf
    # the chain -L psi >= lambda1 r psi' becomes a psi rate through
    # r psi'/psi, which decreases on (0, L0] and is smallest at L0
    kappa = cond.l0 * lyap.prime_over_value(cond.l0)
    assert 0.0 < kappa < 1.0
    assert cert.lambda1_psi == cert.lambda1 * kappa
    assert cert.lam == min(cert.lambda1_psi, cert.lambda2)
    assert cert.lam > 0.0

    spec_l, cond_l, _ = low_alpha_model
    cert_l = contraction_certificate(spec_l, cond_l, 1.0)
    assert cert_l.lambda1_psi == cert_l.lambda1
    assert cert_l.lam == min(cert_l.lambda1_psi, cert_l.lambda2)


def test_certificate_rate_within_sweep_infimum(high_alpha_model, low_alpha_model):
    # lam must not exceed the grid infimum of -L psi / psi.  With K2 large the
    # infimum (0.0319) sits just below L0, under both lambda2 (0.0752) and
    # the chain constant lambda1 (1.24), which does not bound the ratio there
    spec_k = isotropic_stable(1, 1.8)
    cond_k = DriftCondition(k1=1.0, k2=1e5, l0=1.0, theta=2.0)
    models = [high_alpha_model, low_alpha_model,
              (spec_k, cond_k, build_lyapunov(spec_k, cond_k))]
    for spec, cond, lyap in models:
        cert = contraction_certificate(spec, cond, 1.0)
        sweep = rate_sweep(lyap, spec, cond)
        assert 0.0 < cert.lam <= sweep.lambda_star


def test_certificate_record_roundtrip():
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    cert = contraction_certificate(spec, cond, 2.0)
    back = ContractionCertificate.from_record(cert.to_record())
    for name in ("lam", "lambda1", "lambda1_psi", "lambda2", "c_p", "c2_chain",
                 "t0", "p", "prefactor", "theta"):
        assert getattr(back, name) == pytest.approx(getattr(cert, name),
                                                    rel=1e-15)
    # every line carries its tag, before and after the round trip
    tags = {"lambda": "assembled", "lambda1": "closed-form",
            "lambda1_psi": "closed-form", "lambda2": "numeric-infimum",
            "c_p": "numeric-infimum", "c2_chain": "assembled", "p": "parameter",
            "prefactor": "assembled", "theta": "parameter", "t0": "closed-form",
            "d": "input", "alpha": "input", "k1": "input", "k2": "input",
            "l0": "input", "theta_in": "input", "p_in": "input"}
    for record in (cert.to_record(), back.to_record()):
        lines = record.splitlines()[1:]
        assert len(lines) == len(tags)
        for line in lines:
            key = line.partition("=")[0].strip()
            assert line.partition("#")[2].strip() == tags[key]


def test_certificate_bound_divisor():
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    cert = contraction_certificate(spec, cond, 1.0)
    r0 = 0.5
    early = cert.wp_bound(0.5, r0)
    late = cert.wp_bound(1.5, r0)
    # the divisor 1 + r0 switches on after t = 1 (theta > 2)
    assert early / late == pytest.approx((1.0 + r0) * math.exp(cert.lam), rel=1e-9)


def test_certificate_gate_propagates():
    spec = isotropic_stable(1, 0.9)
    cond = DriftCondition(k1=5.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(GateError):
        contraction_certificate(spec, cond, 1.0)


def test_default_radial_grid_shape():
    grid = default_radial_grid(2.0)
    assert len(grid) == 400
    assert grid[0] == pytest.approx(2e-4)
    assert grid[-1] == pytest.approx(20.0)
