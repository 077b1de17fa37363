"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 5a checks that the small-separation rate the certificate puts into
lambda is dominated by -L psi / psi on (0, L0].  For the alpha-in-(1,2)
profile that rate is not the closed-form chain constant lambda_1: the
construction guarantees only -L psi(r) >= lambda_1 r psi'(r) (verified in
test_criterion_05a_valid_chain), and r psi'/psi <= 1 for a concave psi
vanishing at 0, so the certificate scales lambda_1 by the smallest value of
r psi'/psi on (0, L0], attained at L0.
"""

import math
import time

import numpy as np
import pytest

from stablecouple.cli import (
    EXIT_OK,
    build_config,
    cmd_certify,
    cmd_simulate,
    cmd_wp,
)
from stablecouple.coupling_engine import (
    SchemeConfig,
    _drift_flow,
    _mirror,
    lyapunov_decay_series,
    simulate_coupled_ensemble,
)
from stablecouple.drift_models import (
    DriftCondition,
    check_small_alpha_gate,
    monomial_drift,
    power_potential_drift,
)
from stablecouple.lyapunov import (
    Regime,
    build_lyapunov,
    contraction_certificate,
    distance_generator_bound,
    rate_sweep,
    small_distance_rate,
    tail_envelope_positivity,
)
from stablecouple.stable_noise import isotropic_stable
from stablecouple.streams import derive_stream
from stablecouple.wasserstein_metrics import (
    contraction_rate_fit,
    coupling_wp_upper,
    exact_empirical_wp,
)

from oracles import (
    energy_distance_test,
    sample_increment,
    sample_truncated_jump,
)

SEED = 891235


def report(number: str, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def rng_at(index: int) -> np.random.Generator:
    return derive_stream(SEED, index)


# ---------------------------------------------------------------------------
# 1. Reflection-map algebra
# ---------------------------------------------------------------------------


def test_criterion_01_reflection_algebra():
    t0 = time.time()
    rng = rng_at(1)
    n, d = 100_000, 3
    x = rng.uniform(-5, 5, (n, d))
    y = rng.uniform(-5, 5, (n, d))
    z = rng.uniform(-5, 5, (n, d))

    # the engine's mirror, as coupled_jump calls it
    e = x - y
    r = np.linalg.norm(e, axis=1)
    phi = _mirror(z, e, r)
    tol = 1e-12
    scale_z = 1.0 + np.linalg.norm(z, axis=1)
    involution = np.max(np.linalg.norm(_mirror(phi, e, r) - z, axis=1) / scale_z)
    isometry = np.max(np.abs(np.linalg.norm(phi, axis=1) - np.linalg.norm(z, axis=1))
                      / scale_z)
    scale_e = 1.0 + r
    ortho = np.max(np.abs(np.einsum("ij,ij->i", z + phi, e)) / (scale_z * scale_e))
    diff = z - phi
    proj = np.einsum("ij,ij->i", diff, e)
    resid = diff - (proj / r ** 2)[:, None] * e
    parallel = np.max(np.linalg.norm(resid, axis=1) / scale_z)
    elapsed = time.time() - t0

    ok = max(involution, isometry, ortho, parallel) <= tol and elapsed < 1.0
    assert report("1", "reflection algebra", ok,
                  f"worst {max(involution, isometry, ortho, parallel):.2e}, "
                  f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Stable sampler law
# ---------------------------------------------------------------------------


def test_criterion_02_stable_sampler_law():
    from scipy import stats

    t0 = time.time()
    n = 100_000
    freqs = (0.4, 0.8, 1.2, 1.6, 2.0)
    worst = 0.0
    for i, (d, alpha) in enumerate([(1, 0.8), (1, 1.5), (2, 1.5), (3, 1.2)]):
        spec = isotropic_stable(d, alpha)
        z = sample_increment(spec, 1.0, rng_at(20 + i), size=n)
        for q in freqs:
            xi = np.zeros(d)
            xi[0] = q
            c = np.cos(z @ xi)
            se = c.std(ddof=1) / math.sqrt(n)
            worst = max(worst, abs(c.mean() - math.exp(-q ** alpha)) / (3.0 * se))
    cauchy = sample_increment(isotropic_stable(1, 1.0), 1.0, rng_at(29),
                              size=n)[:, 0]
    pval = stats.kstest(cauchy, "cauchy").pvalue
    elapsed = time.time() - t0
    ok = worst <= 1.0 and pval > 0.01 and elapsed < 30.0
    assert report("2", "stable sampler law", ok,
                  f"max |z|/3 = {worst:.2f}, KS p = {pval:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Measure invariance under reflection
# ---------------------------------------------------------------------------


def test_criterion_03_measure_invariance():
    t0 = time.time()
    spec = isotropic_stable(2, 1.5)
    rng = rng_at(30)
    n = 10_000
    x = np.array([0.7, -0.2])
    y = np.array([-0.1, 0.4])
    z_a = sample_truncated_jump(spec, 0.05, 2.0, rng, size=n)
    z_b = sample_truncated_jump(spec, 0.05, 2.0, rng, size=n)
    e = np.tile(x - y, (n, 1))
    phi_b = _mirror(z_b, e, np.linalg.norm(e, axis=1))
    stat, pval = energy_distance_test(z_a, phi_b, rng_at(31), n_perm=199)
    elapsed = time.time() - t0
    ok = pval >= 0.01 and elapsed < 10.0
    assert report("3", "measure invariance", ok,
                  f"energy stat {stat:.2e}, p = {pval:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Lyapunov-profile construction over random admissible parameters
# ---------------------------------------------------------------------------


def _random_models(rng, n_high=10, n_low=10):
    models = []
    for _ in range(n_high):
        d = int(rng.integers(1, 4))
        alpha = rng.uniform(1.5, 1.9)
        k1 = rng.uniform(0.1, 1.0)
        l0 = rng.uniform(0.4, 1.0)
        spec = isotropic_stable(d, alpha)
        cond = DriftCondition(k1=k1, k2=1.0, l0=l0, theta=2.0)
        models.append((spec, cond))
    for _ in range(n_low):
        d = int(rng.integers(1, 4))
        alpha = rng.uniform(0.3, 1.0)
        l0 = rng.uniform(0.5, 2.0)
        spec = isotropic_stable(d, alpha)
        bound = (alpha * spec.c_dalpha * spec.omega_d * 3.0 ** (alpha - 1.0)
                 / (8.0 * (2.0 - alpha) * d))
        cond = DriftCondition(k1=0.5 * bound / l0 ** alpha, k2=1.0, l0=l0,
                              theta=2.0)
        assert check_small_alpha_gate(spec, cond).passed
        models.append((spec, cond))
    return models


def test_criterion_04_profile_construction():
    t0 = time.time()
    rng = rng_at(40)
    worst_glue = 0.0
    for spec, cond in _random_models(rng):
        lyap = build_lyapunov(spec, cond)
        s = lyap.switch_r
        if lyap.regime is Regime.HIGH_ALPHA:
            left1 = lyap.c1 * math.exp(-lyap.c1 * s)
            left2 = -lyap.c1 ** 2 * math.exp(-lyap.c1 * s)
            # the closed-form slope at the seam, from both sides
            forced = lyap.c1 * math.exp(-2.0 * lyap.c1 * lyap.l0)
            assert abs(left1 - forced) <= 1e-9 * (1.0 + abs(forced))
            assert abs(lyap.A * lyap.c2 - forced) <= 1e-9 * (1.0 + abs(forced))
        else:
            left1 = 1.0 - lyap.c * (1.0 + lyap.alpha) * s ** lyap.alpha
            left2 = (-lyap.c * lyap.alpha * (1.0 + lyap.alpha)
                     * s ** (lyap.alpha - 1.0))
        right1 = lyap.A * lyap.tail_exp
        right2 = lyap.A * lyap.tail_exp ** 2 + 2.0 * lyap.B
        scale = 1.0 + abs(left2)
        glue = max(abs(left1 - right1) / scale, abs(left2 - right2) / scale)
        worst_glue = max(worst_glue, glue)
        assert glue <= 1e-9

        grid = np.geomspace(1e-5 * lyap.l0, 10.0 * lyap.l0, 400)
        assert np.all(lyap.prime(grid) > 0.0)
        inner = grid[grid < s]
        assert np.all(lyap._piecewise(inner, 2) < 0.0)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    assert report("4", "profile construction (20 random models)", ok,
                  f"worst gluing defect {worst_glue:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Lyapunov certificate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def high_alpha_default():
    spec = isotropic_stable(1, 1.5)
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=2.0)
    return spec, cond, build_lyapunov(spec, cond)


def test_criterion_05a_ratio_dominates_lambda1_expected_fail(high_alpha_default):
    """The certificate's small-separation rate is a lower bound for
    -L psi / psi on (0, L0].

    The rate is read from the certificate (``lambda1_psi``), not recomputed
    here, so the check fails if the assembly puts the chain constant
    lambda_1 itself into lambda: near r = L0 the true ratio is smaller than
    lambda_1 by many orders of magnitude (the profile saturates while
    r psi' collapses).  The test name is historical: the criterion failed
    while the certificate used lambda_1 directly.
    """
    spec, cond, lyap = high_alpha_default
    rate = contraction_certificate(spec, cond, 1.0).lambda1_psi
    grid = np.geomspace(1e-4, cond.l0, 120)
    ratios = np.array([
        -distance_generator_bound(lyap, spec, cond, float(r)) / float(lyap.value(r))
        for r in grid
    ])
    ok = bool(np.all(ratios >= rate * (1.0 - 1e-10)))
    report("5a", "small-separation ratio >= certified rate (alpha in (1,2))", ok,
           f"min ratio {ratios.min():.3e} vs lambda1_psi {rate:.4e}")
    assert ok


def test_criterion_05a_valid_chain(high_alpha_default):
    # the provable form of the same estimate: -L psi(r) >= lambda1 r psi'(r)
    spec, cond, lyap = high_alpha_default
    lam1 = small_distance_rate(lyap, spec, cond)
    grid = np.geomspace(1e-4, cond.l0, 120)
    ok = True
    margin = math.inf
    for r in grid:
        gen = distance_generator_bound(lyap, spec, cond, float(r))
        floor = lam1 * float(r) * float(lyap.prime(r))
        margin = min(margin, -gen / floor)
        ok = ok and (-gen >= floor * (1.0 - 1e-10))
    assert report("5a'", "valid small-separation chain", ok,
                  f"min(-Lpsi / (lam1 r psi')) = {margin:.2f}")


def test_criterion_05b_lambda_star_positive(high_alpha_default):
    t0 = time.time()
    spec, cond, lyap = high_alpha_default
    sweep = rate_sweep(lyap, spec, cond)

    spec_l = isotropic_stable(1, 1.0)
    cond_l = DriftCondition(k1=0.05, k2=1.0, l0=1.0, theta=2.0)
    gate = check_small_alpha_gate(spec_l, cond_l)
    margin_exact = 1.0 / (4.0 * math.pi) - 0.05
    lyap_l = build_lyapunov(spec_l, cond_l)
    sweep_l = rate_sweep(lyap_l, spec_l, cond_l)
    elapsed = time.time() - t0

    ok = (sweep.lambda_star > 0.0 and sweep.tail_increasing
          and abs(gate.margin - margin_exact) <= 1e-12
          and sweep_l.lambda_star > 0.0 and elapsed < 60.0)
    assert report("5b", "lambda* > 0 and the small-alpha gate margin", ok,
                  f"high lambda* {sweep.lambda_star:.2e}, "
                  f"low lambda* {sweep_l.lambda_star:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Tail-envelope positivity
# ---------------------------------------------------------------------------


def test_criterion_06_tail_envelope(high_alpha_default):
    _, _, lyap_h = high_alpha_default
    spec_l = isotropic_stable(1, 1.0)
    cond_l = DriftCondition(k1=0.05, k2=1.0, l0=1.0, theta=2.0)
    lyap_l = build_lyapunov(spec_l, cond_l)

    rep_l = tail_envelope_positivity(lyap_l)
    rep_h = tail_envelope_positivity(lyap_h)
    bracket = 1.0 - math.log(2.1)
    # g's bracket at its stationary point, 1 - log(-4B/(A cexp^2))
    brk_l, brk_h = (1.0 - math.log(-4.0 * lyap.B / (lyap.A * lyap.tail_exp ** 2))
                    for lyap in (lyap_l, lyap_h))
    ok = (rep_l.ok and rep_h.ok
          and abs(brk_l - bracket) <= 1e-12
          and brk_h >= bracket - 1e-12
          and rep_l.value_at_stationary > 0.0
          and rep_h.value_at_stationary > 0.0)
    # the closed-form infimum against g evaluated directly on [2 L0, 10 L0]
    for lyap, rep in ((lyap_l, rep_l), (lyap_h, rep_h)):
        cexp = lyap.tail_exp
        dd = np.linspace(0.0, 8.0 * lyap.l0, 400)
        with np.errstate(over="ignore"):
            g = 0.5 * lyap.A * cexp * np.exp(cexp * dd) + 2.0 * lyap.B * dd
        floor = rep.value_at_stationary
        ok = (ok and bool(np.all(g >= floor - 1e-12 * abs(floor)))
              and bool(np.all(g > 0.0))
              and abs(g[0] - 0.5 * lyap.A * cexp) <= 1e-12 * g[0])
    assert report("6", "tail envelope positivity", ok,
                  f"brackets {brk_l:.6f} / {brk_h:.6f}"
                  f" vs 1 - log 2.1 = {bracket:.6f}")


# ---------------------------------------------------------------------------
# 7. Marginal fidelity of the coupling
# ---------------------------------------------------------------------------


def _worst_cf_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max over q of |CF_a(q) - CF_b(q)| / (3 se) for two 1-d samples."""
    worst = 0.0
    for q in (0.5, 1.0, 1.5, 2.0, 3.0):
        ca = np.cos(q * a) + 1j * np.sin(q * a)
        cb = np.cos(q * b) + 1j * np.sin(q * b)
        diff = abs(ca.mean() - cb.mean())
        se = math.sqrt((ca.real.var(ddof=1) + ca.imag.var(ddof=1)) / len(a)
                       + (cb.real.var(ddof=1) + cb.imag.var(ddof=1)) / len(b))
        worst = max(worst, diff / (3.0 * se))
    return worst


def test_criterion_07_marginal_fidelity():
    t0 = time.time()
    spec = isotropic_stable(1, 1.5)
    field = power_potential_drift(1.5, 1)
    lyap = build_lyapunov(spec, field.claimed_condition)
    cfg = SchemeConfig()
    grid = np.array([0.0, 1.0])
    n = 10_000

    x0, y0 = np.array([0.25]), np.array([-0.25])
    coupled = simulate_coupled_ensemble(x0, y0, field, spec, lyap, cfg, 1.0,
                                        grid, n, seed=SEED + 70)
    # the uncoupled laws: pairs merged from the start, so Y tracks X exactly;
    # Y's law is checked too, since Y takes the mirrored part of the kick
    single_x = simulate_coupled_ensemble(x0, x0, field, spec, None, cfg, 1.0,
                                         grid, n, seed=SEED + 71)
    single_y = simulate_coupled_ensemble(y0, y0, field, spec, None, cfg, 1.0,
                                         grid, n, seed=SEED + 72)
    worst_x = _worst_cf_gap(coupled.xs[:, 1, 0], single_x.xs[:, 1, 0])
    worst_y = _worst_cf_gap(coupled.ys[:, 1, 0], single_y.xs[:, 1, 0])
    elapsed = time.time() - t0
    ok = max(worst_x, worst_y) <= 1.0 and elapsed < 300.0
    assert report("7", "coupled X- and Y-marginals match the uncoupled laws", ok,
                  f"max |dCF|/3se = {worst_x:.2f} (X), {worst_y:.2f} (Y), "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Synchronous phase
# ---------------------------------------------------------------------------


def test_criterion_08_synchronous_phase():
    # monomial drift -2|x|x from the centered pair (1, -1) realizes
    # dr/dt = -r^2 exactly: r(t) = 1/(t + 1/2) reaches L0 = 1 at t = 0.5,
    # below the hitting bound t0 = 1
    cond = DriftCondition(k1=1.0, k2=1.0, l0=1.0, theta=3.0)
    t0_cap = cond.hitting_cap
    field = monomial_drift(2.0, 1.0, 1)

    # jumps cancel in the separation, so the drift-only pair ODE is the
    # deterministic difference path; integrate it with the engine's flow,
    # the rows x and y in one call
    xy = np.array([[1.0], [-1.0]])
    dt = 0.01
    t, r_hit = 0.0, None
    riccati_err = 0.0
    while t < 0.75:
        xy = _drift_flow(field, xy, np.full(2, dt))
        t += dt
        r = abs(float(xy[0, 0] - xy[1, 0]))
        riccati_err = max(riccati_err, abs(r - 1.0 / (t + 0.5)))
        if r_hit is None and r <= 1.0:
            r_hit = t
    ode_ok = riccati_err <= 1e-8 and abs(r_hit - 0.5) <= dt + 1e-9

    # the stochastic engine: common noise cancels in the separation, and for
    # this odd drift the centered pair is the slowest configuration, so the
    # Riccati curve is a pathwise envelope and crossing happens by 0.5
    spec = isotropic_stable(1, 1.5)
    lyap = build_lyapunov(spec, cond)
    grid = np.linspace(0.0, 0.6, 121)
    ens = simulate_coupled_ensemble(np.array([1.0]), np.array([-1.0]), field,
                                    spec, lyap, SchemeConfig(), 0.6, grid, 64,
                                    seed=SEED + 80)
    envelope = 1.0 / (grid + 0.5)
    engine_ok = True
    for i in range(64):
        by_half = grid <= 0.5 + 0.03
        engine_ok &= bool(ens.r[i][by_half].min() <= 1.0 + 2.5 * float(lyap.a))
        strict = ens.r[i] > 1.1
        band = strict[:-1] & strict[1:]
        engine_ok &= bool(np.all(ens.r[i][strict] <= envelope[strict] * (1 + 1e-7)))
        engine_ok &= bool(np.all(np.diff(ens.r[i])[band] <= 1e-12))

    ok = ode_ok and engine_ok and t0_cap == pytest.approx(1.0, rel=1e-12) \
        and r_hit < t0_cap
    assert report("8", "synchronous phase hits L0 by the Riccati time", ok,
                  f"hit at t = {r_hit:.3f} (bound 0.5, cap {t0_cap:.1f}), "
                  f"ODE defect {riccati_err:.1e}")


# ---------------------------------------------------------------------------
# 9. Contraction headline
# ---------------------------------------------------------------------------


def _headline_run(delta_floor: float, eps_couple: float, seed: int):
    spec = isotropic_stable(1, 1.5)
    field = power_potential_drift(1.5, 1)
    cond = field.claimed_condition
    lyap = build_lyapunov(spec, cond)
    cert = contraction_certificate(spec, cond, 1.0)
    cfg = SchemeConfig(delta_floor=delta_floor, eps_couple=eps_couple)
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25)
    ens = simulate_coupled_ensemble(np.array([0.25]), np.array([-0.25]), field,
                                    spec, lyap, cfg, 5.0, grid, 10_000, seed)
    series = lyapunov_decay_series(ens, lyap)
    r0 = 0.5
    bound = float(lyap.value(r0)) * np.exp(-cert.lam * series.times)
    rel = np.divide(series.stderr, series.mean,
                    out=np.zeros_like(series.mean), where=series.mean > 0)
    # at t = 0 the two sides are mathematically equal and the stderr is 0;
    # the 1e-12 relative allowance covers summation rounding of the mean
    dominated = bool(np.all(series.mean <= bound * (1.0 + 3.0 * rel + 1e-12)))

    pos = series.mean > 0
    last = len(pos) if pos.all() else int(np.argmin(pos))
    fit = contraction_rate_fit(series.times[:last], series.mean[:last],
                               series.stderr[:last])
    fitted_ok = fit.lambda_hat >= cert.lam - 2.0 * fit.lambda_stderr
    return dominated and fitted_ok, cert, fit


def test_criterion_09_contraction_headline():
    t0 = time.time()
    # the robustness run halves delta_floor, the truncation radius, and
    # eps_couple
    floor = SchemeConfig().delta_floor
    base_ok, cert, fit = _headline_run(floor, 1e-6, SEED + 90)
    halved_ok, _, _ = _headline_run(floor / 2.0, 5e-7, SEED + 91)
    elapsed = time.time() - t0
    ok = base_ok and (halved_ok == base_ok) and elapsed < 600.0
    assert report("9", "contraction headline", ok,
                  f"lambda_cert = {cert.lam:.2e}, lambda_hat = "
                  f"{fit.lambda_hat:.4f} +- {fit.lambda_stderr:.4f}, "
                  f"robustness match = {halved_ok == base_ok}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Uniformly dissipative scenario
# ---------------------------------------------------------------------------


def test_criterion_10_dissipative_synchronous():
    from stablecouple.drift_models import linear_drift

    spec = isotropic_stable(1, 1.5)
    field = linear_drift(1.0, 1)
    cfg = SchemeConfig()
    grid = np.arange(0.0, 3.0 + 1e-9, 0.25)
    ens = simulate_coupled_ensemble(np.array([0.5]), np.array([-0.5]), field,
                                    spec, None, cfg, 3.0, grid, 256,
                                    seed=SEED + 100)
    ok = True
    worst = 0.0
    for p in (1.0, 2.0):
        for k, t in enumerate(grid):
            upper, se = coupling_wp_upper(ens.xs[:, k, :], ens.ys[:, k, :], p)
            target = math.exp(-t) * 1.0
            rel_se = se / target if target > 0 else 0.0
            ok = ok and upper <= target * (1.0 + 3.0 * rel_se + 1e-6)
            worst = max(worst, upper / target - 1.0)
    assert report("10", "uniformly dissipative synchronous bound", ok,
                  f"worst relative excess {worst:.2e}")


# ---------------------------------------------------------------------------
# 11. Optimal-transport solver correctness
# ---------------------------------------------------------------------------


def test_criterion_11_ot_solver():
    import itertools

    rng = rng_at(110)
    lift = lambda a: np.hstack([a, np.zeros_like(a)])

    # 100 random one-dimensional instances: assignment equals sorting
    for _ in range(100):
        xs = rng.standard_normal((64, 1))
        ys = rng.standard_normal((64, 1))
        fast = exact_empirical_wp(xs, ys, 2.0)
        slow = exact_empirical_wp(lift(xs), lift(ys), 2.0)
        assert abs(fast - slow) <= 1e-12 * (1.0 + fast)

    # brute-force enumeration for all n <= 7
    for n in range(2, 8):
        for _ in range(10):
            xs = rng.standard_normal((n, 2))
            ys = rng.standard_normal((n, 2))
            cost_best = math.inf
            for perm in itertools.permutations(range(n)):
                cost = np.mean([np.linalg.norm(xs[i] - ys[perm[i]]) ** 2
                                for i in range(n)])
                cost_best = min(cost_best, cost)
            want = cost_best ** 0.5
            got = exact_empirical_wp(xs, ys, 2.0)
            assert got == pytest.approx(want, rel=1e-10)

    # metric axioms and upper-bound dominance
    for _ in range(50):
        a = rng.standard_normal((24, 2))
        b = rng.standard_normal((24, 2))
        c = rng.standard_normal((24, 2))
        dab = exact_empirical_wp(a, b, 2.0)
        assert dab == pytest.approx(exact_empirical_wp(b, a, 2.0), rel=1e-12)
        assert dab <= (exact_empirical_wp(a, c, 2.0)
                       + exact_empirical_wp(c, b, 2.0) + 1e-9)
        upper, _ = coupling_wp_upper(a, b, 2.0)
        assert upper >= dab - 1e-12
    assert report("11", "assignment solver vs sorting/brute force/axioms", True)


# ---------------------------------------------------------------------------
# 12. End-to-end distance bound
# ---------------------------------------------------------------------------


def test_criterion_12_end_to_end_bound(tmp_path):
    t0 = time.time()
    out = tmp_path / "headline"
    cfg = build_config(None, {
        "alpha": 1.5, "beta": 1.5, "p": 1.0, "n_paths": 512, "horizon": 5.0,
        "grid_step": 0.25, "r0": 0.5, "seed": SEED + 120, "out": str(out),
    })
    assert cmd_certify(cfg) == EXIT_OK
    assert cmd_simulate(cfg) == EXIT_OK
    code = cmd_wp(cfg)
    rows = np.loadtxt(out / "wp.csv", delimiter=",", skiprows=1)
    flags = int(rows[:, -1].sum())
    elapsed = time.time() - t0
    ok = code == EXIT_OK and flags == 0
    assert report("12", "end-to-end certified distance bound", ok,
                  f"flags = {flags}, {elapsed:.0f}s")
