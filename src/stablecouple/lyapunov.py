"""Radial Lyapunov functions for the coupled distance process and the
certified contraction constants.

For a pair coupled by reflection (small jumps, small separation) and
synchronously otherwise, the separation r = |x - y| is a jump process whose
generator acts on radial test functions psi as

    L psi(r) = J(r) + psi'(r) D(r),

where D(r) is the worst drift allowed by the two-regime condition
(K1 r below L0, -K2 r^(theta-1) above) and J(r) integrates the reflected
second difference psi(r + 2 z_1) + psi(r - 2 z_1) - 2 psi(r) against the
stable jump measure restricted to |z| <= a r (zero above L0, where the
coupling is synchronous).

Two concave-then-convex piecewise shapes of psi are used, one for
alpha in (1, 2) and one for alpha in (0, 1]; both are C^2 glued at 2 L0 and
make L psi <= -lambda psi for a computable lambda > 0, which is the content
of the certificate assembled here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import special

from .drift_models import DriftCondition, check_small_alpha_gate
from .stable_noise import StableSpec
from .wasserstein_metrics import require_order


class Regime(Enum):
    HIGH_ALPHA = "high_alpha"   # alpha in (1, 2): 1 - exp(-c1 r) core
    LOW_ALPHA = "low_alpha"     # alpha in (0, 1]: r - c r^(1+alpha) core


class GateError(ValueError):
    """Small-alpha admissibility gate failed; carries the signed margin."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"small-alpha gate failed: margin {margin:.6e} <= 0"
        )


class CertificateError(RuntimeError):
    """A numeric certificate check failed; carries the offending radius."""

    def __init__(self, message: str, r: float | None = None):
        self.r = r
        super().__init__(message)


# exponent arguments above this are delegated to the asymptotic ratio path
_EXP_SAFE = 600.0


@dataclass(frozen=True)
class RadialLyapunov:
    """Piecewise radial Lyapunov function with its derived constants.

    High-alpha regime (alpha in (1, 2)):
        psi(r) = 1 - exp(-c1 r)                                 on [0, 2 L0]
        psi(r) = A e^{c2 (r-2L0)} + B (r-2L0)^2 + K             on [2 L0, inf)
    with c1 = (2 K1 / big_c)^(1/(alpha-1)) e^(2 L0/(alpha-1)) + 2,
    a = 1/c1, c2 = 20 c1, A = (c1/c2) e^(-2 L0 c1),
    B = -((c1+c2) c1 / 2) e^(-2 L0 c1) and
    big_c = 2 c_dalpha omega_d L0^(1-alpha) / (d (2-alpha)).

    Low-alpha regime (alpha in (0, 1]):
        psi(r) = r - c r^(1+alpha)                              on [0, 2 L0]
        psi(r) = A e^{c0 (r-2L0)} + B (r-2L0)^2 + K             on [2 L0, inf)
    with a = 1/4, c = 1 / (2^(1+alpha) (1+alpha) L0^alpha), c0 = 10 alpha/L0,
    A = 1/(2 c0), B = -(alpha/(4 L0) + c0/2)/2.

    The constants force value, slope and curvature to agree at 2 L0, and the
    tail envelope g(r) = A cexp e^{cexp (r-2L0)} / 2 + 2 B (r-2L0) stays
    positive, which keeps psi strictly increasing.
    """

    regime: Regime
    alpha: float
    l0: float
    a: float
    A: float
    B: float
    c1: float | None = None
    c2: float | None = None
    c: float | None = None
    c0: float | None = None
    big_c: float | None = None

    # ---- piece bookkeeping -------------------------------------------------

    @property
    def switch_r(self) -> float:
        return 2.0 * self.l0

    @property
    def tail_exp(self) -> float:
        """Exponential rate of the outer piece (c2 or c0 by regime)."""
        return self.c2 if self.regime is Regime.HIGH_ALPHA else self.c0

    @property
    def tail_const(self) -> float:
        """Additive constant K of the outer piece (continuity at 2 L0)."""
        return self._core_value_switch() - self.A

    def _core_value_switch(self) -> float:
        if self.regime is Regime.HIGH_ALPHA:
            return -math.expm1(-self.c1 * self.switch_r)
        s = self.switch_r
        return s - self.c * s ** (1.0 + self.alpha)

    @property
    def prime_at_zero(self) -> float:
        return self.c1 if self.regime is Regime.HIGH_ALPHA else 1.0

    # ---- evaluation --------------------------------------------------------

    def _core(self, rc, order: int):
        """Derivative of the given order of the core piece at rc <= 2 L0."""
        if self.regime is Regime.HIGH_ALPHA:
            if order == 0:
                return -np.expm1(-self.c1 * rc)
            # d^k/dr^k (1 - e^{-c1 r}) = -(-c1)^k e^{-c1 r} for k >= 1
            return -(-self.c1) ** order * np.exp(-self.c1 * rc)
        c, al = self.c, self.alpha
        if order == 0:
            return rc - c * rc ** (1.0 + al)
        if order == 1:
            return 1.0 - c * (1.0 + al) * rc ** al
        return -c * al * (1.0 + al) * rc ** (al - 1.0)

    def _piecewise(self, r, order: int):
        """psi, psi' or psi'' (order 0, 1, 2) for r >= 0, scalar or array.

        The regime's core formula holds up to 2 L0 and the shared tail
        A e^{cexp dd} + B dd^2 + K, dd = r - 2 L0, beyond it.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            name = "psi" + "'" * order
            raise ValueError(f"{name} is only defined for r >= 0")
        dd = np.maximum(r - self.switch_r, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            core = self._core(np.minimum(r, self.switch_r), order)
            grow = self.A * self.tail_exp ** order * np.exp(self.tail_exp * dd)
            if order == 0:
                tail = grow + self.B * dd ** 2 + self.tail_const
            elif order == 1:
                tail = grow + 2.0 * self.B * dd
            else:
                tail = grow + 2.0 * self.B
        out = np.where(r <= self.switch_r, core, tail)
        return float(out) if out.ndim == 0 else out

    def value(self, r):
        """psi(r) for r >= 0 (scalar or array). Overflows to +inf far out."""
        return self._piecewise(r, 0)

    def prime(self, r):
        """psi'(r)."""
        return self._piecewise(r, 1)

    def second(self, r):
        """psi''(r)."""
        return self._piecewise(r, 2)

    def second_difference(self, r, h):
        """psi(r+h) + psi(r-h) - 2 psi(r), cancellation-free on the core piece.

        Requires 0 <= h <= r and r + h <= 2 L0 (always true inside the
        reflected-jump integral, where h <= 2 a r with a <= 1/2 and r <= L0).
        """
        r = np.asarray(r, dtype=float)
        h = np.asarray(h, dtype=float)
        if self.regime is Regime.HIGH_ALPHA:
            return -4.0 * np.exp(-self.c1 * r) * np.sinh(self.c1 * h / 2.0) ** 2
        return -self.c * _power_second_difference(r, h, 1.0 + self.alpha)

    def prime_over_value(self, r: float) -> float:
        """psi'(r)/psi(r), stable against tail overflow.

        On the core the high-alpha ratio is c1 / (e^{c1 r} - 1), which is
        c1 e^{-c1 r} up to a relative e^{-c1 r} once c1 r passes ~600.  On the
        tail the exponential dominates once its argument passes ~600 and the
        ratio is the tail rate up to a relative correction below e^{-600}/A.
        """
        r = float(r)
        if r <= 0.0:
            raise ValueError("ratio defined for r > 0")
        if r <= self.switch_r:
            if self.regime is Regime.HIGH_ALPHA:
                if self.c1 * r > _EXP_SAFE:
                    return self.c1 * math.exp(-self.c1 * r)
                return self.c1 / math.expm1(self.c1 * r)
            num = 1.0 - self.c * (1.0 + self.alpha) * r ** self.alpha
            return num / (r - self.c * r ** (1.0 + self.alpha))
        dd = r - self.switch_r
        cexp = self.tail_exp
        if cexp * dd > _EXP_SAFE:
            return cexp
        e = math.exp(cexp * dd)
        num = self.A * cexp * e + 2.0 * self.B * dd
        den = self.A * e + self.B * dd ** 2 + self.tail_const
        return num / den


def _power_second_difference(r, h, p):
    """(r+h)^p + (r-h)^p - 2 r^p for 0 <= h < r, avoiding cancellation.

    Direct evaluation loses all precision for small h/r because the O(1)
    terms cancel to O((h/r)^2); the even part of the binomial series in
    x = h/r converges geometrically for x < 1:

        second difference = 2 r^p sum_{k>=1} C(p, 2k) x^(2k).
    """
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    x2 = np.broadcast_arrays((h / r) ** 2, r)[0].astype(float)
    tk = p * (p - 1.0) / 2.0 * x2  # C(p, 2) x^2
    total = tk.copy()
    k = 1
    while True:
        # C(p, 2k+2) / C(p, 2k) = (p-2k)(p-2k-1) / ((2k+1)(2k+2))
        ratio = ((p - 2 * k) * (p - 2 * k - 1.0)) / ((2 * k + 1.0) * (2 * k + 2.0))
        tk = tk * ratio * x2
        total += tk
        k += 1
        if np.all(np.abs(tk) <= 1e-18 * (1.0 + np.abs(total))) or k > 60:
            break
    return r ** p * 2.0 * total


def build_lyapunov(spec: StableSpec, cond: DriftCondition) -> RadialLyapunov:
    """Construct the regime-appropriate radial Lyapunov function.

    For alpha in (0, 1] the small-alpha gate must pass; on failure a
    :class:`GateError` carrying the margin is raised.  For alpha in (1, 2)
    a tail coefficient A that underflows to 0 (c1 large) raises
    :class:`CertificateError`: psi would then evaluate to 0 * inf = nan on
    its tail.
    """
    a_idx = spec.alpha
    if a_idx > 1.0:
        big_c = (2.0 * spec.c_dalpha * spec.omega_d * cond.l0 ** (1.0 - a_idx)
                 / (spec.d * (2.0 - a_idx)))
        c1 = ((2.0 * cond.k1 / big_c) ** (1.0 / (a_idx - 1.0))
              * math.exp(2.0 * cond.l0 / (a_idx - 1.0)) + 2.0)
        c2 = 20.0 * c1
        decay = math.exp(-2.0 * cond.l0 * c1)
        tail_a = c1 / c2 * decay
        if not tail_a > 0.0:
            raise CertificateError(
                f"tail coefficient A underflows to {tail_a:g} (c1 = {c1:g})",
                r=2.0 * cond.l0)
        return RadialLyapunov(
            regime=Regime.HIGH_ALPHA, alpha=a_idx, l0=cond.l0, a=1.0 / c1,
            c1=c1, c2=c2, big_c=big_c,
            A=tail_a, B=-(c1 + c2) * c1 / 2.0 * decay,
        )
    gate = check_small_alpha_gate(spec, cond)
    if not gate.passed:
        raise GateError(gate.margin)
    c0 = 10.0 * a_idx / cond.l0
    return RadialLyapunov(
        regime=Regime.LOW_ALPHA, alpha=a_idx, l0=cond.l0, a=0.25,
        c=1.0 / (2.0 ** (1.0 + a_idx) * (1.0 + a_idx) * cond.l0 ** a_idx),
        c0=c0, A=1.0 / (2.0 * c0),
        B=-0.5 * (a_idx / (4.0 * cond.l0) + c0 / 2.0),
    )


# ---------------------------------------------------------------------------
# Generator quadrature
# ---------------------------------------------------------------------------


# Refinement policy for the reflected-jump integral J(r).  The radial
# singularity s^(1-alpha) is removed by the substitution s = (a r) u^(1/(2-alpha));
# a tensor rule of _N_ANGULAR angular and _N_RADIAL radial Gauss nodes is then
# refined, doubling the radial nodes up to _N_RADIAL_MAX, until the value is
# stable to _QUAD_TOL in combined absolute/relative terms.
_QUAD_TOL = 1e-10
_N_RADIAL = 32
_N_RADIAL_MAX = 1024
_N_ANGULAR = 48


@functools.lru_cache(maxsize=None)
def _radial_rule(n: int):
    """Gauss-Legendre rule on [0, 1]; built on first use, then shared."""
    un, uw = np.polynomial.legendre.leggauss(n)
    un = 0.5 * (un + 1.0)
    uw = 0.5 * uw
    un.flags.writeable = uw.flags.writeable = False
    return un, uw


@functools.lru_cache(maxsize=None)
def _angular_rule(d: int, n: int):
    """Average over t = z_1/|z| on [0, 1] (the integrand is even in t).

    The sphere marginal of the first coordinate has density proportional to
    (1 - t^2)^((d-3)/2); for d = 1 it degenerates to atoms at +-1.
    """
    if d == 1:
        nodes, weights = np.array([1.0]), np.array([1.0])
    else:
        nodes, weights = special.roots_jacobi(n, (d - 3) / 2.0, (d - 3) / 2.0)
        nodes, weights = np.abs(nodes), weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _jump_term_fixed(lyap: RadialLyapunov, spec: StableSpec, rs: np.ndarray,
                     n_radial: int, n_angular: int) -> np.ndarray:
    """J at every radius of ``rs`` with one fixed tensor rule.

    Works on a (radii x radial nodes) array and loops over the angular nodes,
    so temporaries stay at len(rs) x n_radial.
    """
    ar = lyap.a * rs
    tn, tw = _angular_rule(spec.d, n_angular)
    un, uw = _radial_rule(n_radial)
    expo = 1.0 / (2.0 - spec.alpha)
    s = ar[:, None] * un ** expo
    # s^(-1-alpha) ds = (a r)^(-alpha) expo u^(-2 expo) du under s = a r u^expo;
    # (a r)^(-alpha) is a float power per radius: numpy's array power can
    # differ in the last bit, and the sweep outputs are compared bitwise
    scale = np.array([float(x) ** (-spec.alpha) * expo for x in ar])
    jac = scale[:, None] * un ** (-2.0 * expo)
    r_col = rs[:, None]
    f_avg = np.zeros_like(s)
    for t, w in zip(tn, tw):
        f_avg += w * lyap.second_difference(r_col, 2.0 * s * t)
    return spec.c_dalpha * spec.omega_d / 2.0 * np.sum(uw * jac * f_avg, axis=1)


def _jump_term_batch(lyap: RadialLyapunov, spec: StableSpec,
                     rs) -> tuple[np.ndarray, np.ndarray]:
    """J(r) at every radius in ``rs`` in (0, L0], refined radius by radius.

    n_radial doubles only for the radii whose last two values differ by
    more than _QUAD_TOL (1 + |value|); a converged radius keeps its value.
    Returns the values and the n_radial each radius converged at.  Raises
    :class:`CertificateError` carrying the smallest radius still unconverged
    at _N_RADIAL_MAX.
    """
    rs = np.asarray(rs, dtype=float)
    values = np.empty(len(rs))
    levels = np.zeros(len(rs), dtype=int)
    todo = np.arange(len(rs))
    n = _N_RADIAL
    prev = _jump_term_fixed(lyap, spec, rs, n, _N_ANGULAR)
    while len(todo) and n < _N_RADIAL_MAX:
        n *= 2
        cur = _jump_term_fixed(lyap, spec, rs[todo], n, _N_ANGULAR)
        done = np.abs(cur - prev) <= _QUAD_TOL * (1.0 + np.abs(cur))
        values[todo[done]] = cur[done]
        levels[todo[done]] = n
        todo, prev = todo[~done], cur[~done]
    if len(todo):
        r = float(rs[todo].min())
        raise CertificateError(
            f"jump-term quadrature did not stabilize to {_QUAD_TOL:g} at r={r:g}",
            r=r)
    return values, levels


def jump_term(lyap: RadialLyapunov, spec: StableSpec, r: float) -> float:
    """Reflected-jump part J(r) of the distance generator, r in (0, L0].

    J(r) = 1/2 int_{|z| <= a r} [psi(r + 2 z_1) + psi(r - 2 z_1) - 2 psi(r)]
           c_dalpha |z|^(-d-alpha) dz,
    reduced to a radial x angular tensor quadrature.  Nonpositive whenever
    psi is concave on the integration range.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    values, _ = _jump_term_batch(lyap, spec, [r])
    return float(values[0])


def _generator_bound_core(lyap: RadialLyapunov, spec: StableSpec,
                          cond: DriftCondition, rs: np.ndarray) -> np.ndarray:
    """L psi(r) = J(r) + psi'(r) K1 r at radii ``rs`` in (0, L0], batched."""
    jump, _ = _jump_term_batch(lyap, spec, rs)
    return jump + lyap.prime(rs) * (cond.k1 * rs)


def _large_separation_ratio(lyap: RadialLyapunov, cond: DriftCondition,
                            r: float) -> float:
    """-L psi(r) / psi(r) = K2 r^(theta-1) psi'(r)/psi(r) for r > L0.

    Goes through the overflow-safe psi'/psi, so it stays finite where psi
    itself overflows far out on the tail.
    """
    r = float(r)
    return cond.k2 * r ** (cond.theta - 1.0) * lyap.prime_over_value(r)


def distance_generator_bound(lyap: RadialLyapunov, spec: StableSpec,
                             cond: DriftCondition, r: float) -> float:
    """Worst-case generator action L psi(r) = J(r) + psi'(r) D(r).

    D(r) is K1 r below L0 and -K2 r^(theta-1) above.  J vanishes above L0
    where the coupling is synchronous and jumps cancel in the separation;
    there the value is the sweep's -ratio * psi(r).
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    if r > cond.l0:
        return -_large_separation_ratio(lyap, cond, r) * float(lyap.value(r))
    return float(_generator_bound_core(lyap, spec, cond, np.array([float(r)]))[0])


def small_distance_rate(lyap: RadialLyapunov, spec: StableSpec,
                        cond: DriftCondition) -> float:
    """Closed-form small-separation rate lambda_1.

    High alpha: big_c c1^(alpha-1) e^(-2 L0) / 2.
    Low  alpha: alpha c_dalpha omega_d 3^(alpha-1) / (8 (2-alpha) d L0^alpha) - K1,
    positive exactly when the small-alpha gate passes.
    """
    if lyap.regime is Regime.HIGH_ALPHA:
        return lyap.big_c * lyap.c1 ** (spec.alpha - 1.0) * math.exp(-2.0 * cond.l0) / 2.0
    lam = (spec.alpha * spec.c_dalpha * spec.omega_d * 3.0 ** (spec.alpha - 1.0)
           / (8.0 * (2.0 - spec.alpha) * spec.d * cond.l0 ** spec.alpha)
           - cond.k1)
    if lam <= 0.0:
        raise GateError(lam)
    return lam


_GRID_POINTS = 400
_GRID_MIN_FACTOR = 1e-4
_GRID_MAX_FACTOR = 10.0


def default_radial_grid(l0: float) -> np.ndarray:
    """Geometric grid of 400 radii on [1e-4 L0, 10 L0] used by the sweeps."""
    return np.geomspace(_GRID_MIN_FACTOR * l0, _GRID_MAX_FACTOR * l0, _GRID_POINTS)


@dataclass(frozen=True)
class RateSweep:
    """Grid sweep of the contraction ratio -L psi(r) / psi(r).

    ``generator_bound`` and ``psi`` are L psi(r) and psi(r) at each radius;
    far out on the tail psi overflows to +inf (bound -inf) while the ratio,
    taken through psi'/psi, stays finite.  ``tail_increasing`` records
    whether the ratio rises over the last three grid points (the exponential
    tail of psi dominates beyond them, so the infimum over the unbounded tail
    is attained on the grid).  :meth:`require_certified` is the sweep's one
    verdict, shared by ``certify`` and ``lyapunov``.
    """

    rs: np.ndarray
    ratios: np.ndarray
    lambda_star: float
    argmin_r: float
    tail_increasing: bool
    psi: np.ndarray
    generator_bound: np.ndarray

    @property
    def certified(self) -> bool:
        return self.lambda_star > 0.0

    def require_certified(self) -> None:
        """Raise :class:`CertificateError` unless lambda* > 0 (carrying the
        minimizing radius) and the ratio rises at the grid end (carrying the
        last radius)."""
        if not self.certified:
            raise CertificateError(f"contraction ratio {self.lambda_star:.6g} at "
                                   f"r = {self.argmin_r:.6g}", r=self.argmin_r)
        if not self.tail_increasing:
            raise CertificateError("contraction ratio not increasing at grid end",
                                   r=float(self.rs[-1]))


def rate_sweep(lyap: RadialLyapunov, spec: StableSpec,
               cond: DriftCondition) -> RateSweep:
    """Sweep -L psi / psi over :func:`default_radial_grid`; the infimum is the
    numeric rate.

    The radii in (0, L0] go through the jump-term quadrature in one batch.
    Above L0 the ratio K2 r^(theta-1) psi'(r)/psi(r) is evaluated through the
    overflow-safe ratio.
    """
    grid = default_radial_grid(cond.l0)
    below = grid <= cond.l0
    psi = lyap.value(grid)
    gen = np.empty(len(grid))
    ratios = np.empty(len(grid))
    gen[below] = _generator_bound_core(lyap, spec, cond, grid[below])
    ratios[below] = -gen[below] / psi[below]
    ratios[~below] = [_large_separation_ratio(lyap, cond, r) for r in grid[~below]]
    gen[~below] = -ratios[~below] * psi[~below]
    idx = int(np.argmin(ratios))
    return RateSweep(rs=grid, ratios=ratios, lambda_star=float(ratios[idx]),
                     argmin_r=float(grid[idx]),
                     tail_increasing=bool(ratios[-1] > ratios[-2] > ratios[-3]),
                     psi=psi, generator_bound=gen)


@dataclass(frozen=True)
class TailEnvelopeReport:
    """Positivity of g(r) = A cexp e^{cexp(r-2L0)}/2 + 2B(r-2L0) on [2L0, inf).

    g > 0 keeps psi' positive beyond the gluing point.  The unique stationary
    point r1 and the value there have closed forms; the bracket is
    1 - log(-4B/(A cexp^2)).
    """

    stationary_r: float
    value_at_stationary: float
    log_bracket: float
    grid_min: float
    ok: bool
    failure_r: float | None


def tail_envelope_positivity(lyap: RadialLyapunov,
                             grid: np.ndarray | None = None) -> TailEnvelopeReport:
    """Check the tail envelope g on [2 L0, 10 L0] and at its stationary point."""
    cexp = lyap.tail_exp
    two_l0 = lyap.switch_r
    if grid is None:
        grid = np.linspace(two_l0, 10.0 * lyap.l0, 400)
    grid = np.asarray(grid, float)
    dd = np.maximum(grid - two_l0, 0.0)
    with np.errstate(over="ignore"):
        g = 0.5 * lyap.A * cexp * np.exp(cexp * dd) + 2.0 * lyap.B * dd

    ratio = -4.0 * lyap.B / (lyap.A * cexp ** 2)
    if ratio >= 1.0:
        r1 = two_l0 + math.log(ratio) / cexp
        bracket = 1.0 - math.log(ratio)
        g_r1 = (-2.0 * lyap.B / cexp) * bracket
    else:
        # stationary point below the domain: g is increasing from g(2 L0)
        r1 = two_l0
        bracket = float("inf")
        g_r1 = 0.5 * lyap.A * cexp

    min_idx = int(np.nanargmin(g))
    ok = bool(g_r1 > 0.0) and bool(np.all(g > 0.0))
    return TailEnvelopeReport(
        stationary_r=float(r1), value_at_stationary=float(g_r1),
        log_bracket=float(bracket), grid_min=float(g[min_idx]), ok=ok,
        failure_r=None if ok else float(grid[min_idx]),
    )


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


# (record key, certificate field) in record order
_RECORD_FIELDS = (
    ("lambda", "lam"), ("lambda1", "lambda1"), ("lambda1_psi", "lambda1_psi"),
    ("lambda2", "lambda2"), ("c_p", "c_p"), ("c2_chain", "c2_chain"),
    ("p", "p"), ("prefactor", "prefactor"), ("theta", "theta"), ("t0", "t0"),
)


@dataclass(frozen=True)
class ContractionCertificate:
    """Machine-checked contraction constants.

    ``lambda1`` is the closed-form chain constant of
    -L psi(r) >= lambda1 r psi'(r) on (0, L0] and ``lambda1_psi`` the rate it
    yields for psi itself there (see :func:`contraction_certificate`);
    ``lam`` = min(lambda1_psi, lambda2) is the decay rate of E psi(r_t);
    ``c_p`` converts psi decay into a p-th moment bound
    E |X_t - Y_t|^p <= c_p e^(-lam t) |x - y| for |x - y| <= L0;
    ``c2_chain`` extends it across larger separations by chaining;
    ``t0`` bounds the synchronous hitting time of L0 (theta > 2 only);
    ``prefactor`` is the assembled constant of the distance bound

        W_p <= prefactor e^(-lam t / p) (r0^(1/p) v r0) / (1 + r0 1{t>1}),

    the divisor applying only for theta > 2.  ``provenance`` tags every
    constant as closed-form, numeric-infimum or assembled.
    """

    lam: float
    lambda1: float
    lambda1_psi: float
    lambda2: float
    c_p: float
    c2_chain: float
    p: float
    prefactor: float
    theta: float
    t0: float | None = None
    provenance: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def wp_bound(self, t, r0: float):
        """Certified Wasserstein bound at time(s) t from separation r0."""
        t = np.asarray(t, dtype=float)
        envelope = max(r0 ** (1.0 / self.p), r0)
        divisor = np.where((self.theta > 2.0) & (t > 1.0), 1.0 + r0, 1.0)
        out = self.prefactor * np.exp(-self.lam * t / self.p) * envelope / divisor
        return float(out) if out.ndim == 0 else out

    def to_record(self) -> str:
        """Serialize as flat `key = value # provenance` lines; t0 only when set."""
        lines = ["# contraction certificate"]
        for key, val in self.inputs.items():
            lines.append(f"{key} = {val} # input")
        for key, name in _RECORD_FIELDS:
            val = getattr(self, name)
            if val is not None:
                tag = self.provenance.get(key, "assembled")
                lines.append(f"{key} = {val:.17g} # {tag}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_record(cls, text: str) -> "ContractionCertificate":
        """Parse a :meth:`to_record` text; ValueError names missing keys."""
        values: dict[str, float] = {}
        prov: dict[str, str] = {}
        inputs: dict[str, float] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            body, _, tag = line.partition("#")
            key, _, val = body.partition("=")
            key, tag = key.strip(), tag.strip()
            if tag == "input":
                inputs[key] = float(val)
            else:
                values[key] = float(val)
                prov[key] = tag
        missing = [key for key, name in _RECORD_FIELDS
                   if key not in values and name != "t0"]
        if missing:
            raise ValueError("certificate record lacks " + ", ".join(missing))
        return cls(**{name: values[key] for key, name in _RECORD_FIELDS
                      if key in values}, provenance=prov, inputs=inputs)


def _sup_on_grid(fn, grid: np.ndarray) -> tuple[float, float]:
    vals = fn(grid)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    i = int(np.argmax(vals))
    # local refinement around the grid argmax
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    fine = np.linspace(lo, hi, 2001)
    fvals = fn(fine)
    fvals = np.where(np.isfinite(fvals), fvals, -np.inf)
    j = int(np.argmax(fvals))
    if fvals[j] >= vals[i]:
        return float(fvals[j]), float(fine[j])
    return float(vals[i]), float(grid[i])


def contraction_certificate(spec: StableSpec, cond: DriftCondition,
                            p: float) -> ContractionCertificate:
    """Assemble the full contraction certificate for exponent ``p`` >= 1.

    Builds psi, checks its tail envelope and runs :func:`rate_sweep` once,
    failing unless the sweep passes :meth:`RateSweep.require_certified`.
    lambda1 is the closed-form small-separation rate and lambda1_psi the rate
    it gives for -L psi / psi on (0, L0]: for alpha in (1, 2) the construction
    proves only -L psi(r) >= lambda1 r psi'(r) there, and r psi'/psi
    decreases in r, so lambda1_psi = lambda1 L0 psi'(L0) / psi(L0); for
    alpha in (0, 1] lambda1 is taken as a bound on the ratio itself,
    lambda1_psi = lambda1 (checked on a grid, not proved: the ratio is
    smallest as r -> 0+, where it tends to lambda1 for alpha = 1).  lambda2 is the sweep's
    infimum over (L0, 10 L0] (the sweep verdict checks that the ratio
    increases at the grid end, where the exponential tail dominates), and
    lam = min(lambda1_psi, lambda2).  The moment constant
    c_p multiplies the suprema of r^p / psi(r) (numeric, finite by the
    exponential tail) and psi(r)/r on (0, L0] (attained at 0+, equal to
    psi'(0)).  The distance-bound prefactor is assembled case by case:

    - separations below L0: c_p^(1/p), with divisor absorption (1 + L0) when
      theta > 2;
    - above L0 via chaining: c2_chain = 2 c_p^(1/p) L0^(1/p - 1);
    - theta > 2, t beyond the hitting bound t0: (c_p L0)^(1/p) e^(lam t0 / p)
      against the numeric infimum of (u^(1/p) v u)/(1+u) over u > L0;
    - theta > 2, t in (1, t0]: the synchronous phase contracts pathwise like
      the power-law envelope R(t) = (K2 (theta-2) t)^(-1/(theta-2)), handled
      with a numeric supremum.
    """
    require_order(p)
    lyap = build_lyapunov(spec, cond)
    envelope = tail_envelope_positivity(lyap)
    if not envelope.ok:
        raise CertificateError(f"tail envelope nonpositive at "
                               f"r = {envelope.failure_r:.6g}", r=envelope.failure_r)
    sweep = rate_sweep(lyap, spec, cond)
    sweep.require_certified()

    lambda1 = small_distance_rate(lyap, spec, cond)
    lambda1_psi = lambda1
    if lyap.regime is Regime.HIGH_ALPHA:
        lambda1_psi *= cond.l0 * lyap.prime_over_value(cond.l0)
    grid = sweep.rs
    lambda2 = float(sweep.ratios[grid > cond.l0].min())  # >= lambda* > 0
    lam = min(lambda1_psi, lambda2)

    def moment_ratio(rs):
        rs = np.asarray(rs, float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return rs ** p / lyap.value(rs)

    sup_moment, _ = _sup_on_grid(moment_ratio, grid)
    sup_near_zero = lyap.prime_at_zero  # psi concave on the core: psi(r) <= psi'(0) r
    c_p = sup_moment * sup_near_zero
    c2_chain = 2.0 * c_p ** (1.0 / p) * cond.l0 ** (1.0 / p - 1.0)

    prov = {
        "lambda1": "closed-form", "lambda1_psi": "closed-form",
        "lambda2": "numeric-infimum",
        "lambda": "assembled", "c_p": "numeric-infimum",
        "c2_chain": "assembled", "p": "parameter", "theta": "parameter",
        "prefactor": "assembled",
    }

    def envelope_ratio(u):
        u = np.asarray(u, float)
        return np.maximum(u ** (1.0 / p), u) / (1.0 + u)

    pieces = [c_p ** (1.0 / p), c2_chain]
    t0 = cond.hitting_cap
    if t0 is not None:
        prov["t0"] = "closed-form"
        pieces[0] = c_p ** (1.0 / p) * (1.0 + cond.l0)
        u_grid = np.geomspace(cond.l0, 1e6 * max(1.0, cond.l0), 4001)
        m_c = float(np.min(envelope_ratio(u_grid)))
        pieces.append((c_p * cond.l0) ** (1.0 / p) * math.exp(lam * t0 / p) / m_c)
        if t0 > 1.0:
            # synchronous-phase envelope for t in (1, t0]
            r_env = (cond.k2 * (cond.theta - 2.0)) ** (-1.0 / (cond.theta - 2.0))
            cap = max(cond.l0, r_env)

            def phase_sup(u):
                u = np.asarray(u, float)
                return (np.minimum(u, cap) * (1.0 + u)
                        / np.maximum(u ** (1.0 / p), u))

            sup_phase = float(np.max(phase_sup(u_grid)))
            pieces[-1] += math.exp(lam * t0 / p) * sup_phase
    prefactor = max(pieces)

    inputs = {"d": spec.d, "alpha": spec.alpha, "k1": cond.k1, "k2": cond.k2,
              "l0": cond.l0, "theta_in": cond.theta, "p_in": p}
    return ContractionCertificate(
        lam=lam, lambda1=lambda1, lambda1_psi=lambda1_psi, lambda2=lambda2,
        c_p=c_p, c2_chain=c2_chain, t0=t0, p=p, prefactor=prefactor,
        theta=cond.theta, provenance=prov, inputs=inputs,
    )
