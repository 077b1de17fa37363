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
coupling is synchronous).  For both profile shapes J has an exact power
series with positive terms, summed in :func:`_jump_term`.

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

    @functools.cached_property
    def tail_const(self) -> float:
        """Additive constant K of the outer piece (continuity at 2 L0)."""
        return float(self._core(self.switch_r, 0)) - self.A

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
# Generator jump term
# ---------------------------------------------------------------------------


def _jump_term(lyap: RadialLyapunov, spec: StableSpec, rs) -> np.ndarray:
    """J(r) at every radius in ``rs`` in (0, L0], summed from its exact series.

    J(r) = (c_dalpha omega_d / 2) int_0^{a r} s^(-1-alpha) E[D(2 s t)] ds,
    where D(h) = psi(r+h) + psi(r-h) - 2 psi(r) and t = z_1/|z| is the first
    coordinate of a uniform point on the sphere, with E t^(2k) =
    m_2k = prod_{j<k} (2j+1)/(2j+d).  Expanding D in powers of 2 s t and
    integrating term by term gives, with b = a r and x = 2 c1 b,

        high alpha:  J = -c_dalpha omega_d e^(-c1 r) b^(-alpha)
                         sum_{k>=1} m_2k x^(2k) / ((2k)! (2k-alpha)),
        low alpha:   J = -c_dalpha omega_d c a^(-alpha) r
                         sum_{k>=1} C(1+alpha, 2k) m_2k (2a)^(2k) / (2k-alpha).

    Every term is positive (C(1+alpha, 2k) >= 0 for alpha in (0, 1]), so
    nothing cancels, and past its peak the series shrinks geometrically.
    The coefficients share the recurrence
    q_(k+1) = q_k g_k x^2 / ((2k+2)(2k+d)) from q_0 = 1, with g_k = 1 (high
    alpha) or (p-2k)(p-2k-1), p = 1+alpha, and x = 2a (low alpha).  A radius
    stops once its term is below 2^-54 of its partial sum, where adding it
    cannot change the sum, so its value does not depend on the other radii.
    """
    rs = np.asarray(rs, dtype=float)
    al, d = spec.alpha, spec.d
    high = lyap.regime is Regime.HIGH_ALPHA
    if high:
        b = lyap.a * rs
        x2 = (2.0 * lyap.c1 * b) ** 2
        # b^(-alpha) is a float power per radius: numpy's array power can
        # differ in the last bit, and the sweep outputs are compared bitwise
        b_pow = np.array([float(v) ** (-al) for v in b])
        lead = -spec.c_dalpha * spec.omega_d * np.exp(-lyap.c1 * rs) * b_pow
    else:
        x2 = (2.0 * lyap.a) ** 2
        lead = -spec.c_dalpha * spec.omega_d * lyap.c * lyap.a ** (-al) * rs
    q = np.ones(len(rs))
    total = np.zeros(len(rs))
    live = np.ones(len(rs), dtype=bool)
    k = 0
    while live.any():
        g = 1.0 if high else (1.0 + al - 2 * k) * (al - 2 * k)
        q = q * (g / ((2 * k + 2.0) * (2 * k + d))) * x2
        term = q / (2 * k + 2.0 - al)
        total = np.where(live, total + term, total)
        live &= term >= 2.0 ** -54 * total
        k += 1
    return lead * total


def _generator_and_ratio(lyap: RadialLyapunov, spec: StableSpec,
                         cond: DriftCondition, rs: np.ndarray):
    """(L psi, -L psi / psi, psi) at the radii ``rs``, the one L psi evaluator.

    On (0, L0] L psi(r) = J(r) + psi'(r) K1 r with J from its series
    (:func:`_jump_term`).  Above L0 J vanishes and the ratio is
    K2 r^(theta-1) psi'(r)/psi(r), taken per radius through the
    overflow-safe psi'/psi so it stays finite where psi overflows.
    """
    below = rs <= cond.l0
    psi = lyap.value(rs)
    gen = np.empty(len(rs))
    ratios = np.empty(len(rs))
    jump = _jump_term(lyap, spec, rs[below])
    gen[below] = jump + lyap.prime(rs[below]) * (cond.k1 * rs[below])
    ratios[below] = -gen[below] / psi[below]
    ratios[~below] = [cond.k2 * r ** (cond.theta - 1.0) * lyap.prime_over_value(r)
                      for r in map(float, rs[~below])]
    gen[~below] = -ratios[~below] * psi[~below]
    return gen, ratios, psi


def distance_generator_bound(lyap: RadialLyapunov, spec: StableSpec,
                             cond: DriftCondition, r: float) -> float:
    """Worst-case generator action L psi(r) = J(r) + psi'(r) D(r).

    D(r) is K1 r below L0 and -K2 r^(theta-1) above.  J vanishes above L0
    where the coupling is synchronous and jumps cancel in the separation;
    there the value is the sweep's -ratio * psi(r).
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    gen, _, _ = _generator_and_ratio(lyap, spec, cond, np.array([float(r)]))
    return float(gen[0])


def small_distance_rate(lyap: RadialLyapunov, spec: StableSpec,
                        cond: DriftCondition) -> float:
    """Closed-form small-separation rate lambda_1.

    High alpha: big_c c1^(alpha-1) e^(-2 L0) / 2.
    Low  alpha: the small-alpha gate's margin over L0^alpha, that is
    alpha c_dalpha omega_d 3^(alpha-1) / (8 (2-alpha) d L0^alpha) - K1,
    positive exactly when the gate passes.
    """
    if lyap.regime is Regime.HIGH_ALPHA:
        return lyap.big_c * lyap.c1 ** (spec.alpha - 1.0) * math.exp(-2.0 * cond.l0) / 2.0
    lam = check_small_alpha_gate(spec, cond).margin / cond.l0 ** spec.alpha
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

    Every radius goes through :func:`_generator_and_ratio`.
    """
    grid = default_radial_grid(cond.l0)
    gen, ratios, psi = _generator_and_ratio(lyap, spec, cond, grid)
    idx = int(np.argmin(ratios))
    return RateSweep(rs=grid, ratios=ratios, lambda_star=float(ratios[idx]),
                     argmin_r=float(grid[idx]),
                     tail_increasing=bool(ratios[-1] > ratios[-2] > ratios[-3]),
                     psi=psi, generator_bound=gen)


@dataclass(frozen=True)
class TailEnvelopeReport:
    """Positivity of g(r) = A cexp e^{cexp(r-2L0)}/2 + 2B(r-2L0) on [2L0, inf).

    g > 0 keeps psi' positive beyond the gluing point.  g is convex (A > 0),
    so its infimum on [2L0, inf) is its value at the stationary point
    r1 = 2L0 + log(-4B/(A cexp^2))/cexp, where g = (-2B/cexp)
    (1 - log(-4B/(A cexp^2))), or at 2L0 when r1 lies below it.
    """

    stationary_r: float
    value_at_stationary: float

    @property
    def ok(self) -> bool:
        return self.value_at_stationary > 0.0


def tail_envelope_positivity(lyap: RadialLyapunov) -> TailEnvelopeReport:
    """The infimum of the tail envelope g on [2 L0, inf), in closed form."""
    cexp = lyap.tail_exp
    ratio = -4.0 * lyap.B / (lyap.A * cexp ** 2)
    if ratio >= 1.0:
        r1 = lyap.switch_r + math.log(ratio) / cexp
        g_r1 = (-2.0 * lyap.B / cexp) * (1.0 - math.log(ratio))
    else:
        # stationary point below the domain: g is increasing from g(2 L0)
        r1 = lyap.switch_r
        g_r1 = 0.5 * lyap.A * cexp
    return TailEnvelopeReport(stationary_r=float(r1),
                              value_at_stationary=float(g_r1))


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


# (record key, certificate field, provenance tag) in record order
_RECORD_FIELDS = (
    ("lambda", "lam", "assembled"), ("lambda1", "lambda1", "closed-form"),
    ("lambda1_psi", "lambda1_psi", "closed-form"),
    ("lambda2", "lambda2", "numeric-infimum"), ("c_p", "c_p", "numeric-infimum"),
    ("c2_chain", "c2_chain", "assembled"), ("p", "p", "parameter"),
    ("prefactor", "prefactor", "assembled"), ("theta", "theta", "parameter"),
    ("t0", "t0", "closed-form"),
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

    the divisor applying only for theta > 2.  The record tags every
    constant as closed-form, numeric-infimum, assembled or parameter.
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
        for key, name, tag in _RECORD_FIELDS:
            val = getattr(self, name)
            if val is not None:
                lines.append(f"{key} = {val:.17g} # {tag}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_record(cls, text: str) -> "ContractionCertificate":
        """Parse a :meth:`to_record` text; ValueError names missing keys."""
        values: dict[str, float] = {}
        inputs: dict[str, float] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            body, _, tag = line.partition("#")
            key, _, val = body.partition("=")
            target = inputs if tag.strip() == "input" else values
            target[key.strip()] = float(val)
        missing = [key for key, name, _ in _RECORD_FIELDS
                   if key not in values and name != "t0"]
        if missing:
            raise ValueError("certificate record lacks " + ", ".join(missing))
        return cls(**{name: values[key] for key, name, _ in _RECORD_FIELDS
                      if key in values}, inputs=inputs)


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
    decreases in r, so lambda1_psi = lambda1 L0 psi'(L0) / psi(L0).  For
    alpha in (0, 1] lambda1_psi = lambda1, by proof: the jump term is
    exactly linear there, J(r) = -C r (see :func:`_jump_term`), and the
    k = 1 term of C alone is (lambda1 + K1) (2/3)^(alpha-1) >= lambda1 + K1.
    Since psi <= r and psi' <= 1 on (0, L0],
    -L psi(r) = C r - psi'(r) K1 r >= (C - K1) r >= lambda1 psi(r).
    lambda2 is the sweep's infimum over (L0, 10 L0] (the sweep verdict
    checks that the ratio increases at the grid end, where the exponential
    tail dominates), and lam = min(lambda1_psi, lambda2).  The moment
    constant c_p multiplies the suprema of r^p / psi(r) (numeric, finite by the
    exponential tail) and psi(r)/r on (0, L0] (attained at 0+, equal to
    psi'(0)).  The distance-bound prefactor is assembled case by case:

    - separations below L0: c_p^(1/p), with divisor absorption (1 + L0) when
      theta > 2;
    - above L0 via chaining: c2_chain = 2 c_p^(1/p) L0^(1/p - 1);
    - theta > 2, t beyond the hitting bound t0: (c_p L0)^(1/p) e^(lam t0 / p)
      against m_c, the infimum of f(u) = (u^(1/p) v u)/(1+u) over u >= L0.
      f rises on [1, inf) and has at most one interior maximum on [L0, 1],
      so m_c = min(f(L0), f(max(L0, 1)));
    - theta > 2, t in (1, t0]: the synchronous phase contracts pathwise like
      the power-law envelope R(t) = (K2 (theta-2) t)^(-1/(theta-2)), capped
      at cap = max(L0, R(1)).  h(u) = min(u, cap)(1+u)/(u^(1/p) v u) rises
      up to cap, falls after max(cap, 1) and has at most an interior minimum
      between, so its supremum over u >= L0 is max(h(cap), h(max(cap, 1))).
    """
    require_order(p)
    lyap = build_lyapunov(spec, cond)
    envelope = tail_envelope_positivity(lyap)
    if not envelope.ok:
        raise CertificateError(f"tail envelope nonpositive at "
                               f"r = {envelope.stationary_r:.6g}",
                               r=envelope.stationary_r)
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
    sup_near_zero = lyap.prime(0.0)  # psi concave on the core: psi(r) <= psi'(0) r
    c_p = sup_moment * sup_near_zero
    c2_chain = 2.0 * c_p ** (1.0 / p) * cond.l0 ** (1.0 / p - 1.0)

    def envelope_ratio(u):
        return max(u ** (1.0 / p), u) / (1.0 + u)

    pieces = [c_p ** (1.0 / p), c2_chain]
    t0 = cond.hitting_cap
    if t0 is not None:
        pieces[0] = c_p ** (1.0 / p) * (1.0 + cond.l0)
        m_c = min(envelope_ratio(cond.l0), envelope_ratio(max(cond.l0, 1.0)))
        pieces.append((c_p * cond.l0) ** (1.0 / p) * math.exp(lam * t0 / p) / m_c)
        if t0 > 1.0:
            # synchronous-phase envelope for t in (1, t0]
            r_env = (cond.k2 * (cond.theta - 2.0)) ** (-1.0 / (cond.theta - 2.0))
            cap = max(cond.l0, r_env)

            def phase_ratio(u):
                return min(u, cap) * (1.0 + u) / max(u ** (1.0 / p), u)

            sup_phase = max(phase_ratio(cap), phase_ratio(max(cap, 1.0)))
            pieces[-1] += math.exp(lam * t0 / p) * sup_phase
    prefactor = max(pieces)

    inputs = {"d": spec.d, "alpha": spec.alpha, "k1": cond.k1, "k2": cond.k2,
              "l0": cond.l0, "theta_in": cond.theta, "p_in": p}
    return ContractionCertificate(
        lam=lam, lambda1=lambda1, lambda1_psi=lambda1_psi, lambda2=lambda2,
        c_p=c_p, c2_chain=c2_chain, t0=t0, p=p, prefactor=prefactor,
        theta=cond.theta, inputs=inputs,
    )
