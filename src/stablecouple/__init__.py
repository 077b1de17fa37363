"""Coupled simulation and certified contraction rates for SDEs driven by
isotropic alpha-stable noise.

The package has six parts:

- ``stable_noise``: constants and the large/small jump decomposition of
  isotropic alpha-stable noise, with the draw of the large jumps.
- ``drift_models``: drift fields with their claimed two-regime dissipativity
  condition, and the small-alpha admissibility gate.
- ``lyapunov``: radial Lyapunov functions for the coupled distance process,
  the coupled generator's jump term from its exact series, and certified
  contraction rates.
- ``coupling_engine``: event-driven simulation of the reflection/synchronous
  coupling.
- ``wasserstein_metrics``: empirical Wasserstein distances and rate fitting.
- ``cli``: command-line orchestration of certificates, sweeps and ensembles.
"""

from .stable_noise import (
    StableSpec,
    JumpDecomposition,
    isotropic_stable,
    levy_constant,
    sphere_surface,
    decompose,
)
from .drift_models import (
    DriftCondition,
    DriftField,
    linear_drift,
    power_potential_drift,
    monomial_drift,
    drift_from_label,
    check_small_alpha_gate,
)
from .lyapunov import (
    Regime,
    RadialLyapunov,
    GateError,
    CertificateError,
    build_lyapunov,
    distance_generator_bound,
    small_distance_rate,
    default_radial_grid,
    rate_sweep,
    tail_envelope_positivity,
    contraction_certificate,
    ContractionCertificate,
)
from .coupling_engine import (
    PathEnsemble,
    SchemeConfig,
    coupled_jump,
    simulate_coupled_ensemble,
    lyapunov_decay_series,
)
from .wasserstein_metrics import (
    coupling_wp_upper,
    exact_empirical_wp,
    contraction_rate_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
