"""Covert communication over the unit-noise AWGN channel.

Truncated-Gaussian shell codes, exact Gaussian divergences, KL-budget power
planning, finite-blocklength throughput bounds, and seeded Monte-Carlo
experiments with an optimal-detector adversary.
"""

from .bounds import (
    CSV_COLUMNS,
    AsymptoticSweep,
    ThroughputBounds,
    achievability_bound,
    asymptotic_sweep,
    bounds_csv_text,
    bounds_grid,
    classify_kl_trend,
    converse_bound,
    default_n_grid,
    simplified_asymptotics,
    throughput_bounds,
    v1_dispersion,
    v2_dispersion,
)
from .divergences import (
    CovarianceSpec,
    DivergenceReport,
    IsotropicGaussianPair,
    hellinger_sq_isotropic,
    isotropic_report,
    kl_general_covariance,
    kl_isotropic,
    tvd_isotropic_exact,
)
from .errors import ConfigError, CovertError, DomainError, InputError, NumericError
from .planner import (
    CovertParams,
    PowerPlan,
    nu_lemma_shell,
    plan,
    psi_nec,
    psi_suf,
    solve_exact_power,
)
from .simkit import (
    Codebook,
    DetectionResult,
    Estimate,
    SimulationResult,
    StreamTag,
    bob_decode_batch,
    build_codebook,
    empirical_divergences,
    simulate,
    willie_detect,
)
from .truncgauss import (
    RadialOutputDensity,
    TruncatedGaussianSpec,
    output_divergences_quadrature,
    radial_output_density,
    sample_codewords,
    shell_mass,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSweep",
    "CSV_COLUMNS",
    "Codebook",
    "ConfigError",
    "CovarianceSpec",
    "CovertError",
    "CovertParams",
    "DetectionResult",
    "DivergenceReport",
    "DomainError",
    "Estimate",
    "InputError",
    "IsotropicGaussianPair",
    "NumericError",
    "PowerPlan",
    "RadialOutputDensity",
    "SimulationResult",
    "StreamTag",
    "ThroughputBounds",
    "TruncatedGaussianSpec",
    "achievability_bound",
    "asymptotic_sweep",
    "bob_decode_batch",
    "bounds_csv_text",
    "bounds_grid",
    "build_codebook",
    "classify_kl_trend",
    "converse_bound",
    "default_n_grid",
    "empirical_divergences",
    "hellinger_sq_isotropic",
    "isotropic_report",
    "kl_general_covariance",
    "kl_isotropic",
    "nu_lemma_shell",
    "output_divergences_quadrature",
    "plan",
    "psi_nec",
    "psi_suf",
    "radial_output_density",
    "sample_codewords",
    "shell_mass",
    "simplified_asymptotics",
    "simulate",
    "solve_exact_power",
    "throughput_bounds",
    "tvd_isotropic_exact",
    "v1_dispersion",
    "v2_dispersion",
    "willie_detect",
]
