"""Divergences between the Gaussian families of the covert-communication setup.

Closed forms for isotropic pairs N(0, sigma1^2 I_n) vs N(0, I_n): KL (bits),
exact total variation via the monotone radial likelihood ratio, squared
Hellinger, and the eigenvalue form of KL for general covariances. Every
report is checked against the Hellinger sandwich
H^2 <= V_T <= sqrt(H^2 (2 - H^2)) and Pinsker.

All divergences are reported in bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import specfn
from .errors import DomainError

__all__ = [
    "IsotropicGaussianPair",
    "CovarianceSpec",
    "DivergenceReport",
    "kl_isotropic",
    "kl_general_covariance",
    "hellinger_sq_isotropic",
    "tvd_isotropic_exact",
    "isotropic_report",
]


@dataclass(frozen=True)
class IsotropicGaussianPair:
    """N(0, sigma1_sq * I_n) against the unit-variance reference N(0, I_n)."""

    n: int
    sigma1_sq: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"IsotropicGaussianPair: need n >= 1, got {self.n}")
        if not (self.sigma1_sq > 0.0 and math.isfinite(self.sigma1_sq)):
            raise DomainError(
                f"IsotropicGaussianPair: need sigma1_sq > 0, got {self.sigma1_sq!r}"
            )
        # below 2^-54, sigma1_sq - 1 rounds to -1 and every closed form takes ln 0
        if self.excess_power == -1.0:
            raise DomainError(
                f"IsotropicGaussianPair: sigma1_sq={self.sigma1_sq!r} at n={self.n} is too "
                "small for sigma1_sq - 1 to differ from -1 in double precision"
            )
        # the crossing radius n sigma1_sq ln(sigma1_sq) / (sigma1_sq - 1) must be
        # finite; an int n above the largest float does not convert to one
        if not (self.n <= sys.float_info.max and math.isfinite(self.n * self.sigma1_sq)):
            raise DomainError(f"IsotropicGaussianPair: n * sigma1_sq overflows at "
                              f"n={self.n}, sigma1_sq={self.sigma1_sq!r}")

    @property
    def excess_power(self) -> float:
        """x = sigma1_sq - 1, the per-coordinate power riding on the noise floor."""
        return self.sigma1_sq - 1.0


@dataclass(frozen=True)
class CovarianceSpec:
    """Eigenvalues of K + I_n for a general zero-mean Gaussian against N(0, I_n)."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.eigenvalues) == 0:
            raise DomainError("CovarianceSpec: need at least one eigenvalue")
        if any(not (0.0 < lam < math.inf) for lam in self.eigenvalues):
            raise DomainError("CovarianceSpec: all eigenvalues must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


_METHODS = ("closed_form", "quadrature")


@dataclass(frozen=True)
class DivergenceReport:
    """KL / TVD / Hellinger^2 (and optionally chi^2) for one pair of distributions.

    Construction validates the Hellinger sandwich and Pinsker with slack
    1e-9, so an inconsistent report cannot exist.
    """

    kl_bits: float
    tvd: float
    hellinger_sq: float
    chi_sq: float | None
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise DomainError(f"DivergenceReport: unknown method {self.method!r}")
        if self.chi_sq is not None and self.chi_sq < -1e-12:
            raise DomainError(f"DivergenceReport: chi_sq={self.chi_sq} negative")
        for name in ("tvd", "hellinger_sq"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise DomainError(f"DivergenceReport: {name}={v} outside [0, 1]")
        slack = 1e-9
        # sqrt(1 - (1 - H^2)^2), written so that it does not cancel at small H^2
        hi = math.sqrt(max(0.0, self.hellinger_sq * (2.0 - self.hellinger_sq)))
        if self.tvd < self.hellinger_sq - slack or self.tvd > hi + slack:
            raise DomainError(
                f"DivergenceReport: TVD {self.tvd} violates the Hellinger sandwich "
                f"[{self.hellinger_sq}, {hi}] beyond slack {slack}"
            )
        pinsker = math.sqrt(max(0.0, self.kl_bits * specfn.LN2 / 2.0))
        if self.tvd > pinsker + slack:
            raise DomainError(
                f"DivergenceReport: TVD {self.tvd} violates Pinsker bound {pinsker}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


# The private closed forms below take n and the power as floats or as float64
# arrays, elementwise; an array element equals what its floats give.


def _kl_excess_bits(n, x):
    """(n/2) [x - ln(1+x)] log2 e: KL of N(0, (1+x) I_n) from N(0, I_n) in bits,
    for x > -1; the series form of x - ln(1+x) keeps x ~ 0 exact."""
    return 0.5 * n * specfn.x_minus_log1p(x) * specfn.LOG2E


def kl_isotropic(pair: IsotropicGaussianPair) -> float:
    """D(N(0, s^2 I_n) || N(0, I_n)) = (n/2) [x - ln(1+x)] log2 e bits, x = s^2 - 1."""
    # x > -1 is guaranteed by IsotropicGaussianPair
    return _kl_excess_bits(pair.n, pair.excess_power)


def kl_general_covariance(spec: CovarianceSpec) -> float:
    """(1/2) sum_i (lambda_i - 1 - ln lambda_i) log2 e bits; isotropic when all equal."""
    # lambda - 1 is exact from 1/2 up, so a term is x_minus_log1p of it, as in
    # kl_isotropic; below, it rounds (to -1 at 1e-300) and the difference does not cancel
    terms = (specfn.x_minus_log1p(lam - 1.0) if lam >= 0.5 else lam - 1.0 - math.log(lam)
             for lam in spec.eigenvalues)
    return 0.5 * math.fsum(terms) * specfn.LOG2E


def _hellinger_sq(n, x):
    """1 - (2 s / (1 + s^2))^(n/2) at s^2 = 1 + x, in the log domain."""
    f = specfn._lib(x)
    # ln(2 s / (1 + s^2)) = (1/2) ln(1+x) - ln(1 + x/2), stable near x = 0
    log_base = 0.5 * f.log1p(x) - f.log1p(0.5 * x)
    # 0.0 - v, not -v: at x = 0, H^2 is +0.0, so no output prints -0
    return 0.0 - f.expm1(0.5 * n * log_base)


def hellinger_sq_isotropic(pair: IsotropicGaussianPair) -> float:
    """H^2 = 1 - (2 sigma1 / (1 + sigma1^2))^(n/2), evaluated in the log domain."""
    return _hellinger_sq(pair.n, pair.excess_power)


def _crossing_radius_sq(n, sigma1_sq):
    """||y||^2 where the densities of the pair cross: n s^2 ln(s^2) / (s^2 - 1)."""
    x = sigma1_sq - 1.0
    # ln(1+x)/x, by its series 1 - x/2 + x^2/3 near 0
    ratio = specfn._piecewise(abs(x) < 1e-8, x, lambda v: 1.0 - 0.5 * v + v * v / 3.0,
                              lambda v: specfn._lib(v).log1p(v) / v)
    return n * sigma1_sq * ratio


def _tvd(n, sigma1_sq):
    """|P(n/2, r*^2/2) - P(n/2, r*^2/(2 s^2))| at the crossing radius r*; an
    array takes both radii of every element in one incomplete-gamma call."""
    r2 = _crossing_radius_sq(n, sigma1_sq)
    a = 0.5 * n
    if isinstance(r2, np.ndarray):
        radii = np.concatenate((0.5 * r2, 0.5 * r2 / sigma1_sq))
        p, _ = specfn._gamma_pq(np.concatenate((a, a)), radii)
        return abs(p[: r2.size] - p[r2.size :])
    p = specfn.reg_inc_gamma_lower
    return abs(p(a, 0.5 * r2) - p(a, 0.5 * r2 / sigma1_sq))


def tvd_isotropic_exact(pair: IsotropicGaussianPair) -> float:
    """Exact V_T between N(0, s^2 I_n) and N(0, I_n).

    The likelihood ratio is monotone in ||y||, so the optimal decision region
    is a ball/shell boundary at the density-crossing radius r*, and
    V_T = |P(n/2, r*^2/2) - P(n/2, r*^2/(2 s^2))|.
    """
    return _tvd(pair.n, pair.sigma1_sq)


def isotropic_report(pair: IsotropicGaussianPair) -> DivergenceReport:
    """Assemble the closed-form DivergenceReport for an isotropic pair."""
    return DivergenceReport(
        kl_bits=kl_isotropic(pair),
        tvd=tvd_isotropic_exact(pair),
        hellinger_sq=hellinger_sq_isotropic(pair),
        chi_sq=None,
        method="closed_form",
    )

