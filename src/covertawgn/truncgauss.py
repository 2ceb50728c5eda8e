"""Truncated-Gaussian code distribution and its AWGN output statistics.

The codeword law is x ~ N(0, mu*psi*I_n) conditioned on the radial shell
sqrt(mu^2 n psi) <= ||x|| <= sqrt(n psi), which enforces the maximal power
constraint exactly. This module provides the shell mass Delta, exact sampling
(the squared radius by rejection from its Gamma law, the direction uniform),
and the spherically-symmetric output density after unit-variance AWGN:

    f_bar(y) = f0(y) * E_R[ exp(-R^2/2) * 0F1(; n/2; R^2 ||y||^2 / 4) ].

Divergences of the output model (KL/TVD/H^2/chi^2 against pure noise) are
computed by radial quadrature to an explicit accuracy contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special as _sp

from . import specfn
from .divergences import DivergenceReport
from .errors import DomainError, NumericError

__all__ = [
    "TruncatedGaussianSpec",
    "RadialOutputDensity",
    "shell_mass",
    "sample_codewords",
    "radial_output_density",
    "output_divergences_quadrature",
]


def shell_mass(n: int, mu: float) -> float:
    """Delta = P(n/2, n/(2 mu)) - P(n/2, n mu/2): Gaussian mass of the code shell.

    Grows toward 1 as n increases at fixed mu (sphere hardening) and
    degenerates to 0 as mu -> 1.
    """
    if n < 1:
        raise DomainError(f"shell_mass: need n >= 1, got {n}")
    if not (0.0 < mu < 1.0):
        raise DomainError(f"shell_mass: need 0 < mu < 1, got {mu!r}")
    a = 0.5 * n
    return specfn.reg_inc_gamma_lower(a, 0.5 * n / mu) - specfn.reg_inc_gamma_lower(
        a, 0.5 * n * mu
    )


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Dimension, per-coordinate power scale psi, and truncation parameter mu."""

    n: int
    psi: float
    mu: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"TruncatedGaussianSpec: need n >= 1, got {self.n}")
        if not (self.psi > 0.0 and math.isfinite(self.psi)):
            raise DomainError(f"TruncatedGaussianSpec: need psi > 0, got {self.psi!r}")
        if not (0.0 < self.mu < 1.0):
            raise DomainError(f"TruncatedGaussianSpec: need 0 < mu < 1, got {self.mu!r}")
        if not (0.0 < self.delta_mass < 1.0):
            raise DomainError(
                f"TruncatedGaussianSpec: shell mass {self.delta_mass} degenerate "
                f"(n={self.n}, mu={self.mu})"
            )

    @property
    def variance(self) -> float:
        """Per-coordinate variance mu * psi of the generating Gaussian."""
        return self.mu * self.psi

    @property
    def r_inner(self) -> float:
        return math.sqrt(self.mu * self.mu * self.n * self.psi)

    @property
    def r_outer(self) -> float:
        return math.sqrt(self.n * self.psi)

    @cached_property
    def delta_mass(self) -> float:
        return shell_mass(self.n, self.mu)

    @cached_property
    def _output_model(self) -> RadialOutputDensity:
        m = _RADIUS_LAW_NODES
        while True:
            r, w = _gauss_legendre_radius_law(self, m)
            if abs(float(w.sum()) - 1.0) <= 1e-10:
                return RadialOutputDensity(spec=self, radii=r, weights=w)
            if m >= _RADIUS_LAW_MAX_NODES:
                raise NumericError(
                    f"radial_output_density: radius law not normalized with {m} nodes "
                    f"(n={self.n}, psi={self.psi}, mu={self.mu})"
                )
            m *= 2


def _read_only_copy(a) -> np.ndarray:
    """A C-contiguous float copy of `a` that cannot be written through."""
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


# a rejection round draws ceil(need / acceptance * 1.05) + 16 proposals, so
# most calls take one; the cap binds only if the acceptance is far off
_RADIUS_MAX_ROUNDS = 64


def _radius_proposal(spec: TruncatedGaussianSpec) -> tuple[bool, float, float]:
    """(uniform, acceptance, t_star) for t = ||x||^2 / (2 mu psi), a Gamma(a = n/2)
    variate on the shell [lo, hi] = [a mu, a / mu]: the Gamma proposal accepts
    Delta, the uniform one Delta / ((hi - lo) f(t_star)) with f the Gamma pdf at
    its peak on the shell t_star = clip(a - 1, lo, hi); the higher one runs."""
    a = 0.5 * spec.n
    lo, hi = a * spec.mu, a / spec.mu
    t_star = min(max(a - 1.0, lo), hi)
    log_box = math.log(hi - lo) + (a - 1.0) * math.log(t_star) - t_star - math.lgamma(a)
    if log_box < 0.0:
        return True, spec.delta_mass * math.exp(-log_box), t_star
    return False, spec.delta_mass, t_star


def _sample_radii(
    spec: TruncatedGaussianSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact i.i.d. codeword radii ||x|| = sqrt(2 mu psi t), shape (count,), by
    rejection on t (see `_radius_proposal`). A Gamma proposal is kept when it
    lands in the shell, a uniform one t when an Exp(1) draw E exceeds
    ln f(t_star) - ln f(t) = (t - t_star) - (a - 1) log1p((t - t_star) / t_star).
    Accepted values are kept in draw order, so the radii depend only on
    (spec, count, rng state). Raises NumericError after _RADIUS_MAX_ROUNDS."""
    a = 0.5 * spec.n
    lo, hi = a * spec.mu, a / spec.mu
    uniform, acceptance, t_star = _radius_proposal(spec)
    t, filled = np.empty(count), 0
    for _ in range(_RADIUS_MAX_ROUNDS):
        m = math.ceil((count - filled) / acceptance * 1.05) + 16
        if uniform:
            prop = lo + (hi - lo) * rng.random(m)
            d = prop - t_star
            keep = rng.standard_exponential(m) > d - (a - 1.0) * np.log1p(d / t_star)
        else:
            prop = rng.standard_gamma(a, m)
            keep = (prop >= lo) & (prop <= hi)
        got = prop[keep][: count - filled]
        t[filled : filled + got.size] = got
        filled += got.size
        if filled == count:  # 2 mu psi t may round an ulp past the shell
            return np.clip(np.sqrt(2.0 * spec.variance * t), spec.r_inner, spec.r_outer)
    raise NumericError(
        f"_sample_radii: {filled} of {count} radii after {_RADIUS_MAX_ROUNDS} rounds "
        f"(n={spec.n}, mu={spec.mu}, {'uniform' if uniform else 'Gamma'} proposal, "
        f"acceptance {acceptance:.4g})"
    )


def sample_codewords(
    spec: TruncatedGaussianSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact i.i.d. draws from the shell-conditioned Gaussian, shape (count, n).

    Radius by rejection from the conditioned Gamma law (`_sample_radii`),
    direction uniform on the unit sphere; every row satisfies
    r_inner <= ||x|| <= r_outer.
    """
    if count < 1:
        raise DomainError(f"sample_codewords: need count >= 1, got {count}")
    r = _sample_radii(spec, count, rng)
    g = rng.standard_normal((count, spec.n))
    norms = np.linalg.norm(g, axis=1)
    # a zero vector from the RNG is measure-zero but cheap to guard
    norms[norms == 0.0] = 1.0
    return g * (r / norms)[:, None]


# --- radial output density -------------------------------------------------

# Gauss-Legendre nodes of the radius law: first try, and cap of the doubling
_RADIUS_LAW_NODES = 256
_RADIUS_LAW_MAX_NODES = 4096
# points of the ratio table's radial grid
_RATIO_TABLE_POINTS = 4096
# output radii per kernel call; bounds log_density_ratio's (nodes, block) temporaries
_RATIO_BLOCK = 256


@dataclass(frozen=True)
class RadialOutputDensity:
    """Discretized radius law of the code shell, ready for output-density work.

    radii and weights are matching node/weight vectors over [r_inner, r_outer]
    whose weights sum to 1 within 1e-10; _log_mix premultiplies the Gaussian
    attenuation exp(-r_k^2/2) used by the convolution kernel, and ratio_table
    caches the log density ratio on the one radial grid that the output
    quadrature integrates and the Monte-Carlo statistics interpolate.
    """

    spec: TruncatedGaussianSpec
    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        # copies, so _log_mix and ratio_table cannot go stale under the caller
        object.__setattr__(self, "radii", _read_only_copy(self.radii))
        object.__setattr__(self, "weights", _read_only_copy(self.weights))
        if self.radii.ndim != 1 or self.radii.shape != self.weights.shape:
            raise DomainError(
                f"RadialOutputDensity: radii {self.radii.shape} and weights "
                f"{self.weights.shape} must be matching vectors"
            )
        err = abs(float(self.weights.sum()) - 1.0)
        if err > 1e-10:
            raise NumericError(
                f"RadialOutputDensity: radius-law weights sum off by {err:.2e} for {self.spec}"
            )

    @cached_property
    def _log_mix(self) -> np.ndarray:
        return np.log(self.weights) - 0.5 * self.radii**2

    @cached_property
    def ratio_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (radius, log f_bar/f0) table on a uniform grid up to ~16 sigma
        beyond the bulk of ||y||, built once per model. output_divergences_quadrature
        integrates on it; the Monte-Carlo statistics interpolate it, and since
        the ratio is monotone increasing in the radius, linearly so."""
        n, psi = self.spec.n, self.spec.psi
        s_max = math.sqrt(n * (1.0 + psi) + 16.0 * math.sqrt(2.0 * n) + 80.0)
        s = np.linspace(1e-9, s_max, _RATIO_TABLE_POINTS)
        v = np.asarray(self.log_density_ratio(s))
        s.flags.writeable = v.flags.writeable = False  # one copy serves every caller
        return s, v

    def log_density_ratio(self, y_norm: np.ndarray | float) -> np.ndarray | float:
        """log( f_bar(y) / f0(y) ) at ||y|| = y_norm (scalar or vector): the
        log-sum-exp over radius nodes r of _log_mix + ln 0F1(; n/2; (r y)^2/4)."""
        scalar = np.ndim(y_norm) == 0
        s = np.atleast_1d(np.asarray(y_norm, dtype=float))
        if (bad := ~(np.isfinite(s) & (s >= 0.0))).any():
            raise DomainError(
                f"log_density_ratio: need finite radii >= 0, got {s[bad][0]} for {self.spec}"
            )
        b = 0.5 * self.spec.n
        out = np.empty_like(s)
        for j in range(0, s.size, _RATIO_BLOCK):
            block = s[j : j + _RATIO_BLOCK]
            log_f = specfn.log_sph_bessel_factor(b, np.outer(self.radii, block))
            out[j : j + _RATIO_BLOCK] = _sp.logsumexp(self._log_mix[:, None] + log_f, axis=0)
        if not np.all(np.isfinite(out)):
            i = int(np.argmin(np.isfinite(out)))
            raise NumericError(
                f"log_density_ratio: evaluation overflowed to {out[i]} at radius {s[i]} "
                f"for {self.spec}"
            )
        return float(out[0]) if scalar else out


def _gauss_legendre_radius_law(
    spec: TruncatedGaussianSpec, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    r_lo, r_hi = spec.r_inner, spec.r_outer
    r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
    jac = 0.5 * (r_hi - r_lo) * w
    a = 0.5 * spec.n
    scale = 2.0 * spec.variance
    t = r * r
    # radius density: f_R(r) = 2 r t^{a-1} e^{-t/scale} / (scale^a Gamma(a) Delta)
    log_pdf = (
        math.log(2.0)
        + np.log(r)
        + (a - 1.0) * np.log(t)
        - t / scale
        - a * math.log(scale)
        - math.lgamma(a)
        - math.log(spec.delta_mass)
    )
    return r, jac * np.exp(log_pdf)


def radial_output_density(spec: TruncatedGaussianSpec) -> RadialOutputDensity:
    """The discretized radius law of spec, built once per spec object, doubling
    nodes from 256 up to 4096 until weights sum to 1 within 1e-10."""
    return spec._output_model


def output_divergences_quadrature(model: RadialOutputDensity) -> DivergenceReport:
    """KL/TVD/H^2/chi^2 of the AWGN output of the code against pure noise,
    by the trapezoid rule over the radial coordinate (both laws are spherical)
    on the model's cached ratio_table.

    Raises NumericError if either radial density fails to integrate to 1
    within 1e-6.
    """
    n = model.spec.n
    s, log_ratio = model.ratio_table
    ratio = np.exp(log_ratio)
    a = 0.5 * n
    log_f0_rad = (
        math.log(2.0) + (n - 1.0) * np.log(s) - 0.5 * s * s - a * math.log(2.0) - math.lgamma(a)
    )
    f0 = np.exp(log_f0_rad)
    fbar = f0 * ratio
    norm0 = float(np.trapezoid(f0, s))
    norm1 = float(np.trapezoid(fbar, s))
    if abs(norm0 - 1.0) > 1e-6 or abs(norm1 - 1.0) > 1e-6:
        raise NumericError(
            f"output_divergences_quadrature: normalization off (noise {norm0}, "
            f"output {norm1}) for {model.spec}"
        )
    kl_bits = float(np.trapezoid(fbar * log_ratio, s)) * specfn.LOG2E
    tvd = 0.5 * float(np.trapezoid(np.abs(fbar - f0), s))
    # (1/2) int f0 (sqrt(ratio) - 1)^2, not 1 - int sqrt(f_bar f0), which cancels
    h2 = 0.5 * float(np.trapezoid(f0 * np.expm1(0.5 * log_ratio) ** 2, s))
    chi2 = float(np.trapezoid(f0 * (ratio - 1.0) ** 2, s))
    try:
        return DivergenceReport(
            kl_bits=max(kl_bits, 0.0),
            tvd=min(max(tvd, 0.0), 1.0),
            hellinger_sq=min(max(h2, 0.0), 1.0),
            chi_sq=max(chi2, 0.0),
            method="quadrature",
        )
    except DomainError as exc:
        if max(abs(kl_bits), tvd, abs(h2)) < 1e-6:
            # near zero power the KL integrand cancels below float resolution
            # while the TVD integral retains O(1e-9) discretization noise, so
            # the sandwich/Pinsker validation cannot be certified either way
            raise NumericError(
                "output_divergences_quadrature: divergences below quadrature "
                f"resolution (kl={kl_bits:.3g} bits, tvd={tvd:.3g}); increase "
                "the power to a resolvable level"
            ) from exc
        raise

