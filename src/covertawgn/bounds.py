"""Finite-blocklength throughput bounds under a KL covertness budget.

Both directions take the normal-approximation form

    log M  =  (n/2) log2(1 + x)  -  sqrt(n V) Qinv(epsilon) log2(e) * k  +  order log2(n),

with x the admissible per-coordinate power for budget delta (bits), V a
Gaussian dispersion evaluated at that power, and the residual O(1) terms set
to zero. The achievability direction prices in the shell slacks (mu, nu);
the converse direction the Taylor slack eta. simplified_asymptotics is the
shared first-order term sqrt(n delta ln 2) log2(e), and asymptotic_sweep
classifies the covertness trend of a power schedule psi = c n^(-tau).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import specfn
from .divergences import (
    IsotropicGaussianPair,
    hellinger_sq_isotropic,
    kl_isotropic,
    tvd_isotropic_exact,
)
from .errors import DomainError
from .planner import CovertParams

__all__ = [
    "ThroughputBounds",
    "AsymptoticSweep",
    "v1_dispersion",
    "v2_dispersion",
    "achievability_bound",
    "converse_bound",
    "simplified_asymptotics",
    "throughput_bounds",
    "bounds_grid",
    "bounds_csv_text",
    "classify_kl_trend",
    "asymptotic_sweep",
    "default_n_grid",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "n",
    "delta",
    "epsilon",
    "achievability_bits",
    "converse_bits",
    "first_order",
    "second_order_conv",
    "second_order_achiev",
    "v1",
    "v2",
)

_CAVEAT = (
    "second-order normal approximation: O(1) remainders beyond the stated "
    "1/2 log2 n and 3/2 log2 n offsets are set to zero"
)


def v1_dispersion(n: int, delta: float, mu: float, nu: float) -> float:
    """Achievability-side dispersion at the sufficient power corner.

    V1 = (d + mu nu sqrt(d n)) / (d + mu nu sqrt(d n) + n mu^2 nu^2 / 4)
    with d = delta ln 2; lies in (0, 1) and vanishes like 2/sqrt(d n).
    """
    d = delta * specfn.LN2
    s = d + mu * nu * math.sqrt(d * n)
    return s / (s + 0.25 * n * mu * mu * nu * nu)


def v2_dispersion(n: int, delta: float, eta: float) -> float:
    """Converse-side dispersion at the eta-inflated necessary corner.

    V2 = (d eta + sqrt(d eta n)) / (d eta + sqrt(d eta n) + n/4), d = delta ln 2.
    """
    d = delta * specfn.LN2
    s = d * eta + math.sqrt(d * eta * n)
    return s / (s + 0.25 * n)


def achievability_bound(params: CovertParams) -> float:
    """Largest guaranteed log2 M at blocklength n, budget delta, error epsilon.

    (n/2) log2(1 + mu psi_suf) minus the dispersion penalty, plus (1/2) log2 n.
    """
    n, delta = params.n, params.delta
    nu = math.sqrt(params.nu_sq)
    mu = params.mu
    d = delta * specfn.LN2
    x = math.sqrt(4.0 * d / (n * params.nu_sq))  # equals mu * psi_suf
    first = 0.5 * n * math.log1p(x) * specfn.LOG2E
    v1 = v1_dispersion(n, delta, mu, nu)
    skew = (mu * mu * nu * math.sqrt(n) + math.sqrt(d)) / (
        mu * nu * math.sqrt(n) + math.sqrt(d)
    )
    penalty = math.sqrt(0.5 * n * specfn.LOG2E**2 * skew * v1) * specfn.gaussian_q_inv(
        params.epsilon
    )
    return first - penalty + 0.5 * math.log2(n)


def converse_bound(params: CovertParams) -> float:
    """Smallest log2 M no code can beat at the same (n, delta, epsilon)."""
    n, delta, eta = params.n, params.delta, params.eta
    d = delta * specfn.LN2
    x = math.sqrt(4.0 * eta * d / n)
    first = 0.5 * n * math.log1p(x) * specfn.LOG2E
    v2 = v2_dispersion(n, delta, eta)
    penalty = math.sqrt(0.5 * n * specfn.LOG2E**2 * v2) * specfn.gaussian_q_inv(
        params.epsilon
    )
    return first - penalty + 1.5 * math.log2(n)


def simplified_asymptotics(params: CovertParams) -> tuple[float, float, float]:
    """Closed-form expansion terms (first_order, second_order_conv, second_order_achiev).

    first_order = sqrt(n delta log2 e); both bounds divided by it tend to 1.
    The second-order coefficients are sqrt(2) (converse) and sqrt(2/mu)
    (achievability) times (n delta)^(1/4) (log2 e)^(3/4) Qinv(epsilon); they
    coincide as mu -> 1.
    """
    n, delta = params.n, params.delta
    first = math.sqrt(n * delta * specfn.LOG2E)
    base = (n * delta) ** 0.25 * specfn.LOG2E**0.75 * specfn.gaussian_q_inv(params.epsilon)
    return first, math.sqrt(2.0) * base, math.sqrt(2.0 / params.mu) * base


@dataclass(frozen=True)
class ThroughputBounds:
    """One row of the bounds table; column order matches CSV_COLUMNS."""

    n: int
    delta: float
    epsilon: float
    achievability_bits: float
    converse_bits: float
    first_order: float
    second_order_conv: float
    second_order_achiev: float
    v1: float
    v2: float

    def to_row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]

    def to_dict(self) -> dict:
        out = {c: getattr(self, c) for c in CSV_COLUMNS}
        out["caveat"] = _CAVEAT
        return out


def throughput_bounds(params: CovertParams) -> ThroughputBounds:
    """Both exact bounds plus the simplified expansion terms at one point."""
    n, delta, epsilon = params.n, params.delta, params.epsilon
    nu = math.sqrt(params.nu_sq)
    first, so_conv, so_ach = simplified_asymptotics(params)
    return ThroughputBounds(
        n=n,
        delta=delta,
        epsilon=epsilon,
        achievability_bits=achievability_bound(params),
        converse_bits=converse_bound(params),
        first_order=first,
        second_order_conv=so_conv,
        second_order_achiev=so_ach,
        v1=v1_dispersion(n, delta, params.mu, nu),
        v2=v2_dispersion(n, delta, params.eta),
    )


def bounds_grid(
    n_values, delta: float, epsilon: float = 0.1
) -> list[ThroughputBounds]:
    """Bounds rows over a blocklength grid with the default slack presets."""
    rows = []
    for n in n_values:
        rows.append(throughput_bounds(CovertParams.defaults(int(n), delta, epsilon)))
    return rows


def _csv_text(header, rows, comments: dict | None) -> str:
    """'# key=value' comment lines, then header and rows; floats to 12 significant digits."""
    buf = io.StringIO()
    for k, v in (comments or {}).items():
        buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def bounds_csv_text(rows: list[ThroughputBounds], comments: dict | None = None) -> str:
    """CSV with the fixed column header; optional '# key=value' comment lines first."""
    return _csv_text(CSV_COLUMNS, (r.to_row() for r in rows), comments)


# --- power-schedule asymptotics ---------------------------------------------


def default_n_grid(n_min: int = 100, n_max: int = 10**8, per_decade: int = 40) -> np.ndarray:
    """Log-spaced integer blocklengths, per_decade points per decade, deduplicated."""
    if not (1 <= n_min < n_max):
        raise DomainError(f"default_n_grid: need 1 <= n_min < n_max, got ({n_min}, {n_max})")
    if per_decade < 1:
        raise DomainError(f"default_n_grid: need per_decade >= 1, got {per_decade}")
    lo, hi = math.log10(n_min), math.log10(n_max)
    count = int(round((hi - lo) * per_decade)) + 1
    grid = np.unique(np.round(np.logspace(lo, hi, num=count)).astype(np.int64))
    return grid


def classify_kl_trend(n_grid: np.ndarray, kl_bits: np.ndarray) -> str:
    """'divergent' / 'plateau' / 'vanishing' from the last decade of the trace.

    Compares the final KL value against the value one decade earlier; a factor
    2 either way decides the verdict (any power-law drift n^p with |p| >= 0.3
    clears that margin over a decade).
    """
    n_grid = np.asarray(n_grid, dtype=float)
    kl = np.asarray(kl_bits, dtype=float)
    if n_grid.size < 2 or n_grid[-1] / n_grid[0] < 10.0:
        raise DomainError("classify_kl_trend: need a grid spanning at least one decade")
    i_ref = int(np.argmin(np.abs(n_grid - n_grid[-1] / 10.0)))
    ref, last = kl[i_ref], kl[-1]
    if ref == 0.0:
        return "vanishing" if last == 0.0 else "divergent"
    ratio = last / ref
    if ratio > 2.0:
        return "divergent"
    if ratio < 0.5:
        return "vanishing"
    return "plateau"


@dataclass(frozen=True)
class AsymptoticSweep:
    """KL/TVD/Hellinger^2 traces of the power schedule psi(n) = c n^(-tau).

    classification follows classify_kl_trend; plateau_kl_bits is the limit
    c^2/4 log2 e, reported only when the trace actually plateaus (tau = 1/2
    is the critical schedule separating divergent from vanishing covertness).
    """

    c: float
    tau: float
    n_grid: np.ndarray
    kl_bits: np.ndarray
    tvd: np.ndarray
    hellinger_sq: np.ndarray
    classification: str
    plateau_kl_bits: float | None

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "tau": self.tau,
            "n": self.n_grid.tolist(),
            "kl_bits": self.kl_bits.tolist(),
            "tvd": self.tvd.tolist(),
            "hellinger_sq": self.hellinger_sq.tolist(),
            "classification": self.classification,
            "plateau_kl_bits": self.plateau_kl_bits,
        }


def asymptotic_sweep(c: float, tau: float, n_grid: np.ndarray | None = None) -> AsymptoticSweep:
    """Exact KL (bits), V_T, and H^2 of N(0, (1 + c n^-tau) I_n) against noise
    along the grid, with the trend classified from the computed trace."""
    if not (c > 0.0):
        raise DomainError(f"asymptotic_sweep: need c > 0, got {c!r}")
    if not (tau > 0.0):
        raise DomainError(f"asymptotic_sweep: need tau > 0, got {tau!r}")
    grid = default_n_grid() if n_grid is None else np.asarray(n_grid, dtype=np.int64)
    kl = np.empty(grid.size)
    tv = np.empty(grid.size)
    h2 = np.empty(grid.size)
    for i, n in enumerate(grid):
        x = c * float(n) ** (-tau)
        pair = IsotropicGaussianPair(n=int(n), sigma1_sq=1.0 + x)
        kl[i] = kl_isotropic(pair)
        tv[i] = tvd_isotropic_exact(pair)
        h2[i] = hellinger_sq_isotropic(pair)
    cls = classify_kl_trend(grid, kl)
    plateau = 0.25 * c * c * specfn.LOG2E if cls == "plateau" else None
    return AsymptoticSweep(
        c=c, tau=tau, n_grid=grid, kl_bits=kl, tvd=tv, hellinger_sq=h2,
        classification=cls, plateau_kl_bits=plateau,
    )
