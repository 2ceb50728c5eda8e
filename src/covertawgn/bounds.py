"""Finite-blocklength throughput bounds under a KL covertness budget.

Both directions are the AWGN normal approximation (Polyanskiy, Poor, Verdu,
"Channel coding rate in the finite blocklength regime", IEEE T-IT 2010)

    log2 M  =  (n/2) log2(1 + x)  -  sqrt(n v / 2) log2(e) Qinv(epsilon)  +  order log2(n),

with x a per-coordinate power read from `planner`, v = x(x + 2)/(1 + x)^2
twice PPV's dispersion V(x) in nats^2, and the residual O(1) terms set to
zero. The converse takes x = psi_nec and order 3/2; the achievability takes
the code's power mu psi_suf, the dispersion at psi_suf skewed by the shell
slack mu, and order 1/2. simplified_asymptotics gives the first-order term
sqrt(n delta ln 2) log2(e) and the paper's second-order coefficients, the
small-power limits of the two dispersion terms under the CovertParams.defaults
presets only; asymptotic_sweep classifies the covertness trend of a power
schedule psi = c n^(-tau).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import divergences as dv
from . import specfn
from .errors import DomainError
from .planner import CovertParams, psi_nec, psi_suf

__all__ = [
    "ThroughputBounds",
    "AsymptoticSweep",
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

_CAVEAT = (
    "second-order normal approximation: O(1) remainders beyond the stated "
    "1/2 log2 n and 3/2 log2 n offsets are set to zero"
)


def _dispersion(x: float) -> float:
    """x(x + 2)/(1 + x)^2: twice the AWGN dispersion V(x) at power x, in nats^2."""
    return x * (x + 2.0) / (1.0 + x) ** 2


def _normal_approximation(n: int, x: float, v: float, epsilon: float, order: float) -> float:
    """(n/2) log2(1 + x) - sqrt(n v / 2) log2(e) Qinv(epsilon) + order log2(n), in bits."""
    first = 0.5 * n * math.log1p(x) * specfn.LOG2E
    penalty = math.sqrt(0.5 * n * v) * specfn.LOG2E * specfn.gaussian_q_inv(epsilon)
    return first - penalty + order * math.log2(n)


def achievability_bound(params: CovertParams) -> float:
    """Largest guaranteed log2 M at blocklength n, budget delta, error epsilon.

    The normal approximation at the code's power mu psi_suf, its dispersion
    skewed by (2 mu + psi_suf)/(2 + psi_suf) from the one at psi_suf, plus
    (1/2) log2 n.
    """
    p = psi_suf(params.n, params.delta, params.mu, params.nu_sq)
    v = (2.0 * params.mu + p) / (2.0 + p) * _dispersion(p)
    return _normal_approximation(params.n, params.mu * p, v, params.epsilon, 0.5)


def converse_bound(params: CovertParams) -> float:
    """Smallest log2 M no code can beat at the same (n, delta, epsilon): the
    normal approximation at psi_nec, plus (3/2) log2 n."""
    p = psi_nec(params.n, params.delta, params.eta)
    return _normal_approximation(params.n, p, _dispersion(p), params.epsilon, 1.5)


def simplified_asymptotics(params: CovertParams) -> tuple[float, float, float]:
    """Closed-form expansion terms (first_order, second_order_conv, second_order_achiev).

    first_order = sqrt(n delta log2 e); second_order_conv = sqrt(2) base and
    second_order_achiev = sqrt(2/mu) base, with base = (n delta)^(1/4)
    (log2 e)^(3/4) Qinv(epsilon). Under the CovertParams.defaults presets
    (mu, nu, eta -> 1) both bounds over first_order tend to 1, and each
    bound's dispersion term over its coefficient tends to 1. At fixed slacks
    they do not: achievability / first_order tends to 1/nu and converse /
    first_order to sqrt(eta); the achievability's dispersion term tends to
    sqrt(2/nu) base and the converse's to sqrt(2) eta^(1/4) base.
    """
    n, delta = params.n, params.delta
    first = math.sqrt(n * delta * specfn.LOG2E)
    base = (n * delta) ** 0.25 * specfn.LOG2E**0.75 * specfn.gaussian_q_inv(params.epsilon)
    return first, math.sqrt(2.0) * base, math.sqrt(2.0 / params.mu) * base


@dataclass(frozen=True)
class ThroughputBounds:
    """One row of the bounds table: its fields, in order, are the CSV columns
    (CSV_COLUMNS)."""

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
        return {**asdict(self), "caveat": _CAVEAT}


CSV_COLUMNS = tuple(f.name for f in fields(ThroughputBounds))


def throughput_bounds(params: CovertParams) -> ThroughputBounds:
    """Both exact bounds plus the simplified expansion terms at one point."""
    n, delta, epsilon = params.n, params.delta, params.epsilon
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
        v1=_dispersion(psi_suf(n, delta, params.mu, params.nu_sq)),
        v2=_dispersion(psi_nec(n, delta, params.eta)),
    )


def bounds_grid(n_values, delta: float, epsilon: float = 0.1) -> list[ThroughputBounds]:
    """Bounds rows over a blocklength grid (integers >= 1, in any order) with the
    default slack presets; DomainError at the first entry that is not one."""
    rows = []
    for i, n in enumerate(n_values):
        if not _is_blocklength(n):
            raise DomainError(f"bounds_grid: need integers >= 1, got n_values[{i}] = {n!r}")
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


def default_n_grid(n_min: int = 100, n_max: int = 10**8) -> np.ndarray:
    """Log-spaced integer blocklengths, 40 points per decade, deduplicated."""
    if not (1 <= n_min < n_max):
        raise DomainError(f"default_n_grid: need 1 <= n_min < n_max, got ({n_min}, {n_max})")
    lo, hi = math.log10(n_min), math.log10(n_max)
    count = int(round((hi - lo) * 40)) + 1
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


def _is_blocklength(n) -> bool:
    """Whether n is an integer value >= 1 that fits in int64."""
    return 0 < n < 2**63 and float(n).is_integer()


def _checked_n_grid(n_grid) -> np.ndarray:
    """n_grid as int64 blocklengths, or DomainError at its first entry that
    is not an integer >= 1 above the entry before it."""
    grid = np.asarray(n_grid)
    if grid.ndim != 1:
        raise DomainError(f"asymptotic_sweep: need a 1-D blocklength grid, got shape {grid.shape}")
    prev = 0
    for i, n in enumerate(grid.tolist()):
        if not (prev < n and _is_blocklength(n)):
            raise DomainError(
                f"asymptotic_sweep: need integer blocklengths >= 1 in strictly increasing "
                f"order, got n_grid[{i}] = {n!r}" + (f" after {prev!r}" if i else "")
            )
        prev = n
    return grid.astype(np.int64)


def _schedule_power(c: float, tau: float, n: np.ndarray) -> np.ndarray:
    """theta = c n^(-tau) over float blocklengths, each with the float's own pow."""
    return c * np.array([v ** -tau for v in n.tolist()])


def asymptotic_sweep(c: float, tau: float, n_grid: np.ndarray | None = None) -> AsymptoticSweep:
    """Exact KL (bits), V_T, and H^2 of N(0, (1 + c n^-tau) I_n) against noise
    along the grid (integers >= 1, strictly increasing, spanning a decade),
    with the trend classified from the computed trace.

    The whole grid is one array pass through the closed forms that
    kl_isotropic, tvd_isotropic_exact and hellinger_sq_isotropic evaluate at
    one point, and each value equals theirs."""
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError(f"asymptotic_sweep: need finite c > 0, got {c!r}")
    if not (tau > 0.0):
        raise DomainError(f"asymptotic_sweep: need tau > 0, got {tau!r}")
    grid = default_n_grid() if n_grid is None else _checked_n_grid(n_grid)
    n = grid.astype(float)
    # sigma1^2 and its excess power as IsotropicGaussianPair holds them
    s2 = 1.0 + _schedule_power(c, tau, n)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(n * s2)
    if overflows.any():
        i = int(np.argmax(overflows))
        raise DomainError(f"asymptotic_sweep: n * sigma1_sq overflows from "
                          f"n={grid[i]}, sigma1_sq={float(s2[i])!r}")
    x = s2 - 1.0
    kl = dv._kl_excess_bits(n, x)
    cls = classify_kl_trend(grid, kl)
    plateau = 0.25 * c * c * specfn.LOG2E if cls == "plateau" else None
    return AsymptoticSweep(
        c=c, tau=tau, n_grid=grid, kl_bits=kl, tvd=dv._tvd(n, s2),
        hellinger_sq=dv._hellinger_sq(n, x), classification=cls, plateau_kl_bits=plateau,
    )
