"""Power planning against a KL covertness budget.

Given blocklength n and budget delta (bits), the admissible per-coordinate
power x = Psi solves (n/2) [x - ln(1+x)] log2(e) <= delta. This module
provides the necessary/sufficient closed-form corners

    Psi_NEC = sqrt(4 delta eta ln 2 / n),
    Psi_SUF = sqrt(4 delta ln 2 / (n mu^2 nu^2)),

and the exact Newton solve of the budget equation. `plan` flags a NEC corner
at or past x = 3(eta - 1)/(2 eta), the range in which the Taylor bracket
x^2/(4 eta) < (x - ln(1+x))/2 < x^2/4 behind that corner is guaranteed.
All deltas are in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import specfn
from .divergences import _kl_excess_bits
from .errors import DomainError, NumericError

__all__ = [
    "CovertParams",
    "PowerPlan",
    "nu_lemma_shell",
    "psi_nec",
    "psi_suf",
    "solve_exact_power",
    "plan",
]


def nu_lemma_shell(n: int) -> float:
    """Preset slack nu^2 = 1 + 1/n matching the shell concentration estimate."""
    if n < 1:
        raise DomainError(f"nu_lemma_shell: need n >= 1, got {n}")
    return 1.0 + 1.0 / n


@dataclass(frozen=True)
class CovertParams:
    """Blocklength, budget, and the three slack knobs of the planning corners.

    nu_sq multiplies the power in the sufficient corner (shell slack >= 1);
    eta inflates the necessary corner (Taylor slack > 1); mu is the shell
    truncation ratio. delta is in bits, epsilon the target error probability.
    """

    n: int
    delta: float
    epsilon: float
    mu: float
    nu_sq: float
    eta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"CovertParams: need n >= 1, got {self.n}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise DomainError(f"CovertParams: need delta > 0, got {self.delta!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"CovertParams: need 0 < epsilon < 1, got {self.epsilon!r}")
        if not (0.0 < self.mu < 1.0):
            raise DomainError(f"CovertParams: need 0 < mu < 1, got {self.mu!r}")
        if not (self.nu_sq >= 1.0):
            raise DomainError(f"CovertParams: need nu_sq >= 1, got {self.nu_sq!r}")
        if not (self.eta > 1.0):
            raise DomainError(f"CovertParams: need eta > 1, got {self.eta!r}")

    @classmethod
    def defaults(cls, n: int, delta: float, epsilon: float = 0.1) -> "CovertParams":
        """Asymptotically tight presets: nu^2 = eta = 1 + 1/n, mu = 1 - 1/(n+1).

        Note mu^2 nu^2 eta = 1 exactly under these presets, so the two planning
        corners coincide: psi_suf == psi_nec.
        """
        if n < 1:
            raise DomainError(f"CovertParams.defaults: need n >= 1, got {n}")
        return cls(
            n=n,
            delta=delta,
            epsilon=epsilon,
            mu=1.0 - 1.0 / (n + 1),
            nu_sq=nu_lemma_shell(n),
            eta=1.0 + 1.0 / n,
        )


def psi_nec(n: int, delta: float, eta: float) -> float:
    """Necessary power corner sqrt(4 delta eta ln 2 / n) (delta in bits)."""
    if n < 1 or not (delta > 0.0) or not (eta > 1.0):
        raise DomainError(f"psi_nec: invalid (n={n}, delta={delta!r}, eta={eta!r})")
    return math.sqrt(4.0 * delta * eta * specfn.LN2 / n)


def psi_suf(n: int, delta: float, mu: float, nu_sq: float) -> float:
    """Sufficient power corner sqrt(4 delta ln 2 / (n mu^2 nu^2)) (delta in bits)."""
    if n < 1 or not (delta > 0.0) or not (0.0 < mu < 1.0) or not (nu_sq >= 1.0):
        raise DomainError(
            f"psi_suf: invalid (n={n}, delta={delta!r}, mu={mu!r}, nu_sq={nu_sq!r})"
        )
    return math.sqrt(4.0 * delta * specfn.LN2 / (n * mu * mu * nu_sq))


# relative residual at which the exact budget solve stops
_EXACT_POWER_REL_TOL = 1e-12


def solve_exact_power(n: int, delta: float) -> float:
    """The x* > 0 with (n/2)[x - ln(1+x)] log2 e = delta, by Newton's method.

    The residual is increasing and convex in x > 0, and the seed, the small-x
    root sqrt(4 delta ln2 / n), lies left of x* since x - ln(1+x) < x^2/2; so
    the first step lands right of x* and every later one descends to it. The
    residual at the returned point is below 1e-12 * delta.
    """
    if n < 1 or not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"solve_exact_power: invalid (n={n}, delta={delta!r})")
    x = math.sqrt(4.0 * delta * specfn.LN2 / n)
    if not 0.0 < x < math.inf:  # 4 delta ln2 / n underflows or overflows
        raise NumericError(f"solve_exact_power: seed {x} out of range (n={n}, delta={delta})")
    for _ in range(200):
        f = _kl_excess_bits(n, x) - delta
        if abs(f) <= _EXACT_POWER_REL_TOL * delta:
            return x
        # d/dx (n/2)(x - ln(1+x)) log2 e = (n/2) x/(1+x) log2 e
        x -= f / (0.5 * n * x / (1.0 + x) * specfn.LOG2E)
    raise NumericError(f"solve_exact_power: no convergence (n={n}, delta={delta})")


def _bracket_threshold(eta: float) -> float:
    """3(eta - 1)/(2 eta): below it x^2/(4 eta) < (x - ln(1+x))/2 is guaranteed;
    the upper side (x - ln(1+x))/2 < x^2/4 holds for every x > 0."""
    return 1.5 * (eta - 1.0) / eta


@dataclass(frozen=True)
class PowerPlan:
    """Resolved power corners for one parameter point.

    mu * psi_suf <= psi_exact always (the sufficient corner respects the
    budget); psi_exact <= psi_nec only while psi_nec sits below
    bracket_valid_below, otherwise the plan carries the
    "taylor_bracket_invalid" flag.
    """

    params: CovertParams
    psi_suf: float
    psi_nec: float
    psi_exact: float
    bracket_valid_below: float
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        own = asdict(self)
        del own["params"]
        return {**asdict(self.params), **own, "flags": list(self.flags)}


def plan(params: CovertParams) -> PowerPlan:
    """Compute all three power corners and flag Taylor-bracket violations.

    The sufficient corner is checked against the exact budget solution
    (mu * psi_suf <= x* holds unconditionally); the necessary corner is
    only an upper bound on x* within the bracket validity range.
    """
    suf = psi_suf(params.n, params.delta, params.mu, params.nu_sq)
    nec = psi_nec(params.n, params.delta, params.eta)
    exact = solve_exact_power(params.n, params.delta)
    threshold = _bracket_threshold(params.eta)
    if params.mu * suf > exact * (1.0 + 1e-12):
        # cannot happen for nu_sq >= 1; a trip here means a numerics bug
        raise NumericError(
            f"plan: sufficient corner {suf} exceeds exact budget power {exact}"
        )
    return PowerPlan(
        params=params,
        psi_suf=suf,
        psi_nec=nec,
        psi_exact=exact,
        bracket_valid_below=threshold,
        flags=("taylor_bracket_invalid",) if nec >= threshold else (),
    )
