"""Self-contained acceptance suite: ten numbered checks, each pairing a
closed-form implementation with an independent oracle (Monte Carlo against
numpy's samplers, or exact side conditions).

Each check returns (passed, detail), with its measured values in `detail`, so
a failure message identifies the offending sub-case without rerunning.
`CHECKS` gives each criterion its name, time limit and check; `run_all` times
every check and passes it only if it also finishes within its limit. Checks
1 and 9 assert literal published targets that the implemented formulas do not
meet (see the README's acceptance table); they are reported red rather than
loosened.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import divergences as dv
from . import planner as pl
from . import simkit as sk
from . import truncgauss as tg
from .specfn import LOG2E

__all__ = ["CheckResult", "run_all", "CHECKS"]

# mu of checks 4, 7 and 10, which pass at the planner default 1 - 1/(n+1) too:
# at n = 8..128 its shells span a wider band of radii, 0.34-0.92 of the Gaussian
# mass (the default's 0.18-0.05), and check 7's KL at 2 psi_nec is 2.5 delta, not 3.4-3.9
_MU_TEST = 0.8


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    runtime: float
    limit: float
    detail: str


def check_01_shell_mass_claim() -> tuple[bool, str]:
    """1 - Delta < 0.005 at n=400 for mu in {0.70, 0.75, 0.80, 0.85}."""
    vals = {mu: 1.0 - tg.shell_mass(400, mu) for mu in (0.70, 0.75, 0.80, 0.85)}
    ok = all(v < 0.005 for v in vals.values())
    return ok, ", ".join(f"mu={m}: {v:.3e}" for m, v in vals.items())


def check_02_shell_mass_mc() -> tuple[bool, str]:
    """Closed-form Delta vs Monte-Carlo mass of the chi-square norm law."""
    msgs, ok = [], True
    trials = 10**6
    for i, (n, mu) in enumerate([(n, m) for n in (2, 8, 64, 400) for m in (0.5, 0.8)]):
        rng = np.random.default_rng(np.random.SeedSequence([90102, i]))
        c = rng.chisquare(n, size=trials)  # ||g||^2 of a standard Gaussian vector
        phat = float(np.mean((c >= mu * n) & (c <= n / mu)))
        se = math.sqrt(max(phat * (1.0 - phat), 1e-12) / trials)
        delta = tg.shell_mass(n, mu)
        dev = abs(delta - phat)
        if dev > 3.0 * se:
            ok = False
            msgs.append(f"(n={n},mu={mu}): |{delta:.6f}-{phat:.6f}|={dev:.2e}>3se={3*se:.2e}")
    return ok, "all 8 configs within 3 std errors" if ok else "; ".join(msgs)


def check_03_kl_isotropic_mc() -> tuple[bool, str]:
    """kl_isotropic vs MC mean log-ratio on 12 parameter points."""
    points = [
        (1, 1.5), (2, 1.2), (4, 0.8), (8, 1.1), (16, 2.0), (32, 0.95),
        (64, 1.05), (128, 1.02), (256, 0.99), (512, 1.01), (1024, 1.005),
        (2048, 0.998),
    ]
    samples = 200_000
    msgs, ok = [], True
    for i, (n, s2) in enumerate(points):
        rng = np.random.default_rng(np.random.SeedSequence([90103, i]))
        c = rng.chisquare(n, size=samples)
        # log(f1/f0) at z ~ N(0, s2 I): ||z||^2 = s2 * c
        lr = (-0.5 * n * math.log(s2) + 0.5 * s2 * c * (1.0 - 1.0 / s2)) * LOG2E
        mean = float(np.mean(lr))
        se = float(np.std(lr, ddof=1)) / math.sqrt(samples)
        kl = dv.kl_isotropic(dv.IsotropicGaussianPair(n=n, sigma1_sq=s2))
        if abs(kl - mean) > 4.0 * se:
            ok = False
            msgs.append(f"(n={n},s2={s2}): |{kl:.5f}-{mean:.5f}|>4se={4*se:.1e}")
    return ok, "12 points within 4 std errors" if ok else "; ".join(msgs)


def check_04_detection_matches_tvd() -> tuple[bool, str]:
    """Optimal-test advantage 1-(alpha+beta) vs the MC TVD estimate."""
    n, delta = 64, 0.05
    psi = pl.psi_suf(n, delta, _MU_TEST, pl.nu_lemma_shell(n))
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=_MU_TEST)
    res = sk.simulate(spec, M=2, trials=100_000, seed=90104)
    det, tvd_est = res.detection, res.empirical_tvd
    adv = 1.0 - det.sum_error
    comb = math.sqrt(det.std_err**2 + tvd_est.std_err**2)
    dev = abs(adv - tvd_est.value)
    ok = dev <= 3.0 * comb
    detail = (
        f"1-(a+b)={adv:.5f}, MC V_T={tvd_est.value:.5f}±{tvd_est.std_err:.5f}, "
        f"|diff|={dev:.2e} <= 3*comb={3*comb:.2e}: {ok}"
    )
    return ok, detail


def check_05_isotropic_minimizes_kl() -> tuple[bool, str]:
    """Random covariance spectra at fixed trace never beat the isotropic KL."""
    rng = np.random.default_rng(np.random.SeedSequence([90105]))
    n, excess = 16, 0.3
    iso = dv.kl_isotropic(dv.IsotropicGaussianPair(n=n, sigma1_sq=1.0 + excess))
    worst = math.inf
    for _ in range(1000):
        w = rng.random(n) + 0.05
        lam = 1.0 + excess * n * w / w.sum()
        worst = min(worst, dv.kl_general_covariance(dv.CovarianceSpec(tuple(lam))) - iso)
    ok = worst >= -1e-9
    detail = f"min(KL_general - KL_iso) = {worst:.3e} over 1000 spectra (n={n}, excess={excess})"
    return ok, detail


def check_06_taylor_sandwich() -> tuple[bool, str]:
    """x^2/(4 eta) < (x - ln(1+x))/2 < x^2/4 on dense grids below threshold."""
    msgs, ok = [], True
    for eta in (1.001, 1.01, 1.1):
        thr = pl._bracket_threshold(eta)
        xs = np.linspace(thr * 1e-4, thr * (1.0 - 1e-9), 10_000)
        mid = 0.5 * (xs - np.log1p(xs))
        lower_ok = bool(np.all(xs * xs / (4.0 * eta) < mid))
        upper_ok = bool(np.all(mid < 0.25 * xs * xs))
        if not (lower_ok and upper_ok):
            ok = False
            msgs.append(f"eta={eta}: lower={lower_ok}, upper={upper_ok}")
    return ok, "3 eta values x 1e4 grid points" if ok else "; ".join(msgs)


def check_07_planner_end_to_end() -> tuple[bool, str]:
    """Empirical output KL respects delta at psi_suf and breaks it at 2 psi_nec."""
    msgs, ok = [], True
    for i, (n, delta) in enumerate([(n, d) for n in (16, 64, 128) for d in (0.01, 0.05)]):
        slack = pl.CovertParams.defaults(n, delta)
        psi_s = pl.psi_suf(n, delta, _MU_TEST, slack.nu_sq)
        psi_n2 = 2.0 * pl.psi_nec(n, delta, slack.eta)
        spec_s = tg.TruncatedGaussianSpec(n=n, psi=psi_s, mu=_MU_TEST)
        spec_n = tg.TruncatedGaussianSpec(n=n, psi=psi_n2, mu=_MU_TEST)
        kl_s, _ = sk.empirical_divergences(spec_s, 400_000, 90107 + i)
        kl_n, _ = sk.empirical_divergences(spec_n, 100_000, 90207 + i)
        within = kl_s.value <= delta + 3.0 * kl_s.std_err
        broken = kl_n.value > delta
        if not (within and broken):
            ok = False
        msgs.append(
            f"(n={n},d={delta}): suf {kl_s.value:.5f}±{kl_s.std_err:.5f} "
            f"{'<=' if within else '>'} d+3se; 2nec {kl_n.value:.5f} {'>' if broken else '<='} d"
        )
    return ok, "; ".join(msgs)


def check_08_schedule_regimes() -> tuple[bool, str]:
    """tau = 0.25 / 0.5 / 0.75 sweeps land in the three predicted regimes."""
    grid = bd.default_n_grid(100, 10**8)
    msgs, ok = [], True
    sw = {tau: bd.asymptotic_sweep(1.0, tau, grid) for tau in (0.25, 0.5, 0.75)}
    if not (sw[0.25].classification == "divergent" and sw[0.25].tvd[-1] > 0.9):
        ok = False
    if not (sw[0.75].classification == "vanishing"
            and sw[0.75].tvd[-1] < 0.01 and sw[0.75].kl_bits[-1] < 1e-3):
        ok = False
    plateau = 0.25 * LOG2E  # c^2/4 log2 e at c=1
    top = sw[0.5].n_grid >= 10**7
    dev = float(np.max(np.abs(sw[0.5].kl_bits[top] - plateau))) / plateau
    if not (sw[0.5].classification == "plateau" and dev <= 0.01):
        ok = False
    msgs.append(
        f"tau=.25 {sw[0.25].classification} V_T(end)={sw[0.25].tvd[-1]:.3f}; "
        f"tau=.5 {sw[0.5].classification} top-decade dev={dev:.2e}; "
        f"tau=.75 {sw[0.75].classification} KL(end)={sw[0.75].kl_bits[-1]:.2e}"
    )
    return ok, "; ".join(msgs)


def check_09_bounds_structure() -> tuple[bool, str]:
    """Ordering, first-order ratios at n=1e8 (2% target), epsilon monotonicity,
    and boundedness of converse - achievability - log2 n."""
    delta, eps = 0.01, 0.1
    grid = bd.default_n_grid(10**3, 10**8)
    rows = bd.bounds_grid(grid, delta, eps)
    ordering = all(r.achievability_bits <= r.converse_bits for r in rows)
    gaps = [r.converse_bits - r.achievability_bits - math.log2(r.n) for r in rows]
    bounded = max(abs(g) for g in gaps) < 10.0
    r8 = bd.throughput_bounds(pl.CovertParams.defaults(10**8, delta, eps))
    ach_ratio = r8.achievability_bits / r8.first_order
    conv_ratio = r8.converse_bits / r8.first_order
    ratios_ok = abs(ach_ratio - 1.0) <= 0.02 and abs(conv_ratio - 1.0) <= 0.02
    mono = all(
        bd.achievability_bound(pl.CovertParams.defaults(n, delta, 0.05))
        < bd.achievability_bound(pl.CovertParams.defaults(n, delta, 0.1))
        and bd.converse_bound(pl.CovertParams.defaults(n, delta, 0.05))
        < bd.converse_bound(pl.CovertParams.defaults(n, delta, 0.1))
        for n in (10**4, 10**6)
    )
    ok = ordering and bounded and ratios_ok and mono
    detail = (
        f"ordering={ordering}, max|conv-ach-log2n|={max(abs(g) for g in gaps):.3f}, "
        f"ach/first={ach_ratio:.5f}, conv/first={conv_ratio:.5f} (target within 2% of 1: "
        f"{ratios_ok}), eps-monotone={mono}"
    )
    return ok, detail


def check_10_sandwich_and_pinsker() -> tuple[bool, str]:
    """Hellinger sandwich and Pinsker on every divergence report produced by
    the closed forms and the quadrature path."""
    count = 0
    try:
        for n in (1, 2, 8, 64, 400, 4096):
            for s2 in (0.7, 0.98, 1.02, 1.5, 3.0):
                dv.isotropic_report(dv.IsotropicGaussianPair(n=n, sigma1_sq=s2))
                count += 1
        grid = bd.default_n_grid(100, 10**6)[::24]
        for tau in (0.25, 0.5, 0.75):
            for n in grid:
                x = float(n) ** (-tau)
                dv.isotropic_report(dv.IsotropicGaussianPair(n=int(n), sigma1_sq=1.0 + x))
                count += 1
        for n, delta in ((8, 0.05), (16, 0.05), (64, 0.05)):
            psi = pl.psi_suf(n, delta, _MU_TEST, pl.nu_lemma_shell(n))
            spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=_MU_TEST)
            tg.output_divergences_quadrature(tg.radial_output_density(spec))
            count += 1
    except Exception as exc:  # report the first violation verbatim
        return False, f"after {count} reports: {exc}"
    return True, f"{count} reports validated at construction"


# criterion -> (display name, time limit in seconds, check)
CHECKS = {
    1: ("shell mass below 0.005 at n=400", 1.0, check_01_shell_mass_claim),
    2: ("shell mass vs MC oracle", 30.0, check_02_shell_mass_mc),
    3: ("isotropic KL vs MC oracle", 60.0, check_03_kl_isotropic_mc),
    4: ("detector advantage equals V_T", 300.0, check_04_detection_matches_tvd),
    5: ("isotropic covariance minimizes KL", 10.0, check_05_isotropic_minimizes_kl),
    6: ("Taylor bracket inside validity range", 5.0, check_06_taylor_sandwich),
    7: ("covertness both directions", 600.0, check_07_planner_end_to_end),
    8: ("power-schedule regime classification", 10.0, check_08_schedule_regimes),
    9: ("bound structure and first-order ratio", 60.0, check_09_bounds_structure),
    10: ("sandwich and Pinsker cross-cutting", 120.0, check_10_sandwich_and_pinsker),
}


def run_all() -> list[CheckResult]:
    """Every check in criterion order, timed; a check passes only if it also
    finishes within its limit."""
    results = []
    for criterion, (name, limit, check) in sorted(CHECKS.items()):
        t0 = time.perf_counter()
        passed, detail = check()
        runtime = time.perf_counter() - t0
        results.append(
            CheckResult(criterion, name, bool(passed) and runtime < limit, runtime, limit, detail)
        )
    return results
