"""The four benchmark workloads of covertawgn.

Each workload is built from the run's seed in three steps:

* ``setup()`` makes the public-API inputs (specs, grids, argument lists).
  This is the part timed as ``setup_s``.
* ``reference()`` computes the benchmark's own reference values, outside
  every timed phase.
* ``op(i)`` runs one timed operation and returns a ``Tally`` of its items.

Only the public API is called, with its default knobs: no ``workers=``, no
``points=``, no ``_private`` names. Library functions are looked up on the
package at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile

import numpy as np

import covertawgn as cw
import covertawgn.cli
import covertawgn.specfn

LOG2E = math.log2(math.e)
# |estimate - reference| allowed for a Monte-Carlo check, in standard errors.
# At 5 se a correct program misses with probability 5.7e-7 per check; at 3 se
# (0.27%) 22 runs of both MC workloads (~260 ops) would report a false wrong
# output in about one such series of runs in two.
MC_Z = 5.0
# relative tolerance of P(a, x) against scipy / mpmath (specfn documents
# ~1e-13 absolute error, and its series branch keeps small P relative)
P_RTOL = 1e-9
# relative tolerance of the shell complement 1 - Delta (ROADMAP item 4)
COMPLEMENT_RTOL = 1e-6
# absolute error specfn documents for P (~1e-13), twice: shell_mass is a
# difference of two P values. A complement that misses COMPLEMENT_RTOL but is
# within this of the reference is the known defect (absolute, not relative,
# precision); a larger miss is wrong. Measured on the grid: <= 3.3e-14.
COMPLEMENT_ATOL = 2e-13
# one ulp of 1.0 from below: where the true complement is smaller, Delta is
# 1.0 in double and TruncatedGaussianSpec refusing it is the known defect
ULP_BELOW_ONE = 2.0**-53
# |log f_bar/f0| of the scalar kernel path against the benchmark's own series
KERNEL_ATOL = 1e-9
# KL of the sweep CSV against the benchmark's own closed form; the CSV
# carries 12 significant digits
SWEEP_KL_RTOL = 1e-9
PLATEAU_RTOL = 0.02


def op_seed(seed: int, i: int) -> int:
    """Per-operation seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed % 2**64, i + 1]).generate_state(1)[0])


class Tally:
    """Item outcomes of one operation.

    An item is ``ok``, a ``defect`` (a failure the ROADMAP already records:
    counted in pass_ratio, not as a wrong output) or ``wrong`` (a raised
    error or a missed check: counted in pass_ratio and as failed).
    """

    def __init__(self) -> None:
        self.ok = 0
        self.defects = 0
        self.wrong = 0
        self.messages: list[str] = []

    @property
    def items(self) -> int:
        return self.ok + self.defects + self.wrong

    def add(self, count: int, defect: str | None = None, wrong: str | None = None) -> None:
        if wrong is not None:
            self.wrong += count
            self.messages.append(f"wrong ({count} items): {wrong}")
        elif defect is not None:
            self.defects += count
            self.messages.append(f"known defect ({count} items): {defect}")
        else:
            self.ok += count


def _rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


def _log_hyp0f1(b: float, z: np.ndarray, terms: int = 1000) -> np.ndarray:
    """ln 0F1(; b; z) by its positive series summed in the log domain."""
    from scipy.special import gammaln

    k = np.arange(terms)
    log_terms = (k * np.log(z)[:, None] - (gammaln(b + k) - gammaln(b))
                 - gammaln(k + 1.0))
    peak = log_terms.max(axis=1)
    if not np.all(log_terms[:, -1] < peak - 60.0):
        raise ValueError(f"_log_hyp0f1: {terms} terms do not reach the tail at b={b}")
    return peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))


def _log_density_ratio(model, y_norm: np.ndarray) -> np.ndarray:
    """log(f_bar / f0) at ||y|| = y_norm from the model's radii and weights:
    logsumexp_k [ln w_k - r_k^2/2 + ln 0F1(; n/2; (r_k y)^2/4) ]."""
    b = 0.5 * model.spec.n
    x = np.array([np.log(w) - 0.5 * r * r + _log_hyp0f1(b, 0.25 * (r * y_norm) ** 2)
                  for r, w in zip(model.radii, model.weights)])
    peak = x.max(axis=0)
    return peak + np.log(np.exp(x - peak).sum(axis=0))


def _mp_prefactor(a, x):
    import mpmath

    return mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a))


def _mp_p_lower(a: float, x: float):
    """P(a, x) by the lower series in 40-digit mpmath arithmetic (x < a + 1).

    mpmath.gammainc itself stops converging at the large a of the grid."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        a, x = mpf(a), mpf(x)
        eps = mpf(10) ** -40
        term = total = 1 / a
        k = 0
        while term > total * eps:
            k += 1
            term *= x / (a + k)
            total += term
        return _mp_prefactor(a, x) * total


def _mp_q_upper(a: float, x: float):
    """Q(a, x) by the Legendre continued fraction (modified Lentz) in 40-digit
    mpmath arithmetic (x > a + 1)."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        a, x = mpf(a), mpf(x)
        eps, tiny = mpf(10) ** -40, mpf(10) ** -80
        b = x + 1 - a
        c, d = 1 / tiny, 1 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2
            d = an * d + b
            d = 1 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
            if abs(d * c - 1) < eps:
                return _mp_prefactor(a, x) * h


class MonteCarlo:
    """One op is ``simulate(spec, M, trials, seed)``; items are MC trials.

    Checks: the empirical KL lies within MC_Z standard errors of the
    quadrature KL of the same spec, and Willie's advantage 1 - (alpha + beta)
    within MC_Z combined standard errors of the MC total variation.
    """

    mu = 0.8
    delta = 0.05

    def __init__(self, seed: int, n: int, M: int, trials: int) -> None:
        self.seed, self.n, self.M, self.trials = seed, n, M, trials

    def setup(self) -> None:
        psi = cw.psi_suf(self.n, self.delta, self.mu, cw.nu_lemma_shell(self.n))
        self.spec = cw.TruncatedGaussianSpec(self.n, psi, self.mu)

    def reference(self) -> None:
        model = cw.radial_output_density(self.spec)
        self.ref = {"kl_bits": cw.output_divergences_quadrature(model).kl_bits}

    def warmup(self) -> None:
        self.op(-1)

    def op(self, i: int) -> Tally:
        tally = Tally()
        try:
            r = cw.simulate(self.spec, self.M, self.trials, op_seed(self.seed, i))
        except cw.CovertError as exc:
            tally.add(self.trials, wrong=f"simulate raised {exc!r}")
            return tally
        kl, tvd, det = r.empirical_kl_bits, r.empirical_tvd, r.detection
        kl_dev = abs(kl.value - self.ref["kl_bits"])
        adv = 1.0 - det.sum_error
        adv_se = math.sqrt(det.std_err**2 + tvd.std_err**2)
        if not kl_dev <= MC_Z * kl.std_err:
            tally.add(self.trials, wrong=(
                f"op {i}: MC KL {kl.value:.5f}±{kl.std_err:.5f} vs quadrature "
                f"{self.ref['kl_bits']:.5f}"))
        elif not abs(adv - tvd.value) <= MC_Z * adv_se:
            tally.add(self.trials, wrong=(
                f"op {i}: 1-(alpha+beta) {adv:.5f} vs MC TVD {tvd.value:.5f} "
                f"(combined se {adv_se:.5f})"))
        elif not (r.decode_trials == self.trials and 0.0 <= r.decode_error_rate <= 1.0):
            tally.add(self.trials, wrong=f"op {i}: decode result {r.decode_error_rate}")
        else:
            tally.add(self.trials)
        return tally


class ClosedFormGrid:
    """CLI bounds/sweep grids plus the planner, isotropic report, spec and
    shell-mass traffic along the default blocklength grid; items are grid
    points. Never enters simkit.
    """

    delta = 0.01
    spec_mu = 0.95
    shell_mus = (0.7, 0.8, 0.9)
    taus = (0.25, 0.5, 0.75)
    trend = {0.25: "divergent", 0.5: "plateau", 0.75: "vanishing"}

    def __init__(self, seed: int, n_max: int, spot_checks: int, out_dir: str) -> None:
        self.seed, self.n_max, self.spot_checks, self.out_dir = seed, n_max, spot_checks, out_dir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed % 2**64)
        # the CLI expands "lo..hi" to default_n_grid(lo, hi)
        self.bounds_rows = cw.default_n_grid(1000, self.n_max).size
        self.grid = cw.default_n_grid(100, self.n_max)
        self.params = [cw.CovertParams.defaults(int(n), self.delta) for n in self.grid]
        self.bounds_argv = ["bounds", "--n", f"1000..{self.n_max}", "--delta", str(self.delta)]
        self.sweep_argvs = [
            (tau, ["sweep", "--n", f"100..{self.n_max}", "--tau", str(tau)])
            for tau in rng.permutation(self.taus)
        ]
        # one spot-check point per stratum of the grid, so every run checks
        # the same mix of small and large blocklengths
        strata = np.array_split(np.arange(self.grid.size), self.spot_checks)
        self.spots = [
            (int(self.grid[rng.choice(s)]), float(rng.choice(self.shell_mus)))
            for s in strata
        ]

    def reference(self) -> None:
        from scipy.special import gammainc, gammaincc

        # 1 - Delta = Q(a, n/(2mu)) + P(a, n mu/2) at the grid's spec mu, to
        # tell the known refusals apart (scipy agrees with 40-digit mpmath
        # to 3e-13 relative on this grid)
        a = 0.5 * self.grid
        tail = gammaincc(a, a / self.spec_mu) + gammainc(a, a * self.spec_mu)
        self.delta_is_one = {int(n) for n, t in zip(self.grid, tail) if t < ULP_BELOW_ONE}
        self.ref = {}
        for n, mu in self.spots:
            a, x_lo, x_hi = 0.5 * n, 0.5 * n * mu, 0.5 * n / mu
            q_hi, p_lo = _mp_q_upper(a, x_hi), _mp_p_lower(a, x_lo)
            if a <= 2000:
                p = (float(gammainc(a, x_lo)), float(gammainc(a, x_hi)))
            else:
                p = (float(p_lo), float(1 - q_hi))
            self.ref[(n, mu)] = {"p_lo": p[0], "p_hi": p[1], "complement": float(q_hi + p_lo)}

    def warmup(self) -> None:
        self.op(-1)

    def op(self, i: int) -> Tally:
        tally = Tally()
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            self._bounds(tally, os.path.join(tmp, "bounds.csv"))
            for tau, argv in self.sweep_argvs:
                self._sweep(tally, tau, argv, os.path.join(tmp, f"sweep-{tau}.csv"))
        refused = [p.n for p in self.params if self._grid_point(p, tally)]
        if refused:
            tally.add(len(refused), defect=(
                f"TruncatedGaussianSpec(n, 1/sqrt(n), {self.spec_mu}) refused at "
                f"{len(refused)} grid points where 1-Delta < 2^-53, "
                f"n = {refused[0]}..{refused[-1]}"))
        for n, mu in self.spots:
            self._spot_check(tally, n, mu)
        return tally

    @staticmethod
    def _read_csv(path: str) -> tuple[list[str], list[dict]]:
        with open(path) as fh:
            lines = fh.read().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        return comments, rows

    def _bounds(self, tally: Tally, path: str) -> None:
        expected = self.bounds_rows
        rc = cw.cli.main(self.bounds_argv + ["--out", path])
        if rc != 0:
            tally.add(expected, wrong=f"cli bounds exit code {rc}")
            return
        _, rows = self._read_csv(path)
        if len(rows) != expected:
            tally.add(expected, wrong=f"cli bounds wrote {len(rows)} rows, want {expected}")
            return
        for row in rows:
            ach, conv = float(row["achievability_bits"]), float(row["converse_bits"])
            if math.isfinite(ach) and math.isfinite(conv) and ach <= conv:
                tally.add(1)
            else:
                tally.add(1, wrong=f"bounds n={row['n']}: achievability {ach} > converse {conv}")

    def _sweep(self, tally: Tally, tau: float, argv: list[str], path: str) -> None:
        expected = self.grid.size
        rc = cw.cli.main(argv + ["--out", path])
        if rc != 0:
            tally.add(expected, wrong=f"cli sweep tau={tau} exit code {rc}")
            return
        comments, rows = self._read_csv(path)
        if f"# classification={self.trend[tau]}" not in comments or len(rows) != expected:
            tally.add(expected, wrong=f"cli sweep tau={tau}: classification or row count")
            return
        for row in rows:
            n = int(row["n"])
            theta = float(n) ** (-tau)
            ref = 0.5 * n * (theta - math.log1p(theta)) * LOG2E
            if _rel_err(float(row["kl_bits"]), ref) <= SWEEP_KL_RTOL:
                tally.add(1)
            else:
                tally.add(1, wrong=f"sweep tau={tau} n={n}: kl {row['kl_bits']} vs {ref!r}")

    def _grid_point(self, params, tally: Tally) -> bool:
        """Tallies one grid point, except a refused spec: returns True."""
        n = params.n
        try:
            plan = cw.plan(params)
            pair = cw.IsotropicGaussianPair(n, 1.0 + params.mu * plan.psi_suf)
            report = cw.isotropic_report(pair)
            masses = [cw.shell_mass(n, mu) for mu in self.shell_mus]
        except cw.CovertError as exc:
            tally.add(1, wrong=f"grid n={n}: {exc!r}")
            return False
        if not report.kl_bits <= self.delta * (1.0 + 1e-12):
            tally.add(1, wrong=f"grid n={n}: KL {report.kl_bits} above budget {self.delta}")
            return False
        if not (1.0 >= masses[0] >= masses[1] >= masses[2] > 0.0):
            tally.add(1, wrong=f"grid n={n}: shell masses {masses} not ordered in mu")
            return False
        try:
            cw.TruncatedGaussianSpec(n, 1.0 / math.sqrt(n), self.spec_mu)
        except cw.DomainError as exc:
            if n in self.delta_is_one:
                return True
            tally.add(1, wrong=f"grid n={n}: spec refused where 1-Delta >= 2^-53: {exc!r}")
            return False
        tally.add(1)
        return False

    def _spot_check(self, tally: Tally, n: int, mu: float) -> None:
        ref = self.ref[(n, mu)]
        a = 0.5 * n
        p_lo = cw.specfn.reg_inc_gamma_lower(a, 0.5 * n * mu)
        p_hi = cw.specfn.reg_inc_gamma_lower(a, 0.5 * n / mu)
        if _rel_err(p_lo, ref["p_lo"]) > P_RTOL or _rel_err(p_hi, ref["p_hi"]) > P_RTOL:
            tally.add(1, wrong=(
                f"P(a={a}) at (n={n}, mu={mu}): ({p_lo!r}, {p_hi!r}) vs "
                f"({ref['p_lo']!r}, {ref['p_hi']!r})"))
            return
        complement = 1.0 - cw.shell_mass(n, mu)
        err = _rel_err(complement, ref["complement"])
        if err > COMPLEMENT_RTOL:
            miss = (f"1-Delta at (n={n}, mu={mu}) = {complement!r}, reference "
                    f"{ref['complement']!r} (relative error {err:.2g})")
            if abs(complement - ref["complement"]) <= COMPLEMENT_ATOL:
                tally.add(1, defect=miss)
            else:
                tally.add(1, wrong=miss + f", absolute error above {COMPLEMENT_ATOL:g}")
            return
        tally.add(1)


class OutputQuadrature:
    """One op evaluates the output KL by quadrature on the sqrt law
    psi = 1/sqrt(n), mu = 0.95, at each blocklength of ``ns``, then builds the
    output model at ``kernel_n`` and evaluates its log density ratio at
    ``kernel_points`` radii; items are blocklengths.

    The ``ns`` take the vectorised series path of ``log_density_ratio``.
    ``kernel_n`` = 4096 crosses its ``t_max < 600`` branch into the scalar
    ``log_sph_bessel_factor`` loop; a full quadrature there costs 1.024M
    scalar calls (20-30 s), so the op evaluates a seeded subset of the
    quadrature's radial range instead, ending at its top so the call takes
    the same branch.

    Checks: every KL lies within 2% of the plateau mu^2 c^2/4 log2 e and the
    values rise with n; the kernel values match the benchmark's own
    log-domain series over the model's radii and weights to KERNEL_ATOL.
    """

    mu = 0.95
    ns = (1024, 2048)
    kernel_n = 4096

    def __init__(self, seed: int, kernel_points: int) -> None:
        self.seed, self.kernel_points = seed, kernel_points

    @classmethod
    def _spec(cls, n: int):
        return cw.TruncatedGaussianSpec(n, 1.0 / math.sqrt(n), cls.mu)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed % 2**64)
        self.specs = [self._spec(self.ns[k]) for k in rng.permutation(len(self.ns))]
        self.kernel_spec = self._spec(self.kernel_n)
        # the radial range output_divergences_quadrature integrates over
        n = self.kernel_n
        top = math.sqrt(n + n * self.kernel_spec.psi + 16.0 * math.sqrt(2.0 * n) + 80.0)
        # one radius in each equal stratum below the top: a point's cost
        # depends on its radius, and uniform draws made whole runs differ by
        # up to 25% in the cost of this call from the seed alone
        edges = np.linspace(0.0, top, self.kernel_points)
        self.kernel_y = np.append(rng.uniform(edges[:-1], edges[1:]), top)

    def reference(self) -> None:
        model = cw.radial_output_density(self.kernel_spec)
        self.ref = {
            "plateau_bits": self.mu**2 / 4.0 * LOG2E,
            "kernel_log_ratio": _log_density_ratio(model, self.kernel_y),
        }

    def warmup(self) -> None:
        self.op(-1)

    def op(self, i: int) -> Tally:
        tally = Tally()
        kl = {}
        for spec in self.specs:
            try:
                model = cw.radial_output_density(spec)
                kl[spec.n] = cw.output_divergences_quadrature(model).kl_bits
            except cw.CovertError as exc:
                tally.add(1, wrong=f"n={spec.n}: {exc!r}")
        plateau = self.ref["plateau_bits"]
        prev = -math.inf
        for n in sorted(kl):
            if _rel_err(kl[n], plateau) > PLATEAU_RTOL:
                tally.add(1, wrong=f"n={n}: KL {kl[n]:.5f} not within 2% of {plateau:.5f}")
            elif not kl[n] > prev:
                tally.add(1, wrong=f"n={n}: KL {kl[n]:.6f} does not rise with n")
            else:
                tally.add(1)
            prev = kl[n]
        try:
            model = cw.radial_output_density(self.kernel_spec)
            got = model.log_density_ratio(self.kernel_y)
        except cw.CovertError as exc:
            tally.add(1, wrong=f"kernel n={self.kernel_n}: {exc!r}")
            return tally
        err = float(np.max(np.abs(got - self.ref["kernel_log_ratio"])))
        if err <= KERNEL_ATOL:
            tally.add(1)
        else:
            tally.add(1, wrong=f"kernel n={self.kernel_n}: log density ratio off by {err:.3g}")
        return tally


NAMES = ("mc_detect", "mc_decode", "closed_form_grid", "output_quadrature")


def make(name: str, seed: int, out_dir: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks every input for a quick check."""
    if name == "mc_detect":
        return MonteCarlo(seed, n=32, M=4, trials=2000) if smoke else \
            MonteCarlo(seed, n=512, M=16, trials=40_000)
    if name == "mc_decode":
        return MonteCarlo(seed, n=16, M=64, trials=2000) if smoke else \
            MonteCarlo(seed, n=64, M=4096, trials=40_000)
    if name == "closed_form_grid":
        return ClosedFormGrid(seed, 10**4, 2, out_dir) if smoke else \
            ClosedFormGrid(seed, 10**8, 8, out_dir)
    if name == "output_quadrature":
        return OutputQuadrature(seed, 4 if smoke else 128)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
