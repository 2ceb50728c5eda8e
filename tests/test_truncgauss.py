import decimal
import functools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from covertawgn import planner as pl
from covertawgn import truncgauss as tg
from covertawgn.errors import DomainError, NumericError

LN2 = math.log(2.0)

# P(n/2, n/(2mu)) - P(n/2, n mu/2) at n=400, straight from scipy.special.gammainc
SHELL_COMPLEMENT_400 = {
    0.70: 1.1202447645075608e-06,
    0.75: 6.5784077452724077e-05,
    0.80: 1.7519054876492524e-03,
    0.85: 2.1944523420422968e-02,
}


@pytest.mark.parametrize("mu,expect", sorted(SHELL_COMPLEMENT_400.items()))
def test_shell_mass_anchors_n400(mu, expect):
    assert 1.0 - tg.shell_mass(400, mu) == pytest.approx(expect, rel=1e-10)


def test_shell_mass_closed_form_n2():
    # n=2: Delta = e^{-mu/ (2... )}: P(1,x) = 1 - e^{-x}, so Delta = e^{-n mu/2} - e^{-n/(2 mu)}
    assert tg.shell_mass(2, 0.5) == pytest.approx(math.exp(-0.5) - math.exp(-2.0), rel=1e-14)


def test_shell_mass_monotone_sphere_hardening():
    for mu in (0.7, 0.8, 0.85):
        vals = [1.0 - tg.shell_mass(n, mu) for n in (50, 100, 200, 400, 800)]
        assert all(b < a for a, b in zip(vals, vals[1:])), mu
        assert vals[-1] < 0.005


def test_shell_mass_domain():
    with pytest.raises(DomainError):
        tg.shell_mass(0, 0.8)
    for mu in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            tg.shell_mass(16, mu)


def test_spec_geometry():
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.25, mu=0.5)
    assert spec.variance == pytest.approx(0.125)
    assert spec.r_inner == pytest.approx(math.sqrt(0.25 * 16 * 0.25))
    assert spec.r_outer == pytest.approx(math.sqrt(16 * 0.25))
    assert spec.delta_mass == pytest.approx(tg.shell_mass(16, 0.5), rel=1e-14)


def test_spec_validation():
    with pytest.raises(DomainError):
        tg.TruncatedGaussianSpec(n=0, psi=0.1, mu=0.8)
    with pytest.raises(DomainError):
        tg.TruncatedGaussianSpec(n=8, psi=0.0, mu=0.8)
    with pytest.raises(DomainError):
        tg.TruncatedGaussianSpec(n=8, psi=0.1, mu=1.0)
    # 1 - 1e-17 is 1.0 in double, so the mu check refuses it
    with pytest.raises(DomainError):
        tg.TruncatedGaussianSpec(n=8, psi=0.1, mu=1.0 - 1e-17)
    # the largest double below 1: a shell so thin its mass Delta is 0.0
    assert tg.shell_mass(2, 1.0 - 2**-53) == 0.0
    with pytest.raises(DomainError, match="shell mass 0.0 degenerate"):
        tg.TruncatedGaussianSpec(n=2, psi=0.1, mu=1.0 - 2**-53)


@pytest.mark.parametrize("mu", [0.5, 0.95])
def test_spec_admits_shell_mass_rounding_to_one(mu):
    # 1 - Delta < 2^-53 makes Delta 1.0: the spec constructs and samples
    spec = tg.TruncatedGaussianSpec(n=10**6, psi=1e-3, mu=mu)
    assert spec.delta_mass == 1.0
    uniform, acceptance, _ = tg._radius_proposal(spec)
    assert not uniform and acceptance == 1.0
    r = tg._sample_radii(spec, 1000, np.random.default_rng(5))
    assert r.min() >= spec.r_inner and r.max() <= spec.r_outer


def test_sample_codewords_shapes_and_shell():
    spec = tg.TruncatedGaussianSpec(n=8, psi=0.5, mu=0.6)
    rng = np.random.default_rng(42)
    x = tg.sample_codewords(spec, 500, rng)
    assert x.shape == (500, 8)
    norms = np.linalg.norm(x, axis=1)
    assert norms.min() >= spec.r_inner - 1e-12
    assert norms.max() <= spec.r_outer + 1e-12
    one = tg.sample_codewords(spec, 1, np.random.default_rng(1))
    assert one.shape == (1, 8)


def test_sample_codewords_deterministic():
    spec = tg.TruncatedGaussianSpec(n=4, psi=1.0, mu=0.5)
    a = tg.sample_codewords(spec, 64, np.random.default_rng(9))
    b = tg.sample_codewords(spec, 64, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("mu", [0.5, 0.8])
def test_radius_law_ks(n, mu):
    # KS test of ||x||^2 against the conditioned Gamma(n/2, 2 mu psi) law, 1% level
    psi = 0.7
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=mu)
    rng = np.random.default_rng(2024)
    t = np.linalg.norm(tg.sample_codewords(spec, 4000, rng), axis=1) ** 2
    a, scale = 0.5 * n, 2.0 * mu * psi
    lo = float(special.gammainc(a, spec.r_inner**2 / scale))
    hi = float(special.gammainc(a, spec.r_outer**2 / scale))

    def cdf(v):
        return (special.gammainc(a, np.asarray(v) / scale) - lo) / (hi - lo)

    stat, pvalue = stats.kstest(t, cdf)
    assert pvalue > 0.01, (n, mu, stat, pvalue)


def _conditioned_cdf(spec):
    """CDF of t = ||x||^2 / (2 mu psi) ~ Gamma(n/2) conditioned on the shell."""
    a = 0.5 * spec.n
    lo = float(special.gammainc(a, a * spec.mu))
    hi = float(special.gammainc(a, a / spec.mu))
    return lambda v: (special.gammainc(a, np.asarray(v)) - lo) / (hi - lo)


@pytest.mark.parametrize("n,mu,uniform", [
    (1, 0.5, True),
    (2, 0.99, True),
    (4096, 1.0 - 1.0 / 4097, True),  # planner default mu = 1 - 1/(n+1)
    (16384, 1.0 - 1.0 / 16385, True),
    (10**6, 0.999, True),
    (10**6, 0.995, False),
])
def test_radius_law_ks_across_proposal_rule(n, mu, uniform):
    # the radii alone (an n = 1e6 codeword matrix would not fit), 1% level
    spec = tg.TruncatedGaussianSpec(n=n, psi=0.7, mu=mu)
    assert tg._radius_proposal(spec)[0] is uniform
    r = tg._sample_radii(spec, 4000, np.random.default_rng(2024))
    t = r**2 / (2.0 * spec.variance)
    stat, pvalue = stats.kstest(t, _conditioned_cdf(spec))
    assert pvalue > 0.01, (n, mu, stat, pvalue)


def _inverse_cdf_radii(spec, count, rng):
    # the stream-contract-v3 sampler: the conditioned Gamma quantile of a
    # uniform, through scipy's inverse regularized gamma
    a = 0.5 * spec.n
    p_lo = tg.specfn.reg_inc_gamma_lower(a, a * spec.mu)
    t = special.gammaincinv(a, p_lo + rng.random(count) * spec.delta_mass)
    return np.sqrt(2.0 * spec.variance * t)


@pytest.mark.parametrize("n,mu", [(1, 0.5), (64, 0.8), (512, 0.8), (4096, 1.0 - 1.0 / 4097)])
def test_radius_sampler_matches_inverse_cdf_reference(n, mu):
    spec = tg.TruncatedGaussianSpec(n=n, psi=0.7, mu=mu)
    got = tg._sample_radii(spec, 20_000, np.random.default_rng([n, 1]))
    ref = _inverse_cdf_radii(spec, 20_000, np.random.default_rng([n, 2]))
    assert stats.ks_2samp(got, ref).pvalue > 0.01


@given(st.floats(0.0, 8.0), st.floats(0.0, 1.0), st.integers(1, 3000))
def test_radius_sampler_count_shell_and_acceptance(log10_n, v, count):
    # n log-uniform in [1, 1e8]; 1 - mu log-uniform from 0.95 down to the
    # planner default 1/(n+1)
    n = max(1, round(10.0**log10_n))
    mu = 1.0 - 0.95 ** (1.0 - v) * (1.0 / (n + 1)) ** v
    spec = tg.TruncatedGaussianSpec(n=n, psi=1.0, mu=mu)
    uniform, acceptance, _ = tg._radius_proposal(spec)
    # n = 1 bottoms out at 0.398 (mu = 0.416), where the two proposals tie
    assert acceptance >= (0.39 if n == 1 else 0.45), (n, mu, uniform)
    r = tg._sample_radii(spec, count, np.random.default_rng(n))
    assert r.shape == (count,)
    assert r.min() >= spec.r_inner and r.max() <= spec.r_outer


class _ZeroGenerator:
    """Every draw is 0: Gamma proposals fall below the shell, and an Exp(1)
    draw of 0 accepts no uniform proposal."""

    def __init__(self):
        self.rounds = 0

    def random(self, size):
        return np.zeros(size)

    def standard_exponential(self, size):
        self.rounds += 1
        return np.zeros(size)

    def standard_gamma(self, shape, size):
        self.rounds += 1
        return np.zeros(size)


@pytest.mark.parametrize("n,mu,proposal", [(64, 0.5, "Gamma"), (2, 0.99, "uniform")])
def test_radius_sampler_fails_fast_with_context(n, mu, proposal):
    spec = tg.TruncatedGaussianSpec(n=n, psi=0.7, mu=mu)
    stub = _ZeroGenerator()
    context = rf"n={n}, mu={mu}, {proposal} proposal, acceptance 0\.\d"
    with pytest.raises(NumericError, match=context):
        tg._sample_radii(spec, 100, stub)
    assert stub.rounds == tg._RADIUS_MAX_ROUNDS


def test_direction_is_uniform():
    # projected onto any fixed axis, a uniform direction has mean 0; quick sanity
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.5, mu=0.7)
    x = tg.sample_codewords(spec, 20_000, np.random.default_rng(3))
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.abs(u.mean(axis=0)).max() < 4.0 / math.sqrt(20_000)


def test_output_density_errors_name_the_spec_and_the_value():
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.1, mu=0.8)
    named = r"TruncatedGaussianSpec\(n=16, psi=0\.1, mu=0\.8\)"
    model = tg.radial_output_density(spec)
    for bad in ("-2.0", "nan", "inf", "-inf"):
        with pytest.raises(DomainError, match=rf"need finite radii >= 0, got {bad} for {named}"):
            model.log_density_ratio(np.array([1.0, float(bad)]))
    with pytest.raises(DomainError, match=rf"got nan for {named}"):
        model.log_density_ratio(math.nan)
    # a node radius whose square overflows sends the log mixture weight to -inf
    far = tg.RadialOutputDensity(spec=spec, radii=np.array([1e160]), weights=np.array([1.0]))
    with np.errstate(over="ignore"), pytest.raises(
        NumericError, match=rf"overflowed to -inf at radius 0\.0 for {named}"
    ):
        far.log_density_ratio(np.array([0.0]))
    with pytest.raises(NumericError, match=rf"weights sum off by 1\.00e\+00 for {named}"):
        tg.RadialOutputDensity(spec=spec, radii=model.radii, weights=2.0 * model.weights)
    # all of the output mass sits far beyond the quadrature's radial grid
    far_out = tg.RadialOutputDensity(spec=spec, radii=np.array([50.0]), weights=np.array([1.0]))
    with pytest.raises(NumericError, match=rf"normalization off \(noise .*\) for {named}"):
        tg.output_divergences_quadrature(far_out)
    # a NaN in the ratio table makes the output's normalization NaN
    nan_table = tg.RadialOutputDensity(spec=spec, radii=model.radii, weights=model.weights)
    s, v = model.ratio_table
    nan_table.__dict__["ratio_table"] = (s, np.where(s > 3.0, np.nan, v))
    with pytest.raises(NumericError, match=rf"output nan\) for {named}"):
        tg.output_divergences_quadrature(nan_table)


def test_radius_law_miss_raises_after_one_build(monkeypatch):
    # 4 nodes cannot integrate the radius law to 1e-10: the one build raises,
    # and the error names the spec, the node count and the miss, so it can be rerun
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.1, mu=0.8)
    monkeypatch.setattr(tg, "_RADIUS_LAW_NODES", 4)
    # a rule cache of its own, so the 4-node rule is computed here and is
    # neither read from nor left in the shared one
    monkeypatch.setattr(tg, "_legendre_rule", functools.cache(tg._legendre_rule.__wrapped__))
    miss = abs(tg._gauss_legendre_radius_law(spec)[1].sum() - 1.0)
    assert miss > 1e-10
    builds = []
    original = tg._gauss_legendre_radius_law

    def counting(spec):
        builds.append(tg._legendre_rule()[0].size)
        return original(spec)

    monkeypatch.setattr(tg, "_gauss_legendre_radius_law", counting)
    with pytest.raises(NumericError) as err:
        tg.radial_output_density(spec)
    assert builds == [4]
    assert str(err.value) == (
        f"RadialOutputDensity: radius-law weights sum off by {miss:.2e} for "
        "TruncatedGaussianSpec(n=16, psi=0.1, mu=0.8) over 4 nodes"
    )


def _planner_default_spec(n, delta):
    params = pl.CovertParams.defaults(n=n, delta=delta)
    return tg.TruncatedGaussianSpec(n, pl.plan(params).psi_suf, params.mu)


# The survey of specs the radius law refuses (ROADMAP item 19). Every spec on
# the grid constructs; a row's refusals are every grid n from its first
# refused one up (None: no refusal), with no isolated entries on this grid.
# No weight miss on the grid lies within a factor 2 of the 1e-10 gate (the
# closest is 4.99e-11 at mu = 0.9, n = 988982), so a last-bit change in the
# law cannot flip an entry.
_SURVEY_NS = np.unique(np.round(np.logspace(0.0, math.log10(2e8), 19)).astype(int)).tolist()
_SURVEY_MUS = (0.05, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.99999)
_THICK = (
    "shell many sd thick: 256 nodes spread over the whole shell miss its peak; "
    "item 3 places them on mode +- k sd"
)
_THIN = (
    "thin shell (1 - mu = 1/(n+1)): Delta = P - P of two values near 1/2 loses "
    "relative precision; item 3 takes Delta as the band integral"
)
SURVEY_FIRST_REFUSED = {
    0.05: (1691, _THICK),
    0.2: (4890, _THICK),
    0.5: (40896, _THICK),
    0.8: (341995, _THICK),
    0.9: (2859938, _THICK),
    0.95: (8270371, _THICK),
    0.99: (200_000_000, _THICK),
    0.999: (None, ""),
    0.99999: (None, ""),
    ("planner", 0.05): (8270371, _THIN),
    ("planner", 0.01): (8270371, _THIN),
}


def _survey_specs():
    for i, mu in enumerate(_SURVEY_MUS):
        psi = (1e-6, 0.05, 3.0)[i % 3]
        for n in _SURVEY_NS:
            yield mu, tg.TruncatedGaussianSpec(n, psi, mu)
    for delta in (0.05, 0.01):
        for n in _SURVEY_NS:
            yield ("planner", delta), _planner_default_spec(n, delta)


def test_survey_pins_every_refused_spec_to_the_radius_law():
    refused = []
    for row, spec in _survey_specs():
        try:
            tg.radial_output_density(spec)
        except NumericError as exc:
            assert "radius-law weights sum off" in str(exc)
            refused.append((row, spec.n))
    pinned = [
        (row, n)
        for row, (first, _) in SURVEY_FIRST_REFUSED.items()
        for n in _SURVEY_NS
        if first is not None and n >= first
    ]
    assert len(_SURVEY_NS) * len(SURVEY_FIRST_REFUSED) == 209
    assert refused == pinned


def test_legendre_rule_is_computed_on_first_use_once_and_read_only():
    # importing the package computes no rule; a rule is leggauss's to the
    # last bit, shared by every later build, and cannot be written through
    code = "import covertawgn.truncgauss as tg; print(tg._legendre_rule.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(tg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"
    x, w = tg._legendre_rule()
    assert tg._legendre_rule()[0] is x
    want_x, want_w = np.polynomial.legendre.leggauss(256)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("make", [
    lambda: tg.TruncatedGaussianSpec(148972, 0.05, 0.99),
    lambda: tg.TruncatedGaussianSpec(1035712, 0.05, 0.99),
    lambda: _planner_default_spec(1_000_000, 0.05),
], ids=["n148972", "n1035712", "planner_n1e6"])
def test_output_model_is_one_256_node_build_at_large_n(make, monkeypatch):
    # the direct log-density (a - 1) ln t - t - lgamma(a) rounds at ulp(a ln t),
    # which puts these weight sums 1e-10 off at any node count
    spec = make()
    rules = []
    original = tg._legendre_rule

    def counting():
        rule = original()
        rules.append(rule[0].size)
        return rule

    monkeypatch.setattr(tg, "_legendre_rule", counting)
    model = tg.radial_output_density(spec)
    assert rules == [256]
    assert abs(model.weights.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("n,psi,mu", [(1024, 0.03, 0.8), (4096, 0.02, 0.9), (1200, 0.05, 0.7)])
def test_quadrature_kl_of_thick_shell_equals_isotropic_kl_at_mean_power(n, psi, mu):
    # D(P_Y || N0) = kl_isotropic(1 + Pbar) + D(P_Y || N(0, (1 + Pbar) I)), and
    # the last term is ~0 on a thick shell; Pbar = E||X||^2 / n in closed form
    from covertawgn import divergences as dv

    spec = tg.TruncatedGaussianSpec(n, psi, mu)
    a = 0.5 * n
    p = tg.specfn.reg_inc_gamma_lower
    pbar = mu * psi * (p(a + 1.0, a / mu) - p(a + 1.0, a * mu)) / spec.delta_mass
    want = dv.kl_isotropic(dv.IsotropicGaussianPair(n, 1.0 + pbar))
    got = tg.output_divergences_quadrature(tg.radial_output_density(spec)).kl_bits
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _mp_log_sum_exp_cols(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x), axis=0)) column by column in 40-digit mpmath."""
    with mp.workdps(40):
        return np.array([float(mp.log(mp.fsum(mp.exp(mp.mpf(v)) for v in col)))
                         for col in x.T.tolist()])


def _assert_log_sum_exp_within_4_ulp(x: np.ndarray) -> None:
    got = tg._log_sum_exp_cols(x.copy())
    want = _mp_log_sum_exp_cols(x)
    scale = np.maximum(np.abs(want), np.abs(x).max(axis=0))
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale)), x.shape


def test_log_sum_exp_within_4_ulp_of_mpmath():
    rng = np.random.default_rng(16)
    for shape in [(256, 256), (4096, 7), (300, 1), (1, 5)]:
        _assert_log_sum_exp_within_4_ulp(rng.normal(scale=50.0, size=shape))
    # many tied peaks per column
    _assert_log_sum_exp_within_4_ulp(np.round(rng.normal(scale=3.0, size=(40, 512))) * 0.7)
    # columns of the ratio table's kernel blocks, from the origin to the table's end
    for n, psi, mu in [(16, 0.1, 0.8), (64, 0.3, 0.6), (512, 0.05, 0.8), (4096, 0.02, 0.9)]:
        model = tg.radial_output_density(tg.TruncatedGaussianSpec(n=n, psi=psi, mu=mu))
        s = model.ratio_table[0][::585]
        log_f = tg.specfn.log_sph_bessel_factor(0.5 * n, np.outer(model.radii, s))
        _assert_log_sum_exp_within_4_ulp(model._log_mix[:, None] + log_f)
    x = rng.normal(size=(9, 6))
    x[[3, 5]] = x.max(axis=0)  # columns 0 and 5 keep two tied peaks
    x[:, 1] = -math.inf
    x[2, 2] = math.inf
    x[4, 3] = math.nan
    x[:, 4] = 3.0  # nine tied peaks
    got = tg._log_sum_exp_cols(x.copy())
    assert got[1] == -math.inf and got[2] == math.inf and math.isnan(got[3])
    _assert_log_sum_exp_within_4_ulp(x[:, [0, 4, 5]])


@pytest.mark.parametrize("n,psi,mu", [(16, 0.1, 0.8), (64, 0.3, 0.6), (512, 0.05, 0.8),
                                      (4096, 0.02, 0.9)])
def test_ratio_table_equals_scipy_built_table(n, psi, mu):
    # the whole table, block by block, against scipy.special.logsumexp: the two
    # round differently, so they agree to 2 ulp of each column's largest term
    model = tg.radial_output_density(tg.TruncatedGaussianSpec(n=n, psi=psi, mu=mu))
    s, got = model.ratio_table
    want, scale = [], []
    for block in np.split(s, range(tg._RATIO_BLOCK, s.size, tg._RATIO_BLOCK)):
        x = (model._log_mix[:, None]
             + tg.specfn.log_sph_bessel_factor(0.5 * n, np.outer(model.radii, block)))
        want.append(special.logsumexp(x, axis=0))
        scale.append(np.maximum(np.abs(want[-1]), np.abs(x).max(axis=0)))
    want, scale = np.concatenate(want), np.concatenate(scale)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(scale))


def _exact_lookup(x: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The table (s, v) interpolated linearly at x, clamped to its end values,
    in 40-digit decimal arithmetic (exact for these float inputs to well below
    an ulp), rounded once to float."""
    j = np.clip(np.searchsorted(s, x, side="right") - 1, 0, s.size - 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        to_dec = np.frompyfunc(decimal.Decimal, 1, 1)
        sd, vd, xd = to_dec(s), to_dec(v), to_dec(np.clip(x, s[0], s[-1]))
        slope = (vd[1:] - vd[:-1]) / (sd[1:] - sd[:-1])
        return (slope[j] * (xd - sd[j]) + vd[j]).astype(float)


@pytest.mark.parametrize("spec", [
    tg.TruncatedGaussianSpec(1, 1.0, 0.5),
    tg.TruncatedGaussianSpec(16, 0.9, 0.7),
    tg.TruncatedGaussianSpec(512, pl.psi_suf(512, 0.05, 0.8, 1.0 + 1.0 / 512), 0.8),
    tg.TruncatedGaussianSpec(4096, 1 / 64, 0.95),
], ids=["n1", "n16", "n512", "n4096"])
def test_ratio_lookup_within_1_ulp_of_exact_interpolation(spec):
    model = tg.radial_output_density(spec)
    s, v = model.ratio_table
    rng = np.random.default_rng(spec.n)
    x = np.concatenate([
        s, np.nextafter(s, 0.0), np.nextafter(s, np.inf),  # grid points and neighbours
        rng.uniform(0.0, s[-1], 200_000),
        [0.0, s[0] / 2, np.nextafter(s[-1], np.inf), 1.5 * s[-1], 1e300],  # off the grid
    ])
    err = np.abs(model._ratio_at(x) - _exact_lookup(x, s, v))
    assert err.max() <= np.spacing(np.abs(v).max())
    assert np.isnan(model._ratio_at(np.array([math.nan]))[0])


def test_radial_model_weights_and_monotone_ratio():
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.3, mu=0.7)
    model = tg.radial_output_density(spec)
    r, w = model.radii, model.weights
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-10)
    assert r.min() >= spec.r_inner and r.max() <= spec.r_outer
    # likelihood ratio increases with ||y|| (MLR in the radius)
    s = np.linspace(0.0, 10.0, 50)
    lr = np.asarray(model.log_density_ratio(s))
    assert np.all(np.diff(lr) > 0.0)
    # mixing over codewords removes mass at the origin
    assert lr[0] < 0.0
    scalar = model.log_density_ratio(float(s[7]))
    assert scalar == pytest.approx(lr[7], rel=1e-12)


def test_radial_model_rejects_bad_weights():
    spec = tg.TruncatedGaussianSpec(n=4, psi=0.3, mu=0.7)
    model = tg.radial_output_density(spec)
    r = model.radii
    with pytest.raises(NumericError):
        tg.RadialOutputDensity(spec=spec, radii=r, weights=np.full(r.size, 2.0 / r.size))
    nan_weight = model.weights.copy()
    nan_weight[3] = np.nan
    with pytest.raises(NumericError, match="sum off by nan"):
        tg.RadialOutputDensity(spec=spec, radii=r, weights=nan_weight)
    with pytest.raises(DomainError):
        tg.RadialOutputDensity(spec=spec, radii=r[:-1], weights=model.weights)


@pytest.mark.parametrize("n,psi,mu", [(93, 0.05, 0.05), (621, 0.05, 0.2)])
def test_zero_weight_nodes_add_nothing_and_raise_no_warning(n, psi, mu):
    # thick shells whose radius law underflows to 0.0 at its end nodes: under
    # the suite's warning-as-error policy the quadrature still runs, and its
    # values are those of the model on the nonzero nodes alone
    model = tg.radial_output_density(tg.TruncatedGaussianSpec(n, psi, mu))
    keep = model.weights > 0.0
    assert 0 < (~keep).sum() < keep.sum()
    trimmed = tg.RadialOutputDensity(spec=model.spec, radii=model.radii[keep],
                                     weights=model.weights[keep])
    got = tg.output_divergences_quadrature(model)
    want = tg.output_divergences_quadrature(trimmed)
    assert got.kl_bits == pytest.approx(want.kl_bits, rel=1e-14, abs=0.0)
    assert got.tvd == pytest.approx(want.tvd, rel=1e-14, abs=0.0)


def test_radial_model_copies_caller_arrays_read_only():
    spec = tg.TruncatedGaussianSpec(n=16, psi=0.3, mu=0.7)
    law = tg.radial_output_density(spec)
    r, w = law.radii.copy(), law.weights.copy()
    model = tg.RadialOutputDensity(spec=spec, radii=r, weights=w)
    before = model.log_density_ratio(4.0)
    r[:] = r[::-1].copy()
    w[:] = w[::-1].copy()  # the caller edits its arrays after construction
    np.testing.assert_array_equal(model.radii, law.radii)
    np.testing.assert_array_equal(model.weights, law.weights)
    assert model.log_density_ratio(4.0) == before
    with pytest.raises(ValueError):
        model.weights[0] = 1.0
    with pytest.raises(ValueError):
        model.radii[0] = 1.0


def test_output_density_nested_mc_oracle():
    # f_bar(y) = E_x[phi_n(y - x)] by direct Monte Carlo at fixed ||y||, n=8
    spec = tg.TruncatedGaussianSpec(n=8, psi=0.6, mu=0.7)
    model = tg.radial_output_density(spec)
    rng = np.random.default_rng(77)
    x = tg.sample_codewords(spec, 100_000, rng)
    for s in (0.5, 2.0, math.sqrt(8.0), 4.5):
        y = np.zeros(8)
        y[0] = s
        d2 = ((y - x) ** 2).sum(axis=1)
        vals = np.exp(-0.5 * d2) / (2.0 * math.pi) ** 4
        est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        log_f0 = -4.0 * math.log(2.0 * math.pi) - 0.5 * s * s
        got = math.exp(log_f0 + model.log_density_ratio(s))
        assert abs(got - est) <= 3.0 * se, (s, got, est, se)


def test_output_density_converges_to_noise_at_zero_power():
    spec = tg.TruncatedGaussianSpec(n=8, psi=1e-3, mu=0.8)
    model = tg.radial_output_density(spec)
    log_f0 = -4.0 * math.log(2.0 * math.pi) - 0.5 * 4.0
    assert log_f0 + model.log_density_ratio(2.0) == pytest.approx(log_f0, abs=5e-3)
    rep = tg.output_divergences_quadrature(model)
    assert rep.kl_bits < 1e-5
    assert rep.tvd < 5e-3


def test_quadrature_hellinger_does_not_cancel(monkeypatch):
    # H^2 = (1/2) int f0 (sqrt(f_bar/f0) - 1)^2 on the ratio table: one n=4096
    # model gives it within 1e-12 on 4096 and 32768 points, where
    # 1 - int sqrt(f_bar f0) moved by 3.4e-12 relative
    spec = tg.TruncatedGaussianSpec(4096, 0.01, 0.97)
    model = tg.radial_output_density(spec)
    coarse = tg.output_divergences_quadrature(model)
    monkeypatch.setattr(tg, "_RATIO_TABLE_POINTS", 32768)
    fine_model = tg.RadialOutputDensity(spec, model.radii, model.weights)
    fine = tg.output_divergences_quadrature(fine_model)
    assert fine_model.ratio_table[0].size == 32768
    assert fine.hellinger_sq == pytest.approx(coarse.hellinger_sq, rel=1e-12, abs=0.0)


def test_quadrature_report_anchor_c4():
    # n=64, delta=0.05, mu=0.8, nu^2 = 1 + 1/64, psi at the sufficient power
    psi = pl.psi_suf(64, 0.05, 0.8, 1.0 + 1.0 / 64)
    assert psi == pytest.approx(0.057727275772174284, rel=1e-14)
    rep = tg.output_divergences_quadrature(
        tg.radial_output_density(tg.TruncatedGaussianSpec(64, psi, 0.8))
    )
    assert rep.method == "quadrature"
    assert rep.tvd == pytest.approx(0.101878431175, abs=5e-7)
    assert rep.kl_bits == pytest.approx(0.0482142981554, abs=1e-9)
    assert rep.chi_sq == pytest.approx(0.071316599574, abs=1e-9)


def test_quadrature_normalized_across_blocklengths():
    # density integrates to 1 within 1e-6 for all n <= 128 (spot grid)
    for n in (2, 8, 32, 128):
        spec = tg.TruncatedGaussianSpec(n=n, psi=0.4, mu=0.75)
        rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
        assert 0.0 <= rep.tvd <= 1.0


def test_log_density_ratio_one_kernel_call_per_block(monkeypatch):
    spec = tg.TruncatedGaussianSpec(n=4096, psi=1.0 / 64, mu=0.95)
    model = tg.radial_output_density(spec)
    s = np.linspace(1.0, model.ratio_table[0][-1], 8)
    calls = []
    original = tg.specfn.log_sph_bessel_factor

    def counting(order_param, t):
        calls.append(np.shape(t))
        return original(order_param, t)

    monkeypatch.setattr(tg.specfn, "log_sph_bessel_factor", counting)
    lr = model.log_density_ratio(s)
    assert calls == [(model.radii.size, 8)]
    assert np.all(np.isfinite(lr)) and np.all(np.diff(lr) > 0.0)


@pytest.mark.parametrize("n,mu", [(16384, 0.97), (10**5, 0.95)], ids=["n16384", "n1e5"])
def test_quadrature_reaches_sqrt_law_plateau(n, mu):
    # psi = c/sqrt(n) with c = 1: the KL plateau is mu^2 c^2 / 4 * log2 e bits;
    # at n = 1e5, mu = 0.95 the shell mass rounds to 1.0 (KL 0.32486 bits)
    spec = tg.TruncatedGaussianSpec(n=n, psi=1.0 / math.sqrt(n), mu=mu)
    rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
    assert rep.kl_bits == pytest.approx(0.25 * mu * mu / LN2, rel=0.02)


def test_planner_default_spec_builds_output_model_at_n_595154():
    # 1 - mu = 1.7e-6: r_outer - r_inner put the band width 1.3e-10 off, and
    # the weights missed 1 by 1.59e-10; r_outer (1 - mu) is within 2e-16
    spec = _planner_default_spec(595154, 0.01)
    model = tg.radial_output_density(spec)
    assert abs(model.weights.sum() - 1.0) <= 1e-10
    assert model.radii.min() > spec.r_inner and model.radii.max() < spec.r_outer


def test_planner_default_spec_builds_output_model_at_n_16384():
    # mu = 1 - 1/(n+1) makes Delta a difference of two P values near 1/2, so
    # P's rounding over Delta is what moves the 256 radius-law weights off 1
    params = pl.CovertParams.defaults(n=16384, delta=0.05)
    spec = _planner_default_spec(16384, 0.05)
    rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
    assert 0.9 * params.delta <= rep.kl_bits <= params.delta


def test_quadrature_below_resolution_raises_numeric():
    model = tg.radial_output_density(tg.TruncatedGaussianSpec(8, 1e-8, 0.8))
    with pytest.raises(NumericError):
        tg.output_divergences_quadrature(model)


@pytest.mark.parametrize("n,holds", [(600, False), (700, True), (1600, True)])
def test_shell_defect_within_detection_slack(n, holds):
    # 1 - Delta <= V_T(isotropic)/n kicks in once n is large enough (mu = 0.8)
    from covertawgn import divergences as dv

    nu = 1.0 + 1.0 / n
    psi = pl.psi_suf(n, 0.01, 0.8, nu * nu)
    lhs = 1.0 - tg.shell_mass(n, 0.8)
    rhs = dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(n, 1.0 + 0.8 * psi)) / n
    assert (lhs <= rhs) is holds
