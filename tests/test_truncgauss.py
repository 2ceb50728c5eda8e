import math

import numpy as np
import pytest
from hypothesis import assume, given
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
    # shell so thin its mass underflows to zero: unusable spec must refuse
    with pytest.raises(DomainError):
        tg.TruncatedGaussianSpec(n=8, psi=0.1, mu=1.0 - 1e-17)


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
    try:
        spec = tg.TruncatedGaussianSpec(n=n, psi=1.0, mu=mu)
    except DomainError:
        assume(False)  # a thick shell whose mass rounds to 1 at large n
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
    with pytest.raises(DomainError):
        tg.RadialOutputDensity(spec=spec, radii=r[:-1], weights=model.weights)


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


def test_quadrature_reaches_sqrt_law_plateau_at_n_16384():
    # psi = c/sqrt(n) with c = 1: the KL plateau is mu^2 c^2 / 4 * log2 e bits
    mu = 0.97
    spec = tg.TruncatedGaussianSpec(n=16384, psi=1.0 / 128, mu=mu)
    rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
    assert rep.kl_bits == pytest.approx(0.25 * mu * mu / LN2, rel=0.02)


def test_planner_default_spec_builds_output_model_at_n_16384():
    # mu = 1 - 1/(n+1) makes Delta a difference of two P values near 1/2, so a
    # 1e-12 error in P puts Delta ~5e-10 off and the radius-law weights miss
    # their 1e-10 normalization (NumericError after 4096 nodes)
    params = pl.CovertParams.defaults(n=16384, delta=0.05)
    spec = tg.TruncatedGaussianSpec(16384, pl.plan(params).psi_suf, params.mu)
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
