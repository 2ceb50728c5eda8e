import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import truncgauss as tg
from covertawgn.errors import DomainError

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


def test_pair_validation():
    with pytest.raises(DomainError):
        dv.IsotropicGaussianPair(0, 1.5)
    with pytest.raises(DomainError):
        dv.IsotropicGaussianPair(4, 0.0)
    with pytest.raises(DomainError):
        dv.IsotropicGaussianPair(4, float("inf"))
    assert dv.IsotropicGaussianPair(4, 1.25).excess_power == pytest.approx(0.25)


def test_closed_forms_raise_no_bare_value_error_at_tiny_power():
    # below 2^-54, sigma1_sq - 1 rounds to -1: the pair is refused by name,
    # and every pair that constructs has finite closed forms
    with pytest.raises(DomainError, match=r"sigma1_sq=1e-17 at n=4"):
        dv.IsotropicGaussianPair(4, 1e-17)
    smallest = math.nextafter(2.0**-54, 1.0)
    for n in (1, 4, 10**6):
        for s2 in (5e-324, 1e-300, 1e-17, 2.0**-54, smallest, 2.0**-53, 1e-15, 1e-8):
            try:
                pair = dv.IsotropicGaussianPair(n, s2)
            except DomainError:
                assert s2 <= 2.0**-54
                continue
            assert s2 >= smallest
            kl = dv.kl_isotropic(pair)
            h2 = dv.hellinger_sq_isotropic(pair)
            tvd = dv.tvd_isotropic_exact(pair)
            assert kl > 0.0 and math.isfinite(kl)
            assert 0.0 < h2 <= 1.0 and 0.0 < tvd <= 1.0


def test_kl_isotropic_anchor():
    # n=2, sigma^2=2: KL = (1 - ln 2) log2 e = log2 e - 1
    pair = dv.IsotropicGaussianPair(2, 2.0)
    assert dv.kl_isotropic(pair) == pytest.approx(LOG2E - 1.0, rel=1e-14)


def test_kl_excess_bits_matches_closed_form():
    # the one isotropic-KL formula, shared by kl_isotropic and solve_exact_power
    n, x = 400, 0.0125
    expect = 0.5 * n * (x - math.log1p(x)) * LOG2E
    assert dv._kl_excess_bits(n, x) == pytest.approx(expect, rel=1e-14)
    assert dv._kl_excess_bits(n, 0.0) == 0.0


def test_kl_isotropic_equal_pair_is_zero():
    assert dv.kl_isotropic(dv.IsotropicGaussianPair(100, 1.0)) == 0.0


def test_kl_isotropic_small_x_quadratic():
    # leading term (n/4) x^2 log2 e
    n, x = 64, 1e-6
    got = dv.kl_isotropic(dv.IsotropicGaussianPair(n, 1.0 + x))
    assert got == pytest.approx(0.25 * n * x * x * LOG2E, rel=1e-5)


def test_hellinger_sq_anchor():
    # n=2, sigma^2=4: H^2 = 1 - 2*2/(1+4) = 0.2
    pair = dv.IsotropicGaussianPair(2, 4.0)
    assert dv.hellinger_sq_isotropic(pair) == pytest.approx(0.2, rel=1e-14)


def test_tvd_isotropic_exact_anchor_1d():
    pair = dv.IsotropicGaussianPair(1, 4.0)
    assert dv.tvd_isotropic_exact(pair) == pytest.approx(0.32267456883476875, rel=1e-12)


def test_tvd_isotropic_quadrature_cross_check():
    # independent 1-D quadrature of |p1 - p0| / 2
    s2 = 2.5
    p1 = lambda t: math.exp(-t * t / (2 * s2)) / math.sqrt(2 * math.pi * s2)
    p0 = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    val, err = integrate.quad(lambda t: abs(p1(t) - p0(t)), -40, 40, limit=400)
    got = dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(1, s2))
    assert got == pytest.approx(0.5 * val, abs=max(1e-10, 10 * err))


def test_tvd_isotropic_shrinking_and_widening():
    # V_T must also be exact for sigma^2 < 1 (quiet channel side)
    pair = dv.IsotropicGaussianPair(1, 0.25)
    flipped = dv.IsotropicGaussianPair(1, 4.0)
    # scaling t -> t/2 maps one problem onto the other, TVD is invariant
    assert dv.tvd_isotropic_exact(pair) == pytest.approx(
        dv.tvd_isotropic_exact(flipped), rel=1e-12
    )
    assert dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(7, 1.0)) == 0.0


@pytest.mark.parametrize("n", [1, 64, 4096])
@pytest.mark.parametrize("x", [1e-9, -1e-9])
def test_tvd_isotropic_near_unit_variance_against_mpmath(n, x):
    # |s^2 - 1| < 1e-8 takes the series for ln(1+x)/x in the crossing radius
    s2 = 1.0 + x
    with mp.workdps(60):
        s2m = mp.mpf(s2)
        r2 = n * s2m * mp.log(s2m) / (s2m - 1)
        a = mp.mpf(n) / 2
        ref = abs(
            mp.gammainc(a, 0, r2 / 2, regularized=True)
            - mp.gammainc(a, 0, r2 / (2 * s2m), regularized=True)
        )
    got = dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(n, s2))
    assert got == pytest.approx(float(ref), rel=1e-6)


def test_tvd_isotropic_monotone_in_power():
    vals = [
        dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(32, 1.0 + x))
        for x in (0.01, 0.05, 0.2, 1.0, 4.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] < vals[-1] < 1.0


def test_kl_general_covariance_reduces_to_isotropic():
    n = 12
    for s2 in (1.35, 1.0 + 1e-2, 1.0 + 1e-5, 1.0 + 1e-8):
        spec = dv.CovarianceSpec((s2,) * n)
        pair = dv.IsotropicGaussianPair(n, s2)
        iso = dv.kl_isotropic(pair)
        assert dv.kl_general_covariance(spec) == pytest.approx(iso, rel=1e-15, abs=0.0)
    # below lambda = 1/2 the direct form, finite where lambda - 1 rounds to -1
    tiny = dv.kl_general_covariance(dv.CovarianceSpec((1e-300,)))
    assert tiny == pytest.approx(0.5 * (300.0 * math.log(10.0) - 1.0) * LOG2E, rel=1e-15)


def test_isotropic_minimizes_kl_at_fixed_trace():
    rng = np.random.default_rng(7)
    n, excess = 8, 0.4
    iso = dv.kl_isotropic(dv.IsotropicGaussianPair(n, 1.0 + excess))
    for _ in range(200):
        w = rng.uniform(0.05, 1.0, n)
        lam = 1.0 + excess * n * w / w.sum()
        spec = dv.CovarianceSpec(tuple(lam))
        assert dv.kl_general_covariance(spec) >= iso - 1e-12


def test_covariance_spec_validation():
    with pytest.raises(DomainError):
        dv.CovarianceSpec(())  # no eigenvalues
    with pytest.raises(DomainError):
        dv.CovarianceSpec((1.0, -0.5))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            dv.CovarianceSpec((1.0, bad))
    spec = dv.CovarianceSpec((1.5, 1.1))
    assert spec.n == 2


def test_report_construction_and_serialization():
    rep = dv.isotropic_report(dv.IsotropicGaussianPair(16, 1.2))
    assert rep.method == "closed_form"
    assert rep.hellinger_sq <= rep.tvd <= math.sqrt(rep.hellinger_sq * (2.0 - rep.hellinger_sq)) + 1e-12
    d = rep.to_dict()
    assert set(d) == {"kl_bits", "tvd", "hellinger_sq", "chi_sq", "method"}
    assert json.loads(json.dumps(d)) == d


def test_report_rejects_sandwich_violation():
    with pytest.raises(DomainError):
        dv.DivergenceReport(kl_bits=1.0, tvd=0.9, hellinger_sq=0.1, chi_sq=None, method="closed_form")


def test_report_sandwich_does_not_cancel_near_unit_variance():
    # sqrt(1 - (1 - H^2)^2) rounds to 0 once H^2 is below about 1e-16, under a
    # TVD of 1.2e-9 here; sqrt(H^2 (2 - H^2)) keeps the upper end
    rep = dv.isotropic_report(dv.IsotropicGaussianPair(1, 1.0 + 5e-9))
    assert rep.hellinger_sq < 1e-17 and rep.tvd > 1e-9
    for n in (1, 10**12):
        for x in np.logspace(-15.0, -7.0, 17):
            for s2 in (1.0 + x, 1.0 - x):
                rep = dv.isotropic_report(dv.IsotropicGaussianPair(n, s2))
                assert rep.tvd <= math.sqrt(rep.hellinger_sq * (2.0 - rep.hellinger_sq)) + 1e-9


def test_pair_refuses_a_power_whose_crossing_radius_overflows():
    # n sigma1_sq = inf sent the crossing radius to inf and the TVD to 0.0
    with pytest.raises(DomainError, match=r"n \* sigma1_sq overflows at n=2, sigma1_sq=1e\+308"):
        dv.IsotropicGaussianPair(2, 1e308)
    with pytest.raises(DomainError, match=r"at n=1000000, sigma1_sq=1e\+303"):
        dv.IsotropicGaussianPair(10**6, 1e303)
    rep = dv.isotropic_report(dv.IsotropicGaussianPair(2, 0.5 * sys.float_info.max))
    assert rep.tvd == rep.hellinger_sq == 1.0


def test_pair_refuses_an_int_n_beyond_the_largest_float():
    # float(10**400) raises a bare OverflowError; n is refused before it is used
    with pytest.raises(DomainError, match=r"^IsotropicGaussianPair: need an integer n in \[1, 2\*\*63\), got 10{400}$"):
        dv.IsotropicGaussianPair(10**400, 1.5)


def test_hellinger_sq_of_an_equal_pair_is_positive_zero():
    h2 = dv.isotropic_report(dv.IsotropicGaussianPair(10, 1.0)).hellinger_sq
    assert h2 == 0.0 and math.copysign(1.0, h2) == 1.0


def test_report_rejects_pinsker_violation():
    # tvd far above sqrt(KL_nats / 2)
    with pytest.raises(DomainError):
        dv.DivergenceReport(kl_bits=0.001, tvd=0.5, hellinger_sq=0.2, chi_sq=None, method="closed_form")


def test_report_rejects_bad_method_and_ranges():
    with pytest.raises(DomainError):
        dv.DivergenceReport(kl_bits=0.1, tvd=0.1, hellinger_sq=0.05, chi_sq=None, method="guess")
    with pytest.raises(DomainError):
        dv.DivergenceReport(kl_bits=0.1, tvd=1.5, hellinger_sq=0.05, chi_sq=None, method="closed_form")
    with pytest.raises(DomainError):
        dv.DivergenceReport(kl_bits=0.1, tvd=0.1, hellinger_sq=0.05, chi_sq=-0.5, method="closed_form")


def _witness_model(n, delta):
    psi = pl.psi_suf(n, delta, 0.8, 1.0 + 1.0 / n)
    return tg.radial_output_density(tg.TruncatedGaussianSpec(n, psi, 0.8))


def test_h_witness_exceeds_unit_bound_at_small_n():
    # n=16, delta=0.05: the remainder h is NOT uniformly below 1 on the bulk
    model = _witness_model(16, 0.05)
    rep = tg.output_divergences_quadrature(model)
    assert rep.chi_sq == pytest.approx(0.0682359884915, abs=2e-8)
    eps = math.sqrt(rep.chi_sq)
    # h = (f_bar/f0 - 1)/eps on a radial grid over the bulk of ||y||
    grid = np.linspace(0.0, math.sqrt(3 * 16.0), 2001)
    h = np.expm1(model.log_density_ratio(grid)) / eps
    assert np.abs(h).max() == pytest.approx(9.58, abs=0.05)
    assert h[0] == pytest.approx(-1.9714017, abs=1e-3)


@pytest.mark.parametrize("n,delta", [(8, 0.01), (8, 0.05), (16, 0.01), (16, 0.05)])
def test_chi_sq_quasi_neighborhood(n, delta):
    # chi^2(output || noise) <= 2 delta ln 2 at the sufficient power
    rep = tg.output_divergences_quadrature(_witness_model(n, delta))
    assert rep.chi_sq <= 2.0 * delta * LN2
    # ... and the classical chain bounds hold with room to spare
    assert rep.kl_bits <= rep.chi_sq * LOG2E
    assert rep.tvd <= 0.5 * math.sqrt(rep.chi_sq)


def test_ratio_expansion_controls_divergences():
    # with eps := max(sqrt(chi^2), grid sup |f1/f0 - 1|):
    # V_T <= eps/2 and KL <= (eps^2/2) log2 e
    model = _witness_model(16, 0.05)
    rep = tg.output_divergences_quadrature(model)
    grid = np.linspace(0.0, math.sqrt(3 * 16.0), 4001)
    sup_ratio = float(np.abs(np.expm1(model.log_density_ratio(grid))).max())
    eps = max(math.sqrt(rep.chi_sq), sup_ratio)
    assert rep.tvd <= 0.5 * eps
    assert rep.kl_bits <= 0.5 * eps * eps * LOG2E
