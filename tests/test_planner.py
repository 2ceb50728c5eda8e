import json
import math

import pytest

from covertawgn import planner as pl
from covertawgn.divergences import _kl_excess_bits as _kl
from covertawgn.errors import DomainError, NumericError


def test_nu_lemma_shell():
    assert pl.nu_lemma_shell(4) == pytest.approx(1.25, rel=1e-15)
    assert pl.nu_lemma_shell(10**6) == pytest.approx(1.000001, rel=1e-12)
    with pytest.raises(DomainError):
        pl.nu_lemma_shell(0)


def test_params_defaults_and_identity():
    p = pl.CovertParams.defaults(400, 0.01)
    assert p.mu == pytest.approx(400.0 / 401.0, rel=1e-15)
    assert p.nu_sq == pytest.approx(401.0 / 400.0, rel=1e-15)
    assert p.eta == pytest.approx(401.0 / 400.0, rel=1e-15)
    # mu^2 nu^2 eta = 1 makes the sufficient and necessary powers coincide
    assert p.mu**2 * p.nu_sq * p.eta == pytest.approx(1.0, rel=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        pl.CovertParams.defaults(0, 0.01)
    with pytest.raises(DomainError):
        pl.CovertParams(n=16, delta=0.0, epsilon=0.1, mu=0.8, nu_sq=1.1, eta=1.1)
    with pytest.raises(DomainError):
        pl.CovertParams(n=16, delta=0.01, epsilon=1.5, mu=0.8, nu_sq=1.1, eta=1.1)
    with pytest.raises(DomainError):
        pl.CovertParams(n=16, delta=0.01, epsilon=0.1, mu=1.2, nu_sq=1.1, eta=1.1)
    with pytest.raises(DomainError):
        pl.CovertParams(n=16, delta=0.01, epsilon=0.1, mu=0.8, nu_sq=1.1, eta=0.9)


def test_psi_nec_anchor():
    assert pl.psi_nec(400, 0.01, 1.0025) == pytest.approx(0.008335946548001284, rel=1e-13)


def test_psi_suf_anchor():
    assert pl.psi_suf(400, 0.01, 0.8, 1.0025) == pytest.approx(0.010393948314216065, rel=1e-13)


def test_psi_scaling_in_n_and_delta():
    # both targets scale as sqrt(delta / n)
    assert pl.psi_nec(1600, 0.01, 1.1) == pytest.approx(0.5 * pl.psi_nec(400, 0.01, 1.1), rel=1e-12)
    assert pl.psi_suf(400, 0.04, 0.8, 1.1) == pytest.approx(
        2.0 * pl.psi_suf(400, 0.01, 0.8, 1.1), rel=1e-12
    )


def test_solve_exact_power_anchor():
    x = pl.solve_exact_power(400, 0.01)
    assert x == pytest.approx(0.0083486670298904038, rel=1e-11)
    assert _kl(400, x) == pytest.approx(0.01, rel=1e-11)


def test_solve_exact_power_delta_doubling():
    # noticeably above sqrt(2): the cubic correction is visible at this n
    ratio = pl.solve_exact_power(400, 0.02) / pl.solve_exact_power(400, 0.01)
    assert ratio == pytest.approx(1.415837434, rel=1e-8)
    assert ratio > math.sqrt(2.0)


def test_solve_exact_power_wide_grid():
    for n in (16, 400, 10**4, 10**8):
        for delta in (1e-300, 1e-4, 0.01, 0.5, 1e300):
            x = pl.solve_exact_power(n, delta)
            assert x > 0.0
            assert _kl(n, x) == pytest.approx(delta, rel=1e-10)


def test_sufficient_power_is_inside_exact_budget():
    # mu * psi_suf never exceeds the exact per-coordinate budget x*
    for n in (64, 400, 4096):
        for delta in (1e-3, 0.01, 0.05):
            p = pl.CovertParams.defaults(n, delta)
            assert p.mu * pl.psi_suf(n, delta, p.mu, p.nu_sq) <= pl.solve_exact_power(n, delta)


def test_taylor_bracket_check():
    # x^2/(4 eta) < (x - ln(1+x))/2 < x^2/4 is guaranteed below 3(eta-1)/(2 eta)
    eta = 1.5
    thr = pl._bracket_threshold(eta)
    assert thr == pytest.approx(0.5, rel=1e-15)
    p = pl.CovertParams(n=400, delta=0.01, epsilon=0.1, mu=0.8, nu_sq=1.0, eta=eta)
    assert pl.plan(p).bracket_valid_below == thr

    def sides(x):
        mid = 0.5 * (x - math.log1p(x))
        return x * x / (4.0 * eta) < mid, mid < 0.25 * x * x

    assert sides(0.4) == (True, True)
    # the threshold is a guarantee, not the exact failure point; by x=1.2 the
    # lower (eta-inflated) side really has crossed for eta=1.5
    assert sides(1.2) == (False, True)  # x - ln(1+x) <= x^2/2 for every x > 0


def test_plan_defaults_identity_and_flag():
    p = pl.CovertParams.defaults(400, 0.01)
    out = pl.plan(p)
    assert out.psi_suf == pytest.approx(out.psi_nec, rel=1e-14)
    # at this (n, delta) the necessary power sits past the bracket threshold,
    # so the closed-form ordering guarantee does not apply...
    assert "taylor_bracket_invalid" in out.flags
    assert out.psi_nec > out.bracket_valid_below
    # ... and indeed the exact solution lands slightly above psi_nec here
    assert out.psi_exact == pytest.approx(0.0083486670298904038, rel=1e-11)
    assert out.psi_exact > out.psi_nec


def test_plan_small_delta_bracket_valid():
    p = pl.CovertParams.defaults(400, 1e-3)
    out = pl.plan(p)
    assert out.flags == ()
    assert out.psi_nec < out.bracket_valid_below
    # inside the bracket the closed forms really do sandwich the exact power
    assert p.mu * out.psi_suf <= out.psi_exact <= out.psi_nec


def test_plan_flagged_region_understates_kl():
    # with the bracket invalid, the quadratic proxy behind psi_nec undershoots:
    # transmitting at psi_nec does not exhaust the budget
    kl = _kl(400, pl.psi_nec(400, 0.01, 1.0025))
    assert kl == pytest.approx(0.00996963409243081, rel=1e-12)
    assert kl < 0.01


def test_plan_serialization():
    out = pl.plan(pl.CovertParams.defaults(1024, 0.005))
    d = out.to_dict()
    assert d["n"] == 1024
    assert set(d) >= {"n", "delta", "psi_suf", "psi_nec", "psi_exact", "flags"}
    loaded = json.loads(json.dumps(d))
    assert loaded["psi_exact"] == pytest.approx(out.psi_exact, rel=1e-15)


def test_solve_exact_power_domain():
    with pytest.raises(DomainError):
        pl.solve_exact_power(0, 0.01)
    with pytest.raises(DomainError):
        pl.solve_exact_power(100, 0.0)
