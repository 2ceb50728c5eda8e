"""Acceptance gate: one test per release criterion, tolerances pinned.

Two sub-gates fail for real mathematical reasons at the stated parameters and
are left red on purpose rather than loosened:

* criterion 1 at mu = 0.85 - the shell complement at n=400 is 2.19e-2, above
  the 0.005 target (it is below the target only for mu <= 0.81 at n=400:
  3.08e-3 at 0.81, 5.26e-3 at 0.82; at mu = 0.85 it is from n = 602 upward:
  4.97e-3, against 5.01e-3 at n = 601);
* criterion 9's 2%-of-first-order target at n = 1e8 - the dispersion and
  log n terms still eat 5.2% / 3.0% there; ach/first enters the 2% band
  near n ~ 7e9 (0.97991) and conv/first near n ~ 3e9 (0.98034).
"""

import math

import pytest

from covertawgn import bounds as bd
from covertawgn import planner as pl
from covertawgn import truncgauss as tg


def _check(results, criterion):
    """The session's verify result for one criterion (see conftest.py)."""
    return next(r for r in results if r.criterion == criterion)


# -- criterion 1: shell complement below 0.005 at n=400 --------------------------


@pytest.mark.parametrize("mu", [0.70, 0.75, 0.80, 0.85])
def test_criterion_01_shell_mass(mu):
    assert 1.0 - tg.shell_mass(400, mu) < 0.005, (
        f"shell complement at n=400, mu={mu} above the 0.005 target"
    )


def test_criterion_01_runtime(verify_results):
    res = _check(verify_results, 1)
    assert res.runtime < res.limit


# -- criteria 2-8, 10: delegated to the self-check implementations ---------------


def _assert_check(res):
    assert res.runtime < res.limit, f"over {res.limit}s budget: {res.runtime:.2f}s"
    assert res.passed, res.detail


def test_criterion_02_shell_mass_against_mc(verify_results):
    # eight (n, mu) configs, 1e6 draws each, agreement within 3 standard errors
    _assert_check(_check(verify_results, 2))


def test_criterion_03_isotropic_kl_against_mc(verify_results):
    # twelve (n, sigma^2) points, 2e5 draws, within 4 standard errors
    _assert_check(_check(verify_results, 3))


def test_criterion_04_detector_advantage_equals_tvd(verify_results):
    # 1 - (alpha + beta) of the Bayes energy test matches the MC total
    # variation within 3 combined standard errors (n=64, delta=0.05)
    _assert_check(_check(verify_results, 4))


def test_criterion_05_isotropic_minimizes_kl(verify_results):
    # 1000 random spectra at fixed trace never beat the isotropic KL
    _assert_check(_check(verify_results, 5))


def test_criterion_06_taylor_sandwich_inside_validity(verify_results):
    # strict sandwich on a 1e4-point grid below the threshold, three etas
    _assert_check(_check(verify_results, 6))


def test_criterion_07_planner_covert_both_directions(verify_results):
    # sufficient power keeps the empirical KL within delta + 3 se; doubling
    # the necessary power breaks the budget, across six (n, delta) configs
    _assert_check(_check(verify_results, 7))


def test_criterion_08_power_schedule_regimes(verify_results):
    # c n^-tau: tau=1/4 divergent with V_T -> 1; tau=3/4 vanishing with
    # KL(1e8) < 1e-3; tau=1/2 plateau within 1% of c^2/4 log2 e
    _assert_check(_check(verify_results, 8))


def test_criterion_10_sandwich_and_pinsker_everywhere(verify_results):
    # every report from the closed forms and the quadrature path passes
    # construction-time Hellinger-sandwich and Pinsker validation
    _assert_check(_check(verify_results, 10))


# -- criterion 9: bound structure, split so the red part is precise --------------


@pytest.fixture(scope="module")
def bounds_rows():
    grid = bd.default_n_grid(10**3, 10**8)
    return bd.bounds_grid(grid, 0.01, 0.1)


def test_criterion_09_ordering(bounds_rows):
    assert all(r.achievability_bits <= r.converse_bits for r in bounds_rows)


def test_criterion_09_gap_bounded(bounds_rows):
    gaps = [r.converse_bits - r.achievability_bits - math.log2(r.n) for r in bounds_rows]
    assert max(abs(g) for g in gaps) < 10.0


def test_criterion_09_epsilon_monotone():
    for n in (10**4, 10**6):
        lo = pl.CovertParams.defaults(n, 0.01, 0.05)
        hi = pl.CovertParams.defaults(n, 0.01, 0.1)
        assert bd.achievability_bound(lo) < bd.achievability_bound(hi)
        assert bd.converse_bound(lo) < bd.converse_bound(hi)


def test_criterion_09_achievability_within_2pct_of_first_order():
    r8 = bd.throughput_bounds(pl.CovertParams.defaults(10**8, 0.01, 0.1))
    ratio = r8.achievability_bits / r8.first_order
    assert abs(ratio - 1.0) <= 0.02, f"ach/first = {ratio:.5f} at n=1e8"


def test_criterion_09_converse_within_2pct_of_first_order():
    r8 = bd.throughput_bounds(pl.CovertParams.defaults(10**8, 0.01, 0.1))
    ratio = r8.converse_bits / r8.first_order
    assert abs(ratio - 1.0) <= 0.02, f"conv/first = {ratio:.5f} at n=1e8"


def test_criterion_09_runtime(verify_results):
    res = _check(verify_results, 9)
    assert res.runtime < res.limit
