import json
import math

import numpy as np
import pytest

from covertawgn import bounds as bd
from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import specfn
from covertawgn.errors import DomainError

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)

GOLDEN_HEADER = (
    "n,delta,epsilon,achievability_bits,converse_bits,first_order,"
    "second_order_conv,second_order_achiev,v1,v2"
)


def _p(n, delta=0.01, epsilon=0.1):
    return pl.CovertParams.defaults(n, delta, epsilon)


def test_throughput_anchors_n_1e4():
    tb = bd.throughput_bounds(_p(10**4))
    assert tb.achievability_bits == pytest.approx(11.109560718058678, rel=1e-12)
    assert tb.converse_bits == pytest.approx(24.398095739683715, rel=1e-12)
    assert tb.first_order == pytest.approx(12.011224087864496, rel=1e-12)
    assert tb.second_order_conv == pytest.approx(7.544526486382555, rel=1e-12)
    assert tb.second_order_achiev == pytest.approx(7.5449037032766872, rel=1e-12)
    assert tb.v1 == pytest.approx(0.003322084784502135, rel=1e-12)
    assert tb.v2 == pytest.approx(0.0033220847845021346, rel=1e-12)


def test_throughput_anchors_n_1e8():
    # reference values from a 40-digit multiprecision evaluation of the same
    # closed forms; a float64 evaluation of log2(1+x) drifts ~6e-12 here
    tb = bd.throughput_bounds(_p(10**8))
    assert tb.achievability_bits == pytest.approx(1138.9557927657928, rel=1e-12)
    assert tb.converse_bits == pytest.approx(1165.5312291586972, rel=1e-12)
    assert tb.first_order == pytest.approx(1201.1224087864498, rel=1e-12)


def test_first_order_square_root_law():
    assert bd.simplified_asymptotics(_p(10**4))[0] == pytest.approx(
        math.sqrt(1e4 * 0.01 * LOG2E), rel=1e-14
    )
    # quadrupling n doubles the first-order term
    f1 = bd.simplified_asymptotics(_p(10**4))[0]
    f2 = bd.simplified_asymptotics(_p(4 * 10**4))[0]
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


def test_median_epsilon_kills_dispersion_terms():
    # at epsilon = 1/2 the Q^{-1} factor is exactly zero, leaving only the
    # capacity term and the log n offset
    n, delta = 4096, 0.02
    p = _p(n, delta, 0.5)
    dl = delta * LN2
    cap_ach = 0.5 * n * math.log1p(math.sqrt(4 * dl / (n * p.nu_sq))) * LOG2E
    cap_conv = 0.5 * n * math.log1p(math.sqrt(4 * p.eta * dl / n)) * LOG2E
    assert bd.achievability_bound(p) == cap_ach + 0.5 * math.log2(n)
    assert bd.converse_bound(p) == cap_conv + 1.5 * math.log2(n)
    _, so_conv, so_ach = bd.simplified_asymptotics(p)
    assert so_conv == 0.0 and so_ach == 0.0


def test_dispersion_factors_in_unit_interval():
    for n in (100, 10**4, 10**8):
        for delta in (1e-3, 0.05):
            p = _p(n, delta)
            assert 0.0 < bd.v1_dispersion(n, delta, p.mu, math.sqrt(p.nu_sq)) < 1.0
            assert 0.0 < bd.v2_dispersion(n, delta, p.eta) < 1.0


def test_dispersions_inherit_planner_domain_checks():
    with pytest.raises(DomainError, match="psi_suf"):
        bd.v1_dispersion(1000, 0.01, 1.0, 1.0)
    with pytest.raises(DomainError, match="psi_nec"):
        bd.v2_dispersion(1000, 0.01, 1.0)


@pytest.mark.parametrize("n,tol", [(10**6, 2e-4), (10**8, 2e-5)])
def test_dispersion_terms_approach_second_order_coefficients_at_presets(n, tol):
    # capacity term + log-n offset - bound is each bound's dispersion term;
    # under the presets it tends to the paper's second-order coefficients
    p = _p(n)
    _, so_conv, so_ach = bd.simplified_asymptotics(p)
    x_ach = p.mu * pl.psi_suf(n, p.delta, p.mu, p.nu_sq)
    x_conv = pl.psi_nec(n, p.delta, p.eta)
    pen_ach = 0.5 * n * math.log1p(x_ach) * LOG2E + 0.5 * math.log2(n) - bd.achievability_bound(p)
    pen_conv = 0.5 * n * math.log1p(x_conv) * LOG2E + 1.5 * math.log2(n) - bd.converse_bound(p)
    assert pen_ach / so_ach == pytest.approx(1.0, abs=tol)
    assert pen_conv / so_conv == pytest.approx(1.0, abs=tol)


def test_ordering_and_gap_on_grid():
    grid = bd.default_n_grid(10**3, 10**6)
    for n in grid:
        tb = bd.throughput_bounds(_p(int(n)))
        assert tb.achievability_bits < tb.converse_bits
        gap = tb.converse_bits - tb.achievability_bits - math.log2(n)
        assert abs(gap) < 0.01


def test_epsilon_relaxation_raises_achievability():
    lo = bd.achievability_bound(_p(10**5, 0.01, 0.05))
    hi = bd.achievability_bound(_p(10**5, 0.01, 0.3))
    assert hi > lo


def test_bounds_grid_and_csv_golden_header():
    rows = bd.bounds_grid([10**3, 10**4], 0.01, 0.1)
    assert len(rows) == 2
    text = bd.bounds_csv_text(rows, comments={"delta": 0.01})
    lines = text.strip().split("\n")
    assert lines[0] == "# delta=0.01"
    assert lines[1] == GOLDEN_HEADER
    assert len(lines) == 4
    first = lines[2].split(",")
    assert int(first[0]) == 10**3
    assert float(first[3]) == pytest.approx(rows[0].achievability_bits, rel=1e-11)


def test_throughput_round_trip_dict_json():
    tb = bd.throughput_bounds(_p(10**4))
    d = tb.to_dict()
    assert d["n"] == 10**4
    assert "caveat" in d
    assert json.loads(json.dumps(d))["achievability_bits"] == pytest.approx(
        tb.achievability_bits, rel=1e-15
    )
    row = tb.to_row()
    assert row[0] == 10**4 and len(row) == 10


def test_default_n_grid_shape():
    grid = bd.default_n_grid()
    assert grid[0] == 100 and grid[-1] == 10**8
    assert np.all(np.diff(grid) > 0)
    assert 230 <= grid.size <= 241  # ~40 per decade over 6 decades, deduplicated
    small = bd.default_n_grid(100, 1000)
    assert small[0] == 100 and small[-1] == 1000 and small.size == 41


def test_default_n_grid_rejects_empty_or_nonpositive_range():
    for n_min, n_max in ((1000, 1000), (0, 10)):
        with pytest.raises(DomainError, match=r"need 1 <= n_min < n_max"):
            bd.default_n_grid(n_min, n_max)


def test_classify_kl_trend_synthetic():
    n = np.logspace(2, 6, 30)
    assert bd.classify_kl_trend(n, np.sqrt(n)) == "divergent"
    assert bd.classify_kl_trend(n, 1.0 / np.sqrt(n)) == "vanishing"
    assert bd.classify_kl_trend(n, np.full(n.size, 0.37)) == "plateau"
    assert bd.classify_kl_trend(n, np.zeros(n.size)) == "vanishing"
    with pytest.raises(DomainError):
        bd.classify_kl_trend(n[:4], np.ones(4))  # needs a full decade of span


@pytest.mark.parametrize(
    "tau,expected",
    [(0.25, "divergent"), (0.5, "plateau"), (0.75, "vanishing")],
)
def test_sweep_classification(tau, expected):
    grid = np.unique(np.round(np.logspace(2, 6, 17)).astype(np.int64))
    sweep = bd.asymptotic_sweep(1.0, tau, grid)
    assert sweep.classification == expected
    if expected == "plateau":
        assert sweep.plateau_kl_bits == pytest.approx(0.25 * LOG2E, rel=1e-12)
        assert sweep.kl_bits[-1] == pytest.approx(0.25 * LOG2E, rel=5e-3)
    else:
        assert sweep.plateau_kl_bits is None


def test_sweep_hellinger_sandwich_every_point():
    grid = np.unique(np.round(np.logspace(2, 7, 26)).astype(np.int64))
    for tau in (0.25, 0.5, 0.75):
        sweep = bd.asymptotic_sweep(1.5, tau, grid)
        for h2, v in zip(sweep.hellinger_sq, sweep.tvd):
            assert h2 - 1e-12 <= v <= math.sqrt(1.0 - (1.0 - h2) ** 2) + 1e-12


def test_sweep_matches_closed_forms_pointwise():
    # the array pass gives every grid point exactly the one-point value
    grid = bd.default_n_grid()
    for tau in (0.25, 0.5, 0.75):
        sweep = bd.asymptotic_sweep(2.0, tau, grid)
        for i, n in enumerate(grid.tolist()):
            pair = dv.IsotropicGaussianPair(n, 1.0 + 2.0 * float(n) ** -tau)
            assert sweep.kl_bits[i] == dv.kl_isotropic(pair), (tau, n)
            assert sweep.tvd[i] == dv.tvd_isotropic_exact(pair), (tau, n)
            assert sweep.hellinger_sq[i] == dv.hellinger_sq_isotropic(pair), (tau, n)


def test_sweep_dict_round_trips_through_json():
    grid = np.array([100, 1000, 10**4], dtype=np.int64)
    sweep = bd.asymptotic_sweep(1.0, 0.5, grid)
    loaded = json.loads(json.dumps(sweep.to_dict()))
    assert loaded["n"] == [100, 1000, 10**4]
    assert loaded["kl_bits"] == sweep.kl_bits.tolist()
    assert loaded["classification"] == "plateau"
    assert loaded["c"] == 1.0 and loaded["tau"] == 0.5


def test_sweep_validation():
    with pytest.raises(DomainError):
        bd.asymptotic_sweep(0.0, 0.5)
    with pytest.raises(DomainError):
        bd.asymptotic_sweep(1.0, -0.25)
    with pytest.raises(DomainError, match="finite c > 0, got inf"):
        bd.asymptotic_sweep(math.inf, 0.5)


@pytest.mark.parametrize("grid,bad", [
    ([0, 100, 1000, 10000], r"n_grid\[0\] = 0$"),
    ([100, 1000.9, 10**4, 10**5], r"n_grid\[1\] = 1000.9 after 100.0$"),
    ([10**5, 10**4, 1000, 100], r"n_grid\[1\] = 10000 after 100000$"),
    ([100, 1000, 1000, 10**4], r"n_grid\[2\] = 1000 after 1000$"),
    ([100.0, math.nan, 10**4], r"n_grid\[1\] = nan after 100.0$"),
    ([100, 1000, 10**4, 2.0**63], r"n_grid\[3\] = 9.223372036854776e\+18 after 10000.0$"),
], ids=["zero", "fraction", "reversed", "repeated", "nan", "beyond_int64"])
def test_sweep_refuses_a_grid_it_cannot_evaluate(grid, bad):
    want = "integer blocklengths >= 1 in strictly increasing order, got " + bad
    with pytest.raises(DomainError, match=want):
        bd.asymptotic_sweep(1.0, 0.5, grid)


def test_sweep_accepts_integer_valued_float_grids():
    ints = bd.asymptotic_sweep(1.0, 0.5, [1, 10, 100, 1000])
    floats = bd.asymptotic_sweep(1.0, 0.5, np.array([1.0, 10.0, 100.0, 1000.0]))
    assert floats.n_grid.dtype == np.int64 and floats.n_grid.tolist() == [1, 10, 100, 1000]
    assert floats.tvd.tolist() == ints.tvd.tolist()
    with pytest.raises(DomainError, match="1-D"):
        bd.asymptotic_sweep(1.0, 0.5, np.array([[10, 100], [1000, 10**4]]))
