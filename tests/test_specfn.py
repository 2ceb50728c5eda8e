import bisect
import math
import sys
import time
import types
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import special, stats

from covertawgn import specfn
from covertawgn.errors import DomainError, NumericError


def test_log2e_ln2_constants():
    assert specfn.LOG2E == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert specfn.LN2 * specfn.LOG2E == pytest.approx(1.0, rel=1e-15)


def test_reg_inc_gamma_lower_half_half():
    # P(1/2, 1/2) = erf(sqrt(1/2)), the one-sigma normal mass
    assert specfn.reg_inc_gamma_lower(0.5, 0.5) == pytest.approx(0.6826894921370859, rel=1e-13)


def test_reg_inc_gamma_lower_exponential():
    # a=1 collapses to the exponential CDF
    assert specfn.reg_inc_gamma_lower(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)


def test_reg_inc_gamma_lower_grid_vs_scipy():
    a_vals = [0.5, 1.0, 3.0, 12.0, 50.0, 200.0, 2000.0, 50000.0]
    for a in a_vals:
        for frac in (0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0):
            x = a * frac
            got = specfn.reg_inc_gamma_lower(a, x)
            ref = float(special.gammainc(a, x))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-14), (a, x)


def test_reg_inc_gamma_lower_large_a_stable():
    # a = n/2 at blocklengths up to 1e8; x near a is the hard regime
    for a in (5e5, 5e6, 5e7):
        for x in (a - 3 * math.sqrt(a), a, a + 3 * math.sqrt(a)):
            got = specfn.reg_inc_gamma_lower(a, x)
            ref = float(special.gammainc(a, x))
            assert abs(got - ref) < 1e-12, (a, x, got, ref)


def test_reg_inc_gamma_lower_limits_and_domain():
    assert specfn.reg_inc_gamma_lower(3.0, 0.0) == 0.0
    assert specfn.reg_inc_gamma_lower(3.0, 1e8) == pytest.approx(1.0, abs=1e-15)
    # x/a rounds to 0 or to inf: P is 0 or 1 in floating point
    assert specfn._gamma_pq(1e5, 1e-320) == (0.0, 1.0)
    assert specfn._gamma_pq(1e-300, 1e10) == (1.0, 0.0)
    with pytest.raises(DomainError):
        specfn.reg_inc_gamma_lower(0.0, 1.0)
    with pytest.raises(DomainError):
        specfn.reg_inc_gamma_lower(2.0, -0.5)


# --- P(a, x) against a 40-digit reference, and Temme's expansion ------------


def _reference_pq(a, x):
    """(P(a, x), Q(a, x)) to ~40 digits, independent of specfn: the lower
    series sum_k x^k / ((a+1)...(a+k)) in 200-bit fixed point for
    x < a + 3 sqrt(a), Q = 1 - P there, else Q by the modified-Lentz continued
    fraction in mpmath and P = 1 - Q (mpmath.gammainc does not converge at
    large a). Each branch gives the pair's smaller member directly."""
    with mp.workdps(45):
        am, xm = mp.mpf(a), mp.mpf(x)
        if x < a + 3.0 * math.sqrt(a):
            a_num, a_den = a.as_integer_ratio()
            x_num, x_den = x.as_integer_ratio()
            # term ratio x / (a + k) = num / (den0 + k step), exactly
            num, den0, step = x_num * a_den, x_den * a_num, x_den * a_den
            one = 1 << 200
            term = total = one
            k = 1
            while term > total >> 136:
                term = term * num // (den0 + k * step)
                total += term
                k += 1
            p = mp.exp(am * mp.log(xm) - xm - mp.loggamma(am + 1)) * total / one
            return p, 1 - p
        tiny = mp.mpf(10) ** -300
        b = xm + 1 - am
        c, d = 1 / tiny, 1 / b
        h = d
        for i in range(1, 100_000):
            an = -i * (i - am)
            b += 2
            d = 1 / (an * d + b)
            c = b + an / c
            h *= d * c
            if abs(d * c - 1) < mp.mpf(10) ** -42:
                q = mp.exp(am * mp.log(xm) - xm - mp.loggamma(am)) * h
                return 1 - q, q
    raise AssertionError(f"reference continued fraction stalled at a={a}, x={x}")


def _in_temme_region(a, x):
    return a >= specfn._TEMME_MIN_A and abs(x - a) <= specfn._TEMME_MAX_SIGMA * a


def _check_against_reference(a, x):
    """P and Q each within 1e-12 relative wherever they are >= 1e-300, in
    Temme's region and outside it."""
    p, q = specfn._gamma_pq(a, x)
    assert p == specfn.reg_inc_gamma_lower(a, x)
    for name, got, ref in zip("PQ", (p, q), _reference_pq(a, x)):
        if ref < 1e-300:
            assert got <= 1e-299, (name, a, x, got)
        else:
            assert abs(got - ref) <= 1e-12 * ref, (name, a, x, got, float(ref))


log_a = st.floats(min_value=math.log(0.5), max_value=math.log(1e8))


@given(log_a=log_a, z=st.floats(min_value=-10.0, max_value=10.0))
def test_reg_inc_gamma_lower_vs_reference_near_mode(log_a, z):
    a = math.exp(log_a)
    x = a + z * math.sqrt(a)
    assume(x > 0.0)
    _check_against_reference(a, x)


@given(log_a=log_a, sigma=st.floats(min_value=-0.6, max_value=0.6))
def test_reg_inc_gamma_lower_vs_reference_relative_offset(log_a, sigma):
    a = math.exp(log_a)
    _check_against_reference(a, a * (1.0 + sigma))


@pytest.mark.parametrize("a,x", [
    (1e4, 1.25e4),  # Temme: Q = 3.68e-119, where 1 - P rounds to 0
    (2e6, 2e6 - 8e3),  # Temme: P = 7.39e-9
    (50.0, 120.0),  # continued fraction: Q = 1.6e-13
    (3e3, 4.6e3),  # continued fraction: Q = 1.49e-140
    (40.0, 12.0),  # series: P = 1.56e-10
    (0.5, 1.4),  # series: Q = 0.0943, the smaller member, as 1 - P
    # the worst Q and P of a 3000-draw scan under a ln x - x - ln Gamma(a) (5.6e-12, 2.3e-12)
    (3281.076489123266, 5109.727422981104),  # continued fraction: Q
    (1467.1465971916111, 697.6864854798822),  # series: P
])
def test_gamma_pq_smaller_tail_in_relative_precision_in_each_regime(a, x):
    _check_against_reference(a, x)


def test_gamma_pq_arrays_match_floats_bit_for_bit():
    rng = np.random.default_rng(26)
    a = np.exp(rng.uniform(math.log(0.5), math.log(1e8), 600))
    # x/a in [e^-1, e]: inside Temme's region and outside it (|x - a| > a/2)
    x = a * np.exp(rng.uniform(-1.0, 1.0, a.size))
    a = np.concatenate((a, [50.0, 150.0, 3.0, 1e6, 99.5, 100.0]))
    x = np.concatenate((x, [0.0, 0.0, np.inf, np.inf, 99.5, 100.0]))
    temme = np.array([_in_temme_region(ai, xi) for ai, xi in zip(a.tolist(), x.tolist())])
    assert temme.sum() > 100 and (~temme & (a < 100)).sum() > 100
    assert (~temme & (a >= 100) & np.isfinite(x) & (x > 0)).sum() > 100
    p, q = specfn._gamma_pq(a, x)
    scalar = [specfn._gamma_pq(ai, xi) for ai, xi in zip(a.tolist(), x.tolist())]
    assert p.tobytes() == np.array([s[0] for s in scalar]).tobytes()
    assert q.tobytes() == np.array([s[1] for s in scalar]).tobytes()
    # a float a broadcasts over any shape of x
    grid = 150.0 * np.array([[0.4, 0.8], [1.0, 1.7]])
    p2, q2 = specfn._gamma_pq(150.0, grid)
    assert p2.shape == q2.shape == grid.shape
    assert p2.tolist() == [[specfn._gamma_pq(150.0, v)[0] for v in row] for row in grid.tolist()]


def test_gamma_pq_array_rejects_what_its_floats_reject():
    with pytest.raises(DomainError, match="x=-1.0"):
        specfn._gamma_pq(np.array([200.0, 200.0]), np.array([190.0, -1.0]))
    with pytest.raises(DomainError):
        specfn._gamma_pq(np.array([0.0]), np.array([1.0]))


def test_float_paths_make_no_numpy_call(monkeypatch):
    # the float path of the kernel, of x_minus_log1p and of the isotropic
    # closed forms may look up np.ndarray (isinstance) and nothing else
    from covertawgn import divergences as dv

    for module in (specfn, dv):
        monkeypatch.setattr(module, "np", types.SimpleNamespace(ndarray=np.ndarray))
    for a, x in ((150.0, 120.0), (1e6, 1.001e6), (3.0, 2.0), (3.0, 30.0)):
        p, q = specfn._gamma_pq(a, x)
        assert type(p) is float and type(q) is float
    assert type(specfn.x_minus_log1p(0.2)) is float
    report = dv.isotropic_report(dv.IsotropicGaussianPair(n=1000, sigma1_sq=1.03))
    assert all(type(v) is float for v in (report.kl_bits, report.tvd, report.hellinger_sq))


def test_x_minus_log1p_arrays_match_floats():
    x = np.array([-0.9, -0.5, -1e-9, 0.0, 1e-12, 0.3, 0.5, 0.50001, 4.0, 1e300])
    got = specfn.x_minus_log1p(x)
    assert got.tobytes() == np.array([specfn.x_minus_log1p(v) for v in x.tolist()]).tobytes()
    with pytest.raises(DomainError, match="got -1.0"):
        specfn.x_minus_log1p(np.array([0.5, -1.0, -2.0]))


@given(log_abs=st.floats(min_value=math.log(1e-150), max_value=math.log(0.5)),
       negative=st.booleans())
def test_x_minus_log1p_vs_mpmath_on_the_series_interval(log_abs, negative):
    x = math.copysign(math.exp(log_abs), -1.0 if negative else 1.0)
    # the difference cancels about -log10|x| digits: work with that many more
    with mp.workdps(40 + math.ceil(-math.log10(abs(x)))):
        ref = mp.mpf(x) - mp.log1p(mp.mpf(x))
    got = specfn.x_minus_log1p(x)
    assert abs(got - ref) <= 1e-15 * ref, (x, got, float(ref))


def _check_log_gamma_pdf(a, u):
    with mp.workdps(40):
        am, um = mp.mpf(a), mp.mpf(u)
        ref = float((am - 1) * mp.log(um) - um - mp.loggamma(am))
    got = specfn._log_gamma_pdf(a, u)
    assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (a, u, got, ref)


@given(log_a=log_a, log_q=st.floats(min_value=math.log(1e-6), max_value=math.log(10.0)))
def test_log_gamma_pdf_vs_mpmath_from_1e_6_to_10_means(log_a, log_q):
    a = math.exp(log_a)
    _check_log_gamma_pdf(a, a * math.exp(log_q))


@given(log_a=log_a, z=st.floats(min_value=-12.0, max_value=12.0))
def test_log_gamma_pdf_vs_mpmath_within_12_sd_of_the_mean(log_a, z):
    a = math.exp(log_a)
    _check_log_gamma_pdf(a, max(a + z * math.sqrt(a), 1e-6 * a))


def test_log_gamma_pdf_on_both_sides_of_the_stirling_switch():
    # lgamma below a = 60, Stirling's series from 60 up
    for a in (59.0, math.nextafter(60.0, 0.0), 60.0, 61.0):
        u = np.maximum(a + math.sqrt(a) * np.array([-12.0, -1.0, 0.0, 1.0, 12.0]), 1e-6 * a)
        assert specfn._log_gamma_pdf(a, u).shape == u.shape
        for ui in u.tolist():
            _check_log_gamma_pdf(a, ui)


@pytest.mark.parametrize("a", [0.5, 3.0, 59.0, math.nextafter(60.0, 0.0), 60.0, 61.0, 1e4, 1e8])
def test_log_gamma_pdf_arrays_match_floats_where_the_logs_agree(a):
    # arrays take np.log(q) and floats math.log(q), q = u/a: where the two agree
    # an element equals its float; elsewhere they are an ulp apart, which the
    # density scales by a - 1 (1526 ulp of the result at a = 1e8)
    q = np.exp(np.random.default_rng(5).uniform(-1.0, 1.0, 20_000))
    u = a * q
    got = specfn._log_gamma_pdf(a, u)
    want = np.array([specfn._log_gamma_pdf(a, ui) for ui in u.tolist()])
    q = u / a
    np_log, math_log = np.log(q), np.array([math.log(qi) for qi in q.tolist()])
    same = np_log == math_log
    assert np.array_equal(got[same], want[same])
    log_gap = np.abs(np_log - math_log)
    assert np.all(log_gap <= np.spacing(np.abs(math_log)))
    assert np.all(np.abs(got - want) <= abs(a - 1.0) * log_gap + 4.0 * np.spacing(np.abs(want)))


def _temme_coefficients(rows, cols):
    """d[k][n], n < cols - 2k, of Temme's c_k(eta) = sum_n d[k][n] eta^n
    (DLMF 8.12), in exact rational arithmetic."""
    deg = cols + 1
    # u(eta) = x/a - 1 solves eta^2/2 = u - ln(1 + u); differentiating gives
    # eta (1 + u) = u u', which fixes u's coefficients one at a time
    u = [Fraction(0), Fraction(1)] + [Fraction(0)] * deg
    for n in range(2, deg + 1):
        cross = sum(u[i] * (n + 1 - i) * u[n + 1 - i] for i in range(2, n))
        u[n] = (u[n - 1] - cross) / (n + 1)
    # c_0 = 1/u - 1/eta: invert u/eta = 1 + u[2] eta + u[3] eta^2 + ...
    inv = [Fraction(1)] + [Fraction(0)] * cols
    for m in range(1, cols + 1):
        inv[m] = -sum(u[j + 1] * inv[m - j] for j in range(1, m + 1))
    d0 = inv[1:]
    # Stirling coefficients g_k of Gamma*(a) = exp(sum_m B_2m / (2m (2m-1) a^(2m-1)))
    bern = [Fraction(1)]
    for n in range(1, 2 * rows + 1):
        bern.append(-sum(math.comb(n + 1, j) * bern[j] for j in range(n)) / (n + 1))
    ell = [Fraction(0)] * rows
    for m in range(1, rows // 2 + 1):
        ell[2 * m - 1] = bern[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)] + [Fraction(0)] * (rows - 1)
    for n in range(1, rows):
        g[n] = sum(j * ell[j] * g[n - j] for j in range(1, n + 1)) / n
    d = [d0]
    for k in range(1, rows):
        d.append([(-1) ** k * g[k] * d0[n] + (n + 2) * d[k - 1][n + 2]
                  for n in range(cols - 2 * k)])
    return d


def test_temme_table_matches_exact_generation():
    table = specfn._TEMME_D
    exact = _temme_coefficients(len(table), len(table[0]))
    # the leading coefficients of c_0 and c_1 as printed in DLMF 8.12
    assert exact[0][:4] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135), Fraction(1, 864)]
    assert exact[1][0] == Fraction(-1, 540)
    assert [len(row) for row in table] == [len(row) for row in exact]
    for k, (row, ref) in enumerate(zip(table, exact)):
        assert row == pytest.approx([float(v) for v in ref], rel=1e-15, abs=0.0), k


def test_reg_inc_gamma_lower_continuous_across_regime_switches():
    def agree(p, q):
        assert abs(p - q) <= 1e-13 * max(p, q), (p, q)

    below = math.nextafter(specfn._TEMME_MIN_A, 0.0)
    for x in (50.0, 60.0, 80.0, 99.0, 100.0, 101.0, 120.0, 150.0):
        agree(specfn.reg_inc_gamma_lower(below, x), specfn.reg_inc_gamma_lower(100.0, x))
    # small a only: one ulp of x at x = a/2 moves the true P by ulp(a/2) relative
    for a in (100.0, 150.0, 256.0):
        for edge, outward in ((0.5 * a, 0.0), (1.5 * a, math.inf)):
            assert _in_temme_region(a, edge)
            outside = edge  # x - a rounds, so the switch can sit an ulp or two out
            while _in_temme_region(a, outside):
                outside = math.nextafter(outside, outward)
            agree(specfn.reg_inc_gamma_lower(a, edge), specfn.reg_inc_gamma_lower(a, outside))


def test_temme_region_never_iterates(monkeypatch):
    def refuse(*args):
        raise AssertionError("iterative P helper entered inside Temme's region")

    monkeypatch.setattr(specfn, "_p_lower_series", refuse)
    monkeypatch.setattr(specfn, "_q_upper_contfrac", refuse)
    big, h = 5e7, 5.0 * math.sqrt(5e7)
    for a, x in ((big, big - h), (big, big + h), (150.0, 120.0)):
        ref = float(_reference_pq(a, x)[0])
        assert specfn.reg_inc_gamma_lower(a, x) == pytest.approx(ref, rel=1e-12)


def test_temme_sum_leaves_out_only_rows_below_1e_17_of_its_total():
    # the row count follows from a alone; the generated sum equals the loop
    # over its rows in k order, and the first row it leaves out is negligible
    table = specfn._TEMME_D

    def horner(row, eta):
        c = row[-1]
        for d in reversed(row[:-1]):
            c = c * eta + d
        return c

    assert specfn._TEMME_ROWS_FROM == tuple(sorted(specfn._TEMME_ROWS_FROM))
    for a in np.logspace(2.0, 8.0, 61).tolist():
        rows = len(table) - bisect.bisect_right(specfn._TEMME_ROWS_FROM, a)
        for sigma in np.linspace(-0.5, 0.5, 101).tolist():
            eta = math.copysign(math.sqrt(2.0 * specfn.x_minus_log1p(sigma)), sigma)
            total = specfn._temme_sum(eta, a, rows)
            want, inv_a_k = horner(table[0], eta), 1.0
            for row in table[1:rows]:
                inv_a_k = inv_a_k / a
                want = want + horner(row, eta) * inv_a_k
            assert total == want, (a, sigma)
            if rows < len(table):
                left_out = horner(table[rows], eta) / a**rows
                assert abs(left_out) < 1e-17 * abs(total), (a, sigma, rows)


def test_float_temme_path_makes_a_fixed_few_python_calls():
    # a deterministic cost guard: a per-term loop of Python-level calls (one
    # per series term or Temme row) would show as more calls; the float path
    # makes five, _gamma_pq, _pq_temme, the series, its polynomial and the sum
    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for a in (150.0, 5000.0, 5e7):
        calls = []
        sys.setprofile(count)
        try:
            specfn._gamma_pq(a, a - 2.0 * math.sqrt(a))
        finally:
            sys.setprofile(None)
        assert len(calls) <= 5, (a, calls)


def test_gaussian_q_inv_anchor():
    assert specfn.gaussian_q_inv(0.1) == pytest.approx(1.2815515655446004, rel=1e-13)


def test_gaussian_q_inv_median_is_exact_zero():
    assert specfn.gaussian_q_inv(0.5) == 0.0
    assert math.copysign(1.0, specfn.gaussian_q_inv(0.5)) == 1.0  # +0.0, not -0.0


def test_gaussian_q_inv_against_mpmath():
    # Q^-1(p) = -sqrt(2) erfinv(2p - 1) at 40 digits, from the far tail to near 1
    ps = np.concatenate([np.logspace(-12, math.log10(0.5), 60), 1.0 - np.logspace(-8, -0.5, 60)])
    for p in map(float, ps):
        with mp.workdps(40):
            ref = float(-mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
        assert specfn.gaussian_q_inv(p) == pytest.approx(ref, rel=1e-14)


def test_gaussian_q_roundtrip():
    for p in (1e-10, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
        t = specfn.gaussian_q_inv(p)
        assert float(stats.norm.sf(t)) == pytest.approx(p, rel=1e-10)


def test_gaussian_q_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            specfn.gaussian_q_inv(bad)


def test_log_sph_bessel_factor_closed_forms():
    # 0F1(;3/2;(t/2)^2) = sinh(t)/t and 0F1(;1/2;(t/2)^2) = cosh(t)
    assert specfn.log_sph_bessel_factor(1.5, 2.0) == pytest.approx(
        math.log(math.sinh(2.0) / 2.0), rel=1e-13
    )
    assert specfn.log_sph_bessel_factor(0.5, 2.0) == pytest.approx(
        math.log(math.cosh(2.0)), rel=1e-13
    )
    assert specfn.log_sph_bessel_factor(1.5, 2.0) == pytest.approx(0.5952201920542229, rel=1e-12)


def test_log_sph_bessel_factor_zero_argument():
    assert specfn.log_sph_bessel_factor(4.0, 0.0) == 0.0
    # exactly 0 on both sides of the series/Debye switch, scalar or array
    for b in (0.5, 63.5, 64.0, 1e3, 5e4):
        assert specfn.log_sph_bessel_factor(b, 0.0) == 0.0
        assert specfn.log_sph_bessel_factor(b, np.array([0.0, 1.0]))[0] == 0.0


@pytest.mark.parametrize("b", [0.5, 1.5, 8.0, 32.0, 320.0])
def test_log_sph_bessel_factor_vs_scipy(b):
    for t in (0.1, 1.0, 10.0, 100.0, 650.0):
        z = 0.25 * t * t
        ref = float(special.hyp0f1(b, z))
        if math.isfinite(ref) and ref < 1e300:
            got = specfn.log_sph_bessel_factor(b, t)
            assert got == pytest.approx(math.log(ref), rel=1e-11, abs=1e-11), (b, t)


def test_log_sph_bessel_factor_branch_seam():
    # series/asymptotic handoff near t=700 must be continuous
    b = 50.0
    lo = specfn.log_sph_bessel_factor(b, 699.9)
    hi = specfn.log_sph_bessel_factor(b, 700.1)
    mid = specfn.log_sph_bessel_factor(b, 700.0)
    assert lo < mid < hi
    assert hi - lo < 0.3


def test_x_minus_log1p_small_x_precision():
    mp.mp.dps = 40
    for x in (1e-12, 1e-8, 1e-6, 1e-3, 0.05, 0.0999, 0.11, 0.5, 3.0):
        ref = float(mp.mpf(x) - mp.log1p(mp.mpf(x)))
        assert specfn.x_minus_log1p(x) == pytest.approx(ref, rel=1e-14), x
    for x in (-0.5, -1e-7):
        ref = float(mp.mpf(x) - mp.log1p(mp.mpf(x)))
        assert specfn.x_minus_log1p(x) == pytest.approx(ref, rel=1e-14), x
    assert specfn.x_minus_log1p(0.0) == 0.0
    with pytest.raises(DomainError):
        specfn.x_minus_log1p(-1.0)


def test_log_sph_bessel_factor_huge_argument():
    # far beyond exp overflow: only the log-domain branch can get here
    v = specfn.log_sph_bessel_factor(5000.0, 1e5)
    # 0F1 ~ Gamma(b) e^t (t/2)^(1/2-b) / sqrt(pi... ) -> log ~ t for t >> b
    assert math.isfinite(v)
    assert v > 0.5e5


def test_log_sph_bessel_factor_refuses_a_diverging_series_at_once():
    # from t = 2 sqrt((b + _MAX_ITER)(_MAX_ITER + 1)), about 4e6, the series'
    # terms still grow at its last iteration; t*t overflows from about 1.3e154
    for t in (5e6, 1e200, np.array([1.0, 5e6])):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="series stalled at b=8.0"):
                specfn.log_sph_bessel_factor(8.0, t)
        assert time.perf_counter() - start < 1.0


def _series_loop_alone(b, t, max_iter):
    # the series loop without the up-front refusal: its value, or None if it stalls
    z = 0.25 * t * t
    term, s, log_scale = 1.0, 1.0, 0.0
    for k in range(max_iter):
        term *= z / ((b + k) * (k + 1.0))
        s += term
        if s > 1e250:
            log_scale += math.log(s)
            term /= s
            s = 1.0
        if term <= s * 1e-17:
            return log_scale + math.log(s)
    return None


def test_series_refusal_only_where_the_loop_would_stall(monkeypatch):
    # with a short iteration cap, every t the loop sums still returns the same
    # value and every t refused up front would have stalled in the loop
    cap = 60
    monkeypatch.setattr(specfn, "_MAX_ITER", cap)
    for b in (0.5, 8.0, 40.0):
        edge = 2.0 * math.sqrt((b + cap) * (cap + 1.0))
        outcomes = set()
        for t in np.linspace(0.0, 2.0 * edge, 301):
            ref = _series_loop_alone(b, t, cap)
            try:
                got = float(specfn._log_hyp0f1_series(b, np.array([t]))[0])
            except NumericError:
                got = None
            assert got == ref, (b, t)
            outcomes.add((got is None, t > edge))
        assert outcomes == {(False, False), (True, False), (True, True)}


@given(
    b=st.floats(min_value=0.5, max_value=5e4),
    t=st.floats(min_value=0.0, max_value=1e4),
)
def test_log_sph_bessel_factor_vs_mpmath(b, t):
    with mp.workdps(30):
        ref = float(mp.log(mp.hyp0f1(mp.mpf(b), mp.mpf(t) ** 2 / 4, maxterms=10**6)))
    assert specfn.log_sph_bessel_factor(b, t) == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_log_sph_bessel_factor_order_seam():
    # the series below order 64 and the Debye expansion from 64 up must agree
    below = np.nextafter(64.0, 0.0)
    for t in (0.0, 1e-3, 1.0, 10.0, 100.0, 700.0, 5000.0):
        lo = specfn.log_sph_bessel_factor(below, t)
        hi = specfn.log_sph_bessel_factor(64.0, t)
        assert abs(lo - hi) <= 1e-11, (t, lo, hi)


def test_log_sph_bessel_factor_elementwise_and_float_in_float_out():
    t = np.array([[0.0, 0.5, 20.0], [150.0, 900.0, 4000.0]])
    for b in (1.5, 40.0, 64.0, 2048.0):
        got = specfn.log_sph_bessel_factor(b, t)
        assert got.shape == t.shape
        scalars = [specfn.log_sph_bessel_factor(b, float(x)) for x in t.flat]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(got.ravel(), scalars, rtol=1e-14, atol=1e-14)


def test_log_sph_bessel_factor_domain():
    for bad, first in (([1.0, -2.0, float("nan")], "-2.0"), ([float("nan"), -1.0], "nan")):
        with pytest.raises(DomainError, match=f"order_param=3.5, got {first}"):
            specfn.log_sph_bessel_factor(3.5, np.array(bad))
    with pytest.raises(DomainError, match="order_param=100.0, got -0.5"):
        specfn.log_sph_bessel_factor(100.0, -0.5)
    with pytest.raises(DomainError):
        specfn.log_sph_bessel_factor(0.0, 1.0)
