"""Special functions underpinning every closed form in the package.

Scalar functions on top of the C library via ``math`` (log Gamma, erfc): the
regularized lower incomplete gamma P(a, x); the inverse Gaussian upper tail
Q^-1 is the standard library's ``statistics.NormalDist``. A numpy kernel,
elementwise over arrays: the logarithm of the spherical plane-wave average
0F1(; n/2; t^2/4) that appears in radial output densities. The private Gamma
log-density ``_log_gamma_pdf``, on floats with ``math`` and on arrays with
numpy, is the one writing of that density: behind the shell's radius law,
the radius sampler's proposal, the chi law of the noise's norm and the
prefactor x^a e^-x / Gamma(a) of the incomplete gamma.

One private kernel, ``_gamma_pq``, evaluates the incomplete gamma pair
(P(a, x), Q(a, x)) on floats or on float64 arrays; nothing else in the
package does. It takes one of three regimes, each a bounded amount of work at
any a: Temme's uniform expansion (DLMF 8.12) for a >= 100 and
|x - a| <= a/2, which gives P and Q each directly, the lower series for other
x < a + 1, which gives P, and the Legendre continued fraction above that,
which gives Q; there the other of the pair is 1 minus it. So each regime
returns the smaller tail directly (for a >= 1/2), in relative precision:
against a 40-digit reference the error is below 1e-12, in Temme's region and
outside it, wherever the tail is >= 1e-300. Temme's region runs no loop:
eta^2/2 = sigma - ln(1 + sigma) is one fixed Horner polynomial, and the sum
over Temme's rows is one generated function whose row count follows from a
alone. That arithmetic is written once, with + - * / and the ``math``
functions, which an array maps over its elements, and an array element's
sum adds exactly the rows its float adds, so an element gets its float's bits.
scipy's gammainc is not used: at a = 5e7, x = a - 5 sqrt(a) it is 22% off (6e-8
absolute at P = 2.85e-7).

All functions are pure, deterministic, and thread-safe.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "LOG2E",
    "LN2",
    "reg_inc_gamma_lower",
    "gaussian_q_inv",
    "log_sph_bessel_factor",
    "x_minus_log1p",
]

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


def _mapped(fn):
    """fn mapped over the elements of a float64 array."""
    return lambda v: np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)


# What arithmetic shared by floats and arrays reads besides + - * /: on floats
# the ``math`` module itself, on float64 arrays the same functions mapped over
# the elements, so an element gets the bits its float gets (sqrt and copysign
# are exact either way, so arrays take numpy's). The float side makes no numpy
# call.
_ON_ARRAY = SimpleNamespace(
    **{k: _mapped(getattr(math, k)) for k in ("erfc", "exp", "expm1", "log1p")},
    sqrt=np.sqrt, copysign=np.copysign,
)


def _lib(x):
    """_ON_ARRAY for a numpy array x, else the math module."""
    return _ON_ARRAY if isinstance(x, np.ndarray) else math


def _piecewise(cond, x, if_true, if_false):
    """if_true(x) where cond holds, else if_false(x): on a float, the one
    branch; on an array, each branch on its own elements."""
    if isinstance(x, np.ndarray):
        out = np.empty(x.shape)
        out[cond] = if_true(x[cond])
        out[~cond] = if_false(x[~cond])
        return out
    return if_true(x) if cond else if_false(x)


def _horner(row, var):
    """The expression sum_n row[n] var^n by Horner's rule, c = c var + d from
    the top coefficient down, spelled out as source text: once compiled, the
    same multiply-adds as the loop, without its per-coefficient interpreter
    overhead."""
    expr = repr(row[-1])
    for d in reversed(row[:-1]):
        expr = f"({expr}) * {var} + {d!r}"
    return expr


# S(w) = sum_j w^j / (2j + 3), j < 21, as one expression. At w = y^2 <= 1/9
# the first term left out is below 1e-21 of S.
_ATANH_TAIL = eval(f"lambda w: {_horner([1.0 / (2 * j + 3) for j in range(21)], 'w')}")


def _x_minus_log1p_series(x):
    """x - ln(1 + x) for |x| <= 1/2 from ln(1 + x) = 2 atanh(y), y = x / (2 + x):
    x y - 2 y^3 S(y^2), with S(w) = 1/3 + w/5 + ... + w^20/43 one compiled
    Horner polynomial, so a fixed count of multiply-adds and no loop. Only
    + - * /, so an array element gets the bits its float gets."""
    y = x / (2.0 + x)
    y2 = y * y
    return x * y - 2.0 * y * y2 * _ATANH_TAIL(y2)


def x_minus_log1p(x: float | np.ndarray) -> float | np.ndarray:
    """x - ln(1 + x) for x > -1 without cancellation near zero, on a float or
    elementwise on a float64 array.

    The direct difference loses ~|log10 x| digits for small x, and still
    about one at |x| = 0.1. For |x| <= 1/2 it is summed instead from
    ln(1 + x) = 2 atanh(y), y = x / (2 + x), |y| <= 1/3:
    x - ln(1 + x) = x y - 2 (y^3/3 + y^5/5 + ... + y^43/43), a fixed
    polynomial; within 1e-15 relative of a 40-digit reference there.
    """
    if isinstance(x, np.ndarray):
        bad = ~(x > -1.0)
        if bad.any():
            raise DomainError(f"x_minus_log1p: need x > -1, got {float(x[bad].flat[0])!r}")
        return _piecewise(abs(x) > 0.5, x, lambda v: v - _ON_ARRAY.log1p(v),
                          _x_minus_log1p_series)
    if not (x > -1.0):
        raise DomainError(f"x_minus_log1p: need x > -1, got {x!r}")
    if abs(x) > 0.5:
        return x - math.log1p(x)
    return _x_minus_log1p_series(x)


# exp underflows to 0 below this; branch decisions only, not accuracy-critical
_EXP_UNDERFLOW = -745.0
_MAX_ITER = 2_000_000


def _stirling_corr(a: float) -> float:
    # ln Gamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2], asymptotic series, a >= ~60
    inv = 1.0 / a
    inv2 = inv * inv
    return inv * (
        1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))
    )


def _log_gamma_pdf(a: float, u: np.ndarray | float) -> np.ndarray | float:
    """ln( u^(a-1) e^-u / Gamma(a) ), the Gamma(a) log-density at u > 0: on a
    float with ``math``, elementwise on a float64 array with numpy. An element
    equals its float where np.log and math.log agree on q = u/a; elsewhere
    their ulp apart moves it by (a - 1) ulp(ln q), plus rounding.

    Written about the mean, q = u/a, with Stirling's series for ln Gamma(a)
    (DLMF 5.11.3): a (ln q - (q - 1)) - ln q - ln(2 pi a)/2 - corr(a), where
    corr(a) = ln Gamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2]. The direct form
    (a - 1) ln u - u - ln Gamma(a) subtracts terms of size a ln u and keeps
    their rounding (3.5e-8 at a = 1e8); this one is within about 1e-12 (1 + |ln g|).
    """
    if a >= 60.0:
        corr = _stirling_corr(a)
    else:
        corr = math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    q = u / a
    ln_q = np.log(q) if isinstance(q, np.ndarray) else math.log(q)
    return a * (ln_q - (q - 1.0)) - ln_q - 0.5 * math.log(2.0 * math.pi * a) - corr


def _p_lower_series(a: float, x: float, log_pre: float) -> float:
    """P(a, x) = e^log_pre sum_k x^k / (a (a+1) ... (a+k)), fastest for x < a + 1."""
    r, c, s = a, 1.0, 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        s += c
        if c <= s * 1e-17:
            return math.exp(log_pre) * s / a
    raise NumericError(f"reg_inc_gamma_lower series did not converge at a={a}, x={x}")


def _q_upper_contfrac(a: float, x: float, log_pre: float) -> float:
    """Q(a, x) = e^log_pre times the Legendre continued fraction (x >= a + 1)."""
    big, biginv = 4.503599627370496e15, 2.220446049250313e-16
    y, z, c = 1.0 - a, x + 2.0 - a, 0.0
    p3, q3, p2, q2 = 1.0, x, x + 1.0, z * x
    ans = p2 / q2
    for _ in range(_MAX_ITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        p = p2 * z - p3 * yc
        q = q2 * z - q3 * yc
        if q != 0.0:
            nxt = p / q
            err = abs((ans - nxt) / nxt)
            ans = nxt
        else:
            err = 1.0
        p3, p2, q3, q2 = p2, p, q2, q
        if abs(p) > big:
            p3 *= biginv
            p2 *= biginv
            q3 *= biginv
            q2 *= biginv
        if err <= 1e-16:
            return math.exp(log_pre) * ans
    raise NumericError(f"reg_inc_gamma_lower contfrac did not converge at a={a}, x={x}")


# Temme's expansion replaces the series and continued fraction where
# a >= _TEMME_MIN_A and |x - a| <= _TEMME_MAX_SIGMA * a
_TEMME_MIN_A = 100.0
_TEMME_MAX_SIGMA = 0.5
# d[k][n], n < 24 - 2k: c_k(eta) = sum_n d[k][n] eta^n in Temme's expansion
# (DLMF 8.12). Row 0 is c_0 = 1/u - 1/eta through eta^23, where
# u = x/a - 1 solves eta^2/2 = u - ln(1 + u); row k is
# d[k][n] = (-1)^k g_k d[0][n] + (n + 2) d[k-1][n+2], with g_k the Stirling
# coefficients of Gamma*(a) (DLMF 5.11.3), so each row is two shorter than the
# one before it. Computed in exact rational arithmetic and rounded once; the
# test suite regenerates them. The terms left out are below 1e-19 at a = 100,
# |sigma| = 1/2.
_TEMME_D = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
     -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
     -1.392388722418162e-13, 2.8534893807047445e-14, -5.139111834242572e-16),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
     7.1624989648114856e-12, -2.933186643771437e-12, 5.996696365683689e-13,
     -2.1671786527323313e-16),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
     9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
     1.197593554636698e-11, -4.1689782251838634e-15),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
     -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
     -2.3024517174528067e-13),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
     -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
     -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
     4.93875893393627e-10),
)


def _compile_temme_sum(masked):
    """sum_k c_k(eta) / a^k over rows 0..rows-1, generated from _TEMME_D as
    one function without a loop: c_0 + c_1 i_1 + c_2 i_2 + ..., added in k
    order, with each c_k(eta) a Horner polynomial and i_k = i_(k-1) / a.
    Unmasked, for a float, it returns after row rows - 1. Masked, for arrays
    with an int array rows, it takes every row and multiplies row k by
    rows > k, which adds exactly 0 where the float has returned."""
    lines = ["def temme_sum(eta, a, rows):", f"    total = {_horner(_TEMME_D[0], 'eta')}"]
    for k in range(1, len(_TEMME_D)):
        if not masked:
            lines += [f"    if rows == {k}:", "        return total"]
        mask = f" * (rows > {k})" if masked else ""
        lines += ["    inv_a_k = 1.0 / a" if k == 1 else "    inv_a_k = inv_a_k / a",
                  f"    total = total + ({_horner(_TEMME_D[k], 'eta')}) * inv_a_k{mask}"]
    scope = {}
    exec("\n".join(lines + ["    return total"]), scope)
    return scope["temme_sum"]


def _temme_rows_from():
    """For rows = 7, 6, ..., 1, the a from which Temme's sum may stop after
    that many rows: where every row left out, k >= rows, is below
    1e-17 |c_0(eta)| at every eta of the region |sigma| <= 1/2, on a
    2001-point grid of sigma. Row k is c_k(eta) / a^k, so it is left out from
    a = (max |c_k / c_0| / 1e-17)^(1/k) on."""
    sigma = np.linspace(-_TEMME_MAX_SIGMA, _TEMME_MAX_SIGMA, 2001)
    eta = np.copysign(np.sqrt(2.0 * x_minus_log1p(sigma)), sigma)
    c = [abs(np.polyval(row[::-1], eta)) for row in _TEMME_D]
    drop_from = [(float(np.max(c[k] / c[0])) / 1e-17) ** (1.0 / k) for k in range(1, len(c))]
    return tuple(max(drop_from[rows - 1:]) for rows in range(len(_TEMME_D) - 1, 0, -1))


_temme_sum = _compile_temme_sum(masked=False)
_temme_sum_masked = _compile_temme_sum(masked=True)
# Temme's sum takes len(_TEMME_D) - bisect_right(_TEMME_ROWS_FROM, a) rows:
# all 8 below a = 101, 3 from 6.1e4 up, c_0 alone from 9.8e14 up
_TEMME_ROWS_FROM = _temme_rows_from()
_TWO_PI = 2.0 * math.pi


def _pq_temme(a, x, f=math):
    """(P, Q) by Temme's uniform expansion (DLMF 8.12), each directly:
    P = erfc(-z)/2 - R and Q = erfc(z)/2 + R, with z = eta sqrt(a/2),
    R = e^(-a eta^2/2) / sqrt(2 pi a) sum_k c_k(eta) / a^k and
    eta = sign(sigma) sqrt(2 (sigma - ln(1 + sigma))), sigma = (x - a)/a.
    O(1) work at any a; for a >= 100 and |sigma| <= 1/2 only.

    No loop runs: eta^2/2 is the fixed series polynomial, and the sum is one
    generated function whose row count follows from a alone
    (_TEMME_ROWS_FROM). On floats f is ``math``; on arrays (a of x's shape)
    f is _ON_ARRAY and the sum is masked, so an element gets its float's
    bits."""
    sigma = (x - a) / a
    half_eta2 = _x_minus_log1p_series(sigma)
    eta = f.copysign(f.sqrt(2.0 * half_eta2), sigma)
    if f is math:
        total = _temme_sum(eta, a, len(_TEMME_D) - bisect_right(_TEMME_ROWS_FROM, a))
    else:
        rows = len(_TEMME_D) - np.searchsorted(_TEMME_ROWS_FROM, a, side="right")
        total = _temme_sum_masked(eta, a, rows)
    tail = f.exp(-a * half_eta2) * total / f.sqrt(_TWO_PI * a)
    z = eta * f.sqrt(0.5 * a)
    return 0.5 * f.erfc(-z) - tail, 0.5 * f.erfc(z) + tail


def _gamma_pq(a, x):
    """(P(a, x), Q(a, x)), the regularized incomplete gamma pair, on floats or
    elementwise on a float64 array x (a a float or an array of x's shape).

    Temme's expansion for a >= 100 and |x - a| <= a/2 gives both directly;
    elsewhere the lower series gives P for x < a + 1 and the Legendre
    continued fraction gives Q above it, the other being 1 minus it. An array
    takes Temme's region in one pass and its other elements one at a time,
    each element equal to what its floats give.
    """
    if isinstance(x, np.ndarray):
        a, x = np.broadcast_arrays(np.asarray(a, dtype=float), x.astype(float))
        p, q = np.empty(x.shape), np.empty(x.shape)
        temme = (a >= _TEMME_MIN_A) & (abs(x - a) <= _TEMME_MAX_SIGMA * a)
        if temme.any():
            p[temme], q[temme] = _pq_temme(a[temme], x[temme], _ON_ARRAY)
        for i in np.flatnonzero(~temme):
            p.flat[i], q.flat[i] = _gamma_pq(float(a.flat[i]), float(x.flat[i]))
        return p, q
    if not (a > 0.0) or math.isnan(x):
        raise DomainError(f"reg_inc_gamma_lower: need a > 0, x >= 0, got a={a!r}, x={x!r}")
    if x < 0.0:
        raise DomainError(f"reg_inc_gamma_lower: need x >= 0, got x={x!r}")
    # x = 0 and x = inf, and the x/a that round to them, where P is 0 or 1
    if x / a == 0.0:
        return 0.0, 1.0
    if math.isinf(x / a):
        return 1.0, 0.0
    if a >= _TEMME_MIN_A and abs(x - a) <= _TEMME_MAX_SIGMA * a:
        return _pq_temme(a, x)
    # the prefactor ln(x^a e^-x / Gamma(a)) of the series and the fraction
    log_pre = math.log(x) + _log_gamma_pdf(a, x)
    if log_pre < _EXP_UNDERFLOW:
        return (0.0, 1.0) if x < a else (1.0, 0.0)
    if x < a + 1.0:
        p = _p_lower_series(a, x, log_pre)
        return p, 1.0 - p
    q = _q_upper_contfrac(a, x, log_pre)
    return 1.0 - q, q


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Temme's uniform expansion for a >= 100 and |x - a| <= a/2; elsewhere the
    lower series for x < a + 1 and 1 - Q by the Legendre continued fraction
    above it, both with the prefactor x^a e^-x / Gamma(a) from the Gamma
    log-density about its mean. Relative error against a 40-digit reference,
    wherever P >= 1e-300 and a <= 1e8: below 1e-12, in Temme's region and
    outside it. Of 59182 random draws (a log-uniform on [1/2, 1e8], x within
    10 sd of a or 60% of it), the worst of P and Q were 3.3e-13 in Temme's
    region and 5.2e-13 outside it. See the module docstring for why scipy's
    gammainc is not used.
    """
    return _gamma_pq(a, x)[0]


def gaussian_q_inv(p: float) -> float:
    """Inverse on (0, 1) of the Gaussian upper tail Q(x) = P[N(0,1) > x]:
    -Phi^-1(p) by the standard library's NormalDist.inv_cdf (Wichura's AS 241),
    within 1e-15 relative of a 40-digit reference over [1e-12, 1 - 1e-8]."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"gaussian_q_inv: need 0 < p < 1, got {p!r}")
    # 0.0 - x, not -x: Q^-1(1/2) is +0.0, so the bounds at epsilon = 1/2 print 0.0
    return 0.0 - NormalDist().inv_cdf(p)


# ln 0F1 switches from its series to the Debye expansion at this order
_DEBYE_MIN_ORDER = 64.0
# Debye polynomials u_k(p) = p^k * poly(p^2) / d, k = 1..4 (DLMF 10.41.10)
_DEBYE_U = (
    ((3.0, -5.0), 24.0),
    ((81.0, -462.0, 385.0), 1152.0),
    ((30375.0, -369603.0, 765765.0, -425425.0), 414720.0),
    ((4465125.0, -94121676.0, 349922430.0, -446185740.0, 185910725.0), 39813120.0),
)


def _log_hyp0f1_series(b: float, t: np.ndarray) -> np.ndarray:
    """ln 0F1(; b; t^2/4) by the positive series from k = 0; each running sum
    moves into a log scale long before it can overflow. The terms peak near
    k = t/2, so it takes about t/2 terms and stalls (NumericError) once that
    passes _MAX_ITER, near t = 4e6; t*t itself overflows past about 1.3e154."""
    t_max = float(np.max(t, initial=0.0))
    # the term ratio z / ((b + k)(k + 1)) still exceeds 1 at the last iteration,
    # so the sum cannot converge: refuse before the loop, and before t*t overflows
    if 0.5 * t_max > math.sqrt((b + _MAX_ITER) * (_MAX_ITER + 1.0)):
        raise NumericError(
            f"log_sph_bessel_factor series stalled at b={b}, t_max={t_max}: its terms "
            f"still grow after {_MAX_ITER} iterations"
        )
    z = 0.25 * t * t
    term, s, log_scale = np.ones_like(z), np.ones_like(z), np.zeros_like(z)
    for k in range(_MAX_ITER):
        term *= z / ((b + k) * (k + 1.0))
        s += term
        big = s > 1e250
        if big.any():
            log_scale[big] += np.log(s[big])
            term[big] /= s[big]
            s[big] = 1.0
        if np.all(term <= s * 1e-17):
            return log_scale + np.log(s)
    raise NumericError(f"log_sph_bessel_factor series stalled at b={b}, t_max={t.max()}")


def _log_hyp0f1_debye(b: float, t: np.ndarray) -> np.ndarray:
    """ln[Gamma(b) (2/t)^nu I_nu(t)], nu = b - 1, by the Debye expansion of
    I_nu(nu z) (DLMF 10.41.3). With q = sqrt(1 + z^2) and w = q - 1, the
    Stirling series of ln Gamma(b) cancels nu*eta and the ln(z/2) terms:
    nu (w - ln(1 + w/2)) + stirling_corr(nu) - ln(q)/2 + ln sum_k u_k(1/q) / nu^k.
    Truncation error: about 8e-13 at nu = 63, falling like nu^-5; t = 0 gives
    exactly 0."""
    nu = b - 1.0
    z = t / nu
    q = np.hypot(1.0, z)
    w = z * (z / (1.0 + q))  # q - 1 without cancellation or overflow
    p = 1.0 / q
    # sum_k u_k(p) / nu^k as one polynomial in p, by Horner's rule
    coef = np.zeros(3 * len(_DEBYE_U) + 1)
    for k, (c, d) in enumerate(_DEBYE_U, 1):
        coef[k : 3 * k + 1 : 2] += np.asarray(c) / (d * nu**k)
    corr = np.full_like(p, coef[-1])
    for c in coef[-2::-1]:
        corr *= p
        corr += c
    out = nu * (w - np.log1p(0.5 * w)) + _stirling_corr(nu) - 0.5 * np.log(q) + np.log1p(corr)
    return np.where(t == 0.0, 0.0, out)


def log_sph_bessel_factor(order_param: float, t: np.ndarray | float) -> np.ndarray | float:
    """ln 0F1(; order_param; t^2/4), elementwise over a scalar or an array t:
    the log of the uniform spherical average of exp(r <u, y_hat>) at
    t = r ||y||, with order_param = n/2.

    Equals ln cosh(t) at order 1/2 and ln(sinh t / t) at order 3/2. Monotone
    increasing in t, exactly 0 at t = 0. Below order 64 the positive series
    is summed with overflow-safe rescaling; from order 64 up the Debye
    expansion of the Bessel function is used. A float t returns a float.
    """
    if not (order_param > 0.0 and math.isfinite(order_param)):
        raise DomainError(f"log_sph_bessel_factor: need finite order_param > 0, got {order_param!r}")
    arr = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        raise DomainError(
            f"log_sph_bessel_factor: need finite t >= 0 at order_param={order_param!r}, "
            f"got {float(arr[bad].flat[0])!r}"
        )
    kernel = _log_hyp0f1_series if order_param < _DEBYE_MIN_ORDER else _log_hyp0f1_debye
    out = kernel(order_param, arr)
    return float(out) if out.ndim == 0 else out
