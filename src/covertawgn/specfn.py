"""Special functions underpinning every closed form in the package.

Scalar functions on top of the C library via ``math`` (lgamma, erfc): the
regularized lower incomplete gamma P(a, x), the Gaussian upper tail Q and its
inverse. One numpy kernel, elementwise over arrays, evaluates the logarithm
of the spherical plane-wave average 0F1(; n/2; t^2/4) that appears in radial
output densities.

All functions are pure, deterministic, and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "LOG2E",
    "LN2",
    "log_gamma",
    "reg_inc_gamma_lower",
    "gaussian_q",
    "gaussian_q_inv",
    "log_sph_bessel_factor",
    "x_minus_log1p",
]

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


def x_minus_log1p(x: float) -> float:
    """x - ln(1 + x) for x > -1 without cancellation near zero.

    The direct difference loses ~|log10 x| digits for small x; the alternating
    series x^2/2 - x^3/3 + ... keeps full precision there.
    """
    if not (x > -1.0):
        raise DomainError(f"x_minus_log1p: need x > -1, got {x!r}")
    if abs(x) > 0.1:
        return x - math.log1p(x)
    total, term, k = 0.0, x * x, 2
    while True:
        contrib = term / k
        total += contrib if k % 2 == 0 else -contrib
        if abs(contrib) <= 1e-18 * abs(total):
            return total
        term *= x
        k += 1

_LN_2PI = math.log(2.0 * math.pi)
# exp underflows to 0 below this; branch decisions only, not accuracy-critical
_EXP_UNDERFLOW = -745.0
_MAX_ITER = 2_000_000


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not (a > 0.0) or math.isinf(a):
        raise DomainError(f"log_gamma: need finite a > 0, got {a!r}")
    return math.lgamma(a)


def _stirling_corr(a: float) -> float:
    # lgamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2], asymptotic series, a >= ~60
    inv = 1.0 / a
    inv2 = inv * inv
    return inv * (
        1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))
    )


def _log_gamma_prefactor(a: float, x: float) -> float:
    """ln( x^a e^-x / Gamma(a) ), safe against cancellation for large a.

    The naive a*ln(x) - x - lgamma(a) loses ~8 digits at a ~ 5e7 (each term is
    ~1e9 while the result is O(10)); rewriting around the mode via
    a*[ln(1+v) - v], v = (x-a)/a, keeps every intermediate O(result).
    """
    if x == 0.0:
        return -math.inf
    if a < 1e4:
        return a * math.log(x) - x - math.lgamma(a)
    v = (x - a) / a
    if abs(v) < 1e-2:
        # ln(1+v) - v = -v^2/2 + v^3/3 - ... summed directly (log1p would cancel)
        s, term, k = 0.0, v, 1
        while True:
            k += 1
            term *= -v
            add = term / k
            s += add
            if abs(add) <= 1e-18 * max(abs(s), 1e-300):
                break
        core = a * s
    elif abs(v) < 0.5:
        core = a * (math.log1p(v) - v)
    else:
        core = a * (math.log(x / a) + 1.0 - x / a)
    return core + 0.5 * (math.log(a) - _LN_2PI) - _stirling_corr(a)


def _p_lower_series(a: float, x: float) -> float:
    """P(a, x) by the lower series; converges fastest for x < a + 1."""
    log_pre = _log_gamma_prefactor(a, x)
    if log_pre < _EXP_UNDERFLOW:
        return 0.0 if x < a else 1.0
    r, c, s = a, 1.0, 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        s += c
        if c <= s * 1e-17:
            return math.exp(log_pre) * s / a
    raise NumericError(f"reg_inc_gamma_lower series did not converge at a={a}, x={x}")


def _q_upper_contfrac(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x) by the Legendre continued fraction (x >= a + 1)."""
    log_pre = _log_gamma_prefactor(a, x)
    if log_pre < _EXP_UNDERFLOW:
        return 1.0 if x < a else 0.0
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


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Series for x < a + 1, continued fraction otherwise; absolute error
    <= ~1e-13 across a up to ~1e8 (the prefactor is evaluated in a
    cancellation-free form, see _log_gamma_prefactor).
    """
    if not (a > 0.0) or math.isnan(x):
        raise DomainError(f"reg_inc_gamma_lower: need a > 0, x >= 0, got a={a!r}, x={x!r}")
    if x < 0.0:
        raise DomainError(f"reg_inc_gamma_lower: need x >= 0, got x={x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < a + 1.0:
        return _p_lower_series(a, x)
    return 1.0 - _q_upper_contfrac(a, x)


def gaussian_q(x: float) -> float:
    """Standard normal upper tail Q(x) = P[N(0,1) > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Acklam's rational approximation to the standard normal quantile (|err| < 1.15e-9),
# used only as the initializer for Newton refinement against gaussian_q.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _norm_ppf_acklam(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def gaussian_q_inv(p: float) -> float:
    """Inverse of gaussian_q on (0, 1); |Q(Q^-1(p)) - p| <= 1e-10 over [1e-8, 1-1e-8]."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"gaussian_q_inv: need 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    z = -_norm_ppf_acklam(p)  # Q^-1(p) = -Phi^-1(p)
    for _ in range(3):
        err = gaussian_q(z) - p
        if err == 0.0:
            break
        # Q'(z) = -phi(z)
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        if phi <= 0.0:
            break
        z += err / phi
    return z


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
    moves into a log scale long before it can overflow, so any t works."""
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
