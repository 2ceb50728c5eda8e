"""End-to-end Monte-Carlo experiments on the unit-noise AWGN channel.

Codebooks of i.i.d. shell codewords, Bob's minimum-distance (ML) decoder,
Willie's optimal binary test between "noise only" and "code output", and
empirical estimates of the divergences whose closed forms live in
`divergences` and `truncgauss`.

Willie's test and the empirical divergences read only ||y||, sufficient for
the spherically symmetric output laws, drawn in O(1) per trial as
||x + z||^2 = (||x|| + g)^2 + chi^2_{n-1}, g ~ N(0, 1), under the code and
||z||^2 ~ chi^2_n under noise. Bob's ML decoder reads y only through its
projection onto the span of the codebook (the theorem of irrelevance), so
`simulate` decodes in k = min(n, M) span coordinates: with C^T = Q R a reduced
QR, c_j = Q c~_j and Q^T z ~ N(0, I_k), so y~ = c~_w + N(0, I_k) is decided
exactly as y = c_w + z would be, at O(k M) per trial instead of O(n M).
From 256 codewords up the scores are computed in float32 with an a-priori
error bound, and only the points whose best and second-best scores lie within
twice that bound (or are not finite) are rescored in float64, so every
decision is the float64 kernel's (see `_nearest`).

Determinism: every random quantity is drawn from a stream keyed by
(seed, stream tag, block index) with a fixed block size, and partial results
are reduced in block order — so results are bit-identical for any worker
count. The stream tags below and the draws made from each stream are the
reproducibility contract (v2: the Willie and divergence streams draw radii;
v3: the Bob stream draws the message indices, then count x k span-coordinate
normals; v4: every shell radius, in the codebook, Willie H1 and divergence
streams, comes from the rejection sampler `truncgauss._sample_radii`);
changing them changes every seeded result.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError, NumericError
from .specfn import LOG2E
from .truncgauss import (
    RadialOutputDensity,
    TruncatedGaussianSpec,
    _read_only_copy,
    _sample_radii,
    radial_output_density,
    sample_codewords,
)

__all__ = [
    "StreamTag",
    "Codebook",
    "DetectionResult",
    "Estimate",
    "SimulationResult",
    "build_codebook",
    "bob_decode_batch",
    "willie_detect",
    "empirical_divergences",
    "simulate",
]

_MC_BLOCK = 4096
_DECODE_CHUNK = 256  # rows scored at once: caps the score matrix at 256 x M
# codebooks this wide are scored in float32; below it the certificate's
# per-chunk passes cost more than the narrower product saves
_FLOAT32_MIN_ROWS = 256


class StreamTag(IntEnum):
    """Substream labels entering the SeedSequence key (seed, tag, block)."""

    CODEBOOK = 1
    BOB_NOISE = 2
    WILLIE_H1 = 3
    WILLIE_H0 = 4
    DIVERGENCE = 5


def _rng(seed: int, tag: StreamTag, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, int(tag), block]))


def _map_blocks(fn, total: int, workers: int) -> list:
    """Apply fn(block_index, count) over the fixed-size partition of
    range(total); results in block order."""
    if workers < 1:
        raise DomainError(f"simkit: need workers >= 1, got {workers}")
    starts = range(0, total, _MC_BLOCK)
    blocks = [(b, min(_MC_BLOCK, total - lo)) for b, lo in enumerate(starts)]
    if workers == 1:
        return [fn(b, cnt) for b, cnt in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(fn, b, cnt) for b, cnt in blocks]
        return [f.result() for f in futs]


def _output_radii(r: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """||x + z|| for codewords of norms r under unit AWGN z in R^n, with
    chi^2_{n-1} drawn as 2 Gamma((n-1)/2), which admits n = 1 (chisquare(0)
    raises)."""
    g = rng.standard_normal(r.size)
    return np.sqrt((r + g) ** 2 + 2.0 * rng.standard_gamma(0.5 * (n - 1), r.size))

# --- codebooks ----------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """M codewords of blocklength n, all inside the power shell of `spec`.

    `codewords` is a read-only copy of the rows passed in, so the cached span
    coordinates cannot go stale.
    """

    spec: TruncatedGaussianSpec
    codewords: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", _read_only_copy(self.codewords))
        if self.codewords.ndim != 2 or self.codewords.shape[1] != self.spec.n:
            raise DomainError(
                f"Codebook: shape {self.codewords.shape} does not match n={self.spec.n}"
            )
        r = np.linalg.norm(self.codewords, axis=1)
        tol = 1e-9 * self.spec.r_outer
        # negated, so a NaN norm fails too
        bad = ~((r >= self.spec.r_inner - tol) & (r <= self.spec.r_outer + tol))
        if bad.any():
            raise DomainError(f"Codebook: row norm {r[bad][0]} outside [r_inner, r_outer]")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def M(self) -> int:
        return self.codewords.shape[0]

    @cached_property
    def _span(self) -> tuple[np.ndarray, np.ndarray]:
        """(C~, ||c~_j||^2): the rows' coordinates in an orthonormal basis Q of
        their span, c_j = Q c~_j, as the M x k transpose of R in the reduced
        QR C^T = Q R (k = min(n, M)), and their squared norms."""
        coords = _read_only_copy(np.linalg.qr(self.codewords.T, mode="r").T)
        return coords, _read_only_copy(np.sum(coords**2, axis=1))


def build_codebook(spec: TruncatedGaussianSpec, M: int, seed: int) -> Codebook:
    """M i.i.d. draws from the shell law; deterministic in (spec, M, seed)."""
    if M < 2:
        raise DomainError(f"build_codebook: need M >= 2, got {M}")
    rng = _rng(seed, StreamTag.CODEBOOK, 0)
    return Codebook(spec=spec, codewords=sample_codewords(spec, M, rng), seed=seed)


# --- Bob's decoder --------------------------------------------------------------


def _nearest_float64(points: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray) -> np.ndarray:
    """Index of the row nearest each point (lowest index on ties), given the
    rows' squared norms: argmax_j <y, c_j> - ||c_j||^2 / 2 (exactly -1/2 of
    ||c_j||^2 - 2 <y, c_j>, so ties fall alike), scored _DECODE_CHUNK points
    at a time into one reused float64 score buffer."""
    half_sq = 0.5 * rows_sq
    out = np.empty(points.shape[0], dtype=np.intp)
    buffer = np.empty((min(_DECODE_CHUNK, points.shape[0]), rows.shape[0]))
    for i in range(0, points.shape[0], _DECODE_CHUNK):
        chunk = points[i : i + _DECODE_CHUNK]
        scores = np.matmul(chunk, rows.T, out=buffer[: chunk.shape[0]])
        scores -= half_sq
        out[i : i + _DECODE_CHUNK] = np.argmax(scores, axis=1)
    return out


def _nearest(points: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray) -> np.ndarray:
    """The decisions of `_nearest_float64`, from float32 scores once there are
    at least _FLOAT32_MIN_ROWS rows.

    Rows [c_j, -||c_j||^2/2] and points [y, 1] give each score as one float32
    product of length k + 1. By Higham's dot-product bound (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3), for any summation
    order, with u = 2^-24 and gamma_m = m u / (1 - m u), each is within
        (3u + gamma_{k+1} (1 + u)^2) (||y|| max||c|| + max||c||^2 / 2)
        + 4 (k + 2) 2^-126 (1 + ||y|| + max||c||)
    of the exact score: 3u for rounding y, c and ||c||^2/2 to float32 (its
    slack over 2u + u^2 covers the float64 kernel's own rounding), the last
    term for underflow, even flushed to zero. A point whose float32 maximum
    beats its runner-up by more than twice this has the float64 decision; every
    other point, and any whose maximum is not finite, is rescored in float64.
    """
    count = points.shape[0]
    M, k = rows.shape
    if M < _FLOAT32_MIN_ROWS:
        return _nearest_float64(points, rows, rows_sq)
    u = 2.0**-24
    m = (k + 1) * u
    rel = 3.0 * u + (m / (1.0 - m) if m < 0.5 else math.inf) * (1.0 + u) ** 2
    absolute = 4.0 * (k + 2) * 2.0**-126
    c_max = math.sqrt(float(rows_sq.max()))

    out = np.empty(count, dtype=np.intp)
    table = np.empty((k + 1, M), dtype=np.float32)
    augmented = np.ones((min(_DECODE_CHUNK, count), k + 1), dtype=np.float32)
    buffer = np.empty((augmented.shape[0], M), dtype=np.float32)
    rescore = np.zeros(count, dtype=bool)
    # an overflow or NaN below leaves a non-finite maximum or gap, which is
    # rescored; an underflow is in the bound's absolute term
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        table[:k] = rows.T
        table[k] = -0.5 * rows_sq
        for i in range(0, count, _DECODE_CHUNK):
            chunk = points[i : i + _DECODE_CHUNK]
            at = np.arange(chunk.shape[0])
            aug = augmented[: at.size]
            aug[:, :k] = chunk
            scores = np.matmul(aug, table, out=buffer[: at.size])
            best = np.argmax(scores, axis=1)
            top = scores[at, best].astype(np.float64)
            scores[at, best] = -np.inf
            runner_up = scores.max(axis=1)
            y_norm = np.sqrt(np.einsum("ij,ij->i", chunk, chunk))
            bound = rel * (y_norm + 0.5 * c_max) * c_max + absolute * (1.0 + y_norm + c_max)
            out[i : i + at.size] = best
            # negated, so a NaN gap or bound is rescored too
            rescore[i : i + at.size] = ~((top - runner_up > 2.0 * bound) & (top < math.inf))
    redo = np.flatnonzero(rescore)
    out[redo] = _nearest_float64(points[redo], rows, rows_sq)
    return out


def bob_decode_batch(cb: Codebook, received: np.ndarray) -> np.ndarray:
    """Minimum-distance (= ML under Gaussian noise) decisions for the rows of
    `received` (full n-vectors, shape (count, n)), lowest index on ties.

    `simulate` decides with the same kernel in the codebook's span
    coordinates, without forming n-vectors."""
    y = np.asarray(received, dtype=float)
    return _nearest(y, cb.codewords, np.sum(cb.codewords**2, axis=1))


# --- Willie's detector ----------------------------------------------------------


@dataclass(frozen=True)
class DetectionResult:
    """Binary-test outcome: alpha = missed detection, beta = false alarm.

    The Bayes-optimal test cannot push alpha + beta below 1 - V_T of the two
    observation laws; std_err is the binomial error of the sum.
    """

    threshold: float
    alpha: float
    beta: float
    trials_h0: int
    trials_h1: int

    @property
    def sum_error(self) -> float:
        return self.alpha + self.beta

    @property
    def std_err(self) -> float:
        va = self.alpha * (1.0 - self.alpha) / self.trials_h1
        vb = self.beta * (1.0 - self.beta) / self.trials_h0
        return math.sqrt(va + vb)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "alpha": self.alpha,
            "beta": self.beta,
            "sum_error": self.sum_error,
            "trials_h0": self.trials_h0,
            "trials_h1": self.trials_h1,
            "std_err": self.std_err,
        }


def _bayes_crossing(model: RadialOutputDensity) -> float:
    """Radius where the log ratio, read piecewise-linearly off
    `model.ratio_table` as the empirical divergences read it, crosses 0 (the
    Bayes threshold for equal priors)."""
    grid_s, grid_v = model.ratio_table
    if grid_v[0] > 0.0:
        return float(grid_s[0])
    idx = np.nonzero(grid_v > 0.0)[0]
    if idx.size == 0:
        raise NumericError(f"willie_detect: log-likelihood ratio never crosses 0 for {model.spec}")
    i = int(idx[0])
    s0, s1, v0, v1 = grid_s[i - 1], grid_s[i], grid_v[i - 1], grid_v[i]
    return float(s0 + (s1 - s0) * (-v0) / (v1 - v0))


def willie_detect(
    h0_radii: np.ndarray, h1_radii: np.ndarray, model: RadialOutputDensity
) -> DetectionResult:
    """Willie's Bayes test (equal priors) on the observation radii ||z||
    (1-D arrays): declare "code output" when ||z||^2 exceeds the square of
    the radius where the log density ratio of `model` crosses 0. Both laws
    are spherically symmetric, so the likelihood ratio is monotone in ||z||
    and this energy test is the optimal one.
    """
    r0 = np.asarray(h0_radii, dtype=float)
    r1 = np.asarray(h1_radii, dtype=float)
    if r0.ndim != 1 or r1.ndim != 1 or r0.size == 0 or r1.size == 0:
        raise InputError(
            f"willie_detect: need nonempty 1-D radius arrays, got {r0.shape} and {r1.shape}"
        )
    for r in (r0, r1):
        bad = ~(np.isfinite(r) & (r >= 0.0))
        if bad.any():
            raise InputError(f"willie_detect: radius {r[bad][0]} is not finite and >= 0")
    thr = _bayes_crossing(model) ** 2
    beta = float(np.mean(r0 * r0 > thr))    # false alarm: H1 declared under H0
    alpha = float(np.mean(r1 * r1 <= thr))  # missed detection: H0 declared under H1
    return DetectionResult(
        threshold=thr,
        alpha=alpha,
        beta=beta,
        trials_h0=r0.size,
        trials_h1=r1.size,
    )


# --- empirical divergences -------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    value: float
    std_err: float

    def to_dict(self) -> dict:
        return {"value": self.value, "std_err": self.std_err}


def empirical_divergences(
    spec: TruncatedGaussianSpec, n_samples: int, seed: int, workers: int = 1
) -> tuple[Estimate, Estimate]:
    """(KL in bits, total variation), each with a standard error.

    KL is the sample mean of log2(f_bar/f0) under code-output radius draws.
    TVD uses the split identity V_T = (1/2)[E_P0 (1 - f_bar/f0)^+ +
    E_P1 (1 - f0/f_bar)^+]: each integrand lives in [0, 1] under its own
    measure, so the estimate cannot saturate the way the absolute-ratio form
    does when the hypotheses are nearly disjoint. The density ratio is read
    off a dense monotone interpolation table; its horizon lies ~16 sigma
    beyond the bulk, so the clipped tail is negligible.
    """
    if n_samples < 2:
        raise DomainError(f"empirical_divergences: need n_samples >= 2, got {n_samples}")
    grid_s, grid_v = radial_output_density(spec).ratio_table

    def one_block(b: int, count: int):
        rng = _rng(seed, StreamTag.DIVERGENCE, b)
        r1 = _output_radii(_sample_radii(spec, count, rng), spec.n, rng)
        r0 = np.sqrt(rng.chisquare(spec.n, count))
        lr1 = np.interp(r1, grid_s, grid_v)
        lr0 = np.interp(r0, grid_s, grid_v)
        if not (np.isfinite(lr1).all() and np.isfinite(lr0).all()):
            raise NumericError(
                f"empirical_divergences: non-finite ratio in block {b} of {spec}, seed {seed}"
            )
        t0 = np.maximum(-np.expm1(lr0), 0.0)
        t1 = np.maximum(-np.expm1(-lr1), 0.0)
        return (
            lr1.sum(), (lr1**2).sum(),
            t0.sum(), (t0**2).sum(),
            t1.sum(), (t1**2).sum(),
        )

    parts = _map_blocks(one_block, n_samples, workers)
    sums = [math.fsum(p[i] for p in parts) for i in range(6)]
    m = float(n_samples)

    def mean_se(s: float, s2: float) -> tuple[float, float]:
        mean = s / m
        var = max(s2 / m - mean * mean, 0.0)
        return mean, math.sqrt(var / m)

    kl_mean, kl_se = mean_se(sums[0], sums[1])
    t0_mean, t0_se = mean_se(sums[2], sums[3])
    t1_mean, t1_se = mean_se(sums[4], sums[5])
    kl = Estimate(value=kl_mean * LOG2E, std_err=kl_se * LOG2E)
    tvd = Estimate(
        value=0.5 * (t0_mean + t1_mean),
        std_err=0.5 * math.sqrt(t0_se**2 + t1_se**2),
    )
    return kl, tvd


# --- full experiment ------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    decode_error_rate: float
    decode_error_worst_message: float
    decode_trials: int
    detection: DetectionResult
    empirical_kl_bits: Estimate
    empirical_tvd: Estimate
    config: dict
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "decode_error_rate": self.decode_error_rate,
            "decode_error_worst_message": self.decode_error_worst_message,
            "decode_trials": self.decode_trials,
            "detection": self.detection.to_dict(),
            "empirical_kl_bits": self.empirical_kl_bits.to_dict(),
            "empirical_tvd": self.empirical_tvd.to_dict(),
            "config": self.config,
            "wall_time": self.wall_time,
        }


def simulate(
    spec: TruncatedGaussianSpec, M: int, trials: int, seed: int, workers: int = 1
) -> SimulationResult:
    """Build a codebook, run Bob-decode and Willie-detect trials, and estimate
    the output divergences, all from one master seed.

    Decode error is pooled over uniformly drawn messages (the worst per-message
    rate is reported alongside). Willie's alternative draws a fresh shell
    codeword per trial: the code-ensemble output law whose V_T the closed
    forms predict. Each of the decode, detect and divergence estimates uses
    `trials` samples, so `trials >= 2`.
    """
    if trials < 2:
        raise DomainError(f"simulate: need trials >= 2, got {trials}")
    t0 = time.perf_counter()
    cb = build_codebook(spec, M, seed)
    coords, coords_sq = cb._span

    def bob_block(b: int, count: int):
        rng = _rng(seed, StreamTag.BOB_NOISE, b)
        w = rng.integers(0, M, size=count)
        y = rng.standard_normal((count, coords.shape[1]))
        y += coords[w]
        wrong = _nearest(y, coords, coords_sq) != w
        return (
            np.bincount(w, minlength=M),
            np.bincount(w[wrong], minlength=M),
        )

    sent = np.zeros(M, dtype=np.int64)
    wrong = np.zeros(M, dtype=np.int64)
    for s, e in _map_blocks(bob_block, trials, workers):
        sent += s
        wrong += e
    decode_errors = int(wrong.sum())
    per_message = wrong[sent > 0] / sent[sent > 0]
    worst_message = float(per_message.max()) if per_message.size else 0.0

    def willie_block(b: int, count: int):
        rng = _rng(seed, StreamTag.WILLIE_H1, b)
        r = _sample_radii(spec, count, rng)
        r0 = np.sqrt(_rng(seed, StreamTag.WILLIE_H0, b).chisquare(spec.n, count))
        return r0, _output_radii(r, spec.n, rng)

    h0, h1 = map(np.concatenate, zip(*_map_blocks(willie_block, trials, workers)))
    detection = willie_detect(h0, h1, radial_output_density(spec))

    kl, tvd = empirical_divergences(spec, trials, seed, workers=workers)

    config = {
        "n": spec.n,
        "psi": spec.psi,
        "mu": spec.mu,
        "M": M,
        "trials": trials,
        "seed": seed,
        "workers": workers,
    }
    return SimulationResult(
        decode_error_rate=decode_errors / trials,
        decode_error_worst_message=worst_message,
        decode_trials=trials,
        detection=detection,
        empirical_kl_bits=kl,
        empirical_tvd=tvd,
        config=config,
        wall_time=time.perf_counter() - t0,
    )
