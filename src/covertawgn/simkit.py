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
`simulate` decodes in k = min(n, M) span coordinates: c_j = Q c~_j for an
orthonormal basis Q of the span and Q^T z ~ N(0, I_k), so y~ = c~_w + N(0, I_k)
is decided exactly as y = c_w + z would be. By Bartlett's decomposition
(Muirhead 1982, Thm 3.2.14) it draws the c~_j directly, an (M, k) lower
trapezoid scaled row by row to shell radii (`_span_codebook`), so no n-vector
is formed and a codebook costs O(M k), a trial O(k M), whatever n is.
`simulate` needs only whether each trial decodes wrong. From 256 codewords up
it scores in float32 against one table per codebook: first each trial's score
on its sent codeword, then column slabs [0, 256), [256, 1024), [1024, 4096),
..., every trial on the first slab and each later slab only with the trials
for which no earlier codeword certainly outscores the sent one, by an a-priori
error bound; a trial the bound cannot settle is rescored in float64. So the
error flags are exactly those of the float64 decisions (see `_decode_errors`).

Determinism: every random quantity is drawn from a stream keyed by (seed,
stream tag, block index) with a fixed block size, and partial results are
reduced in block order. In `simulate`, one helper thread draws Willie's
radii, once per trial under each hypothesis, and reads them twice, for his
test and for the empirical divergences, while the calling thread draws the
codebook; then both threads take Bob's blocks from one queue, each drawing,
decoding and counting the blocks it takes. Bob's steps are sized by elements, so each numpy
call runs long enough for the other thread to take the GIL. A draw depends
only on its stream key, and integer counts add up alike in any order, so the
results do not depend on which thread takes a block or how the threads are
scheduled. While `simulate` runs, the OpenBLAS that numpy loaded is held to
one thread, process-wide, and restored afterwards (a no-op where none is
found). The stream tags below and the draws made from each stream are the
reproducibility contract (v2: the Willie and divergence streams draw radii;
v3: the Bob stream draws the message indices, then count x k span-coordinate
normals; v4: every shell radius, in the codebook, Willie H1 and divergence
streams, comes from the rejection sampler `truncgauss._sample_radii`; v5:
where n <= M Bob's normals are noise in the standard basis, not in a QR
basis, which moves only the decode error rates; v6: the empirical
divergences read Willie's WILLIE_H0 and WILLIE_H1 radii and the divergence
stream is retired, which moves only the empirical KL and TVD; v7, in force:
the codebook is drawn in its span on CODEBOOK_SPAN, which moves only the decode
error rates); changing them changes every seeded result they feed.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import IntEnum
from functools import cache

import numpy as np

from .errors import DomainError, NumericError
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
# the fewest points a row step on Bob's side takes (see `_rows_per_pass`): a
# floor, so from M = 256 up the float64 kernel's score matrix is 256 x M
_DECODE_CHUNK = 256
# codebooks this wide are scored in float32; below it the certificate's
# per-chunk passes cost more than the narrower product saves
_FLOAT32_MIN_ROWS = 256
# Bob's error check scores the float32 table in column slabs [0, 256),
# [256, 1024), [1024, 4096), ... (see `_slab_edges`); a first slab of 256
# was measured against 128 and 512
_FIRST_SLAB = 256
# elements per row step on Bob's side, so each numpy call runs long enough for
# `simulate`'s other thread to take the GIL: 1024 rows at k = 64, 4096 at M = 16
_CHUNK_ELEMENTS = 2**16


class StreamTag(IntEnum):
    """Substream labels entering the SeedSequence key (seed, tag, block)."""

    CODEBOOK = 1
    BOB_NOISE = 2
    WILLIE_H1 = 3
    WILLIE_H0 = 4
    # 5 was DIVERGENCE, retired in v6 when the divergences began to read
    # Willie's radii; it is never reused
    CODEBOOK_SPAN = 6


def _rng(seed: int, tag: StreamTag, block: int) -> np.random.Generator:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, int(tag), block]))


def _rows_per_pass(width: int) -> int:
    return max(_DECODE_CHUNK, _CHUNK_ELEMENTS // width)


def _map_blocks(fn, total: int) -> list:
    """fn(block_index, count) over the fixed-size partition of range(total),
    in block order in the calling thread."""
    return [fn(b, min(_MC_BLOCK, total - lo)) for b, lo in enumerate(range(0, total, _MC_BLOCK))]


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

    `codewords` is a read-only copy of the rows passed in.
    """

    spec: TruncatedGaussianSpec
    codewords: np.ndarray

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


def build_codebook(spec: TruncatedGaussianSpec, M: int, seed: int) -> Codebook:
    """M i.i.d. draws from the shell law; deterministic in (spec, M, seed)."""
    if M < 2:
        raise DomainError(f"build_codebook: need M >= 2, got {M}")
    rng = _rng(seed, StreamTag.CODEBOOK, 0)
    return Codebook(spec=spec, codewords=sample_codewords(spec, M, rng))


def _span_codebook(spec: TruncatedGaussianSpec, M: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(C~, ||c~_j||^2), read-only: M i.i.d. shell codewords in k = min(n, M)
    coordinates of an orthonormal basis of their span, and their squared norms.
    CODEBOOK_SPAN draws the radii, then an (M, k) lower trapezoid (Bartlett:
    N(0, 1) below the diagonal, chi_{n-j} on it) whose rows take the radii."""
    n, k = spec.n, min(spec.n, M)
    rng = _rng(seed, StreamTag.CODEBOOK_SPAN, 0)
    r = _sample_radii(spec, M, rng)
    rows = np.tril(rng.standard_normal((M, k)), -1)
    np.fill_diagonal(rows, np.sqrt(2.0 * rng.standard_gamma(0.5 * (n - np.arange(k)))))
    rows *= (r / np.linalg.norm(rows, axis=1))[:, None]
    rows.flags.writeable = False
    return rows, _read_only_copy(np.sum(rows**2, axis=1))


# --- Bob's decoder --------------------------------------------------------------


def _nearest_float64(points: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray) -> np.ndarray:
    """Index of the row nearest each point (lowest index on ties), given the
    rows' squared norms: argmax_j <y, c_j> - ||c_j||^2 / 2 (exactly -1/2 of
    ||c_j||^2 - 2 <y, c_j>, so ties fall alike), scored `_rows_per_pass(M)`
    points at a time into one reused float64 score buffer."""
    half_sq = 0.5 * rows_sq
    out = np.empty(points.shape[0], dtype=np.intp)
    step = _rows_per_pass(rows.shape[0])
    buffer = np.empty((min(step, points.shape[0]), rows.shape[0]))
    for i in range(0, points.shape[0], step):
        chunk = points[i : i + step]
        scores = np.matmul(chunk, rows.T, out=buffer[: chunk.shape[0]])
        scores -= half_sq
        out[i : i + step] = np.argmax(scores, axis=1)
    return out


def _float32_table(rows: np.ndarray, rows_sq: np.ndarray):
    """(table, bound): the float32 rows [c_j, -||c_j||^2/2], shape (M, k + 1),
    so that with a point as [y, 1] each score <y, c_j> - ||c_j||^2/2 is one
    float32 product of length k + 1; and bound(points), per point the float64
    bound on how far any such score, summed in any order, lies from the
    float64 kernel's score.

    By Higham's dot-product bound (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3), for any summation order, with u = 2^-24 and
    gamma_m = m u / (1 - m u), each score is within
        (3u + gamma_{k+1} (1 + u)^2) (||y|| max||c|| + max||c||^2 / 2)
        + 4 (k + 2) 2^-126 (1 + ||y|| + max||c||)
    of the exact score: 3u for rounding y, c and ||c||^2/2 to float32 (its
    slack over 2u + u^2 covers the float64 kernel's own rounding), the last
    term for underflow, even flushed to zero. So two float32 scores more than
    twice this apart are ordered strictly, as the float64 scores are. The
    bound assumes no overflow: only a finite difference may be trusted.
    """
    M, k = rows.shape
    u = 2.0**-24
    m = (k + 1) * u
    rel = 3.0 * u + (m / (1.0 - m) if m < 0.5 else math.inf) * (1.0 + u) ** 2
    absolute = 4.0 * (k + 2) * 2.0**-126
    c_max = math.sqrt(float(rows_sq.max()))
    table = np.empty((M, k + 1), dtype=np.float32)
    table[:, :k] = rows
    table[:, k] = -0.5 * rows_sq
    table.flags.writeable = False

    def bound(points: np.ndarray) -> np.ndarray:
        y_norm = np.sqrt(np.einsum("ij,ij->i", points, points))
        return rel * (y_norm + 0.5 * c_max) * c_max + absolute * (1.0 + y_norm + c_max)

    return table, bound


def _slab_edges(M: int) -> list[int]:
    """[0, 256, 1024, 4096, ..., M]: the column slabs of the float32 table
    that Bob's error check scores in turn, each three times as wide as all
    before it. A remainder narrower than the first slab joins the slab
    before it, since a check for so few columns costs more than it saves."""
    edges, edge = [0], _FIRST_SLAB
    while edge + _FIRST_SLAB <= M:
        edges.append(edge)
        edge *= 4
    return edges + [M]


def _decode_errors(
    points: np.ndarray, sent: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray, table
) -> np.ndarray:
    """`_nearest_float64(points, rows, rows_sq) != sent`. `table` is None,
    which runs that kernel, or `_float32_table(rows, rows_sq)`, against
    which each point is scored in float32 only until its error is certain.

    The float64 kernel errs on a point sent as w exactly when some j != w
    outscores w, or ties with it from a lower index. Let B be the point's
    bound from `_float32_table`, s_j its float32 scores and s_w the one on
    row w. Each s_j is within B of its float64 score, so a two-sided test
    decides without looking at indices:
      - some j != w with s_j - s_w > 2B outscores w strictly in float64: the
        point is certainly wrong;
      - s_w - max_{j != w} s_j > 2B makes w the strict float64 maximum: the
        point is certainly right.
    B holds for a float32 product of length k + 1 summed in any order, so
    each point's s_w is computed up front by a product of its own.

    The points are taken `_rows_per_pass(k + 1)` at a time and scored on the
    column slabs of `_slab_edges` in turn. After each slab but the last, the
    points certainly wrong are done. One flat buffer holds each pass: a chunk
    on the first slab, or _DECODE_CHUNK points on the widest slab. A gap
    counts only when finite, since B assumes no overflow. Every point left
    undecided after the last slab (a tie, a near-tie, a NaN or an overflow)
    is rescored in float64.
    """
    if table is None:
        return _nearest_float64(points, rows, rows_sq) != sent
    M, k = rows.shape
    count = points.shape[0]
    edges = _slab_edges(M)
    step = min(count, _rows_per_pass(k + 1))
    widest = max(np.diff(edges))
    buffer = np.empty(max(step * edges[1], min(count, _DECODE_CHUNK) * widest), dtype=np.float32)
    augmented = np.ones((step, k + 1), dtype=np.float32)
    wrong = np.zeros(count, dtype=bool)
    settled = np.zeros(count, dtype=bool)
    # an overflow or NaN below leaves a non-finite gap, which settles nothing;
    # an underflow is in the bound's absolute term
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        table, bound = table
        for i in range(0, count, step):
            chunk = points[i : i + step]
            c = chunk.shape[0]
            augmented[:c, :k] = chunk
            w = sent[i : i + c]
            margin = 2.0 * bound(chunk)
            # s_w, widened so that each gap below is taken in float64
            own = np.einsum("ij,ij->i", augmented[:c], table[w]).astype(float)
            best = np.full(c, -np.inf, dtype=np.float32)  # max over j != w so far
            live = np.arange(c)  # the points augmented[: live.size] holds
            for lo, hi in zip(edges, edges[1:]):
                width = hi - lo
                per = min(step, buffer.size // width)
                for a in range(0, live.size, per):
                    at = live[a : a + per]
                    # laid out along the longer side, which the maximum runs fastest on
                    scores = buffer[: at.size * width]
                    if width >= per:
                        scores = scores.reshape(at.size, width)
                    else:
                        scores = scores.reshape(width, at.size).T
                    np.matmul(augmented[a : a + at.size], table[lo:hi].T, out=scores)
                    j = w[at] - lo
                    hit = np.flatnonzero((j >= 0) & (j < width))
                    scores[hit, j[hit]] = -np.inf
                    best[at] = np.maximum(best[at], scores.max(axis=1))
                if hi == M:
                    break
                gap = best[live] - own[live]
                lost = (gap > margin[live]) & (gap < math.inf)
                if lost.any():
                    keep = ~lost
                    augmented[: keep.sum()] = augmented[: live.size][keep]
                    live = live[keep]
            gap = best - own
            wrong[i : i + c] = (gap > margin) & (gap < math.inf)
            settled[i : i + c] = wrong[i : i + c] | ((-gap > margin) & (-gap < math.inf))
    redo = np.flatnonzero(~settled)
    wrong[redo] = _nearest_float64(points[redo], rows, rows_sq) != sent[redo]
    return wrong


def bob_decode_batch(cb: Codebook, received: np.ndarray) -> np.ndarray:
    """Minimum-distance (= ML under Gaussian noise) decisions for the rows of
    `received` (full n-vectors, shape (count, n)), lowest index on ties.

    `simulate` decides by the same rule in span coordinates of a codebook
    drawn in its span (`_span_codebook`), without forming n-vectors."""
    y = np.asarray(received, dtype=float)
    if y.ndim != 2 or y.shape[1] != cb.n:
        raise DomainError(f"bob_decode_batch: need shape (count, {cb.n}), got {y.shape}")
    bad = ~np.isfinite(y)
    if bad.any():
        raise DomainError(f"bob_decode_batch: received value {y[bad][0]} is not finite")
    return _nearest_float64(y, cb.codewords, np.sum(cb.codewords**2, axis=1))


# --- Willie's detector ----------------------------------------------------------


def _detector_radii(
    spec: TruncatedGaussianSpec, total: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(h0, h1): `total` radii ||y|| of Willie's observation under noise only
    and under the code-ensemble output, drawn per block, H0 on the WILLIE_H0
    stream and H1 (a fresh shell radius, then the noise) on WILLIE_H1, and
    concatenated in block order. Willie's test and the empirical divergences
    both read them."""

    def block(b: int, count: int):
        rng = _rng(seed, StreamTag.WILLIE_H1, b)
        r = _sample_radii(spec, count, rng)
        r0 = np.sqrt(_rng(seed, StreamTag.WILLIE_H0, b).chisquare(spec.n, count))
        return r0, _output_radii(r, spec.n, rng)

    h0, h1 = map(np.concatenate, zip(*_map_blocks(block, total)))
    return h0, h1


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
        raise DomainError(
            f"willie_detect: need nonempty 1-D radius arrays, got {r0.shape} and {r1.shape}"
        )
    for r in (r0, r1):
        bad = ~(np.isfinite(r) & (r >= 0.0))
        if bad.any():
            raise DomainError(f"willie_detect: radius {r[bad][0]} is not finite and >= 0")
    thr = model._bayes_crossing() ** 2
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


def empirical_divergences(
    spec: TruncatedGaussianSpec, n_samples: int, seed: int
) -> tuple[Estimate, Estimate]:
    """(KL in bits, total variation), each with a standard error.

    KL is the sample mean of log2(f_bar/f0) under code-output radius draws.
    TVD uses the split identity V_T = (1/2)[E_P0 (1 - f_bar/f0)^+ +
    E_P1 (1 - f0/f_bar)^+]: each integrand lives in [0, 1] under its own
    measure, so the estimate cannot saturate the way the absolute-ratio form
    does when the hypotheses are nearly disjoint. The density ratio is read
    off a dense monotone interpolation table; its horizon lies ~16 sigma
    beyond the bulk, so the clipped tail is negligible
    (`RadialOutputDensity._ratio_at`).

    Stream contract v6: the radii are Willie's, drawn on the WILLIE_H1 and
    WILLIE_H0 streams, so the result equals the empirical KL and TVD of
    `simulate(spec, M, n_samples, seed)` for every M, bit for bit.
    """
    if n_samples < 2:
        raise DomainError(f"empirical_divergences: need n_samples >= 2, got {n_samples}")
    return _divergence_estimates(spec, *_detector_radii(spec, n_samples, seed), seed)


def _divergence_estimates(
    spec: TruncatedGaussianSpec, h0: np.ndarray, h1: np.ndarray, seed: int
) -> tuple[Estimate, Estimate]:
    """`empirical_divergences` from the radii of `_detector_radii`, read as
    views per block of `_map_blocks` and reduced in block order."""
    model = radial_output_density(spec)

    def one_block(b: int, count: int):
        at = slice(b * _MC_BLOCK, b * _MC_BLOCK + count)
        lr1 = model._ratio_at(h1[at])
        lr0 = model._ratio_at(h0[at])
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

    parts = _map_blocks(one_block, h0.size)
    sums = [math.fsum(p[i] for p in parts) for i in range(6)]
    m = float(h0.size)

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


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded,
    found among the libraries mapped into this process, or None."""
    import ctypes  # here, so importing the package does not load it

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    # numpy's wheels carry a scipy-openblas with 64-bit integers
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        for path in paths:
            try:
                get, put = (getattr(ctypes.CDLL(path), name.format(op)) for op in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _OneBlasThread:
    """OpenBLAS runs on one thread inside `with`. The count is process-wide,
    so the one in force when the first of overlapping blocks enters is put
    back when the last leaves. Does nothing where no OpenBLAS is found."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0 and (calls := _openblas_threads()):
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and (calls := _openblas_threads()):
                calls[1](self._saved)


# OpenBLAS's own worker thread speeds up none of Bob's small products, and
# takes the core `simulate`'s helper thread would compute on
_one_blas_thread = _OneBlasThread()


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
        return {**asdict(self), "detection": self.detection.to_dict()}


def simulate(spec: TruncatedGaussianSpec, M: int, trials: int, seed: int) -> SimulationResult:
    """Build a codebook, run Bob-decode and Willie-detect trials, and estimate
    the output divergences, all from one master seed.

    Decode error is pooled over uniformly drawn messages (the worst per-message
    rate is reported alongside). Willie's alternative draws a fresh shell
    codeword per trial: the code-ensemble output law whose V_T the closed
    forms predict. The decode estimate uses `trials` samples, and the detect
    and divergence estimates read the same `trials` radii per hypothesis, so
    the divergences equal `empirical_divergences(spec, trials, seed)`;
    `trials >= 2` and `M >= 2`, both checked before any work. One helper
    thread runs Willie's test and the divergences while the calling thread
    draws the codebook in its span (`_span_codebook`, stream contract v7, not
    `build_codebook`); then both take Bob's blocks from one queue, and a
    failure on either empties it and is raised here.
    OpenBLAS is held to one thread, process-wide, until the call returns (see
    the module docstring).
    """
    if trials < 2:
        raise DomainError(f"simulate: need trials >= 2, got {trials}")
    if M < 2:
        raise DomainError(f"simulate: need M >= 2, got {M}")
    t0 = time.perf_counter()
    counts = _map_blocks(lambda b, count: count, trials)
    blocks = deque(enumerate(counts))  # Bob's (b, count), taken by either thread

    def bob_side():
        """Per message, the trials sent and decoded wrong in the blocks this
        thread takes until none is left, drawn into its one noise buffer."""
        noise = np.empty((counts[0], coords.shape[1]))
        step = _rows_per_pass(coords.shape[1])
        sent, wrong = tally = np.zeros((2, M), dtype=np.int64)
        try:
            while True:
                try:
                    b, count = blocks.popleft()
                except IndexError:
                    return tally
                rng = _rng(seed, StreamTag.BOB_NOISE, b)
                w = rng.integers(0, M, size=count)
                y = rng.standard_normal(out=noise[:count])
                for a in range(0, count, step):  # no block-sized copy of coords[w]
                    y[a : a + step] += coords[w[a : a + step]]
                sent += np.bincount(w, minlength=M)
                wrong += np.bincount(w[_decode_errors(y, w, coords, coords_sq, table)], minlength=M)
        except BaseException:
            blocks.clear()  # so the other thread takes no further block
            raise

    def detector_side():
        h0, h1 = _detector_radii(spec, trials, seed)
        detection = willie_detect(h0, h1, radial_output_density(spec))
        return detection, *_divergence_estimates(spec, h0, h1, seed)

    with _one_blas_thread:
        # The detector side goes first, so the codebook is drawn beside it.
        # This thread, codebook and Bob's blocks alike, calls only private
        # kernels, so no public function runs beside willie_detect.
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="simkit-helper") as helper:
            detector = helper.submit(detector_side)
            coords, coords_sq = _span_codebook(spec, M, seed)
            table = _float32_table(coords, coords_sq) if M >= _FLOAT32_MIN_ROWS else None
            helper_bob = helper.submit(bob_side)
            sent, wrong = bob_side() + helper_bob.result()
            detection, kl, tvd = detector.result()
    decode_errors = int(wrong.sum())
    per_message = wrong[sent > 0] / sent[sent > 0]
    worst_message = float(per_message.max()) if per_message.size else 0.0

    return SimulationResult(
        decode_error_rate=decode_errors / trials,
        decode_error_worst_message=worst_message,
        decode_trials=trials,
        detection=detection,
        empirical_kl_bits=kl,
        empirical_tvd=tvd,
        config=dict(n=spec.n, psi=spec.psi, mu=spec.mu, M=M, trials=trials, seed=seed),
        wall_time=time.perf_counter() - t0,
    )
