import importlib
import inspect
import json
import math
import pkgutil
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import covertawgn
from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import simkit as sk
from covertawgn import truncgauss as tg
from covertawgn.errors import DomainError, NumericError


def _spec(n=16, psi=0.5, mu=0.7):
    return tg.TruncatedGaussianSpec(n=n, psi=psi, mu=mu)


def _norms(x):
    return np.linalg.norm(x, axis=1)


def test_stream_tags_are_frozen():
    # substream keys are part of the reproducibility contract
    assert int(sk.StreamTag.CODEBOOK) == 1
    assert int(sk.StreamTag.BOB_NOISE) == 2
    assert int(sk.StreamTag.WILLIE_H1) == 3
    assert int(sk.StreamTag.WILLIE_H0) == 4
    # v7: simulate draws its codebook in its span on a stream of its own
    assert int(sk.StreamTag.CODEBOOK_SPAN) == 6
    # v6 retired DIVERGENCE = 5; the divergences read Willie's radii, and 5
    # is never reused
    assert [int(t) for t in sk.StreamTag] == [1, 2, 3, 4, 6]
    assert "DIVERGENCE" not in sk.StreamTag.__members__


def test_build_codebook_deterministic():
    spec = _spec()
    a = sk.build_codebook(spec, 8, seed=101)
    b = sk.build_codebook(spec, 8, seed=101)
    c = sk.build_codebook(spec, 8, seed=102)
    np.testing.assert_array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)
    assert a.n == 16 and a.M == 8


def test_build_codebook_validation():
    with pytest.raises(DomainError):
        sk.build_codebook(_spec(), 1, seed=0)


def test_simulate_checks_M_before_sizing_bob_noise(monkeypatch):
    # the noise buffers are min(n, M) wide; a negative M used to reach
    # np.empty. The detector side is submitted before the codebook is built,
    # so a refused M must also start no thread and run no detector side.
    ran = []

    def recording(*args):
        ran.append(args)

    for name in ("_output_radii", "willie_detect", "_divergence_estimates"):
        monkeypatch.setattr(sk, name, recording)
    baseline = threading.active_count()
    for M in (-5, 1):
        with pytest.raises(DomainError) as err:
            sk.simulate(_spec(), M=M, trials=100, seed=0)
        assert str(err.value) == f"simulate: need M >= 2, got {M}"
    assert ran == []
    assert threading.active_count() == baseline


def test_negative_seed_is_a_domain_error_naming_it():
    # numpy's SeedSequence would refuse it with a bare ValueError
    for call in (
        lambda: sk.build_codebook(_spec(), 4, -1),
        lambda: sk.empirical_divergences(_spec(), 100, -1),
        lambda: sk.simulate(_spec(), M=4, trials=100, seed=-1),
    ):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            call()


def test_codebook_rejects_rows_off_shell():
    spec = _spec()
    rows = sk.build_codebook(spec, 4, seed=0).codewords
    pushed = rows.copy()
    pushed[2] *= 1.5  # pushed outside r_outer
    not_finite = rows.copy()
    not_finite[1, 3] = np.nan  # a NaN norm compares False against both radii
    for bad in (pushed, not_finite):
        with pytest.raises(DomainError, match="row norm"):
            sk.Codebook(spec=spec, codewords=bad)


def test_codebook_rejects_rows_of_wrong_length():
    spec = _spec()
    rows = np.zeros((4, spec.n + 1))
    with pytest.raises(DomainError, match=rf"shape \(4, {spec.n + 1}\) does not match n={spec.n}"):
        sk.Codebook(spec=spec, codewords=rows)


def test_codebook_copies_caller_rows_read_only():
    spec = _spec()
    rows = sk.build_codebook(spec, 4, seed=0).codewords.copy()
    cb = sk.Codebook(spec=spec, codewords=rows)
    kept = rows.copy()
    rows[:] = rows[::-1].copy()  # the caller edits its array after construction
    np.testing.assert_array_equal(cb.codewords, kept)
    with pytest.raises(ValueError):
        cb.codewords[0, 0] = 0.0


@pytest.mark.parametrize("n,M", [(3, 5), (5, 3), (4, 4), (2, 6)])
def test_span_codebook_gram_law_matches_explicit_codewords(n, M):
    # Bartlett: the span draw's Gram matrix has the law of M explicit shell
    # codewords'; each inner product <c_i, c_j>, i < j, and the determinant of
    # the leading k x k block, over 3000 seeds, by two-sample KS tests
    spec, k = _spec(n=n, psi=0.5, mu=0.6), min(n, M)
    upper = np.triu_indices(M, 1)

    def statistics(rows):
        gram = rows @ rows.T
        return np.append(gram[upper], np.linalg.det(gram[:k, :k]))

    span = np.array([statistics(sk._span_codebook(spec, M, s)[0]) for s in range(3000)])
    full = np.array([statistics(sk.build_codebook(spec, M, s).codewords) for s in range(3000)])
    p_min = min(stats.ks_2samp(a, b).pvalue for a, b in zip(span.T, full.T))
    assert p_min > 1e-3 / span.shape[1]  # 0.001 after Bonferroni


@pytest.mark.parametrize("n,M", [
    (64, 4), (64, 63), (64, 64), (64, 65), (512, 16), (64, 256), (16, 300), (1, 3),
])
def test_span_codebook_rows_sit_in_the_shell(n, M):
    spec = _spec(n=n, psi=0.2, mu=0.8)
    rows, rows_sq = sk._span_codebook(spec, M, seed=M)
    assert rows.shape == (M, min(n, M)) and rows.flags.c_contiguous
    assert not rows.flags.writeable and not rows_sq.flags.writeable
    np.testing.assert_array_equal(rows_sq, np.sum(rows**2, axis=1))
    assert np.array_equal(np.triu(rows, 1), np.zeros_like(rows))  # lower trapezoid
    tol = 1e-12 * spec.r_outer
    assert np.all((_norms(rows) >= spec.r_inner - tol) & (_norms(rows) <= spec.r_outer + tol))
    again, _ = sk._span_codebook(spec, M, seed=M)
    assert np.array_equal(rows, again)
    assert not np.array_equal(rows, sk._span_codebook(spec, M, seed=M + 1)[0])


@pytest.mark.parametrize("n,M", [(64, 4), (64, 63), (64, 64), (64, 65), (512, 16)])
def test_span_coordinates_reproduce_the_gram_matrix(n, M):
    # the span draw, padded to R^n and turned by a random rotation, is a shell
    # codebook of explicit n-vectors with the draw's Gram matrix; and the draw
    # is that codebook's lower-trapezoidal span coordinates (the Cholesky
    # factor of its Gram matrix), as v6's QR of C^T gave up to column signs
    spec, k = _spec(n=n, psi=0.2, mu=0.8), min(n, M)
    coords, coords_sq = sk._span_codebook(spec, M, seed=M)
    Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    cb = sk.Codebook(spec=spec, codewords=np.pad(coords, ((0, 0), (0, n - k))) @ Q)
    gram = cb.codewords @ cb.codewords.T
    assert np.max(np.abs(coords @ coords.T - gram)) <= 1e-12 * np.max(np.abs(gram))
    np.testing.assert_allclose(coords_sq, np.diag(gram), rtol=1e-12)
    L = np.linalg.cholesky(gram[:k, :k])
    assert np.max(np.abs(L - coords[:k])) <= 1e-9 * spec.r_outer


@pytest.mark.parametrize("n,M", [(64, 64), (64, 256), (16, 300)])
def test_span_is_the_codewords_where_they_span_r_n(n, M):
    # where n <= M the span is R^n itself: the draw's rows are n-vectors, a
    # codebook as they stand, with their own squared norms
    spec = _spec(n=n, psi=0.2, mu=0.8)
    coords, coords_sq = sk._span_codebook(spec, M, seed=M)
    cb = sk.Codebook(spec=spec, codewords=coords)
    assert coords.shape == (M, n)
    np.testing.assert_array_equal(cb.codewords, coords)
    np.testing.assert_array_equal(coords_sq, np.sum(cb.codewords**2, axis=1))
    assert not coords_sq.flags.writeable


def _counting_qr(monkeypatch, fail):
    calls, qr = [], np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        if fail:
            raise AssertionError("np.linalg.qr called")
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


@pytest.mark.parametrize("n,M", [(64, 64), (64, 256), (64, 63), (512, 16)])
def test_simulate_runs_no_qr_where_n_is_at_most_m(monkeypatch, n, M):
    # since stream contract v7 the codebook is drawn in its span, so no QR
    # runs where n > M either; the codeword energy n psi is 12.8 at every
    # shape, so some trials decode wrong and some right
    _counting_qr(monkeypatch, fail=True)
    res = sk.simulate(_spec(n=n, psi=12.8 / n, mu=0.8), M, trials=2000, seed=1)
    assert 0.0 < res.decode_error_rate < 1.0


@pytest.mark.parametrize("n,M", [(16, 300), (64, 64)])  # float32 check, float64 kernel
def test_decoder_is_rotation_invariant(n, M):
    # the stream-contract-v5 step: deciding c_w + z against C (v5) and
    # (c_w + z) Q against C Q (v4's span coordinates, C^T = Q R) is the same
    # decoder, so the decisions agree wherever the float64 scores are clear
    cb = sk.build_codebook(_spec(n=n, psi=0.3, mu=0.8), M, seed=n)
    C = cb.codewords
    Q = np.linalg.qr(C.T)[0]
    rng = np.random.default_rng(M)
    sent = rng.integers(0, M, 3000)
    z = rng.standard_normal((3000, n))
    y, CQ = C[sent] + z, C @ Q
    got = sk._nearest_float64(y, C, np.sum(C**2, axis=1))
    rotated = sk._nearest_float64(CQ[sent] + z @ Q, CQ, np.sum(CQ**2, axis=1))
    scores = np.sort(y @ C.T - 0.5 * np.sum(C**2, axis=1), axis=1)
    clear = scores[:, -1] - scores[:, -2] > 1e-9
    assert clear.sum() >= 2990 and 0.05 < np.mean(got != sent) < 0.95
    assert np.array_equal(got[clear], rotated[clear])
    # simulate's error check on the v5 span (n <= M: the codewords) says the same
    C_sq = np.sum(C**2, axis=1)
    table = sk._float32_table(C, C_sq) if M >= sk._FLOAT32_MIN_ROWS else None
    wrong = sk._decode_errors(y, sent, C, C_sq, table)
    assert np.array_equal(wrong, got != sent)
    assert np.array_equal(wrong[clear], rotated[clear] != sent[clear])


def test_codebook_avg_power_within_shell_band():
    spec = _spec(n=32, psi=0.25, mu=0.6)
    cb = sk.build_codebook(spec, 64, seed=5)
    avg_power = float(np.mean(np.sum(cb.codewords**2, axis=1))) / spec.n
    assert spec.mu**2 * spec.psi - 1e-12 <= avg_power <= spec.psi + 1e-12


def test_bob_decode_noiseless_and_batch_agree():
    cb = sk.build_codebook(_spec(), 8, seed=21)
    assert sk.bob_decode_batch(cb, cb.codewords).tolist() == list(range(8))
    rng = np.random.default_rng(0)
    ys = cb.codewords[rng.integers(0, 8, 100)] + 0.3 * rng.standard_normal((100, 16))
    # batch decisions are the row-wise minimum Euclidean distance
    nearest = [int(np.argmin(np.linalg.norm(cb.codewords - y, axis=1))) for y in ys]
    assert sk.bob_decode_batch(cb, ys).tolist() == nearest


@pytest.mark.parametrize("M", [8, 300])  # narrower and wider than the float32 error check
def test_bob_decode_rejects_malformed_input(M):
    cb = sk.build_codebook(_spec(), M, seed=21)
    for received in (cb.codewords[0], cb.codewords[:, :-1], np.zeros((2, 16, 1))):
        with pytest.raises(DomainError, match=r"need shape \(count, 16\), got "):
            sk.bob_decode_batch(cb, received)
    for first_bad in (float("nan"), float("inf"), -float("inf")):
        y = np.array(cb.codewords[:3])
        y[1, 4] = first_bad
        y[2, 0] = float("nan")
        with pytest.raises(DomainError, match=f"received value {first_bad} is not finite"):
            sk.bob_decode_batch(cb, y)


def test_bob_decode_tie_goes_to_lowest_index():
    spec = tg.TruncatedGaussianSpec(n=2, psi=1.0, mu=0.5)
    c0 = np.array([0.9, 0.0])
    c1 = np.array([-0.9, 0.0])
    cb = sk.Codebook(spec=spec, codewords=np.vstack([c0, c1]))
    assert sk.bob_decode_batch(cb, np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_antipodal_error_rate_matches_q_function():
    # n=1, codewords {+a, -a}: ML error probability is Q(a) exactly
    a = 1.0
    spec = tg.TruncatedGaussianSpec(n=1, psi=a * a, mu=0.5)
    cb = sk.Codebook(spec=spec, codewords=np.array([[a], [-a]]))
    rng = np.random.default_rng(8)
    trials = 200_000
    w = rng.integers(0, 2, trials)
    y = cb.codewords[w] + rng.standard_normal((trials, 1))
    err = float(np.mean(sk.bob_decode_batch(cb, y) != w))
    q_a = float(stats.norm.sf(a))
    se = math.sqrt(q_a * (1 - q_a) / trials)
    assert abs(err - q_a) <= 3 * se


def test_decoder_reliable_at_generous_power():
    spec = tg.TruncatedGaussianSpec(n=64, psi=4.0, mu=0.8)
    res = sk.simulate(spec, M=4, trials=20_000, seed=1)
    assert res.decode_error_rate < 1e-3
    assert res.decode_error_worst_message < 5e-3


def test_bob_decode_pinned_seeded_values():
    # stream contract v7: the codebook is drawn in its span (v5 and v6 gave
    # 0.07733333333333334 and 0.3157894736842105 on build_codebook's rows).
    # v5: at n <= M Bob's noise coordinates are in the standard basis (v4
    # gave 0.07883333333333334 and 0.34615384615384615 in a QR basis, with
    # the codebook radii from the rejection sampler; v3 gave
    # 0.08483333333333333 and 0.4117647058823529; v1 and v2 gave
    # 0.08033333333333334 and 0.35714285714285715 from full n-vectors)
    spec = tg.TruncatedGaussianSpec(n=32, psi=1.0, mu=0.7)
    res = sk.simulate(spec, M=256, trials=6000, seed=11)
    assert res.decode_error_rate == 0.09316666666666666
    assert res.decode_error_worst_message == 0.38095238095238093


def test_bob_decode_pinned_seeded_values_at_m_1024():
    # about a third of the trials decode wrong: the error check settles some
    # on the first columns alone and scores every other trial on all 1024
    # (stream contract v7; v5 and v6 gave 0.3223876953125 and
    # 0.7857142857142857, v4 0.3231201171875 and 0.9090909090909091)
    spec = tg.TruncatedGaussianSpec(n=64, psi=0.3, mu=0.8)
    res = sk.simulate(spec, M=1024, trials=16384, seed=5)
    assert res.decode_error_rate == 0.3231201171875
    assert res.decode_error_worst_message == 0.8181818181818182


def test_bob_decode_in_place_scores_match_reference():
    # the chunked kernel decides as one full score matrix does, on full
    # vectors and on span coordinates (k = n here), over two full steps and a
    # partial last one; at M = 16 a step spans many _DECODE_CHUNKs
    assert sk._rows_per_pass(16) > sk._DECODE_CHUNK
    for n, M in ((32, 64), (16, 16)):
        rows = 2 * sk._rows_per_pass(M) + 59
        cb = sk.build_codebook(_spec(n=n), M, seed=3)
        z = np.random.default_rng(4).standard_normal((rows, n))
        coords, coords_sq = cb.codewords, np.sum(cb.codewords**2, axis=1)
        for book, decide in (
            (cb.codewords, lambda y: sk.bob_decode_batch(cb, y)),
            (coords, lambda y: sk._nearest_float64(y, coords, coords_sq)),
        ):
            y = book[np.arange(rows) % M] + z
            assert np.array_equal(decide(y), _full_score_argmin(y, book))


def _full_score_argmin(points, rows):
    # the reference: one full float64 score matrix, lowest index on ties
    return np.argmin(np.sum(rows**2, axis=1)[None, :] - 2.0 * (points @ rows.T), axis=1)


def _wide_rows(M=300, k=8, seed=0):
    rows = np.random.default_rng(seed).standard_normal((M, k))
    assert M >= sk._FLOAT32_MIN_ROWS  # the float32 path
    return rows, np.sum(rows**2, axis=1)


def _assert_errors_match(points, sent, rows, float32=True):
    # the error check, on the float32 table or else on the float64 kernel,
    # says exactly what the float64 decisions say
    rows_sq = np.sum(rows**2, axis=1)
    table = sk._float32_table(rows, rows_sq) if float32 else None
    got = sk._decode_errors(points, sent, rows, rows_sq, table)
    assert got.dtype == bool
    assert np.array_equal(got, sk._nearest_float64(points, rows, rows_sq) != sent)
    return got


def test_float32_decode_exact_ties_go_to_lowest_index():
    # small integer coordinates keep every product and sum exact in either
    # precision, so duplicated rows tie exactly, as do midpoints of two rows
    rng = np.random.default_rng(1)
    rows = rng.integers(-3, 4, (1300, 8)).astype(float)
    rows[[200, 250, 299, 1030, 1099]] = rows[[10, 20, 10, 1020, 10]]
    rows_sq = np.sum(rows**2, axis=1)
    mid = 0.5 * (rows[rng.integers(0, 1300, 200)] + rows[rng.integers(0, 1300, 200)])
    points = np.vstack([rows[[10, 20, 200, 299, 1020, 1030, 1099]], mid])
    scores = np.sum(rows**2, axis=1)[None, :] - 2.0 * (points @ rows.T)
    ties = np.sum(scores == scores.min(axis=1, keepdims=True), axis=1) > 1
    assert ties[:7].all() and ties.sum() > 10
    got = sk._nearest_float64(points, rows, rows_sq)
    assert np.array_equal(got, _full_score_argmin(points, rows))
    assert got[:7].tolist() == [10, 20, 10, 10, 1020, 1020, 10]
    # a point on a duplicated row is right when sent as the lowest copy and
    # wrong when sent as a higher one, with the copies in one slab or across
    # the slab edges at 256 and 1024
    assert sk._slab_edges(1300) == [0, 256, 1024, 1300]
    for first in ([10, 20, 10, 10, 1020, 1020, 10], [200, 250, 299, 200, 1030, 1030, 1099]):
        for rest in (got[7:], rng.integers(0, 1300, 200)):
            wrong = _assert_errors_match(points, np.concatenate([first, rest]), rows)
            assert wrong[:7].tolist() == [first[0] != 10] * 7


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")  # the NaN rows
def test_float32_decode_non_finite_and_extreme_points():
    rows, rows_sq = _wide_rows()
    rng = np.random.default_rng(2)
    special = np.zeros((6, 8))
    special[0, 3] = np.nan
    special[1, 0] = np.inf
    special[2, 5] = -np.inf
    special[3, :2] = np.inf, -np.inf
    special[4] = np.nan
    special[5, 1] = np.inf
    points = np.vstack([
        special,
        1e30 * rng.standard_normal((50, 8)),    # finite in float32
        1e39 * rng.standard_normal((50, 8)),    # overflows float32, not float64
        1e200 * rng.standard_normal((10, 8)),   # ||y||^2 overflows float64
        1e-40 * rng.standard_normal((50, 8)),   # subnormal in float32
        rows[rng.integers(0, 300, 300)] + rng.standard_normal((300, 8)),
    ])
    got = sk._nearest_float64(points, rows, rows_sq)
    assert np.array_equal(got[6:], _full_score_argmin(points[6:], rows))
    for sent in (got, rng.integers(0, 300, got.size)):
        _assert_errors_match(points, sent, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 24),
    M=st.integers(sk._FLOAT32_MIN_ROWS, 1400),
    count=st.integers(1, 600),
    log_scale=st.floats(-30.0, 30.0),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_decode_matches_float64_kernel(k, M, count, log_scale, noise, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    rows = scale * rng.standard_normal((M, k))
    true_rows = rng.integers(0, M, count)
    points = rows[true_rows] + noise * scale * rng.standard_normal((count, k))
    for sent in (true_rows, rng.integers(0, M, count)):
        _assert_errors_match(points, sent, rows)


def test_decode_errors_rescore_near_ties_only(monkeypatch):
    # the near-ties above, sent as either of the two rows: right or wrong, the
    # float32 scores cannot tell; the clear points beside them are settled in
    # float32, right or wrong
    rows, _ = _wide_rows()
    rows[1] = rows[0] * (1.0 + 1e-7)
    s = np.concatenate([-np.logspace(-6, -2, 150), np.logspace(-6, -2, 150)])[:, None]
    points = np.vstack([rows[5:9] + 0.1, rows[[280, 299]], rows[0] * (1.0 + 5e-8 + s)])
    sent = np.concatenate([[5, 6, 7, 8, 3, 299], np.arange(300) % 2])
    rescored, float64_kernel = [], sk._nearest_float64

    def counting(p, r, r_sq):
        rescored.append(p.shape[0])
        return float64_kernel(p, r, r_sq)

    monkeypatch.setattr(sk, "_nearest_float64", counting)
    rows_sq = np.sum(rows**2, axis=1)
    got = sk._decode_errors(points, sent, rows, rows_sq, sk._float32_table(rows, rows_sq))
    monkeypatch.undo()
    assert np.array_equal(got, _full_score_argmin(points, rows) != sent)
    assert got[:6].tolist() == [False] * 4 + [True, False]
    assert got[6:].tolist() == [False, True] * 75 + [True, False] * 75
    assert rescored == [300]  # every clear point is settled in float32, right or wrong


def test_decode_errors_settle_later_slab_senders_on_the_first_slab(monkeypatch):
    # every point's s_w is known before any slab, so 20 points sent on rows
    # >= 1024 but lying on first-slab rows are settled wrong on the first
    # slab and never meet the table's NaN rows from 256 on; the 300 points
    # that decode right do meet them, and only they are rescored in float64
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((1300, 8))
    rows_sq = np.sum(rows**2, axis=1)
    right, far = rng.integers(0, 256, 300), rng.choice(np.arange(1024, 1300), 20, replace=False)
    points = rows[np.concatenate([right, rng.integers(0, 256, 20)])]
    sent = np.concatenate([right, far])
    table, bound = sk._float32_table(rows, rows_sq)
    poisoned = np.full_like(table, np.nan)
    poisoned[:256], poisoned[far] = table[:256], table[far]
    rescored, float64_kernel = [], sk._nearest_float64

    def counting(p, r, r_sq):
        rescored.append(p.shape[0])
        return float64_kernel(p, r, r_sq)

    monkeypatch.setattr(sk, "_nearest_float64", counting)
    got = sk._decode_errors(points, sent, rows, rows_sq, (poisoned, bound))
    monkeypatch.undo()
    assert np.array_equal(got, sk._nearest_float64(points, rows, rows_sq) != sent)
    assert got.tolist() == [False] * 300 + [True] * 20
    assert rescored == [300]


# the near and the far row in the first, second and third slab
@pytest.mark.parametrize("near,far", [(3, 280), (280, 3), (3, 1050), (1050, 3)])
def test_float32_overflow_certifies_nothing(near, far):
    # k = 1, y = 1.5e19: the far row's product y c = 3.75e38 overflows float32
    # to +inf, though its exact score 0.625e38 loses to the near row's 1e38;
    # every other row scores below 0. An infinite float32 gap must not count.
    rows = -np.linspace(1.0, 2.0, 1300)[:, None]
    rows[near], rows[far] = 1e19, 2.5e19
    rows_sq = np.sum(rows**2, axis=1)
    points = np.full((4, 1), 1.5e19)
    assert sk._nearest_float64(points, rows, rows_sq).tolist() == [near] * 4
    sent = np.array([near, far, near, far])
    table = sk._float32_table(rows, rows_sq)
    assert sk._decode_errors(points, sent, rows, rows_sq, table).tolist() == [False, True] * 2


@pytest.mark.parametrize("M", [256, 257, 1024, 1025, 1280, 4096, 4097])
@pytest.mark.parametrize("noise", [0.3, 3.0])  # mostly right, and mostly wrong
def test_decode_errors_at_the_first_stage_width(M, noise):
    # M at a slab edge or one past it; sent just below and just above 256,
    # 1024 and 4096; more points than one row chunk of the check holds
    rng = np.random.default_rng(M)
    rows = rng.standard_normal((M, 8))
    rows_sq = np.sum(rows**2, axis=1)
    edges = [e for e in (256, 1024, 4096) if e < M]
    # one past an edge joins the slab before it
    assert sk._slab_edges(M) == [0] + [e for e in edges if e + 256 <= M] + [M]
    count = max(sk._DECODE_CHUNK, sk._CHUNK_ELEMENTS // 9) + 59
    true_rows = rng.integers(0, M, count)
    near = [e + d for e in edges for d in (-1, 0)] + [0, M - 1]
    true_rows[: len(near)] = near
    points = rows[true_rows] + noise * rng.standard_normal((count, 8))
    decided = sk._nearest_float64(points, rows, rows_sq)
    table = sk._float32_table(rows, rows_sq)
    for sent in (true_rows, rng.integers(0, M, count), np.full(count, M - 1)):
        got = sk._decode_errors(points, sent, rows, rows_sq, table)
        assert np.array_equal(got, decided != sent)


def test_decode_errors_below_the_float32_width_is_the_float64_kernel(monkeypatch):
    rows = np.random.default_rng(3).standard_normal((sk._FLOAT32_MIN_ROWS - 1, 8))
    points, sent = rows[:5] + 0.5, np.arange(5)
    monkeypatch.setattr(sk, "_float32_table", None)  # never built
    _assert_errors_match(points, sent, rows, float32=False)


_SPEC_512 = tg.TruncatedGaussianSpec(512, pl.psi_suf(512, 0.05, 0.8, 1.0 + 1.0 / 512), 0.8)


def _span_codebook_in_r_n(spec, M, seed):
    # simulate's codebook as n-vectors: its span coordinates, zero-padded.
    # The decoder is rotation-invariant and the noise isotropic, so deciding
    # these is deciding the codebook the coordinates stand for
    rows, _ = sk._span_codebook(spec, M, seed)
    return sk.Codebook(spec=spec, codewords=np.pad(rows, ((0, 0), (0, spec.n - rows.shape[1]))))


def _full_vector_decode_error(spec, M, trials, seed):
    # the oracle: y = c_w + z in R^n, decided by bob_decode_batch
    cb = _span_codebook_in_r_n(spec, M, seed)
    rng = np.random.default_rng([seed, M])
    w = rng.integers(0, M, size=trials)
    y = cb.codewords[w] + rng.standard_normal((trials, spec.n))
    return float(np.mean(sk.bob_decode_batch(cb, y) != w))


@pytest.mark.parametrize("spec,M", [
    (_SPEC_512, 16),
    (_spec(n=64, psi=0.2, mu=0.8), 63),
    (_spec(n=64, psi=0.2, mu=0.8), 64),
    (_spec(n=64, psi=0.2, mu=0.8), 65),
], ids=["n512-M16", "n64-M63", "n64-M64", "n64-M65"])
def test_span_decode_matches_full_vector_oracle(spec, M):
    trials = 40_000
    got = sk.simulate(spec, M, trials, seed=6).decode_error_rate
    ref = _full_vector_decode_error(spec, M, trials, seed=6)
    se = math.sqrt((got * (1 - got) + ref * (1 - ref)) / trials)
    assert 0.05 < ref < 0.95  # a regime where the comparison has power
    assert abs(got - ref) <= 4 * se


def test_two_codeword_decode_error_matches_q_function():
    # M=2: the ML error is exactly Q(||c0 - c1|| / 2) for either message
    trials = 100_000
    got = sk.simulate(_SPEC_512, M=2, trials=trials, seed=8)
    c0, c1 = _span_codebook_in_r_n(_SPEC_512, 2, seed=8).codewords
    q = float(stats.norm.sf(np.linalg.norm(c0 - c1) / 2.0))
    assert abs(got.decode_error_rate - q) <= 4 * math.sqrt(q * (1 - q) / trials)


def test_simulate_and_decode_kernel_memory_stay_bounded():
    # a (trials, n) noise block at n = 4096, or a (4096, M) score block at
    # M = 4096, would alone be 128 MiB; at the k = 64, M = 4096 shape of a
    # simulate block the error check holds its 3 MiB score buffer and the
    # 1 MiB float32 table, and little else; at M = 16 the float64 kernel's
    # wider step holds a 512 KiB score buffer (0.9 MiB peak measured); at
    # n = 1e6, M = 256 the codebook is drawn in its 256-dimensional span, where
    # 256 n-vector codewords alone would be 1953 MiB
    spec = tg.TruncatedGaussianSpec(4096, 1 / 64, 0.95)
    n, mu = 10**6, 1.0 - 1.0 / (10**6 + 1)
    large = tg.TruncatedGaussianSpec(n, pl.psi_suf(n, 0.05, mu, pl.nu_lemma_shell(n)), mu)
    tg.radial_output_density(spec).ratio_table  # the model is cached per spec
    rng = np.random.default_rng(2)
    rows, points = rng.standard_normal((4096, 8)), rng.standard_normal((4096, 8))
    rows_sq, sent = np.sum(rows**2, axis=1), rng.integers(0, 4096, 4096)
    wide_rows = rng.standard_normal((4096, 64))
    wide_sq = np.sum(wide_rows**2, axis=1)
    wide_points = wide_rows[sent] + rng.standard_normal((4096, 64))
    narrow_rows = rng.standard_normal((16, 16))
    narrow_sq = np.sum(narrow_rows**2, axis=1)
    narrow_points = narrow_rows[rng.integers(0, 16, 40960)] + rng.standard_normal((40960, 16))
    for run, bound_mib in (
        (lambda: sk.simulate(spec, M=4, trials=4096, seed=1), 16),
        (lambda: sk._nearest_float64(points, rows, rows_sq), 16),
        (lambda: sk._decode_errors(points, sent, rows, rows_sq,
                                   sk._float32_table(rows, rows_sq)), 16),
        (lambda: sk._decode_errors(wide_points, sent, wide_rows, wide_sq,
                                   sk._float32_table(wide_rows, wide_sq)), 6),
        (lambda: sk._nearest_float64(narrow_points, narrow_rows, narrow_sq), 2),
        (lambda: sk.simulate(large, M=256, trials=4096, seed=1), 32),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def test_willie_detect_matches_interpolated_log_ratio():
    spec = _spec(n=16, psi=0.9, mu=0.7)
    model = tg.radial_output_density(spec)
    rng = np.random.default_rng(5)
    h0 = _norms(rng.standard_normal((4000, 16)))
    h1 = _norms(tg.sample_codewords(spec, 4000, rng) + rng.standard_normal((4000, 16)))
    det = sk.willie_detect(h0, h1, model)
    # the likelihood-ratio test, read off the model's own table
    assert det.beta == float(np.mean(np.interp(h0, *model.ratio_table) > 0.0))
    assert det.alpha == float(np.mean(np.interp(h1, *model.ratio_table) <= 0.0))
    # and densely across the one grid cell where the log ratio changes sign
    s, v = model.ratio_table
    i = int(np.argmax(v > 0.0))
    cell = np.linspace(s[i - 1], s[i], 1001)
    assert sk.willie_detect(cell, cell, model).beta == float(np.mean(np.interp(cell, s, v) > 0.0))
    assert 0.0 <= det.alpha <= 1.0 and 0.0 <= det.beta <= 1.0
    assert det.trials_h0 == det.trials_h1 == 4000
    assert det.std_err > 0.0
    assert det.to_dict()["sum_error"] == pytest.approx(det.alpha + det.beta)


_MODEL_16 = tg.radial_output_density(_spec(n=16, psi=0.9, mu=0.7))
_S_TOP = float(_MODEL_16.ratio_table[0][-1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.5 * _S_TOP), min_size=1, max_size=40))
def test_willie_detect_decides_by_the_sign_of_the_log_ratio(radii):
    # one radius per call: beta is that radius's decision under the energy
    # test, which must be the likelihood-ratio test's sign, radius by radius
    for r in radii:
        det = sk.willie_detect(np.array([r]), np.array([r]), _MODEL_16)
        says_h1 = float(np.interp(r, *_MODEL_16.ratio_table)) > 0.0
        assert (det.beta, det.alpha) == (float(says_h1), float(not says_h1))


def test_willie_detect_input_errors():
    spec = _spec()
    model = tg.radial_output_density(spec)
    rng = np.random.default_rng(0)
    obs = _norms(rng.standard_normal((10, 16)))
    with pytest.raises(DomainError):
        sk.willie_detect(obs[:0], obs, model)
    with pytest.raises(DomainError):  # observation matrices, not radii
        sk.willie_detect(obs[:, None], obs[:, None], model)
    nan = float("nan")
    for h0, h1, first_bad in (
        ([nan, nan], [-3.0, nan], "nan"),
        (obs, [1.0, -3.0, nan], "-3.0"),
        ([2.0, math.inf], obs, "inf"),
    ):
        with pytest.raises(DomainError, match=f"radius {first_bad} "):
            sk.willie_detect(h0, h1, model)


def test_detection_floor_matches_total_variation():
    # alpha + beta >= 1 - V_T - 3 se for the Bayes threshold
    n, delta = 64, 0.05
    psi = pl.psi_suf(n, delta, 0.8, 1.0 + 1.0 / n)
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=0.8)
    model = tg.radial_output_density(spec)
    rep = tg.output_divergences_quadrature(model)
    rng = np.random.default_rng(31)
    m = 30_000
    h0 = _norms(rng.standard_normal((m, n)))
    h1 = _norms(tg.sample_codewords(spec, m, rng) + rng.standard_normal((m, n)))
    det = sk.willie_detect(h0, h1, model=model)
    assert det.sum_error >= 1.0 - rep.tvd - 3.0 * det.std_err


def test_empirical_divergences_match_quadrature():
    n, delta = 64, 0.05
    psi = pl.psi_suf(n, delta, 0.8, 1.0 + 1.0 / n)
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=0.8)
    model = tg.radial_output_density(spec)
    rep = tg.output_divergences_quadrature(model)
    kl, tvd = sk.empirical_divergences(spec, 150_000, seed=9)
    assert abs(kl.value - rep.kl_bits) <= 4 * kl.std_err
    assert abs(tvd.value - rep.tvd) <= 4 * tvd.std_err


# ((KL bits, std_err), (TVD, std_err)) of simulate(spec, 16, 40000, seed)
# under stream contract v5, which drew the divergences' own radii on the
# retired stream 5
_V5_DIVERGENCES = {
    "mc_detect": {
        0: ((0.05288940263988762, 0.0018899362025184836), (0.10400124676277997, 0.0004635504212160692)),
        1: ((0.04666455818511299, 0.0018958356664950428), (0.10317428748431201, 0.000461633598097509)),
        2: ((0.049052085101953045, 0.001897745723634722), (0.10401726147723193, 0.00046413868905584234)),
    },
    "thin_shell": {
        0: ((0.052438234970437356, 0.0018911656905270739), (0.10400299258439752, 0.0004633617095253368)),
        1: ((0.04703370145958588, 0.001894474450086088), (0.10319421730707151, 0.0004616011813834287)),
        2: ((0.049229351271560626, 0.001898062805752786), (0.10407755609730135, 0.0004646259059440564)),
    },
}


@pytest.mark.parametrize("shape", sorted(_V5_DIVERGENCES))
def test_v6_divergences_agree_with_quadrature_and_with_v5(shape):
    # stream contract v6 reads Willie's radii: its KL and TVD lie within 5
    # standard errors of the quadrature and, in the se of the difference, of
    # v5's estimates; at the mc_detect benchmark shape (mu = 0.8, Gamma
    # proposal) and at the planner-default thin shell (mu = 1 - 1/(n+1),
    # uniform proposal)
    n, delta = 512, 0.05
    mu = 0.8 if shape == "mc_detect" else pl.CovertParams.defaults(n, delta).mu
    spec = tg.TruncatedGaussianSpec(n=n, psi=pl.psi_suf(n, delta, mu, pl.nu_lemma_shell(n)), mu=mu)
    assert tg._radius_proposal(spec)[0] == (shape == "thin_shell")
    rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
    for seed, (kl5, tvd5) in _V5_DIVERGENCES[shape].items():
        res = sk.simulate(spec, M=16, trials=40_000, seed=seed)
        for v6, (v5, se5), exact in (
            (res.empirical_kl_bits, kl5, rep.kl_bits),
            (res.empirical_tvd, tvd5, rep.tvd),
        ):
            assert abs(v6.value - exact) <= 5.0 * v6.std_err
            assert abs(v6.value - v5) <= 5.0 * math.hypot(v6.std_err, se5)


def test_empirical_tvd_does_not_saturate_when_laws_separate():
    # positive-part estimator keeps working when the hypotheses are far apart
    spec = tg.TruncatedGaussianSpec(n=64, psi=4.0, mu=0.8)
    _, tvd = sk.empirical_divergences(spec, 20_000, seed=3)
    assert tvd.value > 0.99


def test_empirical_divergences_validation():
    with pytest.raises(DomainError):
        sk.empirical_divergences(_spec(), 1, seed=0)


# the full-vector oracle: ||x + z|| from explicit codewords and noise vectors
@pytest.mark.parametrize("n", [1, 16, 512])
@pytest.mark.parametrize("law", ["h1_ensemble", "h1_rows", "h0"])
def test_radial_draws_match_full_vector_oracle(n, law):
    spec = _spec(n=n, psi=0.8, mu=0.5 if n == 1 else 0.7)
    m = 10_000
    rng, oracle = np.random.default_rng([n, 1]), np.random.default_rng([n, 2])
    if law == "h1_ensemble":
        radial = sk._output_radii(tg._sample_radii(spec, m, rng), n, rng)
        x = tg.sample_codewords(spec, m, oracle)
    elif law == "h1_rows":
        cb = sk.build_codebook(spec, 4, seed=n)
        radial = sk._output_radii(_norms(cb.codewords)[rng.integers(0, 4, m)], n, rng)
        x = cb.codewords[oracle.integers(0, 4, m)]
    else:
        radial = np.sqrt(rng.chisquare(n, m))
        x = np.zeros((m, n))
    full = _norms(x + oracle.standard_normal((m, n)))
    assert stats.ks_2samp(radial, full).pvalue > 1e-3


def test_triangle_chain_bounds_codebook_output():
    # V_T(code output, noise) <= V_T(isotropic) + (1 - Delta) + 3 se
    n, delta = 64, 0.05
    psi = pl.psi_suf(n, delta, 0.8, 1.0 + 1.0 / n)
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=0.8)
    _, tvd = sk.empirical_divergences(spec, 100_000, seed=12)
    iso = dv.tvd_isotropic_exact(dv.IsotropicGaussianPair(n, 1.0 + spec.mu * spec.psi))
    assert tvd.value <= iso + (1.0 - spec.delta_mass) + 3.0 * tvd.std_err


def test_simulate_detector_side_equals_its_sequential_composition():
    # Willie's radii drawn by hand, then his test, then the divergences on the
    # same radii: what the helper thread computes beside Bob's decode, to the
    # last bit; the public empirical_divergences draws the same radii
    spec, trials, seed = _spec(n=16, psi=0.8, mu=0.7), 5000, 42
    res = sk.simulate(spec, M=4, trials=trials, seed=seed)
    h0, h1 = [], []
    for b, lo in enumerate(range(0, trials, sk._MC_BLOCK)):
        count = min(sk._MC_BLOCK, trials - lo)
        rng = sk._rng(seed, sk.StreamTag.WILLIE_H1, b)
        r = tg._sample_radii(spec, count, rng)
        h0.append(np.sqrt(sk._rng(seed, sk.StreamTag.WILLIE_H0, b).chisquare(spec.n, count)))
        h1.append(sk._output_radii(r, spec.n, rng))
    model = tg.radial_output_density(spec)
    h0, h1 = np.concatenate(h0), np.concatenate(h1)
    assert res.detection == sk.willie_detect(h0, h1, model)
    kl, tvd = sk._divergence_estimates(spec, h0, h1, seed)
    assert res.empirical_kl_bits == kl
    assert res.empirical_tvd == tvd
    assert sk.empirical_divergences(spec, trials, seed) == (kl, tvd)


def _without_wall_time(res):
    d = res.to_dict()
    d.pop("wall_time")
    return d


def _recording(kernel, threads):
    def wrapped(*args):
        threads.append(threading.get_ident())
        return kernel(*args)
    return wrapped


def _recording_bob_draws(monkeypatch):
    # (block, thread) for each of Bob's noise blocks drawn, in draw order
    draws, rng = [], sk._rng

    def recording(seed, tag, block):
        if tag == sk.StreamTag.BOB_NOISE:
            draws.append((block, threading.get_ident()))
        return rng(seed, tag, block)

    monkeypatch.setattr(sk, "_rng", recording)
    return draws


@pytest.fixture
def blas_get():
    # OpenBLAS's thread-count getter with the count set to 2 for the test and
    # put back after it, or None where no OpenBLAS is found
    calls = sk._openblas_threads()
    if calls is None:
        yield None
        return
    get, put = calls
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


def _two_blas_threads(get):
    if get is None:
        pytest.skip("no OpenBLAS among the libraries this process loaded")
    if get() != 2:
        pytest.skip("this OpenBLAS does not run two threads")
    return get


def test_detector_side_error_leaves_simulate_unchanged(monkeypatch, blas_get):
    failure = NumericError("synthetic detector-side failure")

    def fail(*args, **kwargs):
        raise failure

    # the divergences' reduction of Willie's radii, on the helper thread
    monkeypatch.setattr(sk, "_divergence_estimates", fail)
    baseline = threading.active_count()
    blas_before = blas_get and blas_get()
    with pytest.raises(NumericError) as raised:
        sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=4, trials=5000, seed=1)
    assert raised.value is failure
    assert threading.active_count() == baseline  # the helper thread joined
    assert (blas_get and blas_get()) == blas_before


def test_simulate_computes_on_the_caller_and_one_helper_thread(monkeypatch):
    # every detector-side draw (Willie's H1 radii, which the divergences also
    # read) on one thread other than the caller; each of Bob's blocks drawn
    # and decoded exactly once, on the caller or on that helper
    decode_threads, draw_threads = [], []
    monkeypatch.setattr(sk, "_decode_errors", _recording(sk._decode_errors, decode_threads))
    monkeypatch.setattr(sk, "_output_radii", _recording(sk._output_radii, draw_threads))
    bob_draws = _recording_bob_draws(monkeypatch)
    baseline = threading.active_count()
    trials = 3 * sk._MC_BLOCK
    sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=4, trials=trials, seed=3)
    caller = threading.get_ident()
    assert len(draw_threads) == 3  # three H1 blocks, drawn once
    assert len(set(draw_threads)) == 1
    helper = draw_threads[0]
    assert helper != caller
    assert sorted(b for b, _ in bob_draws) == [0, 1, 2]
    assert sorted(t for _, t in bob_draws) == sorted(decode_threads)
    assert set(decode_threads) <= {caller, helper}
    assert threading.active_count() == baseline


def test_simulate_calling_thread_enters_no_other_public_function():
    # the codebook is drawn and Bob's blocks decoded by private kernels, so no
    # public function the tracer wraps runs on the caller beside the helper's
    # willie_detect; sys.setprofile sees only the thread that sets it
    public = {}
    for info in pkgutil.iter_modules(covertawgn.__path__):
        module = importlib.import_module(f"covertawgn.{info.name}")
        for name in module.__all__:
            if inspect.isfunction(obj := getattr(module, name)):
                public[obj.__code__] = f"{info.name}.{name}"
    assert "simkit.build_codebook" in public.values()
    for n, M in ((16, 300), (512, 16)):
        spec, entered = _spec(n=n, psi=0.2, mu=0.8), []

        def record(frame, event, arg):
            if event == "call" and frame.f_code in public:
                entered.append(public[frame.f_code])

        sys.setprofile(record)
        try:
            sk.simulate(spec, M, trials=2 * sk._MC_BLOCK + 1, seed=1)
        finally:
            sys.setprofile(None)
        assert entered == ["simkit.simulate"], (n, M)


def _scheduled_blocks(monkeypatch, on_caller):
    # Bob's block queue, with block b taken by the calling thread exactly
    # where on_caller(b): a thread waits until the head block is its own or
    # the queue is empty. Returns the queues simulate makes.
    caller, turn, queues = threading.get_ident(), threading.Condition(), []

    class Scheduled(sk.deque):
        def __init__(self, *args):
            super().__init__(*args)
            queues.append(self)

        def popleft(self):
            mine = threading.get_ident() == caller
            with turn:
                assert turn.wait_for(lambda: not self or on_caller(self[0][0]) == mine, timeout=60)
                task = super().popleft()  # IndexError once the queue is empty
                turn.notify_all()
                return task

        def clear(self):
            with turn:
                super().clear()
                turn.notify_all()

    monkeypatch.setattr(sk, "deque", Scheduled)
    return queues


@pytest.mark.parametrize("M", [4, 300])  # the float64 and the float32 error check
@pytest.mark.parametrize("schedule", ["caller", "helper", "alternating"])
def test_simulate_is_byte_identical_under_any_block_schedule(monkeypatch, schedule, M):
    # every one of Bob's blocks taken by the caller, every one by the helper
    # thread, or the two alternating: the results of a normal run, to the last bit
    spec, trials = _spec(n=16, psi=0.8, mu=0.7), 3 * sk._MC_BLOCK + 5
    expected = _without_wall_time(sk.simulate(spec, M, trials, seed=9))
    on_caller = {
        "caller": lambda b: True,
        "helper": lambda b: False,
        "alternating": lambda b: b % 2 == 0,
    }[schedule]
    _scheduled_blocks(monkeypatch, on_caller)
    decode_threads = []
    monkeypatch.setattr(sk, "_decode_errors", _recording(sk._decode_errors, decode_threads))
    bob_draws = _recording_bob_draws(monkeypatch)
    assert _without_wall_time(sk.simulate(spec, M, trials, seed=9)) == expected
    caller = threading.get_ident()
    assert sorted(b for b, _ in bob_draws) == [0, 1, 2, 3]
    assert all((t == caller) == on_caller(b) for b, t in bob_draws)
    assert sorted(decode_threads) == sorted(t for _, t in bob_draws)


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_bob_side_error_stops_both_threads(monkeypatch, blas_get, failing):
    # a NumericError in one thread's decode is raised from simulate as is;
    # the other thread, held inside its own block until the queue is
    # emptied, takes no further block, and the helper joins
    failure = NumericError(f"synthetic decode failure on the {failing}")
    caller, decode_errors = threading.get_ident(), sk._decode_errors
    other_in = threading.Event()
    queues = _scheduled_blocks(monkeypatch, lambda b: b % 2 == 0)

    def decode(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            assert other_in.wait(timeout=60)
            raise failure
        other_in.set()
        deadline = time.monotonic() + 60
        while queues[0] and time.monotonic() < deadline:
            time.sleep(1e-3)
        return decode_errors(*args)

    monkeypatch.setattr(sk, "_decode_errors", decode)
    bob_draws = _recording_bob_draws(monkeypatch)
    baseline = threading.active_count()
    blas_before = blas_get and blas_get()
    with pytest.raises(NumericError) as raised:
        sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=4, trials=6 * sk._MC_BLOCK, seed=1)
    assert raised.value is failure
    assert sorted(b for b, _ in bob_draws) == [0, 1]  # one block each, of six
    assert threading.active_count() == baseline
    assert (blas_get and blas_get()) == blas_before


def test_simulate_holds_openblas_to_one_thread_and_restores_it(monkeypatch, blas_get):
    get = _two_blas_threads(blas_get)
    during = []
    decode_errors = sk._decode_errors

    def reading(*args):
        during.append(get())
        return decode_errors(*args)

    monkeypatch.setattr(sk, "_decode_errors", reading)
    sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=300, trials=5000, seed=1)
    assert during == [1, 1]
    assert get() == 2


def test_overlapping_simulate_calls_restore_the_blas_thread_count(monkeypatch, blas_get):
    # two user threads: the first call leaves while the second is inside, so
    # the count stays 1 until the second leaves, and is then what it was
    # before either call
    get = _two_blas_threads(blas_get)
    first_in, second_in, first_left = threading.Event(), threading.Event(), threading.Event()
    decode_errors, failures = sk._decode_errors, []

    def pacing(*args):
        if threading.current_thread().name == "first":
            first_in.set()
            assert second_in.wait(timeout=60)
        else:
            second_in.set()
            assert first_left.wait(timeout=60)
        return decode_errors(*args)

    def run():
        try:
            sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=300, trials=5000, seed=1)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    monkeypatch.setattr(sk, "_decode_errors", pacing)
    first = threading.Thread(target=run, name="first")
    second = threading.Thread(target=run, name="second")
    first.start()
    assert first_in.wait(timeout=60)
    second.start()
    first.join(timeout=60)
    assert not first.is_alive()
    inside = get()
    first_left.set()
    second.join(timeout=60)
    assert not second.is_alive() and failures == []
    assert inside == 1
    assert get() == 2


def test_concurrent_simulate_calls_hold_and_restore_the_blas_thread_count(monkeypatch, blas_get):
    # more user threads than cores, switching often: a lost update of the
    # count of open calls would restore the count inside a call or leave it
    # at 1 after all of them
    get = _two_blas_threads(blas_get)
    during, failures = [], []
    decode_errors = sk._decode_errors

    def reading(*args):
        during.append(get())
        return decode_errors(*args)

    def run(seed):
        try:
            for _ in range(2):
                sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=300, trials=5000, seed=seed)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    monkeypatch.setattr(sk, "_decode_errors", reading)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and failures == []
    assert during == [1] * 16  # 4 threads x 2 calls x 2 blocks
    assert get() == 2


def test_simulate_builds_the_float32_table_once(monkeypatch):
    # one table per simulate call, read-only like the span coordinates, for
    # all of its blocks
    built, original = [], sk._float32_table

    def counting(rows, rows_sq):
        built.append(rows.shape)
        return original(rows, rows_sq)

    monkeypatch.setattr(sk, "_float32_table", counting)
    sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=300, trials=3 * sk._MC_BLOCK, seed=3)
    assert built == [(300, 16)]
    C = sk.build_codebook(_spec(n=16, psi=0.8, mu=0.7), 300, seed=3).codewords
    table, _ = sk._float32_table(C, np.sum(C**2, axis=1))
    assert table.shape == (300, 17) and table.dtype == np.float32
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


@pytest.mark.parametrize("M", [255, 256])
def test_simulate_scores_in_float32_from_256_rows(monkeypatch, M):
    # simulate is where the rule lives: below 256 codewords it builds no
    # table and every block takes the float64 kernel; from 256 on, one table
    # serves every block
    built, tables = [], []
    float32_table, decode_errors = sk._float32_table, sk._decode_errors

    def counting(rows, rows_sq):
        built.append(rows.shape[0])
        return float32_table(rows, rows_sq)

    def reading(points, sent, rows, rows_sq, table):
        tables.append(table)
        return decode_errors(points, sent, rows, rows_sq, table)

    monkeypatch.setattr(sk, "_float32_table", counting)
    monkeypatch.setattr(sk, "_decode_errors", reading)
    sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M, trials=2 * sk._MC_BLOCK, seed=3)
    assert len(tables) == 2
    if M < 256:
        assert built == [] and tables == [None, None]
    else:
        assert built == [M] and tables[0] is tables[1] is not None


def test_simulate_pinned_seeded_values():
    # stream contract v7: these exact values change only with a documented
    # bump. v7 moved only the two decode fields, now on the span-drawn
    # codebook (v6: 0.06325 and 0.08121827411167512). v6 moved only the
    # empirical divergences, which now read Willie's radii (v5: KL
    # 1.3441503309140361, std_err 0.03439039329506543; TVD
    # 0.4851924082832678, std_err 0.0040183613069751925). Under v5 (n > M
    # here, so as in v4) the KL alone moved from 1.3441503309140383,
    # with every draw unchanged, when the radius law's Gamma density was
    # rewritten about its mean, and from 1.3441503309140364 when its band
    # half-width became r_outer (1 - mu) / 2. The KL (from 1.3441503309140368)
    # and the TVD (from 0.48519240828326776, std_err 0.004018361306975193)
    # moved, with every draw unchanged, when the incomplete gamma's prefactor
    # was written about the mean, through Delta. v4 moved every field drawn from
    # shell radii (v3: decode 0.03275, alpha 0.28025, KL 1.34517, TVD
    # 0.48366); v3 moved only the two decode fields (v2: 0.03375,
    # 0.04263959390862944)
    spec = _spec(n=16, psi=0.8, mu=0.7)
    d = sk.simulate(spec, M=4, trials=4000, seed=42).to_dict()
    d.pop("wall_time")
    assert d == {
        "decode_error_rate": 0.07225,
        "decode_error_worst_message": 0.09035532994923857,
        "decode_trials": 4000,
        "detection": {
            "threshold": 19.777861168093956,
            "alpha": 0.262,
            "beta": 0.22775,
            "sum_error": 0.48975,
            "trials_h0": 4000,
            "trials_h1": 4000,
            "std_err": 0.009607756469384516,
        },
        "empirical_kl_bits": {"value": 1.4934307751994784, "std_err": 0.03507571062766607},
        "empirical_tvd": {"value": 0.49698439339159767, "std_err": 0.004007271426391374},
        "config": {
            "n": 16, "psi": 0.8, "mu": 0.7, "M": 4, "trials": 4000, "seed": 42,
        },
    }


def test_simulate_pinned_seeded_values_on_a_narrow_codebook():
    # stream contract v7 at n = 512 > M = 16: Bob decodes in span coordinates
    # over three blocks, the last one partial; how many points the kernels
    # take per step must not move these. v7 moved only the two decode fields,
    # now on the span-drawn codebook, not on QR coordinates of
    # build_codebook's (v6: 0.007555555555555556 and 0.016216216216216217).
    # v6 moved only the empirical divergences (v5: KL 0.28767317919814794, std_err
    # 0.009812031478675542; TVD 0.2476898120573509, std_err
    # 0.0019156322246467064)
    spec = tg.TruncatedGaussianSpec(n=512, psi=0.05, mu=0.8)
    d = sk.simulate(spec, M=16, trials=9000, seed=29).to_dict()
    d.pop("wall_time")
    assert d == {
        "decode_error_rate": 0.009888888888888888,
        "decode_error_worst_message": 0.014760147601476014,
        "decode_trials": 9000,
        "detection": {
            "threshold": 522.1063693948122,
            "alpha": 0.38177777777777777,
            "beta": 0.36777777777777776,
            "sum_error": 0.7495555555555555,
            "trials_h0": 9000,
            "trials_h1": 9000,
            "std_err": 0.007215267686752529,
        },
        "empirical_kl_bits": {"value": 0.2879024364373915, "std_err": 0.009720104165321326},
        # std_err read ...366 while the log ratio's log-sum-exp copied scipy's rounding
        "empirical_tvd": {"value": 0.24704387569658337, "std_err": 0.0019076750144097368},
        "config": {
            "n": 512, "psi": 0.05, "mu": 0.8, "M": 16, "trials": 9000, "seed": 29,
        },
    }


def test_simulate_smoke_at_n_1():
    spec = tg.TruncatedGaussianSpec(n=1, psi=1.0, mu=0.5)
    res = sk.simulate(spec, M=2, trials=3000, seed=5)
    assert 0.0 <= res.decode_error_rate <= 1.0
    assert 0.0 <= res.detection.sum_error <= 2.0
    assert math.isfinite(res.empirical_kl_bits.value) and res.empirical_tvd.value > 0.0


def test_simulate_rejects_small_trials_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulate did work before validating its arguments")

    monkeypatch.setattr(sk, "_span_codebook", no_work)
    spec = _spec()
    for trials in (1, 0):
        with pytest.raises(DomainError, match="trials >= 2, got"):
            sk.simulate(spec, M=4, trials=trials, seed=0)


def test_simulate_never_inverts_the_gamma_cdf(monkeypatch):
    # shell radii come from the rejection sampler, not scipy's gammaincinv
    def refuse(*args):
        raise AssertionError("gammaincinv called")

    monkeypatch.setattr(special, "gammaincinv", refuse)
    res = sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=4, trials=3000, seed=1)
    assert res.decode_trials == 3000


def test_simulate_builds_ratio_table_once(monkeypatch):
    calls = []
    original = tg.RadialOutputDensity.log_density_ratio

    def counting(self, y_norm):
        calls.append(np.size(y_norm))
        return original(self, y_norm)

    monkeypatch.setattr(tg.RadialOutputDensity, "log_density_ratio", counting)
    sk.simulate(_spec(n=16, psi=0.8, mu=0.7), M=4, trials=3000, seed=1)
    assert calls == [4096]  # the one table build, none per sample batch


def test_quadrature_after_simulate_reuses_the_ratio_table(monkeypatch):
    spec = _spec(n=16, psi=0.8, mu=0.7)
    sk.simulate(spec, M=4, trials=3000, seed=1)
    calls = []
    original = tg.RadialOutputDensity.log_density_ratio

    def counting(self, y_norm):
        calls.append(np.size(y_norm))
        return original(self, y_norm)

    monkeypatch.setattr(tg.RadialOutputDensity, "log_density_ratio", counting)
    rep = tg.output_divergences_quadrature(tg.radial_output_density(spec))
    assert calls == []  # the quadrature integrates the table simulate built
    assert rep.kl_bits > 0.0


def test_simulate_builds_output_model_once_per_spec(monkeypatch):
    calls = []
    original = tg.RadialOutputDensity.log_density_ratio

    def counting(self, y_norm):
        calls.append(np.size(y_norm))
        return original(self, y_norm)

    monkeypatch.setattr(tg.RadialOutputDensity, "log_density_ratio", counting)
    spec = _spec(n=16, psi=0.8, mu=0.7)
    sk.simulate(spec, M=4, trials=3000, seed=1)
    sk.simulate(spec, M=4, trials=3000, seed=2)
    assert calls == [4096]  # the second call reuses the spec's model and table
    assert tg.radial_output_density(spec) is tg.radial_output_density(spec)


def test_simulate_result_fields():
    spec = _spec(n=16, psi=0.8, mu=0.7)
    res = sk.simulate(spec, M=4, trials=3000, seed=7)
    assert res.decode_trials == 3000
    assert 0.0 <= res.decode_error_rate <= 1.0
    assert res.decode_error_worst_message >= res.decode_error_rate
    assert res.detection.trials_h0 == res.detection.trials_h1 == 3000
    d = res.to_dict()
    assert d["config"]["n"] == 16
    assert "value" in d["empirical_kl_bits"]
    assert json.loads(json.dumps(d)) == d
    with pytest.raises(DomainError):
        sk.simulate(spec, M=4, trials=0, seed=7)
