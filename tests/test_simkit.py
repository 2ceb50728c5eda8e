import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import simkit as sk
from covertawgn import truncgauss as tg
from covertawgn.errors import DomainError, InputError


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
    assert int(sk.StreamTag.DIVERGENCE) == 5


def test_build_codebook_deterministic():
    spec = _spec()
    a = sk.build_codebook(spec, 8, seed=101)
    b = sk.build_codebook(spec, 8, seed=101)
    c = sk.build_codebook(spec, 8, seed=102)
    np.testing.assert_array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)
    assert a.n == 16 and a.M == 8 and a.seed == 101


def test_build_codebook_validation():
    with pytest.raises(DomainError):
        sk.build_codebook(_spec(), 1, seed=0)


def test_codebook_rejects_rows_off_shell():
    spec = _spec()
    rows = sk.build_codebook(spec, 4, seed=0).codewords
    pushed = rows.copy()
    pushed[2] *= 1.5  # pushed outside r_outer
    not_finite = rows.copy()
    not_finite[1, 3] = np.nan  # a NaN norm compares False against both radii
    for bad in (pushed, not_finite):
        with pytest.raises(DomainError, match="row norm"):
            sk.Codebook(spec=spec, codewords=bad, seed=0)


def test_codebook_copies_caller_rows_read_only():
    spec = _spec()
    rows = sk.build_codebook(spec, 4, seed=0).codewords.copy()
    cb = sk.Codebook(spec=spec, codewords=rows, seed=0)
    kept = rows.copy()
    rows[:] = rows[::-1].copy()  # the caller edits its array after construction
    np.testing.assert_array_equal(cb.codewords, kept)
    with pytest.raises(ValueError):
        cb.codewords[0, 0] = 0.0


@pytest.mark.parametrize("n,M", [(64, 4), (64, 63), (64, 64), (64, 65), (512, 16)])
def test_span_coordinates_reproduce_the_gram_matrix(n, M):
    cb = sk.build_codebook(_spec(n=n, psi=0.2, mu=0.8), M, seed=M)
    coords, coords_sq = cb._span
    assert coords.shape == (M, min(n, M)) and coords.flags.c_contiguous
    gram = cb.codewords @ cb.codewords.T
    assert np.max(np.abs(coords @ coords.T - gram)) <= 1e-12 * np.max(np.abs(gram))
    np.testing.assert_allclose(coords_sq, np.diag(gram), rtol=1e-12)
    assert cb._span is cb._span  # computed once per codebook


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


def test_bob_decode_tie_goes_to_lowest_index():
    spec = tg.TruncatedGaussianSpec(n=2, psi=1.0, mu=0.5)
    c0 = np.array([0.9, 0.0])
    c1 = np.array([-0.9, 0.0])
    cb = sk.Codebook(spec=spec, codewords=np.vstack([c0, c1]), seed=0)
    assert sk.bob_decode_batch(cb, np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_antipodal_error_rate_matches_q_function():
    # n=1, codewords {+a, -a}: ML error probability is Q(a) exactly
    a = 1.0
    spec = tg.TruncatedGaussianSpec(n=1, psi=a * a, mu=0.5)
    cb = sk.Codebook(spec=spec, codewords=np.array([[a], [-a]]), seed=0)
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
    # stream contract v4: the codebook radii come from the rejection sampler
    # (v3 gave 0.08483333333333333 and 0.4117647058823529; v1 and v2 gave
    # 0.08033333333333334 and 0.35714285714285715 from full n-vectors)
    spec = tg.TruncatedGaussianSpec(n=32, psi=1.0, mu=0.7)
    res = sk.simulate(spec, M=256, trials=6000, seed=11)
    assert res.decode_error_rate == 0.07883333333333334
    assert res.decode_error_worst_message == 0.34615384615384615


def test_bob_decode_in_place_scores_match_reference():
    # the chunked kernel decides as one full score matrix does, on full
    # vectors and on span coordinates, with a partial last chunk
    rows = 2 * sk._DECODE_CHUNK + 59
    cb = sk.build_codebook(_spec(n=32), 64, seed=3)  # k = n = 32 span coordinates
    z = np.random.default_rng(4).standard_normal((rows, 32))
    coords, coords_sq = cb._span
    for book, decide in (
        (cb.codewords, lambda y: sk.bob_decode_batch(cb, y)),
        (coords, lambda y: sk._nearest(y, coords, coords_sq)),
    ):
        y = book[np.arange(rows) % 64] + z
        scores = np.sum(book**2, axis=1)[None, :] - 2.0 * (y @ book.T)
        assert np.array_equal(decide(y), np.argmin(scores, axis=1))


def _full_score_argmin(points, rows):
    # the reference: one full float64 score matrix, lowest index on ties
    return np.argmin(np.sum(rows**2, axis=1)[None, :] - 2.0 * (points @ rows.T), axis=1)


def _wide_rows(M=300, k=8, seed=0):
    rows = np.random.default_rng(seed).standard_normal((M, k))
    assert M >= sk._FLOAT32_MIN_ROWS  # the float32 path
    return rows, np.sum(rows**2, axis=1)


def test_float32_decode_rescores_near_ties(monkeypatch):
    # c_1 = c_0 (1 + 1e-7): along the line through both, the two scores differ
    # by ||c_0||^2 1e-7 s, far above float64 rounding and far below the float32
    # bound, so the certificate must hand these points to the float64 kernel
    rows, _ = _wide_rows()
    rows[1] = rows[0] * (1.0 + 1e-7)
    rows_sq = np.sum(rows**2, axis=1)
    s = np.concatenate([-np.logspace(-6, -2, 150), np.logspace(-6, -2, 150)])[:, None]
    points = np.vstack([rows[0] * (1.0 + 5e-8 + s), rows[5:9] + 0.1])
    rescored, float64_kernel = [], sk._nearest_float64

    def counting(p, r, r_sq):
        rescored.append(p.shape[0])
        return float64_kernel(p, r, r_sq)

    monkeypatch.setattr(sk, "_nearest_float64", counting)
    got = sk._nearest(points, rows, rows_sq)
    ref = _full_score_argmin(points, rows)
    assert np.array_equal(got, ref)
    assert ref[:300].tolist() == [0] * 150 + [1] * 150
    assert rescored == [300]  # the near-ties only, in one float64 call


def test_float32_decode_exact_ties_go_to_lowest_index():
    # small integer coordinates keep every product and sum exact in either
    # precision, so duplicated rows tie exactly, as do midpoints of two rows
    rng = np.random.default_rng(1)
    rows = rng.integers(-3, 4, (300, 8)).astype(float)
    rows[[200, 250, 299]] = rows[[10, 20, 10]]
    mid = 0.5 * (rows[rng.integers(0, 300, 200)] + rows[rng.integers(0, 300, 200)])
    points = np.vstack([rows[[10, 20, 200, 299]], mid])
    scores = np.sum(rows**2, axis=1)[None, :] - 2.0 * (points @ rows.T)
    ties = np.sum(scores == scores.min(axis=1, keepdims=True), axis=1) > 1
    assert ties[:4].all() and ties.sum() > 10
    got = sk._nearest(points, rows, np.sum(rows**2, axis=1))
    assert np.array_equal(got, _full_score_argmin(points, rows))
    assert got[:4].tolist() == [10, 20, 10, 10]


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
    got = sk._nearest(points, rows, rows_sq)
    assert np.array_equal(got, sk._nearest_float64(points, rows, rows_sq))
    assert np.array_equal(got[6:], _full_score_argmin(points[6:], rows))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 24),
    M=st.integers(sk._FLOAT32_MIN_ROWS, 700),
    count=st.integers(1, 600),
    log_scale=st.floats(-30.0, 30.0),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_decode_matches_float64_kernel(k, M, count, log_scale, noise, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    rows = scale * rng.standard_normal((M, k))
    points = rows[rng.integers(0, M, count)] + noise * scale * rng.standard_normal((count, k))
    rows_sq = np.sum(rows**2, axis=1)
    assert np.array_equal(
        sk._nearest(points, rows, rows_sq), sk._nearest_float64(points, rows, rows_sq)
    )


_SPEC_512 = tg.TruncatedGaussianSpec(512, pl.psi_suf(512, 0.05, 0.8, 1.0 + 1.0 / 512), 0.8)


def _full_vector_decode_error(spec, M, trials, seed):
    # the oracle: y = c_w + z in R^n, decided by bob_decode_batch
    cb = sk.build_codebook(spec, M, seed)
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
    c0, c1 = sk.build_codebook(_SPEC_512, 2, seed=8).codewords
    q = float(stats.norm.sf(np.linalg.norm(c0 - c1) / 2.0))
    assert abs(got.decode_error_rate - q) <= 4 * math.sqrt(q * (1 - q) / trials)


def test_simulate_and_decode_kernel_memory_stay_bounded():
    # a (trials, n) noise block at n = 4096, or a (4096, M) score block at
    # M = 4096, would alone be 128 MiB
    spec = tg.TruncatedGaussianSpec(4096, 1 / 64, 0.95)
    tg.radial_output_density(spec).ratio_table  # the model is cached per spec
    rng = np.random.default_rng(2)
    rows, points = rng.standard_normal((4096, 8)), rng.standard_normal((4096, 8))
    rows_sq = np.sum(rows**2, axis=1)
    for run in (
        lambda: sk.simulate(spec, M=4, trials=4096, seed=1),
        lambda: sk._nearest(points, rows, rows_sq),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
    with pytest.raises(InputError):
        sk.willie_detect(obs[:0], obs, model)
    with pytest.raises(InputError):  # observation matrices, not radii
        sk.willie_detect(obs[:, None], obs[:, None], model)
    nan = float("nan")
    for h0, h1, first_bad in (
        ([nan, nan], [-3.0, nan], "nan"),
        (obs, [1.0, -3.0, nan], "-3.0"),
        ([2.0, math.inf], obs, "inf"),
    ):
        with pytest.raises(InputError, match=f"radius {first_bad} "):
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
    kl, tvd = sk.empirical_divergences(spec, 150_000, seed=9, workers=2)
    assert abs(kl.value - rep.kl_bits) <= 4 * kl.std_err
    assert abs(tvd.value - rep.tvd) <= 4 * tvd.std_err


def test_empirical_divergences_worker_invariant():
    spec = _spec(n=8, psi=0.4, mu=0.6)
    a = sk.empirical_divergences(spec, 30_000, seed=4, workers=1)
    b = sk.empirical_divergences(spec, 30_000, seed=4, workers=4)
    assert a == b


def test_empirical_tvd_does_not_saturate_when_laws_separate():
    # positive-part estimator keeps working when the hypotheses are far apart
    spec = tg.TruncatedGaussianSpec(n=64, psi=4.0, mu=0.8)
    _, tvd = sk.empirical_divergences(spec, 20_000, seed=3)
    assert tvd.value > 0.99


def test_empirical_divergences_validation():
    with pytest.raises(DomainError):
        sk.empirical_divergences(_spec(), 1, seed=0)
    for workers in (0, -3):
        with pytest.raises(DomainError, match="workers"):
            sk.empirical_divergences(_spec(), 100, seed=0, workers=workers)


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


def _strip_volatile(d):
    d = dict(d)
    d.pop("wall_time")
    d["config"] = {k: v for k, v in d["config"].items() if k != "workers"}
    return d


def test_simulate_reproducible_across_workers():
    spec = _spec(n=16, psi=0.8, mu=0.7)
    r1 = sk.simulate(spec, M=4, trials=4000, seed=42, workers=1)
    r4 = sk.simulate(spec, M=4, trials=4000, seed=42, workers=4)
    assert _strip_volatile(r1.to_dict()) == _strip_volatile(r4.to_dict())


def test_simulate_pinned_seeded_values():
    # stream contract v4: these exact values change only with a documented bump;
    # v4 moved every field drawn from shell radii (v3: decode 0.03275, alpha
    # 0.28025, KL 1.34517, TVD 0.48366); v3 moved only the two decode fields
    # (v2: 0.03375, 0.04263959390862944)
    spec = _spec(n=16, psi=0.8, mu=0.7)
    d = sk.simulate(spec, M=4, trials=4000, seed=42).to_dict()
    d.pop("wall_time")
    assert d == {
        "decode_error_rate": 0.06325,
        "decode_error_worst_message": 0.08121827411167512,
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
        "empirical_kl_bits": {"value": 1.3441503309140383, "std_err": 0.03439039329506543},
        "empirical_tvd": {"value": 0.48519240828326776, "std_err": 0.004018361306975193},
        "config": {
            "n": 16, "psi": 0.8, "mu": 0.7, "M": 4, "trials": 4000, "seed": 42,
            "workers": 1,
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

    monkeypatch.setattr(sk, "build_codebook", no_work)
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
    for workers in (0, -3):
        with pytest.raises(DomainError, match="workers"):
            sk.simulate(spec, M=4, trials=100, seed=7, workers=workers)
