import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trafficnmf.errors import InvalidRankError, NonFiniteError, NonNegativityError
from trafficnmf.ingest import CountMatrix, HourWindow, minmax_normalize
from trafficnmf.nmf import INIT_NNDSVD, NmfConfig, _random_init, factorize
from trafficnmf.patterns import cosine_similarity_matrix
from trafficnmf.synth import SyntheticSpec, generate_period


def best_column_match(h_rec, h_true):
    """Brute-force oracle: best worst-column cosine over all column pairings."""
    r = h_true.shape[1]
    sims = cosine_similarity_matrix(h_rec, h_true)
    return max(
        min(sims[perm[g], g] for g in range(r))
        for perm in itertools.permutations(range(r))
    )


def test_factor_shapes():
    rng = np.random.default_rng(0)
    x = rng.random((30, 12))
    pair = factorize(x, NmfConfig(rank=5, seed=1))
    assert pair.w.shape == (30, 5)
    assert pair.h.shape == (12, 5)
    assert pair.rank == 5


def test_zero_matrix_rank_one_reaches_zero_loss():
    pair = factorize(np.zeros((4, 4)), NmfConfig(rank=1, seed=0))
    assert pair.objective_trace[-1] == 0.0
    assert np.array_equal(pair.reconstruct(), np.zeros((4, 4)))


def test_planted_rank3_relative_error():
    rng = np.random.default_rng(42)
    w0, h0 = rng.random((20, 3)), rng.random((12, 3))
    x = w0 @ h0.T
    pair = factorize(x, NmfConfig(rank=3, seed=7, max_iters=500))
    assert np.linalg.norm(x - pair.reconstruct()) / np.linalg.norm(x) <= 0.05


def test_rank_out_of_range():
    with pytest.raises(InvalidRankError):
        factorize(np.ones((4, 3)), NmfConfig(rank=4, seed=0))
    with pytest.raises(InvalidRankError):
        NmfConfig(rank=0)


def test_negative_input_rejected():
    x = np.ones((3, 3))
    x[1, 2] = -0.5
    with pytest.raises(NonNegativityError):
        factorize(x, NmfConfig(rank=2, seed=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    x = np.ones((3, 3))
    x[0, 1] = bad
    with pytest.raises(NonFiniteError):
        factorize(x, NmfConfig(rank=2, seed=0))


def test_config_validation():
    for tol in (0.0, -1.0, float("nan"), 1.0, 2.0, float("inf")):
        with pytest.raises(ValueError):
            NmfConfig(rank=2, tol=tol)
    with pytest.raises(ValueError):
        NmfConfig(rank=2, max_iters=0)
    with pytest.raises(ValueError):
        NmfConfig(rank=2, init="magic")


def test_error_equals_last_trace_entry():
    rng = np.random.default_rng(11)
    x = rng.random((15, 8))
    pair = factorize(x, NmfConfig(rank=3, seed=2))
    assert np.linalg.norm(x - pair.reconstruct()) == pytest.approx(pair.objective_trace[-1],
                                                                   abs=1e-12)


def test_monotone_nonincreasing_objective():
    rng = np.random.default_rng(100)
    for trial in range(50):
        n, m = int(rng.integers(4, 40)), int(rng.integers(3, 15))
        x = rng.random((n, m))
        r = int(rng.integers(1, min(n, m) + 1))
        pair = factorize(x, NmfConfig(rank=r, seed=trial))
        steps = np.diff(pair.objective_trace)
        assert steps.max(initial=0.0) <= 1e-10
        assert pair.objective_trace[-1] <= pair.objective_trace[0]


def test_factors_always_nonnegative():
    rng = np.random.default_rng(200)
    for trial in range(20):
        x = rng.random((25, 10))
        for init in ("random", INIT_NNDSVD):
            pair = factorize(x, NmfConfig(rank=4, seed=trial, init=init))
            assert pair.w.min() >= 0.0
            assert pair.h.min() >= 0.0


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(9)
    x = rng.random((20, 12))
    cfg = NmfConfig(rank=4, seed=123)
    p1, p2 = factorize(x, cfg), factorize(x, cfg)
    assert np.array_equal(p1.w, p2.w)
    assert np.array_equal(p1.h, p2.h)
    assert p1.objective_trace == p2.objective_trace
    p3 = factorize(x, NmfConfig(rank=4, seed=124))
    assert not np.array_equal(p1.w, p3.w)


def test_planted_pattern_recovery_zero_noise():
    # Planted patterns from the synthetic generator are identifiable by
    # construction; recovered time loadings must match them column for
    # column after the best permutation.
    for seed in range(5):
        spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=3,
                             noise_level=0.0, seed=seed)
        period = generate_period(spec)
        pair = factorize(period.counts, NmfConfig(rank=3, seed=seed + 500))
        assert best_column_match(pair.h, period.planted_h) >= 0.95


def test_rank_one_exactness():
    rng = np.random.default_rng(7)
    x = np.outer(rng.random(15) + 0.1, rng.random(9) + 0.1)
    pair = factorize(x, NmfConfig(rank=1, seed=3))
    assert np.linalg.norm(x - pair.reconstruct()) / np.linalg.norm(x) <= 1e-3


def test_nndsvd_initialization_converges_and_is_deterministic():
    rng = np.random.default_rng(21)
    w0, h0 = rng.random((18, 2)), rng.random((10, 2))
    x = w0 @ h0.T
    cfg = NmfConfig(rank=2, seed=0, init=INIT_NNDSVD)
    p1, p2 = factorize(x, cfg), factorize(x, cfg)
    assert np.array_equal(p1.w, p2.w)
    assert np.linalg.norm(x - p1.reconstruct()) / np.linalg.norm(x) <= 0.05


def explicit_residual_mu(x, cfg):
    """Reference solver: the plain update rule with the loss taken from the
    full residual X - W H^T at every iteration."""
    w, h = _random_init(x, cfg.rank, cfg.seed)
    trace = [np.linalg.norm(x - w @ h.T)]
    for _ in range(cfg.max_iters):
        h *= (x.T @ w) / np.maximum(h @ (w.T @ w), 1e-12)
        w *= (x @ h) / np.maximum(w @ (h.T @ h), 1e-12)
        trace.append(np.linalg.norm(x - w @ h.T))
        if abs(trace[-2] - trace[-1]) <= cfg.tol * max(trace[-2], 1e-12):
            break
    return w, h, trace


@st.composite
def nonnegative_problems(draw):
    """A nonnegative matrix (general or an exact low-rank product, some rows
    possibly all zero), a rank that fits it, and a seed."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    rank = draw(st.integers(1, min(n, m)))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    if draw(st.booleans()):
        k = draw(st.integers(1, rank))
        x = draw(arrays(float, (n, k), elements=entries)) @ \
            draw(arrays(float, (m, k), elements=entries)).T
    else:
        x = draw(arrays(float, (n, m), elements=entries))
    x[draw(arrays(bool, n))] = 0.0
    return x, rank, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(nonnegative_problems())
def test_trace_identity_loss_matches_explicit_residual(problem):
    x, rank, seed = problem
    cfg = NmfConfig(rank=rank, seed=seed)
    w, h, trace = explicit_residual_mu(x, cfg)
    pair = factorize(x, cfg)
    assert pair.iterations_run == len(trace) - 1
    np.testing.assert_allclose(pair.w, w, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pair.h, h, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pair.objective_trace, trace, rtol=1e-9, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(nonnegative_problems())
def test_rank_one_is_the_plain_rule_bit_for_bit(problem):
    """Rank 1 keeps numpy's matrix-vector products; the fused GEMM of higher
    ranks would round them differently."""
    x, _, seed = problem
    pair = factorize(x, NmfConfig(rank=1, seed=seed))
    w, h = _random_init(x, 1, seed)
    for _ in range(pair.iterations_run):
        h *= (x.T @ w) / np.maximum(h @ (w.T @ w), 1e-12)
        w *= (x @ h) / np.maximum(w @ (h.T @ h), 1e-12)
    assert np.array_equal(pair.w, w)
    assert np.array_equal(pair.h, h)


@pytest.mark.parametrize("rank", [1, 2, 5])
@pytest.mark.parametrize("init", ["random", INIT_NNDSVD])
def test_input_layout_does_not_change_the_pair(rank, init):
    """C-order, F-order, strided and NormalizedMatrix inputs give the same
    bits, and w is always a C-contiguous array of its own."""
    rng = np.random.default_rng(rank)
    counts = np.round(rng.random((40, 12)) * 100)
    x = minmax_normalize(CountMatrix(counts, [(f"L{i}", 0.0, 0.0) for i in range(40)],
                                     list(range(7, 19)), "A"))
    cfg = NmfConfig(rank=rank, seed=3, init=init)
    pairs = [factorize(v, cfg) for v in (x, x.values, np.asfortranarray(x.values),
                                         np.repeat(x.values, 2, axis=1)[:, ::2])]
    for pair in pairs:
        assert pair.w.flags.c_contiguous and pair.w.flags.owndata
        assert np.array_equal(pair.w, pairs[0].w)
        assert np.array_equal(pair.h, pairs[0].h)
        assert pair.objective_trace == pairs[0].objective_trace


@pytest.mark.parametrize("rank", range(2, 7))
def test_fused_kernel_matches_the_plain_rule_on_a_planted_input(rank):
    """At 300 x 24 the fused [X | W]^T W product rounds differently from the
    plain rule's products; the two solves stay within the trace-identity
    property's tolerances and stop at the same iteration."""
    spec = SyntheticSpec(n_locations=300, n_hours=24, planted_rank=4, noise_level=0.05, seed=1)
    x = generate_period(spec, window=HourWindow(0, 23)).counts
    x = x / x.max(axis=0)
    cfg = NmfConfig(rank=rank, seed=10 + rank)
    w, h, trace = explicit_residual_mu(x, cfg)
    pair = factorize(x, cfg)
    assert pair.iterations_run == len(trace) - 1
    np.testing.assert_allclose(pair.w, w, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pair.h, h, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pair.objective_trace, trace, rtol=1e-9, atol=0.0)
