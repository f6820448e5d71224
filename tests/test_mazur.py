import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachgap import _parallel, mazur
from kernel_reference import fit_envelope, ks_statistic
from kernel_reference import sphere_sample as reference_sphere_sample

EXPONENTS = [1.0, 1.5, 2.0, 3.0, 4.0]


def test_identity_exponent_is_identity():
    x = np.array([[0.6, -0.8]])
    assert np.allclose(mazur.mazur_sphere_map(2.0, 2.0).fn(x), x)


def test_basis_vectors_fixed():
    y = mazur.mazur_sphere_map(4.0, 2.0).fn(np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(y, [[1.0, 0.0, 0.0]])


def test_half_half_example():
    y = mazur.mazur_sphere_map(1.0, 2.0).fn(np.array([[0.5, 0.5]]))
    assert np.allclose(y, [[math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-12)


def test_non_unit_input_rejected():
    with pytest.raises(ValueError, match="block norm"):
        mazur.stabilized_map(mazur.mazur_sphere_map(2.0, 2.0), np.ones((2, 2)), 2.0)


@given(
    st.sampled_from(EXPONENTS),
    st.sampled_from(EXPONENTS),
    st.integers(0, 10_000),
    st.integers(2, 16),
)
@settings(max_examples=60, deadline=None)
def test_norm_preservation_and_bijectivity(p, q, seed, d):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = mazur.sphere_sample(rng, 8, d, p)
    fwd = mazur.mazur_sphere_map(p, q)
    y = fwd.fn(x)
    norms = (np.abs(y) ** q).sum(axis=1) ** (1.0 / q)
    assert np.allclose(norms, 1.0, atol=1e-12)
    back = mazur.mazur_sphere_map(q, p)
    assert np.abs(back.fn(y) - x).max() < 1e-10


def test_modulus_catalog():
    assert mazur.mazur_sphere_map(4.0, 2.0).modulus == (2.0, 1.0)
    assert mazur.mazur_sphere_map(3.0, 2.0).modulus == (1.5, 1.0)
    assert mazur.mazur_sphere_map(1.0, 2.0).modulus == (4.0, 0.5)
    assert mazur.mazur_sphere_map(1.5, 2.0).modulus == (4.0, 0.75)
    assert mazur.mazur_sphere_map(3.0, 1.5).modulus is None
    with pytest.raises(ValueError, match="modulus"):
        mazur.stabilized_modulus(mazur.mazur_sphere_map(3.0, 1.5))


def test_canonical_extension_values():
    phi = mazur.mazur_sphere_map(1.0, 2.0)
    rows = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = mazur._extension_batch(phi, rows)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(mazur._extension_batch(phi, 2.5 * rows), 2.5 * out)  # degree-1 homogeneous
    v = np.array([[3.0, -4.0]])
    assert np.allclose(mazur._extension_batch(mazur.mazur_sphere_map(2.0, 2.0), v), v)


def test_stabilized_single_block_reduces_to_base_map():
    phi = mazur.mazur_sphere_map(4.0, 2.0)
    rng = np.random.Generator(np.random.PCG64(0))
    x = mazur.sphere_sample(rng, 1, 6, 4.0)
    out = mazur.stabilized_map(phi, x, p=2.0)
    assert np.allclose(out, phi.fn(x), atol=1e-14)


def test_stabilized_norm_one_and_equal_blocks():
    phi = mazur.mazur_sphere_map(4.0, 2.0)
    rng = np.random.Generator(np.random.PCG64(1))
    block = rng.standard_normal(5)
    xi = np.vstack([block, block])
    xi /= ((np.abs(xi) ** 4).sum(axis=1) ** (2.0 / 4.0)).sum() ** 0.5  # block l_2 of l_4 rows
    out = mazur.stabilized_map(phi, xi, p=2.0)
    assert np.allclose(out[0], out[1])
    nrm = ((np.abs(out) ** 2).sum(axis=1) ** (2.0 / 2.0)).sum() ** 0.5
    assert nrm == pytest.approx(1.0, abs=1e-12)


def test_stabilized_zero_block_maps_to_zero():
    phi = mazur.mazur_sphere_map(1.0, 2.0)
    xi = np.array([[0.0, 0.0, 0.0], [0.25, -0.5, 0.25]])
    out = mazur.stabilized_map(phi, xi, p=2.0)
    assert np.array_equal(out[0], np.zeros(3))
    assert np.allclose(out[1], [0.5, -math.sqrt(0.5), 0.5], atol=1e-15)


@given(st.permutations(list(range(5))), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_stabilized_block_permutation_equivariance(perm, seed):
    phi = mazur.mazur_sphere_map(3.0, 2.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    xi = rng.standard_normal((5, 4))
    nrm = (((np.abs(xi) ** 3).sum(axis=1) ** (1 / 3.0)) ** 2).sum() ** 0.5
    xi /= nrm
    direct = mazur.stabilized_map(phi, xi[list(perm)], p=2.0)
    permuted = mazur.stabilized_map(phi, xi, p=2.0)[list(perm)]
    assert np.array_equal(direct, permuted)


def test_stabilized_full_reversal_equivariance():
    phi = mazur.mazur_sphere_map(1.5, 2.0)
    rng = np.random.Generator(np.random.PCG64(3))
    xi = rng.standard_normal((6, 3))
    xi /= (((np.abs(xi) ** 1.5).sum(axis=1) ** (1 / 1.5)) ** 3).sum() ** (1 / 3.0)
    out = mazur.stabilized_map(phi, xi, p=3.0)
    rev = mazur.stabilized_map(phi, xi[::-1], p=3.0)
    assert np.array_equal(rev, out[::-1])


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_moduli_hold_in_low_dimension(p):
    phi = mazur.mazur_sphere_map(p, 2.0)
    est = mazur.estimate_modulus(phi, "near_pairs", 20000, seed=4, d=2, bound=phi.modulus)
    assert est.violations == 0


def test_estimate_modulus_identity():
    est = mazur.estimate_modulus(mazur.mazur_sphere_map(2.0, 2.0), "near_pairs", 20000, seed=3, d=8)
    assert est.fitted_alpha == pytest.approx(1.0, abs=0.02)
    assert est.fitted_C == pytest.approx(1.0, rel=0.02)


def test_estimate_modulus_counts_violations_against_false_bound():
    phi = mazur.mazur_sphere_map(4.0, 2.0)
    est = mazur.estimate_modulus(phi, "uniform_sphere", 5000, seed=2, d=8, bound=(0.5, 1.0))
    assert est.violations > 0


def test_antipodal_sampler_hits_the_large_end():
    est = mazur.estimate_modulus(mazur.mazur_sphere_map(2.0, 2.0), "antipodal_pairs", 100, seed=0, d=4)
    assert est.eps.max() == pytest.approx(2.0)


def test_check_stabilized_identity():
    chk = mazur.check_stabilized_modulus(mazur.mazur_sphere_map(2.0, 2.0), k=1, p=2.0, n_samples=5000, seed=0)
    assert chk.bound_C == 4.0 and chk.alpha == 1.0
    assert chk.violations == 0


def _block_counts(n):
    """Pairs in each block of an n-pair call; block i draws from PCG64(seed).jumped(i)."""
    return [min(mazur._BLOCK, n - lo) for lo in range(0, n, mazur._BLOCK)]


@pytest.mark.parametrize("p_src,k,p_block", [(4.0, 4, 2.0), (1.0, 1, 3.0)])
def test_check_stabilized_matches_per_row_extension(p_src, k, p_block):
    # the check extends all k*n_samples blocks in one call; extending
    # each pair's k blocks separately must give the same verdict
    phi = mazur.mazur_sphere_map(p_src, 2.0)
    chk = mazur.check_stabilized_modulus(phi, k=k, p=p_block, n_samples=2000, seed=3, d=8)
    eps, delta = [], []
    for i, count in enumerate(_block_counts(2000)):
        rng = np.random.Generator(np.random.PCG64(3).jumped(i))
        x, y = mazur._block_pairs(rng, count, k, 8, p_block, phi.source_p)
        eps.append(mazur._lp_norm(mazur._lp_norm(x - y, phi.source_p, axis=2), p_block, axis=1))
        fx = np.stack([mazur._extension_batch(phi, row) for row in x])
        fy = np.stack([mazur._extension_batch(phi, row) for row in y])
        delta.append(mazur._lp_norm(mazur._lp_norm(fx - fy, phi.target_p, axis=2), p_block, axis=1))
    eps, delta = np.concatenate(eps), np.concatenate(delta)
    pos = eps > 0
    ratio = delta[pos] / (chk.bound_C * eps[pos] ** chk.alpha)
    assert chk.violations == int((ratio > 1 + 1e-9).sum())
    assert chk.max_ratio == float(ratio.max())


def test_sphere_sample_is_on_sphere():
    rng = np.random.Generator(np.random.PCG64(5))
    for p in EXPONENTS:
        x = mazur.sphere_sample(rng, 32, 6, p)
        assert np.allclose((np.abs(x) ** p).sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("p", EXPONENTS)
def test_sphere_sample_law_matches_reference(p):
    # V G^(1/p) with G ~ Gamma(1 + 1/p) against Gamma(1/p)^(1/p) with a
    # random sign: the same generalized normal, so the same law on the sphere
    new = mazur.sphere_sample(np.random.Generator(np.random.PCG64(11)), 200_000, 16, p)
    old = reference_sphere_sample(np.random.Generator(np.random.PCG64(12)), 200_000, 16, p)
    assert ks_statistic(new[:, 0], old[:, 0]) < 0.01
    assert ks_statistic(np.abs(new).max(axis=1), np.abs(old).max(axis=1)) < 0.01


def _envelope_inputs():
    rng = np.random.Generator(np.random.PCG64(21))
    for n in (1, 2, 3, 50, 5000):
        eps = 10.0 ** rng.uniform(-6.0, 0.3, size=n)
        yield eps, eps**0.8 * rng.uniform(0.1, 1.0, size=n)
    # ties: delta takes few values, so each bin's maximum is attained by
    # several pairs with different eps, and the first of them must win
    eps = 10.0 ** rng.uniform(-6.0, 0.3, size=4000)
    yield eps, rng.choice(np.array([0.5, 1.0, 2.0]), size=4000)
    yield eps, np.round(eps**0.7, 2) + 1e-3
    # zeros, equal eps everywhere, and every delta tied
    yield np.array([0.0, 1e-3, 1e-3, 0.5]), np.array([1.0, 0.0, 2e-3, 0.7])
    yield np.full(7, 0.25), rng.uniform(size=7)
    yield eps, np.full(eps.size, 3.0)


def test_fit_envelope_equals_reference_loop():
    for eps, delta in _envelope_inputs():
        assert mazur._fit_envelope(eps, delta) == fit_envelope(eps, delta)


@pytest.mark.parametrize("n", [1, mazur._BLOCK - 1, mazur._BLOCK, mazur._BLOCK + 1, 2 * mazur._BLOCK + 3])
def test_estimate_modulus_fills_every_slot(n):
    # replay the sampler one block at a time: each slot must hold its own pair
    phi = mazur.mazur_sphere_map(1.5, 2.0)
    est = mazur.estimate_modulus(phi, "near_pairs", n, seed=9, d=16, bound=phi.modulus)
    assert est.eps.shape == est.delta.shape == (n,)
    eps, delta = [], []
    for i, count in enumerate(_block_counts(n)):
        rng = np.random.Generator(np.random.PCG64(9).jumped(i))
        x, y = mazur.SAMPLERS["near_pairs"](rng, count, 16, 1.5)
        eps.append((np.abs(x - y) ** 1.5).sum(axis=1) ** (1 / 1.5))
        delta.append(np.sqrt(((phi.fn(x) - phi.fn(y)) ** 2).sum(axis=1)))
    assert np.allclose(est.eps, np.concatenate(eps), rtol=1e-12, atol=0.0)
    assert np.allclose(est.delta, np.concatenate(delta), rtol=1e-12, atol=0.0)
    assert est.violations == 0


def test_block_pairs_equal_the_out_of_place_formula():
    # half of the pairs are x + s * noise; both ends normalised in l_3 of l_1.5
    x, y = mazur._block_pairs(np.random.Generator(np.random.PCG64(4)), 101, 3, 4, 3.0, 1.5)
    rng = np.random.Generator(np.random.PCG64(4))

    def normalize(z):
        return z / mazur._lp_norm(mazur._lp_norm(z, 1.5, axis=2), 3.0, axis=1)[:, None, None]

    want_x = normalize(rng.standard_normal((101, 3, 4)))
    want_y = rng.standard_normal((101, 3, 4))
    scale = 10.0 ** rng.uniform(-6.0, 0.0, size=50)
    want_y[:50] = want_x[:50] + scale[:, None, None] * want_y[:50]
    assert np.array_equal(x, want_x) and np.array_equal(y, normalize(want_y))


def test_check_stabilized_spans_blocks():
    n = 2 * mazur._BLOCK + 3
    for p_src, k in ((4.0, 4), (1.0, 1)):
        phi = mazur.mazur_sphere_map(p_src, 2.0)
        chk = mazur.check_stabilized_modulus(phi, k=k, p=3.0, n_samples=n, seed=5, d=8)
        assert chk.violations == 0 and 0.0 < chk.max_ratio <= 1.0 + 1e-9


BLOCK_EDGES = [1, mazur._BLOCK - 1, mazur._BLOCK, mazur._BLOCK + 1, 2 * mazur._BLOCK + 3]
STREAM, POOL = mazur._stream, _parallel.ThreadPoolExecutor


def _run_both(monkeypatch, cpus, n):
    """Both estimators on n pairs with ``cpus`` usable CPUs, starting with
    no pools: their results, the (eps, delta) of every _stream call, the
    pool tasks each call submitted, and the worker counts of the pools made."""
    streams, helpers, pools = [], [], []

    def spy_stream(*args):
        helpers.append(0)
        streams.append(tuple(a.tobytes() for a in STREAM(*args)))
        return np.frombuffer(streams[-1][0]), np.frombuffer(streams[-1][1])

    class spy_pool(POOL):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            pools.append(max_workers)

        def submit(self, *args):
            helpers[-1] += 1
            return super().submit(*args)

    monkeypatch.setattr(_parallel, "_POOLS", {})
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(mazur, "_stream", spy_stream)
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", spy_pool)
    phi = mazur.mazur_sphere_map(1.5, 2.0)
    est = mazur.estimate_modulus(phi, "near_pairs", n, seed=12, d=16, bound=phi.modulus)
    chk = mazur.check_stabilized_modulus(phi, k=3, p=2.0, n_samples=n, seed=12, d=8)
    return (est.fitted_C, est.fitted_alpha, est.violations, chk), streams, helpers, pools


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_estimators_do_not_depend_on_the_worker_count(monkeypatch, n):
    blocks = len(_block_counts(n))
    runs = []
    for cpus in (1, 2, 4):
        fits, streams, helpers, pools = _run_both(monkeypatch, cpus, n)
        # the caller plus min(cpus, blocks) - 1 pool threads
        assert helpers == [min(cpus, blocks) - 1] * 2
        # both calls share one pool, and a call with no helpers makes none
        assert pools == ([helpers[0]] if helpers[0] else [])
        runs.append((fits, streams))
    assert runs[0] == runs[1] == runs[2]


def _modulus_in_child(phi, n, out):
    out.put(mazur.estimate_modulus(phi, "uniform_sphere", n, seed=3, d=4).eps.tobytes())


def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in a forked child: a child
    # that submitted to them would wait for ever
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    phi = mazur.mazur_sphere_map(3.0, 2.0)
    n = 3 * mazur._BLOCK
    want = mazur.estimate_modulus(phi, "uniform_sphere", n, seed=3, d=4).eps.tobytes()
    assert (os.getpid(), 1) in _parallel._POOLS  # the parent holds a one-helper pool
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_modulus_in_child, args=(phi, n, out))
    child.start()
    try:
        got = out.get(timeout=60)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert got == want and child.exitcode == 0


def test_blocks_survive_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching every microsecond: a lost or
    # misplaced block write would change the arrays
    phi = mazur.mazur_sphere_map(3.0, 2.0)
    n = 8 * mazur._BLOCK + 5
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    one = mazur.estimate_modulus(phi, "uniform_sphere", n, seed=8, d=4)
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        many = mazur.estimate_modulus(phi, "uniform_sphere", n, seed=8, d=4)
        assert time.perf_counter() - start < 30.0
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(one.eps, many.eps) and np.array_equal(one.delta, many.delta)


@pytest.mark.parametrize("n", [1, 100, mazur._BLOCK])
def test_one_block_call_is_one_pcg64_stream(n):
    # a call of at most _BLOCK pairs draws exactly what Generator(PCG64(seed)) draws
    phi = mazur.mazur_sphere_map(3.0, 2.0)
    est = mazur.estimate_modulus(phi, "near_pairs", n, seed=5, d=16)
    x, y = mazur.SAMPLERS["near_pairs"](np.random.Generator(np.random.PCG64(5)), n, 16, 3.0)
    assert np.array_equal(est.eps, mazur._lp_norm(x - y, 3.0, axis=1))
    assert np.array_equal(est.delta, mazur._lp_norm(phi.fn(x) - phi.fn(y), 2.0, axis=1))
    chk = mazur.check_stabilized_modulus(phi, k=2, p=2.0, n_samples=n, seed=5, d=8)
    x, y = mazur._block_pairs(np.random.Generator(np.random.PCG64(5)), n, 2, 8, 2.0, 3.0)
    eps = mazur._lp_norm(mazur._lp_norm(x - y, 3.0, axis=2), 2.0, axis=1)
    fx = mazur._extension_batch(phi, x.reshape(-1, 8)).reshape(x.shape)
    fy = mazur._extension_batch(phi, y.reshape(-1, 8)).reshape(y.shape)
    ratio = mazur._lp_norm(mazur._lp_norm(fx - fy, 2.0, axis=2), 2.0, axis=1)[eps > 0] / (chk.bound_C * eps[eps > 0])
    assert chk.max_ratio == float(ratio.max())


def test_sphere_map_error_reaches_the_caller():
    # the last, partial block's map raises on a worker thread
    def fn(batch):
        if len(batch) < mazur._BLOCK:
            raise FloatingPointError("map failed on a short block")
        return batch.copy()

    phi = mazur.SphereMap(2.0, 2.0, fn, "faulty", modulus=(1.0, 1.0))
    with pytest.raises(FloatingPointError, match="short block"):
        mazur.estimate_modulus(phi, "uniform_sphere", 3 * mazur._BLOCK + 1, seed=0, d=4)
    with pytest.raises(FloatingPointError, match="short block"):
        mazur.check_stabilized_modulus(phi, k=1, p=2.0, n_samples=3 * mazur._BLOCK + 1, seed=0, d=4)


def test_pool_thread_error_reaches_the_caller(monkeypatch):
    # the caller's first block waits until a pool thread has failed on its own
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    failed = threading.Event()

    def draw(rng, count):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=30.0)
            return np.zeros((count, 2)), np.zeros((count, 2))
        failed.set()
        raise FloatingPointError("pool thread failed")

    with pytest.raises(FloatingPointError, match="pool thread"):
        mazur._stream(3 * mazur._BLOCK, 0, draw, lambda x, y: (x[:, 0], y[:, 0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: mazur.mazur_sphere_map(x, 2.0), "p"),
        (lambda x: mazur.mazur_sphere_map(2.0, x), "q"),
        (lambda x: mazur.mazur_sphere_map(x, x), "p"),
        (lambda x: mazur.mazur_sphere_map(2.0, x).fn(np.array([[1.0, 0.0]])), "q"),
        (lambda x: mazur.sphere_sample(np.random.default_rng(0), 4, 3, x), "p"),
        (lambda x: mazur.stabilized_map(mazur.mazur_sphere_map(2.0, 2.0), np.eye(2), x), "block exponent p"),
    ],
)
def test_exponents_must_be_finite(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1 and finite"):
        call(bad)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"n_samples": 10, "d": 0}, "dimension d"),
        ({"n_samples": 0}, "n_samples"),
    ],
)
def test_estimate_modulus_refuses_degenerate_inputs(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        mazur.estimate_modulus(mazur.mazur_sphere_map(3.0, 2.0), "near_pairs", **kwargs)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"k": 0, "p": 2.0, "n_samples": 10}, "block count k"),
        ({"k": -1, "p": 2.0, "n_samples": 10}, "block count k"),
        ({"k": 2, "p": 0.5, "n_samples": 10}, "block exponent p"),
        ({"k": 2, "p": float("nan"), "n_samples": 10}, "block exponent p"),
        ({"k": 2, "p": 2.0, "n_samples": 10, "d": 0}, "dimension d"),
        ({"k": 2, "p": 2.0, "n_samples": 0}, "n_samples"),
        ({"k": 2, "p": float("inf"), "n_samples": 10}, "block exponent p"),
        ({"k": 2, "p": float("-inf"), "n_samples": 10}, "block exponent p"),
    ],
)
def test_check_stabilized_refuses_degenerate_inputs(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        mazur.check_stabilized_modulus(mazur.mazur_sphere_map(3.0, 2.0), **kwargs)
