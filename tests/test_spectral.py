import math
import time
from unittest import mock

import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import cut_quotient_min
from kernel_reference import laplacian as reference_laplacian

from banachgap import _parallel, spectral
from banachgap.acceptance import _SMALL_GRAPHS, _sandwich_cases, run_suite
from banachgap.graphs import build_graph, gen_family
from banachgap.groups import action_from_group, schreier_graph
from banachgap.spectral import (
    Bound,
    VectorMap,
    extrapolation_report,
    gap,
    gap_estimate,
    gap_exact_2,
    gap_oracle_small,
    mean_zero_basis,
    rayleigh_quotient,
)

C6 = gen_family("cycle", [6])
K4 = gen_family("complete", [4])
H3 = gen_family("hamming", [3])


def test_quotient_single_edge():
    K2 = build_graph(2, [(0, 1, 1)])
    assert rayleigh_quotient(K2, VectorMap(np.array([0.0, 1.0]), q=2, p=2)) == pytest.approx(2.0)


def test_quotient_c4_eigenvector():
    C4 = gen_family("cycle", [4])
    f = np.array([1.0, 0.0, -1.0, 0.0])
    assert rayleigh_quotient(C4, VectorMap(f, q=2, p=2)) == pytest.approx(2.0)


def test_quotient_constant_map_rejected():
    with pytest.raises(ValueError, match="constant"):
        rayleigh_quotient(C6, VectorMap(np.ones(6), q=2, p=2))


def test_one_dimensional_vector_map_is_one_column():
    f = VectorMap(np.arange(6.0), q=2.0, p=2.0)
    assert f.values.shape == (6, 1)
    assert rayleigh_quotient(C6, f) == rayleigh_quotient(C6, VectorMap(np.arange(6.0)[:, None], q=2.0, p=2.0))


def test_quotient_ignores_loops_and_counts_multiplicity():
    G = build_graph(2, [(0, 1, 2), (0, 0, 3)])
    assert rayleigh_quotient(G, VectorMap(np.array([0.0, 1.0]), q=2, p=2)) == pytest.approx(4.0)


@given(
    st.sampled_from([C6, K4, H3]),
    st.lists(st.integers(-50, 50), min_size=8, max_size=8),
    st.integers(1, 9),
    st.integers(-40, 40),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=80, deadline=None)
def test_translation_and_scaling_invariance(G, vals, alpha, shift, p):
    f = np.array(vals[: G.n], dtype=float)
    if np.allclose(f, f[0]):
        f[0] += 1.0
    base = rayleigh_quotient(G, VectorMap(f, q=2, p=p))
    moved = rayleigh_quotient(G, VectorMap(alpha * f + shift, q=2, p=p))
    assert moved == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_gap_complete(n):
    assert gap_exact_2(gen_family("complete", [n])).value == pytest.approx(n, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6, 12, 32])
def test_exact_gap_cycle(n):
    want = 4 * math.sin(math.pi / n) ** 2
    assert gap_exact_2(gen_family("cycle", [n])).value == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_gap_hamming(n):
    assert gap_exact_2(gen_family("hamming", [n])).value == pytest.approx(2.0, rel=1e-11)


def test_exact_gap_requires_connected():
    with pytest.raises(ValueError):
        gap_exact_2(build_graph(4, [(0, 1, 1), (2, 3, 1)]))


@pytest.mark.parametrize(
    "kind,params",
    [("cycle", [8]), ("cycle", [64]), ("complete", [16]), ("complete", [64]), ("hamming", [6]),
     ("path", [33]), ("margulis", [8]), ("random_regular", [24, 3]), ("random_regular", [48, 5])],
)
def test_estimate_matches_exact_at_p2(kind, params):
    G = gen_family(kind, params, seed=5)
    exact = gap_exact_2(G).value
    est = gap_estimate(G, p=2.0, q=2.0, d=1, seed=2, restarts=8)
    assert est.bound.lower_proof is None
    assert est.value == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("G", [gen_family("path", [3]), gen_family("cycle", [4])], ids=["P3", "C4"])
def test_estimate_restarts_stop_on_integer_spectrum(G):
    # 1/(lambda_max - lambda_2) = 1/2 on both graphs: a step that locked onto
    # it made the top mode flip sign at almost unchanged size, and every
    # restart then crept towards the gap like 1/k until max_iter.
    est = gap_estimate(G, p=2.0, q=2.0, d=1, seed=1, restarts=20)
    runs = est.diagnostics["per_restart"]
    assert len(runs) == 20
    assert all(r["iterations"] < 5000 and r["stop_reason"] != "max_iter" for r in runs)
    assert est.value == pytest.approx(gap_exact_2(G).value, rel=1e-9)


@pytest.mark.parametrize("p,q,direction", [(1.5, 2.0, "quasi_newton"), (1.0, 2.0, "gradient"), (3.0, 1.0, "gradient")])
def test_estimate_reports_its_direction_and_backtracks(p, q, direction):
    est = gap_estimate(C6, p=p, q=q, d=2, seed=3, restarts=4)
    assert est.diagnostics["direction"] == direction
    runs = est.diagnostics["per_restart"]
    assert [sorted(r) for r in runs] == [["backtracks", "iterations", "stop_reason"]] * 4
    assert all(0 <= r["backtracks"] <= 60 * r["iterations"] for r in runs)
    assert sum(r["backtracks"] for r in runs) > 0


def test_estimate_block_dimension_independent_at_p2():
    exact = gap_exact_2(K4).value
    est = gap_estimate(K4, p=2.0, q=2.0, d=3, seed=2)
    assert est.value == pytest.approx(exact, rel=1e-6)


def test_estimate_matched_exponent_q1():
    # single-edge graph at p=q=1 has gap 1 regardless of block dimension
    K2 = build_graph(2, [(0, 1, 1)])
    assert gap_estimate(K2, p=1.0, q=1.0, d=2, seed=0, restarts=8).value == pytest.approx(1.0, abs=1e-6)


def test_estimate_deterministic_for_seed():
    a = gap_estimate(C6, p=1.5, seed=11)
    b = gap_estimate(C6, p=1.5, seed=11)
    assert a.value == b.value
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_one_dimensional_warm_start_is_its_column():
    w = np.cos(2.0 * np.pi * np.arange(6) / 6.0) + 0.1 * np.arange(6)
    flat = gap_estimate(C6, p=1.5, restarts=3, seed=2, warm_starts=[w])
    column = gap_estimate(C6, p=1.5, restarts=3, seed=2, warm_starts=[w[:, None]])
    assert flat.value == column.value
    assert np.array_equal(flat.minimizer.values, column.minimizer.values)
    assert flat.diagnostics["per_restart"] == column.diagnostics["per_restart"]


def test_estimate_rejects_warm_start_of_wrong_shape():
    with pytest.raises(ValueError, match="warm start shape"):
        gap_estimate(C6, p=1.5, d=2, restarts=4, warm_starts=[np.ones((6, 1))])


def test_estimate_rejects_bad_exponents():
    with pytest.raises(ValueError):
        gap_estimate(C6, p=0.5)
    with pytest.raises(ValueError):
        gap_estimate(C6, p=2.0, q=0.9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: gap_estimate(C6, p=x), "p"),
        (lambda x: gap_estimate(C6, p=1.5, q=x), "q"),
        (lambda x: gap(C6, p=x), "p"),
        (lambda x: gap_oracle_small(gen_family("cycle", [4]), p=x), "p"),
        (lambda x: rayleigh_quotient(C6, VectorMap(np.arange(6.0), q=2.0, p=x)), "p"),
        (lambda x: rayleigh_quotient(C6, VectorMap(np.arange(6.0), q=x, p=2.0)), "q"),
    ],
)
def test_exponents_must_be_finite(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1 and finite"):
        call(bad)


def test_mean_zero_basis_orthonormal():
    B = mean_zero_basis(5)
    assert np.allclose(B.sum(axis=0), 0.0, atol=1e-14)
    assert np.allclose(B.T @ B, np.eye(4), atol=1e-14)


def test_oracle_two_vertices():
    K2 = build_graph(2, [(0, 1, 1)])
    est = gap_oracle_small(K2, p=2.0)
    assert est.value == pytest.approx(2.0)
    # the mean-zero unit sphere of R^2 is {+-b}, so its one point is exact
    assert (est.bound.lower_proof, est.bound.upper_proof) == ("grid", "grid")
    assert est.diagnostics["grid_points"] == 1 and est.diagnostics["grid_error_bound"] == 0.0


def test_oracle_triangle():
    est = gap_oracle_small(gen_family("complete", [3]), p=2.0, resolution=1e-4)
    assert est.value == pytest.approx(3.0, abs=1e-3)
    assert est.method == "grid_oracle"
    assert (est.bound.lower_proof, est.bound.upper_proof) == (None, "admissible_map")


def test_oracle_grid_minimum_is_an_upper_bound():
    est = gap_oracle_small(gen_family("cycle", [4]), p=1.5, resolution=0.05)
    assert (est.bound.lower_proof, est.bound.upper_proof) == (None, "admissible_map")
    assert est.value >= 2.0 ** 0.5 - 1e-12  # C4's gap at p=1.5 is sqrt(2)


@pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_oracle_refuses_bad_resolution(resolution):
    with pytest.raises(ValueError, match="resolution must be a positive finite number"):
        gap_oracle_small(gen_family("cycle", [4]), p=1.5, resolution=resolution)


class _GridReached(Exception):
    pass


def test_oracle_refuses_a_grid_above_the_cap(monkeypatch):
    """The CLI default resolution on four vertices reaches the grid kernel;
    1e-9 on three vertices, which scanned for minutes, is refused before it.
    The kernel is stubbed, so neither grid is built."""
    sizes = []

    def stub(*args):
        sizes.append(args[7] * args[9])  # nth * nph
        raise _GridReached

    monkeypatch.setattr(spectral._kernels, "oracle_grid", stub)
    with pytest.raises(_GridReached):
        gap_oracle_small(K4, p=1.5, resolution=1e-3)
    assert sizes == [1572 * 6284] and sizes[0] <= spectral.GRID_MAX_POINTS
    with pytest.raises(ValueError, match="^resolution 1e-09 asks for 3141592654 grid points on 3 vertices; the most is"):
        gap_oracle_small(gen_family("complete", [3]), p=2.0, resolution=1e-9)
    assert len(sizes) == 1


def test_oracle_cross_checks_descent_on_kinked_case():
    C4 = gen_family("cycle", [4])
    oracle = gap_oracle_small(C4, p=1.0, resolution=4e-3)
    est = gap_estimate(C4, p=1.0, seed=1)
    tol = max(1e-3, oracle.diagnostics["grid_error_bound"])
    assert abs(est.value - oracle.value) <= tol


def test_oracle_size_gate():
    with pytest.raises(ValueError, match="4 vertices"):
        gap_oracle_small(C6, p=2.0)


def test_extrapolation_report():
    rep = extrapolation_report([gen_family("cycle", [4])], [2.0])
    assert rep["rows"][0]["ratio"] == pytest.approx(1.0)
    rep = extrapolation_report([gen_family("complete", [3])], [4.0], restarts=8)
    ratio = rep["rows"][0]["ratio"]
    assert 0.0 < ratio < math.inf
    lo, hi = rep["bands"][4.0]
    assert lo <= ratio <= hi


# ----------------------------------------------------------------------
# Per-graph spectral cache
# ----------------------------------------------------------------------


_STAGE_TIMES = ("lanczos_s", "certificate_s")


def _untimed(diagnostics):
    """The diagnostics without the stage times, which differ between runs."""
    return {k: v for k, v in diagnostics.items() if k not in _STAGE_TIMES}


def _gap_calls(graph):
    """gap_exact_2, then the descent at p in {1.5, 3} and d in {1, 2}, each
    on the graph ``graph()`` returns."""
    out = [gap_exact_2(graph())]
    for p in (1.5, 3.0):
        for d in (1, 2):
            out.append(gap_estimate(graph(), p=p, q=2.0, d=d, seed=5, restarts=4, max_iter=60))
    return out


@pytest.mark.parametrize("kind,params", [("random_regular", [60, 3]), ("hamming", [4]), ("margulis", [32])])
def test_cached_head_gives_the_same_bytes_as_fresh_graphs(kind, params):
    G = gen_family(kind, params, seed=3)
    shared = _gap_calls(lambda: G)
    fresh = _gap_calls(lambda: gen_family(kind, params, seed=3))
    for a, b in zip(shared, fresh):
        assert a.value == b.value
        assert a.minimizer.values.tobytes() == b.minimizer.values.tobytes()
        assert _untimed(a.diagnostics) == _untimed(b.diagnostics)


def test_eigh_runs_once_per_graph_object(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    G = gen_family("hamming", [4])
    _gap_calls(lambda: G)
    gap_exact_2(G)
    assert len(calls) == 1
    gap_exact_2(gen_family("hamming", [4]))
    assert len(calls) == 2

    # On the Lanczos path: one run and one Cholesky per graph object, and no
    # dense eigh of the Laplacian.
    monkeypatch.setattr(spectral, "_LANCZOS_MIN_N", 16)
    runs, factorisations = [], []
    lanczos, cholesky = spectral._lanczos, np.linalg.cholesky
    monkeypatch.setattr(spectral, "_lanczos", lambda G: runs.append(G.n) or lanczos(G))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorisations.append(a.shape) or cholesky(a))
    G = gen_family("hamming", [4])
    _gap_calls(lambda: G)
    assert gap_exact_2(G).diagnostics["eigensolver"] == "lanczos"
    assert (runs, factorisations) == ([16], [(16, 16)])
    gap_exact_2(gen_family("hamming", [4]))
    assert (runs, factorisations) == ([16, 16], [(16, 16)] * 2)
    assert calls.count((16, 16)) == 2


def test_exact_minimizer_is_a_copy():
    G = gen_family("cycle", [7])
    first = gap_exact_2(G)
    kept = first.minimizer.values.copy()
    first.minimizer.values[:] = 0.0
    again = gap_exact_2(G)
    assert np.array_equal(again.minimizer.values, kept)
    assert again.value == first.value


def test_gap_dispatches_exact_only_at_hilbert_line():
    G = gen_family("cycle", [8])
    assert gap(G, 2.0).method == "eigen_exact"
    assert gap(G, 2.0, q=2.0, d=1, seed=4, restarts=3).value == gap_exact_2(G).value
    for p, q, d in ((2.0, 3.0, 1), (2.0, 2.0, 2), (1.5, 2.0, 1), (3.0, 3.0, 1)):
        got = gap(G, p, q=q, d=d, seed=4, restarts=3, max_iter=80)
        want = gap_estimate(G, p=p, q=q, d=d, seed=4, restarts=3, max_iter=80)
        assert got.method == "multistart_descent"
        assert got.value == want.value
        assert np.array_equal(got.minimizer.values, want.minimizer.values)


def test_eigensolve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    from banachgap import spectral

    threads = spectral._openblas_threads()
    if threads is None:
        pytest.skip("numpy ships no OpenBLAS with a thread-count setter")
    get, put = threads
    before = get()
    seen = []
    real_eigh = np.linalg.eigh

    def eigh(a):
        seen.append(get())
        if len(seen) == 2:
            raise np.linalg.LinAlgError("forced")
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    try:
        put(2)
        assert gap_exact_2(gen_family("cycle", [9])).value == pytest.approx(2 - 2 * math.cos(2 * math.pi / 9))
        assert get() == 2
        with pytest.raises(np.linalg.LinAlgError):
            gap_exact_2(gen_family("cycle", [9]))
        assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1]


# ----------------------------------------------------------------------
# Certified Lanczos head
# ----------------------------------------------------------------------


def _lanczos_cases():
    cases = [
        ("rr(2000,3)", lambda: gen_family("random_regular", [2000, 3], seed=1531)),
        ("rr(1000,3)", lambda: gen_family("random_regular", [1000, 3], seed=5)),
        # its relative residual rises 1.11-fold from the first check to the
        # second, below 1, so the run must go on (it converges at step 160)
        ("rr(1000,5)", lambda: gen_family("random_regular", [1000, 5], seed=1009)),
        ("margulis(20)", lambda: gen_family("margulis", [20])),
        ("margulis(24)", lambda: gen_family("margulis", [24])),
        ("margulis(32)", lambda: gen_family("margulis", [32])),
        ("H8", lambda: gen_family("hamming", [8])),
        ("H9", lambda: gen_family("hamming", [9])),
        ("H10", lambda: gen_family("hamming", [10])),
        ("symmetric(6)", lambda: schreier_graph(action_from_group("symmetric", 6))),
        ("sl_mod(2,7)", lambda: schreier_graph(action_from_group("sl_mod", 2, 7))),
        ("boolean_cube(8)", lambda: schreier_graph(action_from_group("boolean_cube", 8))),
    ]
    # Criterion 9's family at suite seed 1.
    cases += [(f"rr({n},3)#c9", lambda n=n: gen_family("random_regular", [n, 3], seed=1 + n)) for n in (10, 20, 40, 60)]
    return [pytest.param(build, id=label) for label, build in cases]


def _assert_certified_head(G):
    # Also inside a degenerate eigenspace (H9, H10), where the vector is
    # another one of the eigenspace than eigh's.
    with mock.patch.object(spectral, "_LANCZOS_MIN_N", 2):
        w, y, facts = spectral._exact_head(G)
    L = reference_laplacian(G)
    lam = np.linalg.eigvalsh(L)
    cert = facts["certificate"]
    assert facts["eigensolver"] == "lanczos" and cert is not None
    lower = cert["shift"] - cert["margin"]
    assert abs(w[1] - lam[1]) <= 1e-9 * lam[1]
    assert lower <= lam[1] <= w[1] * (1 + 1e-12)
    # theta_3 and theta_4 are Ritz values, so upper bounds by interlacing.
    assert np.all(w[2:] >= lam[2 : len(w)] * (1 - 1e-12))
    assert w[0] == 0.0 and abs(y.sum()) <= 1e-12 and np.linalg.norm(y) == pytest.approx(1.0, rel=1e-14)
    # The run stops at the certificate's resolution, so the interval is at
    # most r + 2 margin <= 3 margin wide.
    assert (cert["t"], cert["margin"]) == spectral._certificate_margin(G, w[1])
    assert cert["shift"] == w[1] - facts["residual"] - cert["margin"]
    assert facts["residual"] <= cert["margin"]
    assert np.linalg.norm(L @ y - w[1] * y) <= cert["margin"] + 1e-13
    assert w[1] - lower <= 1e-7 * w[1]


@pytest.mark.parametrize("build", _lanczos_cases())
def test_lanczos_head_is_certified(build):
    _assert_certified_head(build())


@given(connected_multigraphs(2, 40))
@settings(max_examples=150, deadline=None)
def test_lanczos_head_is_certified_on_multigraphs(G):
    _assert_certified_head(G)


@pytest.mark.parametrize("n", [256, 512, 1000])
def test_complete_heads_are_certified(n):
    # lambda_2 = n, with the largest trace per vertex, so the widest margin
    est = gap_exact_2(gen_family("complete", [n]))
    assert est.bound.lower_proof == "cholesky" and est.bound.lower <= n <= est.value * (1 + 1e-12)
    assert est.value - est.bound.lower <= 1e-7 * n


def test_large_head_takes_the_lanczos_path():
    G = gen_family("margulis", [32])
    est = gap_exact_2(G)
    w, y, facts = spectral._exact_head(gen_family("margulis", [32]))
    cert = facts["certificate"]
    assert est.diagnostics["eigensolver"] == "lanczos"
    assert est.value == w[1] and est.minimizer.values[:, 0].tobytes() == y.tobytes()
    assert est.bound == Bound(cert["shift"] - cert["margin"], w[1], "cholesky", "admissible_map")
    assert _untimed(est.diagnostics) == {"eigenvalues_head": list(w), **_untimed(facts)}
    assert all(est.diagnostics[k] > 0.0 for k in _STAGE_TIMES)


def test_head_below_the_threshold_is_the_dense_eigh():
    G = gen_family("hamming", [7])
    assert G.n < spectral._LANCZOS_MIN_N
    w, fiedler, facts = spectral._laplacian_head(G)
    with spectral._one_blas_thread():
        lam, V = np.linalg.eigh(reference_laplacian(G))
    assert w.tobytes() == lam[:4].tobytes() and fiedler.tobytes() == V[:, 1].tobytes()
    r = np.linalg.norm(reference_laplacian(G) @ V[:, 1] - lam[1] * V[:, 1])
    assert facts == {"eigensolver": "dense", "lanczos_steps": 0, "residual": pytest.approx(r, abs=1e-14), "lanczos_s": 0.0}
    # The exact request certifies the dense head as it does a Lanczos one.
    exact = spectral._exact_head(G)[2]
    cert = exact["certificate"]
    assert _untimed(exact) == {**_untimed(facts), "certificate": spectral._cholesky_certificate(G, w[1], facts["residual"])}
    assert cert["shift"] - cert["margin"] <= 2.0 <= w[1] * (1 + 1e-12) and exact["certificate_s"] > 0.0


@pytest.mark.parametrize(
    "kind,params,want",
    [("cycle", [2000], 4 * math.sin(math.pi / 2000) ** 2), ("path", [1000], 4 * math.sin(math.pi / 2000) ** 2)],
    ids=["cycle(2000)", "path(1000)"],
)
def test_unconverged_lanczos_falls_back_to_eigh(kind, params, want):
    # The residual of a clustered low spectrum stays above the value and
    # does not fall from the first check to the second, so the run gives up
    # there, not at _LANCZOS_MAX_STEPS.
    est = gap_exact_2(gen_family(kind, params))
    diag = est.diagnostics
    assert diag["eigensolver"] == "dense" and est.bound.lower_proof == "cholesky"
    assert diag["lanczos_steps"] == 2 * spectral._LANCZOS_CHECK_EVERY
    assert spectral._lanczos(gen_family(kind, params))[3] > est.value
    # the residual and the certificate are the dense head's
    assert diag["residual"] <= diag["certificate"]["margin"] and est.bound.lower <= want
    assert est.value == pytest.approx(want, rel=1e-9)


def _refuse(a):
    raise np.linalg.LinAlgError("forced")


@pytest.mark.parametrize("failure", ["cholesky", "no_convergence"])
def test_lanczos_failure_falls_back_to_eigh(monkeypatch, failure):
    dense = gap_exact_2(gen_family("random_regular", [200, 3], seed=4))
    monkeypatch.setattr(spectral, "_LANCZOS_MIN_N", 100)
    if failure == "cholesky":
        monkeypatch.setattr(np.linalg, "cholesky", _refuse)
    else:
        monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 20)
    G = gen_family("random_regular", [200, 3], seed=4)
    est = gap_exact_2(G)
    diag = est.diagnostics
    margin = spectral._certificate_margin(G, est.value)[1]
    assert diag["eigensolver"] == "dense" and diag["residual"] == dense.diagnostics["residual"]
    if failure == "cholesky":  # the run converged; its certificate failed, and so did the dense head's
        assert est.bound.lower_proof is None and diag["certificate"] is None
        # the head that descents read keeps the run's vector
        head = spectral._laplacian_head(G)[2]
        assert 0 < diag["lanczos_steps"] < 199 and head["eigensolver"] == "lanczos" and head["residual"] <= margin
    else:  # the dense head is certified
        assert est.bound == dense.bound and diag["certificate"] == dense.diagnostics["certificate"]
        assert diag["lanczos_steps"] == 20 and spectral._lanczos(G)[3] > margin
    assert est.value == dense.value
    assert est.minimizer.values.tobytes() == dense.minimizer.values.tobytes()


def _closed_forms():
    ns = (3, 4, 7, 16, 31, 64, 127, 255, 256, 300, 400)
    cases = [(f"cycle({n})", "cycle", [n], 4 * math.sin(math.pi / n) ** 2) for n in ns]
    cases += [(f"path({n})", "path", [n], 4 * math.sin(math.pi / (2 * n)) ** 2) for n in ns]
    cases += [(f"complete({n})", "complete", [n], float(n)) for n in ns]
    cases += [(f"H{k}", "hamming", [k], 2.0) for k in range(1, 9)]
    return [pytest.param(kind, params, want, id=label) for label, kind, params, want in cases]


@pytest.mark.parametrize("kind,params,want", _closed_forms())
def test_no_proven_lower_end_is_above_the_closed_form(kind, params, want):
    # On both solvers' paths, and on the dense fallback of the cycles and
    # paths from 256 vertices.
    est = gap_exact_2(gen_family(kind, params))
    assert est.bound.lower_proof == "cholesky"
    # the interval is r + 2 margin wide, with the residual r below a margin
    assert 0.0 < est.bound.lower <= want and est.value - est.bound.lower <= 3 * est.diagnostics["certificate"]["margin"]
    assert est.value == pytest.approx(want, rel=1e-9)


def test_suite_graphs_get_a_proven_lower_end(monkeypatch):
    # every exact gap of criteria 1, 6 and 10 at seed 1, and each sandwich
    # action's Schreier graph
    heads = {}
    exact_head = spectral._exact_head
    monkeypatch.setattr(spectral, "_exact_head", lambda G: heads.setdefault(id(G), (G, exact_head(G)))[1])
    assert all(r.passed for r in run_suite(["1", "6", "10"], seed=1))
    for _, a, _, _ in _sandwich_cases():
        gap_exact_2(schreier_graph(a))
    assert len(heads) > 400
    for G, (w, _, facts) in heads.values():
        cert = facts["certificate"]
        assert cert["shift"] - cert["margin"] <= np.linalg.eigvalsh(reference_laplacian(G))[1] <= w[1] * (1 + 1e-12)


def test_certificate_refuses_a_value_above_a_missed_eigenvalue():
    G = gen_family("random_regular", [200, 3], seed=4)
    lam = np.linalg.eigvalsh(reference_laplacian(G))
    # lambda_3 is an eigenvalue with a tiny residual, but lambda_2 lies below it.
    assert spectral._cholesky_certificate(G, float(lam[2]), 1e-14) is None
    cert = spectral._cholesky_certificate(G, float(lam[1]), 1e-14)
    lower = cert["shift"] - cert["margin"]
    assert lower <= lam[1] and lam[1] - lower <= 1e-9 * lam[1]


@pytest.mark.parametrize("width", [5, 128])
def test_blocked_certificate_refuses_a_value_above_a_missed_eigenvalue(monkeypatch, width):
    # rr(200,3) in blocks of 5 (40 blocks) and of 128 (two blocks)
    monkeypatch.setattr(spectral, "_CERT_BLOCKED_MIN_N", 0)
    monkeypatch.setattr(spectral, "_CERT_BLOCK", width)
    test_certificate_refuses_a_value_above_a_missed_eigenvalue()


@given(connected_multigraphs(2, 40), st.integers(3, 5))
@settings(max_examples=60, deadline=None)
def test_blocked_certificate_answers_alike_on_any_cpu_count(G, width):
    # Accepts at lambda_2 and refuses above a missed eigenvalue, the same on
    # one block and in blocks of 3-5, on 1, 2 or 3 usable CPUs.
    lam = np.linalg.eigvalsh(reference_laplacian(G))
    one_block = [spectral._cholesky_certificate(G, float(x), 1e-14) for x in lam[1:3]]
    assert one_block[0] is not None
    with mock.patch.object(spectral, "_CERT_BLOCKED_MIN_N", 0), mock.patch.object(spectral, "_CERT_BLOCK", width):
        for cpus in (1, 2, 3):
            with mock.patch.object(_parallel, "_usable_cpus", lambda: cpus):
                assert [spectral._cholesky_certificate(G, float(x), 1e-14) for x in lam[1:3]] == one_block
    if len(lam) > 2 and lam[2] - lam[1] > 4 * one_block[0]["margin"]:
        assert one_block[1] is None


def test_descents_run_no_certificate(monkeypatch):
    # A descent reads only the head; the first exact request on the same
    # object factors once, and a second reads its memo.
    calls = []
    certificate = spectral._cholesky_certificate
    monkeypatch.setattr(spectral, "_cholesky_certificate", lambda *a: calls.append(a) or certificate(*a))
    G = gen_family("margulis", [20])
    assert G.n >= spectral._LANCZOS_MIN_N
    for p, d in ((1.5, 1), (3.0, 2)):
        gap_estimate(G, p=p, q=2.0, d=d, seed=1, restarts=2, max_iter=10)
    assert calls == []
    for _ in range(2):
        assert gap_exact_2(G).bound.lower_proof == "cholesky"
    assert len(calls) == 1


@pytest.mark.parametrize("refused", [False, True], ids=["certified", "certificate_fails"])
def test_descent_start_does_not_depend_on_an_earlier_exact_request(monkeypatch, refused):
    if refused:
        monkeypatch.setattr(np.linalg, "cholesky", _refuse)
    first, alone = gen_family("margulis", [20]), gen_family("margulis", [20])
    assert gap_exact_2(first).bound.lower_proof == (None if refused else "cholesky")
    assert spectral._fiedler_start(first, 2).tobytes() == spectral._fiedler_start(alone, 2).tobytes()
    a, b = (gap_estimate(G, p=1.5, seed=2, restarts=3, max_iter=20) for G in (first, alone))
    assert a.value == b.value and a.minimizer.values.tobytes() == b.minimizer.values.tobytes()


# ----------------------------------------------------------------------
# Exact p = 1 gaps by cut enumeration
# ----------------------------------------------------------------------


def _random_multigraph(seed):
    """A seeded connected multigraph on 2 to 12 vertices: a random spanning
    tree, then extra edges, with multiplicities up to 3 and loops."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 13))
    edges = [(int(rng.integers(0, v)), v, int(rng.integers(1, 4))) for v in range(1, n)]
    edges += [(int(a), int(b), int(c)) for a, b, c in rng.integers(0, [n, n, 3], size=(int(rng.integers(0, 2 * n)), 3)) + [0, 0, 1]]
    return build_graph(n, edges)


def _assert_cut_route_exact(G, q=1.0, d=1):
    est = gap_estimate(G, p=1.0, q=q, d=d, seed=0, restarts=3)
    assert est.method == "cut_enumeration" and est.bound == Bound(est.value, est.value, "cuts", "cuts")
    assert est.value == pytest.approx(cut_quotient_min(G), rel=1e-12)
    assert rayleigh_quotient(G, est.minimizer) == pytest.approx(est.value, rel=1e-12)
    assert est.diagnostics == {"cuts": 2 ** (G.n - 1) - 1}
    col = est.minimizer.values[:, 0]
    assert len(np.unique(col)) == 2 and abs(col.sum()) <= 1e-12 and np.abs(col).sum() == pytest.approx(1.0, rel=1e-12)
    assert not est.minimizer.values[:, 1:].any()
    return est


@pytest.mark.parametrize("seed", range(40))
def test_cut_route_equals_brute_force_on_random_multigraphs(seed):
    G = _random_multigraph(seed)
    assert G.connected
    _assert_cut_route_exact(G, q=(1.0, 2.0, 3.0)[seed % 3])


@pytest.mark.parametrize("name,a,d,cube", _sandwich_cases(), ids=[c[0] for c in _sandwich_cases()])
def test_cut_route_equals_brute_force_on_sandwich_graphs(name, a, d, cube):
    _assert_cut_route_exact(schreier_graph(a), d=d)


@pytest.mark.parametrize("name", list(_SMALL_GRAPHS))
def test_cut_route_is_at_most_the_grid_oracle(name):
    n, edges = _SMALL_GRAPHS[name]
    G = build_graph(n, edges)
    est = gap_estimate(G, p=1.0, q=2.0, d=1)
    assert est.method == "cut_enumeration"
    oracle = gap_oracle_small(G, p=1.0, resolution=1e-4 if n <= 3 else 4e-3)
    assert est.value <= oracle.value * (1.0 + 1e-12)


def test_cut_route_up_to_24_vertices():
    assert gap_estimate(gen_family("cycle", [24]), p=1.0).method == "cut_enumeration"
    big = gap_estimate(gen_family("cycle", [25]), p=1.0, restarts=2, max_iter=10)
    assert big.method == "multistart_descent" and big.bound.lower_proof is None


def test_cut_route_at_d_above_one_only_when_q_is_one():
    for q, d, method in [(1.0, 1, "cut_enumeration"), (2.0, 1, "cut_enumeration"), (1.0, 3, "cut_enumeration"),
                         (2.0, 2, "multistart_descent"), (1.5, 3, "multistart_descent")]:
        est = gap_estimate(C6, p=1.0, q=q, d=d, seed=0, restarts=2, max_iter=20)
        assert (est.method, est.minimizer.values.shape[1], est.q) == (method, d, q)
    assert gap_estimate(C6, p=1.5, q=1.0, d=1, restarts=2, max_iter=20).method == "multistart_descent"


def test_cut_route_on_sl_mod_2_3_is_fast():
    G = schreier_graph(action_from_group("sl_mod", 2, 3))
    assert G.n == 24
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        est = gap_estimate(G, p=1.0, q=1.0)
        times.append(time.perf_counter() - t0)
    assert est.value == 1.0
    assert min(times) <= 0.1


@pytest.mark.parametrize("seed", range(51))
def test_cyclic_8_gap_at_p1_is_exactly_one_half(seed):
    # small's p = 1 sandwich settings; a descent returned 0.5003-0.5008 here
    S = schreier_graph(action_from_group("cyclic", 8))
    assert gap_estimate(S, p=1.0, q=1.0, d=1, seed=seed, restarts=24, max_iter=80).value == 0.5


def test_cut_route_prefers_a_threshold_cut_of_the_fiedler_vector():
    # symmetric(4) has ten minimising cuts; the Fiedler vector's top half is
    # one of them, and the one whose generators all displace equally.
    G = schreier_graph(action_from_group("symmetric", 4))
    est = gap_estimate(G, p=1.0)
    top = np.argsort(-spectral._laplacian_head(G)[1], kind="stable")[:12]
    assert est.value == 0.5
    assert set(np.flatnonzero(est.minimizer.values[:, 0] > 0)) == set(top.tolist())
