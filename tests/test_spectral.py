import math
import time

import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import cut_quotient_min
from kernel_reference import laplacian as reference_laplacian

from banachgap import spectral
from banachgap.acceptance import _SMALL_GRAPHS, _sandwich_cases
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
    assert rayleigh_quotient(K2, np.array([0.0, 1.0]), p=2, q=2) == pytest.approx(2.0)


def test_quotient_c4_eigenvector():
    C4 = gen_family("cycle", [4])
    f = np.array([1.0, 0.0, -1.0, 0.0])
    assert rayleigh_quotient(C4, f, p=2, q=2) == pytest.approx(2.0)


def test_quotient_constant_map_rejected():
    with pytest.raises(ValueError, match="constant"):
        rayleigh_quotient(C6, np.ones(6), p=2, q=2)


def test_one_dimensional_vector_map_is_one_column():
    f = VectorMap(np.arange(6.0), q=2.0, p=2.0)
    assert f.d == 1 and f.values.shape == (6, 1)
    assert rayleigh_quotient(C6, f) == rayleigh_quotient(C6, np.arange(6.0), p=2.0, q=2.0)


def test_quotient_ignores_loops_and_counts_multiplicity():
    G = build_graph(2, [(0, 1, 2), (0, 0, 3)])
    assert rayleigh_quotient(G, np.array([0.0, 1.0]), p=2, q=2) == pytest.approx(4.0)


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
    base = rayleigh_quotient(G, f, p=p, q=2)
    moved = rayleigh_quotient(G, alpha * f + shift, p=p, q=2)
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
        (lambda x: rayleigh_quotient(C6, np.arange(6.0), p=x, q=2.0), "p"),
        (lambda x: rayleigh_quotient(C6, np.arange(6.0), p=2.0, q=x), "q"),
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
        assert a.diagnostics == b.diagnostics


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
    w, y, facts, lower = spectral._lanczos_head(G)
    L = reference_laplacian(G)
    lam = np.linalg.eigvalsh(L)
    assert facts["eigensolver"] == "lanczos" and lower is not None
    assert abs(w[1] - lam[1]) <= 1e-9 * lam[1]
    assert lower <= lam[1] <= w[1] * (1 + 1e-12)
    # theta_3 and theta_4 are Ritz values, so upper bounds by interlacing.
    assert np.all(w[2:] >= lam[2 : len(w)] * (1 - 1e-12))
    assert w[0] == 0.0 and abs(y.sum()) <= 1e-12 and np.linalg.norm(y) == pytest.approx(1.0, rel=1e-14)
    assert facts["residual"] <= 1e-11 * w[1]
    assert np.linalg.norm(L @ y - w[1] * y) <= 1e-11 * w[1] + 1e-13


@pytest.mark.parametrize("build", _lanczos_cases())
def test_lanczos_head_is_certified(build):
    _assert_certified_head(build())


@given(connected_multigraphs(2, 40))
@settings(max_examples=150, deadline=None)
def test_lanczos_head_is_certified_on_multigraphs(G):
    _assert_certified_head(G)


def test_large_head_takes_the_lanczos_path():
    G = gen_family("margulis", [32])
    est = gap_exact_2(G)
    w, y, facts, lower = spectral._lanczos_head(gen_family("margulis", [32]))
    assert est.diagnostics["eigensolver"] == "lanczos"
    assert est.value == w[1] and est.minimizer.values[:, 0].tobytes() == y.tobytes()
    assert est.bound == Bound(lower, w[1], "cholesky", "admissible_map")
    assert {k: est.diagnostics[k] for k in facts} == facts


def test_head_below_the_threshold_is_the_dense_eigh():
    G = gen_family("hamming", [9])
    w, fiedler, facts, lower = spectral._laplacian_head(G)
    with spectral._one_blas_thread():
        lam, V = np.linalg.eigh(reference_laplacian(G))
    assert w.tobytes() == lam[:4].tobytes() and fiedler.tobytes() == V[:, 1].tobytes()
    assert facts == {"eigensolver": "dense", "lanczos_steps": 0, "residual": None} and lower is None


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
    assert diag["eigensolver"] == "dense" and est.bound.lower_proof == "eigh"
    assert diag["lanczos_steps"] == 2 * spectral._LANCZOS_CHECK_EVERY and diag["residual"] > est.value
    assert est.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("failure", ["cholesky", "no_convergence"])
def test_lanczos_failure_falls_back_to_eigh(monkeypatch, failure):
    dense = gap_exact_2(gen_family("random_regular", [200, 3], seed=4))
    monkeypatch.setattr(spectral, "_LANCZOS_MIN_N", 100)
    if failure == "cholesky":

        def refuse(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
    else:
        monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 20)
    est = gap_exact_2(gen_family("random_regular", [200, 3], seed=4))
    diag = est.diagnostics
    assert diag["eigensolver"] == "dense" and est.bound.lower_proof == "eigh"
    if failure == "cholesky":  # the run converged; its certificate failed
        assert 0 < diag["lanczos_steps"] < 199 and diag["residual"] <= 1e-11 * est.value
    else:
        assert diag["lanczos_steps"] == 20 and diag["residual"] > 1e-11 * est.value
    assert est.value == dense.value
    assert est.minimizer.values.tobytes() == dense.minimizer.values.tobytes()


def test_certificate_refuses_a_value_above_a_missed_eigenvalue():
    G = gen_family("random_regular", [200, 3], seed=4)
    lam = np.linalg.eigvalsh(reference_laplacian(G))
    # lambda_3 is an eigenvalue with a tiny residual, but lambda_2 lies below it.
    assert spectral._cholesky_lower_bound(G, float(lam[2]), 1e-14) is None
    lower = spectral._cholesky_lower_bound(G, float(lam[1]), 1e-14)
    assert lower is not None and lower <= lam[1] and lam[1] - lower <= 1e-9 * lam[1]


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
        assert (est.method, est.minimizer.d, est.q) == (method, d, q)
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
