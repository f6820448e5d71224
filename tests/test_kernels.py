"""Block kernels checked against the single-start references in
``kernel_reference`` and against closed forms."""

import math

import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import (
    _kappa_grad,
    _kappa_normalize,
    _kappa_residuals,
    descend,
    grads,
    kappa_descend,
    oracle_circle,
    oracle_sphere,
    ratio_parts,
    sphere_row,
)

from banachgap import _kernels
from banachgap.acceptance import _SMALL_GRAPHS
from banachgap.graphs import build_graph, gen_family
from banachgap.groups import action_from_group, kappa_estimate, schreier_graph
from banachgap.spectral import (
    VectorMap,
    _fiedler_start,
    gap_estimate,
    gap_exact_2,
    gap_oracle_small,
    mean_zero_basis,
    rayleigh_quotient,
)

BETAS = np.array([1e1, 1e2, 1e3, 1e4])


@pytest.fixture(scope="module")
def graph_arrays():
    G = gen_family("random_regular", [16, 3], seed=2)
    return G.nonloop_arrays()


def _gap_starts(G, count, seed):
    """Fiedler vector, its sign rounding and Gaussian draws, as gap_estimate
    draws them at d=1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fied = _fiedler_start(G, 1)
    rounded = np.sign(fied)
    rounded[rounded == 0.0] = 1.0
    return np.stack([fied, rounded] + [rng.standard_normal((G.n, 1)) for _ in range(count - 2)])


_DESCENT_GRAPHS = [(name, build_graph(n, edges)) for name, (n, edges) in _SMALL_GRAPHS.items()] + [
    ("cyclic(8)", schreier_graph(action_from_group("cyclic", 8))),
    ("sl_mod(2,3)", schreier_graph(action_from_group("sl_mod", 2, 3))),
]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("name,G", _DESCENT_GRAPHS, ids=[name for name, _ in _DESCENT_GRAPHS])
def test_block_descent_best_matches_single_start_reference(name, G, p):
    # The reference is the gradient descent.  At p = 1 the block takes the
    # same subgradient path; at p > 1 it takes the L-BFGS direction, whose
    # best may only be lower, since the quotient's value is an upper estimate.
    eu, ev, em = G.nonloop_arrays()
    starts = _gap_starts(G, 6, seed=1)
    values = _kernels.descend_block(starts, eu, ev, em, p, p, 400, 1e-10)[1]
    ref = min(descend(np.ascontiguousarray(F), eu, ev, em, p, p, 400, 1e-10)[1] for F in starts)
    if p == 1.0:
        assert values.min() == pytest.approx(ref, rel=1e-9)
    else:
        assert values.min() <= ref * (1.0 + 1e-9)


def _same_alone_and_in_a_block(descent, starts):
    """Each start gives the same value, iterations, stop code, backtrack
    count and point alone as in the block; ``descent`` returns (points,
    values, iterations, stops, backtracks)."""
    Fb, vb, itb, stopb, btb = descent(starts)
    for k in range(len(starts)):
        Fa, va, ita, stopa, bta = descent(starts[k : k + 1])
        assert va[0] == pytest.approx(vb[k], rel=1e-9)
        assert stopa[0] == stopb[k]
        assert ita[0] == itb[k]
        assert bta[0] == btb[k]
        assert np.allclose(Fa[0], Fb[k], rtol=0.0, atol=1e-12)
    return stopb


def _gap_descent(G, p, q, max_iter):
    eu, ev, em = G.nonloop_arrays()

    def descent(starts):
        F, values, iters, _, stops, backtracks, _, _ = _kernels.descend_block(starts, eu, ev, em, p, q, max_iter, 1e-10)
        return F, values, iters, stops, backtracks

    return descent


def test_start_runs_the_same_alone_and_in_a_block():
    # p = 1 takes the subgradient, p = 1.5 with q = 2 the L-BFGS direction
    G = gen_family("random_regular", [10, 3], seed=4)
    starts = np.random.Generator(np.random.PCG64(5)).standard_normal((6, G.n, 2))
    for p, direction in [(1.0, "gradient"), (1.5, "quasi_newton")]:
        assert _kernels.gap_direction(p, 2.0) == direction
        _same_alone_and_in_a_block(_gap_descent(G, p, 2.0, 300), starts)


def test_kappa_start_runs_the_same_alone_and_in_a_block():
    perms = np.ascontiguousarray(action_from_group("sl_mod", 2, 3).perms)
    starts = np.random.Generator(np.random.PCG64(3)).standard_normal((5, 24, 2))
    _same_alone_and_in_a_block(lambda xi0: _kernels.kappa_descend_block(xi0, perms, 1.5, BETAS, 100, 1e-12)[:5], starts)


def test_quasi_newton_direction_is_the_two_loop_recursion():
    """H g equals a plain loop-by-loop two-loop recursion on the same pairs,
    with the oldest pair dropped once the memory is full."""
    rng = np.random.Generator(np.random.PCG64(8))
    B, N = 3, 7
    A = rng.standard_normal((N, N))
    A = A @ A.T + N * np.eye(N)  # y = A s keeps s.y > 0
    qn = _kernels._QuasiNewton(B, N)
    x, pairs, last = rng.standard_normal((B, N)), [], None
    for _ in range(_kernels._MEMORY + 2):
        g = x @ A + rng.standard_normal((B, N)) * 1e-3
        if last is not None:
            pairs.append((x - last[0], g - last[1]))
        d, slope, newton = qn.direction(x[:, None, :], g[:, None, :], (g * g).sum(axis=1))
        assert newton.all() == bool(pairs)
        for b in range(B):
            want = g[b].copy()
            mem = [(s[b], y[b]) for s, y in pairs[-_kernels._MEMORY :]]
            alpha = []
            for s, y in reversed(mem):
                alpha.append(s @ want / (s @ y))
                want -= alpha[-1] * y
            if mem:
                s, y = mem[-1]
                want *= s @ y / (y @ y)
            for (s, y), a in zip(mem, reversed(alpha)):
                want += s * (a - y @ want / (s @ y))
            assert np.allclose(d[b, 0], want, rtol=1e-10, atol=1e-12)
            assert slope[b] == pytest.approx(g[b] @ d[b, 0], rel=1e-12)
        last, x = (x, g), x - 0.1 * d[:, 0]


def test_quasi_newton_direction_is_the_dense_bfgs_inverse_hessian():
    """H g equals the dense BFGS update H <- (I - rho s y^T) H (I - rho y s^T)
    + rho s s^T from H0 = gamma I over the newest ``_MEMORY`` stored pairs,
    through more stores than the memory holds, a step that stores no pair
    (s = 0) and a ``keep`` that drops a start."""
    rng = np.random.Generator(np.random.PCG64(11))
    B, N = 4, 6
    A = rng.standard_normal((N, N))
    A = A @ A.T + N * np.eye(N)  # y = A s keeps s.y > 0
    qn = _kernels._QuasiNewton(B, N)
    alive, stored = list(range(B)), {b: [] for b in range(B)}
    x, last = rng.standard_normal((B, N)), None
    for it in range(_kernels._MEMORY + 4):
        if it == 3:  # start 1 leaves the block
            mask = np.array([b != 1 for b in alive])
            qn.keep(mask)
            alive, x, last = [b for b in alive if b != 1], x[mask], (last[0][mask], last[1][mask])
        g = x @ A + rng.standard_normal(x.shape) * 1e-3
        if last is not None:
            for k, b in enumerate(alive):
                s, y = x[k] - last[0][k], g[k] - last[1][k]
                if s @ y > 0.0:
                    stored[b].append((s, y))
        d, slope, newton = qn.direction(x[:, None, :], g[:, None, :], (g * g).sum(axis=1))
        for k, b in enumerate(alive):
            mem = stored[b][-_kernels._MEMORY :]
            H = np.eye(N)
            if mem:
                s, y = mem[-1]
                H *= s @ y / (y @ y)
            for s, y in mem:
                rho = 1.0 / (s @ y)
                V = np.eye(N) - rho * np.outer(y, s)
                H = V.T @ H @ V + rho * np.outer(s, s)
            want = H @ g[k]
            assert np.linalg.norm(d[k, 0] - want) <= 1e-10 * np.linalg.norm(want)
            assert newton[k] == bool(mem) and slope[k] == pytest.approx(g[k] @ d[k, 0], rel=1e-12)
        last, x = (x, g), x - 0.1 * d[:, 0]
        if it == 2:  # start 0 stays put once: s = 0 stores no pair
            x[0] = last[0][0]
    assert len(stored[0]) == _kernels._MEMORY + 2 and len(stored[2]) == _kernels._MEMORY + 3


def test_quasi_newton_line_search_starts_at_step_one_with_slope_g_dot_d(monkeypatch):
    # For 4 starts at d = 2 (8n block entries): a block of at most
    # _PASS_ENTRIES = 768 entries tries as many steps as fit, up to
    # _PASS_LEVELS = 16 (9 at n = 10); a larger one tries _LEVELS, or step 1
    # alone once every start takes the quasi-Newton direction, and never
    # fewer than fit (2 at n = 40, 1 at n = 100).
    real = _kernels._backtrack
    for n, gradient_levels, newton_levels in [(10, 9, 9), (40, 4, 2), (100, 4, 1)]:
        G = gen_family("random_regular", [n, 3], seed=4)
        eu, ev, em = G.nonloop_arrays()
        scatter = _kernels._edge_scatter_index(eu, ev, G.n, 8)
        calls = []

        def spy(X, direction, f0, slope, eta_try, todo, levels, *rest):
            E, D, gE, gD = _kernels._block_grads(X, eu, ev, em, 1.5, 2.0, scatter)
            g = (gE - (E / D)[:, None, None] * gD) / D[:, None, None]
            g -= g.mean(axis=2, keepdims=True)
            assert np.allclose(slope, (g * direction).sum(axis=(1, 2)), rtol=1e-9, atol=0.0)
            calls.append((np.allclose(direction, g, rtol=1e-9, atol=0.0), eta_try.copy(), levels))
            return real(X, direction, f0, slope, eta_try, todo, levels, *rest)

        monkeypatch.setattr(_kernels, "_backtrack", spy)
        starts = np.random.Generator(np.random.PCG64(6)).standard_normal((4, G.n, 2))
        _kernels.descend_block(starts, eu, ev, em, 1.5, 2.0, 30, 1e-10)
        assert calls[0][0] and calls[0][2] == gradient_levels  # no curvature pair yet
        # then every start takes the quasi-Newton direction, from step 1
        assert all(not gradient and (eta_try == 1.0).all() for gradient, eta_try, _ in calls[1:])
        assert [levels for _, _, levels in calls[1:]] == [newton_levels] * (len(calls) - 1)


@pytest.mark.parametrize("forced", [1, _kernels._LEVELS])
def test_the_pass_rule_changes_no_output(monkeypatch, forced):
    """How many trials the first backtracking pass tries is a speed choice
    only: with a forced first pass of ``forced`` trials both adapters give
    byte-identical points, values, iterations, stops, steps and backtracks,
    on smooth (quasi-Newton) and kinked (gradient) gap quotients and on the
    kappa descent, and take at least as many passes as with the rule."""
    G = gen_family("random_regular", [10, 3], seed=4)
    eu, ev, em = G.nonloop_arrays()
    perms = np.ascontiguousarray(action_from_group("sl_mod", 2, 3).perms)
    rng = np.random.Generator(np.random.PCG64(7))
    gap_starts, kappa_starts = rng.standard_normal((5, G.n, 2)), rng.standard_normal((3, 24, 2))

    def runs():
        return [
            _kernels.descend_block(gap_starts, eu, ev, em, 1.5, 2.0, 150, 1e-10),
            _kernels.descend_block(gap_starts[:, :, :1], eu, ev, em, 1.0, 1.0, 150, 1e-10),
            _kernels.kappa_descend_block(kappa_starts, perms, 1.5, BETAS, 60, 1e-12),
            _kernels.kappa_descend_block(kappa_starts[:, :, :1], perms, 3.0, BETAS, 60, 1e-12),
        ]

    rule = runs()
    real = _kernels._backtrack

    def force(X, direction, f0, slope, eta_try, todo, levels, *rest):
        return real(X, direction, f0, slope, eta_try, todo, forced, *rest)

    monkeypatch.setattr(_kernels, "_backtrack", force)
    for ours, theirs in zip(rule, runs()):
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(ours[:-1], theirs[:-1]))
        assert ours[-1] <= theirs[-1]


def test_diagnostics_count_the_backtracking_passes(monkeypatch):
    """``diagnostics["passes"]`` of gap_estimate and kappa_estimate is the
    block's number of backtracking passes: the sum of what ``_backtrack``
    reports, at least one per block iteration, and the same on a rerun."""
    real, counted = _kernels._backtrack, []

    def spy(*args):
        out = real(*args)
        counted.append(out[-1])
        return out

    monkeypatch.setattr(_kernels, "_backtrack", spy)
    a = action_from_group("sl_mod", 2, 3)
    gap = gap_estimate(schreier_graph(a), p=1.5, q=1.5, restarts=4, max_iter=60, seed=3)
    for estimate in (
        lambda: gap_estimate(schreier_graph(a), p=1.5, q=1.5, restarts=4, max_iter=60, seed=3),
        lambda: kappa_estimate(a, p=1.5, restarts=2, max_iter=200, seed=3, gap=gap),
    ):
        counted.clear()
        diag = estimate().diagnostics
        iterations = max(r["iterations"] for r in diag["per_restart"])
        assert diag["passes"] == sum(counted) >= iterations > 0
        assert estimate().diagnostics["passes"] == diag["passes"]


def test_quasi_newton_start_without_a_descent_direction_takes_the_gradient():
    rng = np.random.Generator(np.random.PCG64(2))
    qn = _kernels._QuasiNewton(2, 5)
    x, g = rng.standard_normal((2, 1, 5)), rng.standard_normal((2, 1, 5))
    qn.direction(x, g, (g * g).sum(axis=(1, 2)))
    qn.direction(x + 0.1 * g, 2.0 * g, 4.0 * (g * g).sum(axis=(1, 2)))  # s.y > 0: both store a pair
    qn.gamma[0] = -1e6  # start 0's H is now far from positive definite
    g3 = rng.standard_normal((2, 1, 5))
    g2 = (g3 * g3).sum(axis=(1, 2))
    d, slope, newton = qn.direction(x + 0.1 * g, g3, g2)  # s = 0: no pair is stored
    assert newton.tolist() == [False, True] and (qn.rho[:, 0] > 0.0).tolist() == [False, True]
    assert np.array_equal(d[0], g3[0]) and slope[0] == g2[0]
    assert slope[1] > 0.0 and not np.allclose(d[1], g3[1])
    assert not (qn.S[0].any() or qn.Y[0].any() or qn.rho[0].any()) and qn.gamma[0] == 1.0


@pytest.mark.parametrize("levels", [1, _kernels._LEVELS, _kernels._PASS_LEVELS])
def test_backtrack_counts_the_trials_a_one_at_a_time_search_rejects(levels):
    # f(x) = x^2 from x = 1 along -2 (the gradient), with first trials that
    # pass at once, after one pass, after several passes and at the last
    # allowed trial; the start after those needs one trial more than the
    # search allows, and the last has no admissible trial, so both fail.
    # ``levels`` is the number of trials in the first pass, and each later
    # pass tries max(levels, _LEVELS), so the two failing starts take
    # 1 + ceil((cap - levels) / max(levels, _LEVELS)) passes.
    cap = _kernels._BACKTRACKS
    first = np.array([0.5, 1.0, 100.0, 0.9 / 0.6 ** (cap - 1), 0.9 / 0.6**cap, 1.0])
    X = np.ones((first.size, 1, 1))

    def evaluate(trials, rows, stage):
        f = trials.ravel() ** 2
        starts = np.arange(first.size)[rows]
        return f, np.repeat(starts != 5, len(trials) // len(starts)), f

    todo = np.ones(first.size, dtype=bool)
    _, _, steps, accepted, rejected, passes = _kernels._backtrack(
        X, 2.0 * X, np.ones(first.size), np.full(first.size, 4.0), first.copy(), todo, levels, 0.6, evaluate, None
    )
    for k, t in enumerate(first[:5]):
        count = 0
        while (1.0 - 2.0 * t) ** 2 > 1.0 - _kernels._ARMIJO * t * 4.0 and count < cap:
            t *= 0.6
            count += 1
        assert rejected[k] == count and (count == cap or steps[k] == t)
    assert rejected.tolist() == [0, 1, rejected[2], cap - 1, cap, cap] and rejected[2] > _kernels._LEVELS
    assert accepted.tolist() == [True, True, True, True, False, False]
    assert passes == 1 + math.ceil((cap - levels) / max(levels, _kernels._LEVELS))
    # a start outside todo is evaluated in the first pass but accepts nothing
    todo[0] = False
    _, _, _, accepted, rejected, _ = _kernels._backtrack(
        X, 2.0 * X, np.ones(first.size), np.full(first.size, 4.0), first.copy(), todo, levels, 0.6, evaluate, None
    )
    assert not accepted[0] and rejected[0] == 0 and accepted[1:4].all()


def test_gap_descent_with_no_iterations_returns_the_scaled_starts():
    G = gen_family("cycle", [6])
    eu, ev, em = G.nonloop_arrays()
    starts = _gap_starts(G, 4, seed=2)
    F, values, iters, steps, stops, backtracks, _, passes = _kernels.descend_block(starts, eu, ev, em, 1.5, 2.0, 0, 1e-10)
    centred = starts - starts.mean(axis=1, keepdims=True)
    for k, S in enumerate(centred):
        E, D = _kernels.ratio_parts(S, eu, ev, em, 1.5, 2.0)
        assert np.allclose(F[k], S / D ** (1 / 1.5), rtol=0.0, atol=1e-12)
        assert values[k] == pytest.approx(E / D, rel=1e-12)
    assert (iters == 0).all() and (steps == 0.0).all() and (backtracks == 0).all() and passes == 0
    assert all(_kernels.STOP_REASONS[s] == "max_iter" for s in stops)


def test_kappa_descent_never_stalls():
    # a tiny step tolerance and long stages, where the gap descent's stall rule would fire
    perms = np.ascontiguousarray(action_from_group("cyclic", 8).perms)
    starts = np.random.Generator(np.random.PCG64(4)).standard_normal((6, 8, 1))
    _, _, iters, stops, _, _, _ = _kernels.kappa_descend_block(starts, perms, 1.0, BETAS, 300, 0.0)
    assert iters.max() > _kernels._STALL_ITERS
    assert all(_kernels.STOP_REASONS[s] != "stalled" for s in stops)


def test_degenerate_start_stops_at_once():
    G = gen_family("cycle", [5])
    eu, ev, em = G.nonloop_arrays()
    starts = np.stack([np.ones((5, 1)), _gap_starts(G, 2, seed=0)[0]])
    _, values, iters, _, stops, _, _, _ = _kernels.descend_block(starts, eu, ev, em, 1.5, 2.0, 200, 1e-10)
    assert _kernels.STOP_REASONS[stops[0]] == "degenerate"
    assert values[0] == np.inf and iters[0] == 0
    assert np.isfinite(values[1])


COLUMN_EXPONENTS = st.sampled_from([1.0, 1.5, 2.0, 3.0])


@st.composite
def _column_blocks(draw, n):
    """Three Gaussian (n, d) starts, d in {2, 3}, that all vanish on a drawn
    proper subset of the columns, and the columns kept."""
    d = draw(st.sampled_from([2, 3]))
    kept = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    starts = np.zeros((3, n, d))
    starts[:, :, kept] = rng.standard_normal((3, n, len(kept)))
    return starts, kept


def _assert_re_embeds(full, narrow, kept):
    """``full`` is ``narrow``, bit for bit, with the points re-embedded in
    the kept columns and exact zeros elsewhere, and both descended the kept
    columns alone."""
    want = np.zeros(full[0].shape)
    want[:, :, kept] = narrow[0]
    assert full[0].tobytes() == want.tobytes()
    assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(full[1:], narrow[1:]))
    assert full[-2] == len(kept)


@given(connected_multigraphs(2, 12), COLUMN_EXPONENTS, COLUMN_EXPONENTS, st.data())
@settings(max_examples=60, deadline=None)
def test_gap_descent_leaves_out_the_columns_every_start_leaves_at_zero(G, p, q, data):
    eu, ev, em = G.nonloop_arrays()
    starts, kept = data.draw(_column_blocks(G.n))
    full = _kernels.descend_block(starts, eu, ev, em, p, q, 40, 1e-10)
    narrow = _kernels.descend_block(np.ascontiguousarray(starts[:, :, kept]), eu, ev, em, p, q, 40, 1e-10)
    _assert_re_embeds(full, narrow, kept)


@given(st.integers(2, 12), st.integers(1, 3), COLUMN_EXPONENTS, st.data())
@settings(max_examples=60, deadline=None)
def test_kappa_descent_leaves_out_the_columns_every_start_leaves_at_zero(m, g, p, data):
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    perms = rng.permuted(np.tile(np.arange(m), (g, 1)), axis=1)
    starts, kept = data.draw(_column_blocks(m))
    full = _kernels.kappa_descend_block(starts, perms, p, BETAS, 10, 1e-12)
    narrow = _kernels.kappa_descend_block(np.ascontiguousarray(starts[:, :, kept]), perms, p, BETAS, 10, 1e-12)
    _assert_re_embeds(full, narrow, kept)


def test_all_zero_starts_descend_no_column():
    G = gen_family("cycle", [6])
    eu, ev, em = G.nonloop_arrays()
    perms = np.ascontiguousarray(action_from_group("cyclic", 6).perms)
    starts = np.zeros((3, 6, 2))
    F, values, iters, steps, stops, bt, columns, passes = _kernels.descend_block(starts, eu, ev, em, 1.5, 2.0, 50, 1e-10)
    assert F.shape == starts.shape and not F.any() and (steps == 0.0).all()
    xi, kvalues, kiters, kstops, kbt, kcolumns, kpasses = _kernels.kappa_descend_block(starts, perms, 2.0, BETAS, 50, 1e-12)
    assert xi.shape == starts.shape and not xi.any()
    for v, it, stop, b, c, k in [(values, iters, stops, bt, columns, passes), (kvalues, kiters, kstops, kbt, kcolumns, kpasses)]:
        assert (v == np.inf).all() and not it.any() and not b.any() and c == 0 and k == 0
        assert all(_kernels.STOP_REASONS[s] == "degenerate" for s in stop)


def test_a_constant_warm_start_column_is_dropped():
    # a constant column is zero once centred, so it drops out like a zero one
    G = gen_family("cycle", [6])
    eu, ev, em = G.nonloop_arrays()
    rng = np.random.Generator(np.random.PCG64(4))
    starts = np.full((3, 6, 2), 3.0)
    starts[:, :, 0] = rng.standard_normal((3, 6))
    full = _kernels.descend_block(starts, eu, ev, em, 1.5, 2.0, 60, 1e-10)
    _assert_re_embeds(full, _kernels.descend_block(starts[:, :, :1], eu, ev, em, 1.5, 2.0, 60, 1e-10), [0])
    est = gap_estimate(G, p=1.5, d=2, restarts=3, warm_starts=[starts[0]])
    assert est.diagnostics["columns"] == 1
    assert est.minimizer.values.shape == (6, 2) and not est.minimizer.values[:, 1].any()


def test_estimators_report_the_columns_descended():
    # with no Gaussian draw both gap starts are zero off column 0
    G = gen_family("random_regular", [10, 3], seed=4)
    one = gap_estimate(G, p=1.5, d=2, restarts=2, max_iter=40)
    assert one.diagnostics["columns"] == 1 and not one.minimizer.values[:, 1].any()
    assert gap_estimate(G, p=1.5, d=2, restarts=3, max_iter=40).diagnostics["columns"] == 2
    a = action_from_group("cyclic", 6)
    gap = gap_exact_2(schreier_graph(a))
    assert kappa_estimate(a, p=1.5, d=2, restarts=1, max_iter=40, gap=gap).diagnostics["columns"] == 1
    assert kappa_estimate(a, p=1.5, d=2, restarts=2, max_iter=40, gap=gap).diagnostics["columns"] == 2


@pytest.mark.parametrize(
    "group,params,d", [("cyclic", (8,), 1), ("boolean_cube", (3,), 3), ("sl_mod", (2, 3), 1)]
)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_block_kappa_descent_matches_single_start_reference(group, params, d, p):
    a = action_from_group(group, *params)
    perms = np.ascontiguousarray(a.perms.astype(np.int64))
    rng = np.random.Generator(np.random.PCG64(11))
    starts = np.stack([rng.standard_normal((a.m, d)) for _ in range(4)])
    xis, values, _, stops, _, _, _ = _kernels.kappa_descend_block(starts, perms, p, BETAS, 100, 1e-12)
    for k, xi0 in enumerate(starts):
        _, ref, _ = kappa_descend(np.ascontiguousarray(xi0), perms, p, BETAS, 100, 1e-12)
        assert values[k] == pytest.approx(ref, rel=1e-9)
    assert np.allclose(xis.sum(axis=1), 0.0, atol=1e-12)
    assert all(_kernels.STOP_REASONS[s] in ("converged", "line_search", "max_iter") for s in stops)


def test_kappa_block_stops_once_it_reaches_the_target():
    # The target is a value the free descent reaches: the block stops at the
    # first iteration a start's true max residual is at most the target, and
    # every start still in a stage then stops as certified.
    perms = np.ascontiguousarray(action_from_group("sl_mod", 2, 3).perms)
    starts = np.random.Generator(np.random.PCG64(6)).standard_normal((5, 24, 1))
    _, free, free_it, free_stop, _, _, _ = _kernels.kappa_descend_block(starts, perms, 1.5, BETAS, 100, 1e-12)
    assert _kernels.STOP_CERTIFIED not in free_stop
    target = float(free.min()) * 1.01
    _, value, it, stop, _, _, _ = _kernels.kappa_descend_block(starts, perms, 1.5, BETAS, 100, 1e-12, target)
    certified = stop == _kernels.STOP_CERTIFIED
    assert certified.any() and value.min() <= target
    assert len(set(it[certified])) == 1 and (it[~certified] < it[certified][0]).all()
    assert it[certified][0] < free_it.max()


def test_certified_stop_overrides_a_stage_that_ends_at_the_same_iteration():
    # With one iteration per stage every start ends stage 0 at iteration 1
    # (max_iter); the target is the block's best after that iteration, so
    # the stop is certified, not the end of an early stage.
    perms = np.ascontiguousarray(action_from_group("cyclic", 7).perms)
    starts = np.random.Generator(np.random.PCG64(9)).standard_normal((3, 7, 1))
    first = _kernels.kappa_descend_block(starts, perms, 1.5, BETAS[:1], 1, 1e-12)[1].min()
    _, value, it, stop, _, _, _ = _kernels.kappa_descend_block(starts, perms, 1.5, BETAS, 1, 1e-12, first)
    assert value.min() == first
    assert [_kernels.STOP_REASONS[s] for s in stop] == ["certified"] * 3 and (it == 1).all()


def test_kappa_start_at_the_target_costs_no_iteration():
    # The cos field attains kappa(cyclic(6), 2) = 1 exactly: the whole block
    # stops before its first iteration, a degenerate start apart.
    perms = np.ascontiguousarray(action_from_group("cyclic", 6).perms)
    rng = np.random.Generator(np.random.PCG64(2))
    wave = np.cos(np.pi * np.arange(6) / 3)[:, None]
    starts = np.stack([rng.standard_normal((6, 1)), wave, np.ones((6, 1))])
    _, value, it, stop, bt, _, passes = _kernels.kappa_descend_block(starts, perms, 2.0, BETAS, 100, 1e-12, 1.0 + 1e-9)
    assert [_kernels.STOP_REASONS[s] for s in stop] == ["certified", "certified", "degenerate"]
    assert (it == 0).all() and (bt == 0).all() and passes == 0
    assert value[1] == pytest.approx(1.0, rel=1e-12) and value[2] == np.inf


def test_kappa_descent_cyclic_closed_form():
    a = action_from_group("cyclic", 6)
    perms = np.ascontiguousarray(a.perms)
    rng = np.random.Generator(np.random.PCG64(11))
    xi0 = rng.standard_normal((1, a.m, 1))
    value = _kernels.kappa_descend_block(xi0, perms, 2.0, BETAS, 400, 1e-12)[1]
    assert value[0] == pytest.approx(1.0, abs=1e-3)  # 2 sin(pi/6)


@pytest.mark.parametrize("p,q,d", [(2.0, 2.0, 1), (1.5, 2.0, 2), (1.0, 1.0, 3), (3.0, 1.5, 2)])
def test_ratio_parts_matches_direct_sum(graph_arrays, p, q, d):
    eu, ev, em = graph_arrays
    rng = np.random.Generator(np.random.PCG64(5))
    F = rng.standard_normal((16, d))
    F -= F.mean(axis=0)
    E, D = _kernels.ratio_parts(F, eu, ev, em, p, q)
    E_ref = sum(m * np.linalg.norm(F[u] - F[v], ord=q) ** p for u, v, m in zip(eu, ev, em))
    D_ref = sum(np.linalg.norm(row, ord=q) ** p for row in F)
    assert E == pytest.approx(E_ref, rel=1e-12)
    assert D == pytest.approx(D_ref, rel=1e-12)


@pytest.mark.parametrize("p,q,d", [(2.0, 2.0, 1), (1.5, 2.0, 2), (3.0, 1.5, 2), (2.5, 2.5, 3)])
def test_edge_and_spread_gradients_match_finite_differences(graph_arrays, p, q, d):
    # smooth exponents only; the kink cases use the 0 subgradient by design
    eu, ev, em = graph_arrays
    rng = np.random.Generator(np.random.PCG64(3))
    F = rng.standard_normal((16, d))
    F -= F.mean(axis=0)
    scatter = _kernels._edge_scatter_index(eu, ev, 16, d)
    E, D, gE, gD = _kernels._block_grads(F.T[None].copy(), eu, ev, em, p, q, scatter)
    h = 1e-6
    for _ in range(12):
        i, j = int(rng.integers(16)), int(rng.integers(d))
        Fp = F.copy()
        Fp[i, j] += h
        Fm = F.copy()
        Fm[i, j] -= h
        Ep, Dp = _kernels.ratio_parts(Fp, eu, ev, em, p, q)
        Em, Dm = _kernels.ratio_parts(Fm, eu, ev, em, p, q)
        assert (Ep - Em) / (2 * h) == pytest.approx(gE[0, j, i], rel=2e-4, abs=2e-5)
        assert (Dp - Dm) / (2 * h) == pytest.approx(gD[0, j, i], rel=2e-4, abs=2e-5)


# (p, q, d) for the kernels against the reference loops: d = 1 with q != 2,
# q = p, q = 2, p in {1, 3}, and p < q, where the zero-norm guard matters.
_POWER_CASES = [(1.5, 3.0, 1), (1.0, 1.5, 1), (3.0, 3.0, 1), (1.5, 1.5, 2), (3.0, 2.0, 2), (1.0, 2.0, 3), (1.0, 1.0, 2)]


@pytest.mark.parametrize("p,q,d", _POWER_CASES)
def test_gap_kernels_match_the_reference_with_zero_edge_differences(graph_arrays, p, q, d):
    """``_block_grads`` and ``_block_ratio`` match the reference loops to
    1e-12, also on an edge whose difference is zero, where the power p - q
    of its norm is kept out (it is negative when p < q), and on an edge
    whose difference is zero in one coordinate only."""
    eu, ev, em = graph_arrays
    F = np.random.Generator(np.random.PCG64(12)).standard_normal((16, d))
    F[eu[0]] = F[ev[0]]
    k = next(k for k in range(len(eu)) if not {eu[k], ev[k]} & {eu[0], ev[0]})
    F[eu[k], 0] = F[ev[k], 0]
    F -= F.mean(axis=0)
    assert (F[eu] == F[ev]).all(axis=1).any()
    E, D, gE, gD = _kernels._block_grads(F.T[None].copy(), eu, ev, em, p, q, _kernels._edge_scatter_index(eu, ev, 16, d))
    E_ref, D_ref, gE_ref, gD_ref = grads(F, eu, ev, em, p, q)
    assert E[0] == pytest.approx(E_ref, rel=1e-12) and D[0] == pytest.approx(D_ref, rel=1e-12)
    for g, ref in ((gE[0].T, gE_ref), (gD[0].T, gD_ref)):
        assert np.allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    E, D = _kernels._block_ratio(F.T[None].copy(), eu, ev, em, p, q)
    assert (E[0], D[0]) == pytest.approx(ratio_parts(F, eu, ev, em, p, q), rel=1e-12)


@pytest.mark.parametrize("p,d", [(1.0, 1), (1.5, 2), (3.0, 1), (3.0, 3)])
def test_kappa_kernels_match_the_reference_with_a_fixed_generator(p, d):
    """The kappa kernels (residuals, normalisation, and the smoothed max
    with its gradient) match the reference loops to 1e-12, with a field
    that generator 0 fixes, so its residual and differences are all zero
    and the power 1 - p of its residual is kept out."""
    perms = np.ascontiguousarray(action_from_group("boolean_cube", 3).perms)
    g, m = perms.shape
    assert (perms[0][perms[0]] == np.arange(m)).all()  # an involution
    xi = np.random.Generator(np.random.PCG64(4)).standard_normal((m, d))
    xi = xi + xi[perms[0]]  # fixed by generator 0
    ref = xi.copy()
    S_ref = _kappa_normalize(ref, p)
    block = xi.T[None].copy()
    assert _kernels._block_kappa_normalize(block, p)[0] == pytest.approx(S_ref, rel=1e-12)
    assert np.allclose(block[0].T, ref, rtol=1e-12, atol=1e-15)
    r_ref = _kappa_residuals(ref, perms, p)
    assert r_ref[0] == 0.0
    assert np.allclose(_kernels.kappa_residuals(ref, perms, p), r_ref, rtol=1e-12, atol=0.0)
    inv_flat = (np.arange(g)[:, None] * m + np.argsort(perms, axis=1)).ravel()
    fsm, grad = _kernels._block_kappa_grad(ref.T[None].copy(), perms, inv_flat, p, np.array([30.0]))
    fsm_ref, _, grad_ref = _kappa_grad(ref, perms, p, 30.0)
    assert fsm[0] == pytest.approx(fsm_ref, rel=1e-12)
    assert np.allclose(grad[0].T, grad_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())


def test_oracle_circle_triangle_closed_form():
    # K3 at p=2: every mean-zero map is an eigenvector of eigenvalue 3
    G = gen_family("complete", [3])
    eu, ev, em = G.nonloop_arrays()
    B = mean_zero_basis(3)
    value, _, _, maxjump = _kernels.oracle_grid(
        B[:, 1].copy(), np.zeros(3), B[:, 0].copy(), eu, ev, em, 2.0, 5000, math.pi / 5000, 1, 0.0
    )
    assert value == pytest.approx(3.0, rel=1e-12)
    assert maxjump == pytest.approx(0.0, abs=1e-12)


def test_oracle_sphere_c4_closed_form():
    # C4 at p=2: the minimum is lambda_2 = 2
    G = gen_family("cycle", [4])
    eu, ev, em = G.nonloop_arrays()
    B = mean_zero_basis(4)
    args = tuple(B[:, j].copy() for j in range(3))
    value, _, _, maxjump = _kernels.oracle_grid(*args, eu, ev, em, 2.0, 200, math.pi / 199, 400, 2.0 * math.pi / 400)
    assert value >= 2.0 - 1e-12
    assert value - 2.0 <= max(1e-3, 2.0 * maxjump)


def _oracle_calls(monkeypatch, G, p, res):
    """``gap_oracle_small``'s estimate, with the arguments and the result
    of its one ``oracle_grid`` call."""
    calls = []
    kernel = _kernels.oracle_grid

    def spy(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(_kernels, "oracle_grid", spy)
        est = gap_oracle_small(G, p=p, resolution=res)
    [(args, out)] = calls
    return est, args, out


# Multigraphs with a loop, so the grid weighs edges by multiplicity.
_MULTIGRAPHS = {
    "P3x": (3, [(0, 0, 1), (0, 1, 2), (1, 2, 3)]),
    "C4x": (4, [(0, 1, 2), (1, 2, 1), (2, 2, 1), (2, 3, 3), (0, 3, 1)]),
}
_ORACLE_GRAPHS = {**_SMALL_GRAPHS, **_MULTIGRAPHS}

# Every criterion-2 graph at every exponent, at the resolutions of the
# acceptance suite (1e-4 / 4e-3) and of the benchmark (1e-4 / 8e-3); then
# the multigraphs.
_ORACLE_CASES = [
    (name, p, res)
    for name, (n, _) in _ORACLE_GRAPHS.items()
    for p in (1.0, 1.5, 2.0, 3.0)
    for res in ((1e-4,) if n <= 3 else (8e-3, 4e-3))
]


@pytest.mark.parametrize("name,p,res", _ORACLE_CASES)
def test_oracle_grid_matches_the_circle_and_sphere_scans(monkeypatch, name, p, res):
    """On ``gap_oracle_small``'s grid, the grid kernel returns exactly the
    value, argmin angles and largest jump of the scans it replaced over the
    same rows, with its own chunks and with chunks of one row (a 4-vertex
    row is then longer than a chunk)."""
    n, edges = _ORACLE_GRAPHS[name]
    G = build_graph(n, edges)
    eu, ev, em = G.nonloop_arrays()
    B = [np.ascontiguousarray(b) for b in mean_zero_basis(n).T]
    _, args, _ = _oracle_calls(monkeypatch, G, p, res)
    nth, nph = args[7], args[9]
    if n == 2:
        want = (rayleigh_quotient(G, VectorMap(B[0][:, None], q=2.0, p=p)), 0.0, 0.0, 0.0)
    elif n == 3:
        value, t, maxjump = oracle_circle(B[0], B[1], eu, ev, em, p, nth)
        want = (value, t, 0.0, maxjump)
    else:
        want = oracle_sphere(*B, eu, ev, em, p, 2 * nth - 1, nph, rows=nth)
    for chunk in (_kernels._GRID_CHUNK, 1000):
        monkeypatch.setattr(_kernels, "_GRID_CHUNK", chunk)
        assert _kernels.oracle_grid(*args) == want


def test_oracle_grid_row_jumps_wrap_around():
    """A row's last column neighbours its first.  On a coarse grid in
    twenty random orthonormal bases the kernel agrees with the reference
    scan; in one of them the wrap pair holds the largest jump, so a kernel
    that skipped it would not."""
    G = gen_family("path", [4])
    eu, ev, em = G.nonloop_arrays()
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        B = [np.ascontiguousarray(b) for b in (mean_zero_basis(4) @ Q).T]
        want = oracle_sphere(*B, eu, ev, em, 1.5, 5, 5, rows=3)
        assert _kernels.oracle_grid(*B, eu, ev, em, 1.5, 3, math.pi / 4, 5, 2.0 * math.pi / 5) == want


@pytest.mark.parametrize("res", [0.05, 8e-3, 4e-3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", [name for name, (n, _) in _SMALL_GRAPHS.items() if n == 4])
def test_oracle_hemisphere_matches_the_full_sphere(monkeypatch, name, p, res):
    """The quotient is even and the grid holds each point's antipode, so
    scanning one hemisphere finds the full sphere's minimum and largest
    jump, up to rounding."""
    n, edges = _SMALL_GRAPHS[name]
    G = build_graph(n, edges)
    eu, ev, em = G.nonloop_arrays()
    B = [np.ascontiguousarray(b) for b in mean_zero_basis(n).T]
    est, (*_, nth, hth, nph, hph), (value, t, f, maxjump) = _oracle_calls(monkeypatch, G, p, res)
    # 2 (nth - 1) + 1 rows from pole to pole, an even count of columns
    assert round(math.pi / hth) == 2 * (nth - 1) and math.isclose((nth - 1) * hth, math.pi / 2)
    assert nph % 2 == 0 and math.isclose(nph * hph, 2.0 * math.pi)
    assert est.diagnostics["grid_points"] == nth * nph
    assert (est.value, est.diagnostics["grid_error_bound"]) == (value, 2.0 * maxjump)
    full_value, _, _, full_jump = oracle_sphere(*B, eu, ev, em, p, 2 * nth - 1, nph)
    assert abs(value - full_value) <= 1e-15 * full_value
    assert abs(maxjump - full_jump) <= 1e-14
    a, j = round(t / hth), round(f / hph)
    assert (t, f) == (a * hth, j * hph) and 0 <= a < nth and 0 <= j < nph
    phs = np.arange(nph) * hph
    here = sphere_row(*B, eu, ev, em, p, a * hth, phs)[j]
    there = sphere_row(*B, eu, ev, em, p, (2 * nth - 2 - a) * hth, phs)[(j + nph // 2) % nph]
    assert here == value
    assert min(abs(here - full_value), abs(there - full_value)) <= 1e-15 * full_value


def test_kappa_residuals_match_direct_sum():
    a = action_from_group("boolean_cube", 3)
    perms = np.ascontiguousarray(a.perms)
    rng = np.random.Generator(np.random.PCG64(9))
    xi = rng.standard_normal((a.m, 2))
    r = _kernels.kappa_residuals(xi, perms, 2.5)
    ref = [(np.abs(xi[perm] - xi) ** 2.5).sum() ** (1 / 2.5) for perm in perms]
    assert np.allclose(r, ref, rtol=1e-12)
