"""Hot numeric kernels, vectorised over a block of descent starts.

Conventions: a map is an (n, d) float64 array, and edges are parallel
int64 arrays (u, v, mult) over non-loop edges.  The gap objective is

    R(F) = sum_e m_e * ||F[u]-F[v]||_q^p  /  sum_v ||F[v] - mean||_q^p,

i.e. the oriented-edge quotient with the global 1/2 and the one-per-
direction doubling cancelled.  Subgradients at kinks (p=1 or q=1) use 0.

The two descents take a stack of R starts, shaped (R, n, d), and advance
them together one iteration at a time.  Inside, a block is stored as
(R, d, n), so each start's coordinates are contiguous rows and every
reduction runs over the last axis.  Every per-start quantity is computed
from that start's rows alone, so a start follows the same path whichever
starts share its block.

Both descents are adapters of one driver, ``_descend``, which keeps each
start's step size, Armijo backtracking, best point, stage, stop reason and
count of rejected trial steps; a start leaves the block when it stops.
It runs on the columns that some start leaves nonzero once centred: a
zero column has zero differences, (sub)gradient, curvature pairs and
steps, so it never moves, and it comes back as exact zeros.  With
``restarts`` <= 2 and no warm start, ``gap_estimate`` draws no Gaussian
start, so its seed is unused and a d > 1 block descends column 0 alone.
Its direction is the projected (sub)gradient, or, where ``descend_block``'s
quotient is smooth (p > 1 and q > 1, ``gap_direction``), the L-BFGS
direction of ``_QuasiNewton``: each start keeps its own last ``_MEMORY``
curvature pairs, newest first, and takes H g by the two-loop recursion; it
tries the full step 1 first and backtracks on the Armijo test with slope
g.d.  A start whose direction is not a descent direction empties its
memory and takes the gradient.

The line search evaluates trial steps in passes over the block.  A small
block's first pass tries as many steps as fit ``_PASS_ENTRIES`` block
entries, at most ``_PASS_LEVELS``: on a few dozen vertices a pass costs
some 45 numpy calls whatever its size, so a second pass costs more than
extra trials in the first.  A larger block's first pass tries ``_LEVELS``
steps, or step 1 alone when every searching start takes the quasi-Newton
direction, since it mostly passes.  Each pass accepts a start's first
passing step, so the pass sizes change no iterate.  The driver updates its
per-start state by whole-block masked copies.  A stage ends on convergence
(vanishing gradient or a step below ``tol``), a failed line search or its
iteration budget (max_iter), and the reason that ended the last stage is
the stop code; a start that is zero once centred is degenerate.  Given a
``target`` (a proven lower bound on the objective), the whole block stops
once its lowest tracked value is at most the target, every start still
running with the reason certified; the check also runs on the starts, so a
start already at the target costs no iteration.
``descend_block`` runs one stage and also stops a start whose best
quotient has not improved by a relative ``_STALL_REL`` in ``_STALL_ITERS``
iterations (stalled).  Its backtracking factor ``_SHRINK`` is not a power
of two, so the trial steps cannot lock onto an exact 1/(lambda_max -
lambda_2) of an integer Laplacian spectrum, where the top mode flips sign
at almost unchanged size and the quotient converges only like 1/k.
``kappa_descend_block`` runs one stage per smoothing parameter.

``oracle_grid`` is the brute-force check on graphs of at most 4 vertices:
it evaluates the quotient of scalar maps over the rows of an angular grid
of the mean-zero unit sphere that it is given (``gap_oracle_small`` passes
one hemisphere, since the quotient is even), whole grid rows at a time in
chunks of at most ``_GRID_CHUNK`` points, built and summed in preallocated
buffers, so its memory does not grow with the grid.  A row's jumps wrap
around from its last column to its first.

``cut_gap`` is the exact gap at p = 1 on small graphs: the least quotient
of an indicator over every cut, from one chunked matrix product of the
two halves' subsets (meet in the middle).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ratio_parts",
    "descend_block",
    "gap_direction",
    "oracle_grid",
    "cut_gap",
    "kappa_residuals",
    "kappa_descend_block",
    "STOP_REASONS",
]

_ARMIJO = 1e-4
_BACKTRACKS = 60
_SHRINK = 0.6
_LEVELS = 4
_PASS_ENTRIES = 768  # a small block's first pass tries as many steps as fit this many entries
_PASS_LEVELS = 16  # but no more than this many
_KAPPA_SHRINK = 0.5
_STALL_REL = 1e-9
_STALL_ITERS = 50
_MEMORY = 2  # (s, y) pairs per quasi-Newton start
_GRID_CHUNK = 16384  # grid points per oracle chunk, which bounds its memory
_CUT_CHUNK = 1 << 17  # cuts per chunk of cut_gap's product, which bounds its memory

STOP_CONVERGED, STOP_STALLED, STOP_LINE_SEARCH, STOP_MAX_ITER, STOP_DEGENERATE, STOP_CERTIFIED = range(6)
STOP_REASONS = ("converged", "stalled", "line_search", "max_iter", "degenerate", "certified")
_RUNNING = -1  # below every stop code


def stack_starts(fixed, warm, shape, restarts, rng):
    """The (R, n, d) block of descent starts: the ``fixed`` ones, then the
    ``warm`` ones (a 1-D start as a column), then standard Gaussian draws
    from ``rng`` up to ``restarts`` starts in all."""
    starts = list(fixed)
    for ws in warm or []:
        W = np.asarray(ws, dtype=np.float64)
        if W.ndim == 1:
            W = W[:, None]
        if W.shape != shape:
            raise ValueError(f"warm start shape {W.shape} != {shape}")
        starts.append(W)
    starts += [rng.standard_normal(shape) for _ in range(restarts - len(starts))]
    return np.stack(starts)


def per_restart(iterations, stops, backtracks) -> list[dict]:
    """Each start's stop reason, iteration count and count of rejected
    trial steps, for diagnostics."""
    return [
        {"stop_reason": STOP_REASONS[s], "iterations": int(i), "backtracks": int(b)}
        for i, s, b in zip(iterations, stops, backtracks)
    ]


# ======================================================================
# gap quotient
# ======================================================================


def _block_ratio(F, eu, ev, em, p, q):
    """Edge energy E and spread D of each start of an (R, d, n) block."""
    nrm = np.add.reduce(np.abs(F.take(eu, axis=2) - F.take(ev, axis=2)) ** q, axis=1) ** (1.0 / q)
    vn = np.add.reduce(np.abs(F) ** q, axis=1) ** (1.0 / q)
    return np.add.reduce(em * nrm**p, axis=1), np.add.reduce(vn**p, axis=1)


def ratio_parts(F, eu, ev, em, p, q):
    """Edge energy and spread ``(E, D)`` of one (n, d) map."""
    E, D = _block_ratio(F.T[None], eu, ev, em, p, q)
    return float(E[0]), float(D[0])


def _edge_scatter_index(eu, ev, n, rows):
    """Flat ``bincount`` indices that add each edge's term to its u row and
    subtract it from its v row, for ``rows`` rows of n vertices."""
    return np.arange(rows)[:, None] * n + np.concatenate([eu, ev])


def _block_grads(F, eu, ev, em, p, q, scatter):
    """E, D and their gradients gE, gD for an (R, d, n) block.

    ``scatter`` is ``_edge_scatter_index`` for at least R*d rows.  A zero
    norm is kept out of the power p - q, which is negative when p < q; its
    differences are all 0, so their sign makes its term 0.
    """
    B, d, n = F.shape
    diff = F.take(eu, axis=2) - F.take(ev, axis=2)
    adiff = np.abs(diff)
    nrm = np.add.reduce(adiff**q, axis=1) ** (1.0 / q)
    E = np.add.reduce(em * nrm**p, axis=1)
    c = em * p * np.where(nrm > 0.0, nrm, 1.0) ** (p - q)
    t = c[:, None, :] * adiff ** (q - 1.0) * np.sign(diff)
    w = np.concatenate([t, -t], axis=2).ravel()
    gE = np.bincount(scatter[: B * d].ravel(), w, minlength=B * d * n).reshape(B, d, n)
    aF = np.abs(F)
    nrm = np.add.reduce(aF**q, axis=1) ** (1.0 / q)
    D = np.add.reduce(nrm**p, axis=1)
    c = p * np.where(nrm > 0.0, nrm, 1.0) ** (p - q)
    gD = c[:, None, :] * aF ** (q - 1.0) * np.sign(F)
    return E, D, gE, gD


def _trial_pass(X, direction, f0, slope, eta, rows, levels, shrink, evaluate, stage):
    """One backtracking pass: ``levels`` trial steps from ``eta`` (one per
    start in ``rows``, an index or a slice of the block), formed by
    repeated multiplication by ``shrink``.  Returns the trial stack, one
    row of ``levels`` per start, the trials' extras, the steps and the mask
    of admissible trials that pass the Armijo test."""
    steps = np.empty((len(eta), levels))
    steps[:, 0] = eta
    steps[:, 1:] = shrink
    steps = np.multiply.accumulate(steps, axis=1)
    trials = (X[rows, None] - steps[:, :, None, None] * direction[rows, None]).reshape(-1, *X.shape[1:])
    f, ok, aux = evaluate(trials, rows, stage)
    ok = ok.reshape(steps.shape) & (f.reshape(steps.shape) <= f0[rows, None] - _ARMIJO * steps * slope[rows, None])
    return trials, aux, steps, ok


def _backtrack(X, direction, f0, slope, eta_try, todo, levels, shrink, evaluate, stage):
    """Armijo backtracking along ``-direction`` from the trial steps
    ``eta_try``, for the starts of the block ``X`` flagged in ``todo``;
    ``slope`` is each start's gradient dotted with its direction.

    ``evaluate(trials, rows, stage)`` takes a stack of trial points, the
    same number in a row per start of ``rows`` (an index or a slice of the
    block), and the block's stages; it may project the trials in place, and
    returns their objective values, a mask of admissible trials and one
    extra value per trial.  The first pass tries ``levels`` steps of every
    start of the block at once (a start outside ``todo`` accepts none), and
    each later pass the next ``max(levels, _LEVELS)`` of the starts still
    searching; a pass accepts a start's first step that passes, which is
    the step a one-at-a-time search accepts: the steps are formed by the
    same repeated multiplication.  A first pass that every start passes
    returns at once, with no bookkeeping for later passes.

    Returns the accepted points, their extras, the accepted steps, the mask
    of accepted starts, each start's count of rejected trials and the
    number of passes; other rows hold no meaning.
    """
    B = X.shape[0]
    levels = min(levels, _BACKTRACKS)
    trials, aux, steps, ok = _trial_pass(X, direction, f0, slope, eta_try, slice(None), levels, shrink, evaluate, stage)
    ok &= todo[:, None]
    accepted = np.logical_or.reduce(ok, axis=1)
    rejected = ok.argmax(axis=1)
    pick = np.arange(0, B * levels, levels) + rejected
    X2, extra, eta2 = trials[pick], aux[pick], steps.ravel()[pick]
    if accepted.all():
        return X2, extra, eta2, accepted, rejected, 1
    rows = np.flatnonzero(todo & ~accepted)
    eta = steps[rows, -1] * shrink
    tried, passes, levels = levels, 1, max(levels, _LEVELS)
    while rows.size and tried < _BACKTRACKS:
        levels = min(levels, _BACKTRACKS - tried)
        trials, aux, steps, ok = _trial_pass(X, direction, f0, slope, eta, rows, levels, shrink, evaluate, stage)
        found = np.logical_or.reduce(ok, axis=1)
        first = ok.argmax(axis=1)[found]
        hit = rows[found]
        pick = np.flatnonzero(found) * levels + first
        X2[hit], extra[hit], eta2[hit] = trials[pick], aux[pick], steps[found, first]
        accepted[hit] = True
        rejected[hit] = tried + first
        eta = steps[~found, -1] * shrink
        rows = rows[~found]
        tried += levels
        passes += 1
    rejected[rows] = _BACKTRACKS
    return X2, extra, eta2, accepted, rejected, passes


class _QuasiNewton:
    """The L-BFGS memory of each start of a block, and its direction.

    Each start keeps up to ``_MEMORY`` pairs (s, y), newest first: s is the
    difference of two accepted points and y that of their projected
    gradients.  A pair is stored only when s.y > 0, and storing one shifts
    the memory by a slot, so a full memory drops its oldest pair.  The
    direction is H g by the two-loop recursion of Nocedal (Math. Comp. 35,
    1980) from H0 = gamma I, with gamma = s.y / y.y of the newest pair:
    two batched dot products per pair.  An empty slot holds zero vectors and
    rho = 1 / s.y = 0, so it drops out of both loops, and a start with no
    pairs (gamma = 1) gets H g = g.
    """

    def __init__(self, B, N):
        self.SY = np.zeros((B, _MEMORY, 2, N))  # slot i holds (s_i, y_i)
        self.rho = np.zeros((B, _MEMORY))
        self.gamma = np.ones(B)
        self.prev = None  # the last point and gradient, (B, 2, N)

    @property
    def S(self):
        return self.SY[:, :, 0]

    @property
    def Y(self):
        return self.SY[:, :, 1]

    def keep(self, rows):
        """Keep the memories of ``rows`` (a mask) alone."""
        self.SY, self.rho, self.gamma = self.SY[rows], self.rho[rows], self.gamma[rows]
        if self.prev is not None:
            self.prev = self.prev[rows]

    def reset(self, rows):
        """Empty the memories of ``rows``."""
        self.SY[rows] = self.rho[rows] = 0.0
        self.gamma[rows] = 1.0

    def direction(self, X, g, g2):
        """Store the pairs the last step made, then return each start's
        direction, its slope g.d and the mask of starts that take the
        quasi-Newton direction, those that hold a pair; the others take g,
        with their memory emptied when H g was not a descent direction."""
        B = X.shape[0]
        cur = np.concatenate((X, g), axis=1).reshape(B, 2, -1)
        prev, self.prev = self.prev, cur
        if prev is None:
            return g, g2, self.rho[:, 0] > 0.0
        P = cur - prev  # (s, y) of each start
        yP = (P[:, 1:] @ P.transpose(0, 2, 1)).reshape(B, 2)  # y.s, y.y
        ys = yP[:, 0]
        store = ys > 0.0
        np.copyto(self.SY[:, 1:], self.SY[:, :-1], where=store[:, None, None, None])
        np.copyto(self.SY[:, 0], P, where=store[:, None, None])
        np.copyto(self.rho[:, 1:], self.rho[:, :-1], where=store[:, None])
        np.divide(1.0, ys, out=self.rho[:, 0], where=store)
        np.divide(ys, yP[:, 1], out=self.gamma, where=store)
        S, Y, rho = self.S, self.Y, self.rho.T
        gf = cur[:, 1]
        d, alpha = gf.copy(), []
        for i in range(_MEMORY):  # newest to oldest
            alpha.append(rho[i] * np.vecdot(S[:, i], d))
            d -= alpha[i][:, None] * Y[:, i]
        d *= self.gamma[:, None]
        for i in reversed(range(_MEMORY)):
            beta = rho[i] * np.vecdot(Y[:, i], d)
            d += (alpha[i] - beta)[:, None] * S[:, i]
        slope = np.vecdot(gf, d)
        newton = rho[0] > 0.0
        bad = newton > (slope > 0.0)  # a pair, but no descent direction (or NaN)
        if bad.any():  # rare; a start without pairs has slope g.g
            self.reset(bad)
            d[bad], slope[bad], newton[bad] = gf[bad], g2[bad], False
        return d.reshape(g.shape), slope, newton


def _descend(X, grad, evaluate, shrink, stages, iters, tol, stall, quasi_newton=False, target=-np.inf):
    """The descent loop of both adapters, as the module docstring describes.

    ``X`` is an (R, d, n) block of starts, which ``evaluate(trials, rows,
    stage)``, the ``_backtrack`` callback, projects first; its extra value
    is the tracked one, and its mask flags the starts that descend.  The
    loop runs on the columns that some start leaves nonzero once centred.
    ``grad(X, stage)`` returns the objective at each start's stage and its
    gradient.  With ``quasi_newton`` the direction is
    ``_QuasiNewton``'s, whose memory spans all stages (the gap descent has
    one), else the projected gradient.  Once the lowest tracked value of
    the block is at most ``target``, every start that has not ended its
    last stage stops as certified.  Returns per start the
    accepted point of lowest tracked value, that value, the iteration
    count, the last step norm, the stop code and the count of rejected
    trial steps, then the number of columns descended and the block's
    count of backtracking passes.
    """
    nR, d, n = X.shape
    # the columns some start leaves nonzero once centred, as ``evaluate`` centres
    cols = np.flatnonzero(np.logical_or.reduce(X != np.add.reduce(X, axis=2, keepdims=True) / n, axis=(0, 2)))
    X = X.take(cols, axis=1)
    _, live, value = evaluate(X, slice(None), np.zeros(nR, dtype=np.int64))
    out_X, out_value = X.copy(), np.full(nR, np.inf)
    out_it, out_step, out_stop = np.zeros(nR, dtype=np.int64), np.zeros(nR), np.full(nR, STOP_DEGENERATE)
    out_bt = np.zeros(nR, dtype=np.int64)

    # State of the starts still running, in block order.
    idx = np.flatnonzero(live)
    X = X[idx]
    best_X, best, ref = X.copy(), value[idx], value[idx]
    ref_it = np.zeros(idx.size, dtype=np.int64)
    eta = np.full(idx.size, 0.25)
    step = np.zeros(idx.size)
    stage = np.zeros(idx.size, dtype=np.int64)
    deadline = np.full(idx.size, iters)
    code = np.full(idx.size, _RUNNING)
    bt = np.zeros(idx.size, dtype=np.int64)
    qn = _QuasiNewton(idx.size, cols.size * n) if quasi_newton else None
    due = iters  # the earliest deadline
    passes = 0

    it = 0
    while idx.size:
        if it >= due:
            code[(code == _RUNNING) & (deadline <= it)] = STOP_MAX_ITER
        if target > -np.inf and best.min() <= target:
            code[(code == _RUNNING) | (stage < stages - 1)] = STOP_CERTIFIED
            stage[:] = stages - 1
        if code.max() != _RUNNING:  # some start ended its stage
            done = (code != _RUNNING) & (stage == stages - 1)
            j = idx[done]
            out_X[j], out_value[j], out_it[j] = best_X[done], best[done], it
            out_step[j], out_stop[j], out_bt[j] = step[done], code[done], bt[done]
            keep = ~done
            idx, X, best_X, best, ref, ref_it, eta, step, stage, deadline, code, bt = (
                a[keep] for a in (idx, X, best_X, best, ref, ref_it, eta, step, stage, deadline, code, bt)
            )
            if not idx.size:
                break
            nxt = code != _RUNNING
            stage[nxt] += 1
            code[nxt], eta[nxt], deadline[nxt] = _RUNNING, 0.25, it + iters
            due = int(deadline.min())
            if qn is not None:
                qn.keep(keep)
        it += 1
        f, g = grad(X, stage)
        g -= np.add.reduce(g, axis=2, keepdims=True) / n
        g2 = np.add.reduce(g * g, axis=(1, 2))
        converged = g2 < 1e-30  # every start is running here
        np.copyto(code, STOP_CONVERGED, where=converged)
        search = ~converged
        direction, slope, first = g, g2, eta * 4.0
        levels = min(_PASS_LEVELS, _PASS_ENTRIES // X.size)
        if qn is not None:
            direction, slope, newton = qn.direction(X, g, g2)
            np.copyto(first, 1.0, where=newton)
        if levels < _LEVELS:  # the first trial, step 1, alone when every searching start takes it
            levels = max(levels, 1 if qn is not None and newton[search].all() else _LEVELS)
        X2, val, eta_try, accepted, rejected, k = _backtrack(
            X, direction, f, slope, first, search, levels, shrink, evaluate, stage
        )
        passes += k
        bt += rejected
        np.copyto(code, STOP_LINE_SEARCH, where=search & ~accepted)
        np.copyto(eta, eta_try, where=accepted)
        dX = X2 - X
        np.copyto(step, np.sqrt(np.add.reduce(dX * dX, axis=(1, 2))), where=accepted)
        np.copyto(X, X2, where=accepted[:, None, None])
        better = accepted & (val < best)
        np.copyto(best, val, where=better)
        np.copyto(best_X, X, where=better[:, None, None])
        np.copyto(code, STOP_CONVERGED, where=accepted & (step < tol))
        if stall:
            live = accepted & (code == _RUNNING)
            gained = live & (best < ref - _STALL_REL * np.abs(ref))
            np.copyto(ref, best, where=gained)
            np.copyto(ref_it, it, where=gained)
            np.copyto(code, STOP_STALLED, where=live & (ref_it <= it - _STALL_ITERS))  # a start that gained has ref_it = it
    F = np.zeros((nR, d, n))
    F[:, cols] = out_X
    return F, out_value, out_it, out_step, out_stop, out_bt, cols.size, passes


def gap_direction(p, q):
    """The direction ``descend_block`` takes at exponents (p, q):
    ``"quasi_newton"`` where the quotient is smooth (p > 1 and q > 1),
    else ``"gradient"``."""
    return "quasi_newton" if p > 1.0 and q > 1.0 else "gradient"


def descend_block(F0, eu, ev, em, p, q, max_iter, tol):
    """Projected descent of the gap quotient from each of the (R, n, d)
    starts ``F0``, run as one block, along the L-BFGS direction where the
    quotient is smooth and the subgradient elsewhere (``gap_direction``).
    Returns ``(F, R, iterations, step, stop, backtracks)`` per start: the
    best map, its recomputed quotient, the iteration count, the last step
    norm, a stop code indexing ``STOP_REASONS`` and the count of rejected
    trial steps; a degenerate start has value inf.  Then come the number of
    columns descended (``_descend``) and the block's count of backtracking
    passes."""
    F = np.asarray(F0, dtype=np.float64).transpose(0, 2, 1).copy()
    nR, d, n = F.shape
    scatter = _edge_scatter_index(eu, ev, n, nR * d)

    def grad(F, stage):
        E, D, gE, gD = _block_grads(F, eu, ev, em, p, q, scatter)
        R = E / D
        return R, (gE - R[:, None, None] * gD) / D[:, None, None]

    def evaluate(trials, rows, stage):
        # centre, take the quotient, then scale to unit spread in place
        trials -= np.add.reduce(trials, axis=2, keepdims=True) / n
        Et, Dt = _block_ratio(trials, eu, ev, em, p, q)
        pos = Dt > 0.0
        Dt = np.where(pos, Dt, 1.0)
        R = np.where(pos, Et / Dt, np.inf)
        trials /= (Dt ** (1.0 / p))[:, None, None]
        return R, pos, R

    newton = gap_direction(p, q) == "quasi_newton"
    F, R, it, step, stop, bt, cols, passes = _descend(F, grad, evaluate, _SHRINK, 1, max_iter, tol, True, newton)
    live = stop != STOP_DEGENERATE
    E, D = _block_ratio(F[live], eu, ev, em, p, q)
    R[live] = E / D
    return np.ascontiguousarray(F.transpose(0, 2, 1)), R, it, step, stop, bt, cols, passes


# ======================================================================
# grid oracle (scalar maps on at most 4 vertices)
# ======================================================================


def _abs_max(x):
    """max |x| in two passes, without a temporary."""
    return max(float(x.max()), -float(x.min()))


def oracle_grid(b1, b2, b3, eu, ev, em, p, nth, hth, nph, hph):
    """The quotient's minimum over the grid of unit maps

        sin t (cos f b1 + sin f b2) + cos t b3,  t = a*hth (a < nth), f = k*hph (k < nph),

    taken row by row (t fixed), whole rows at a time, ``_GRID_CHUNK``
    points per chunk at most unless one row is longer.  Returns ``(value,
    t, f, maxjump)``: the first minimum in row order, its angles, and the
    largest jump between grid neighbours in a column or in a row, where a
    row's last point neighbours its first (f wraps around).

    A chunk's maps are built vertex by vertex into preallocated (rows,
    nph) buffers, and the edge terms (in edge order) and the spread terms
    about the mean (sum / n) are summed row by row in place, so a grid
    point costs a few array passes per vertex and per edge and no
    temporaries.  Each value is computed in the order of a plain
    evaluation, b1 (sin t cos f) + b2 (sin t sin f) + b3 cos t, so it is
    the same to the last bit.
    """
    phs = np.arange(nph) * hph
    cph, sph = np.cos(phs), np.sin(phs)
    n = b1.size
    best, best_th, best_ph, maxjump = np.inf, 0.0, 0.0, 0.0
    prev_row = None
    rows = min(nth, max(1, _GRID_CHUNK // nph))
    F_buf = np.empty((n, rows, nph))
    x_buf, y_buf, t_buf, E_buf, D_buf = (np.empty((rows, nph)) for _ in range(5))
    for start in range(0, nth, rows):
        ths = np.arange(start, min(start + rows, nth)) * hth
        r = ths.size
        F, x, y, t, E, D = F_buf[:, :r], x_buf[:r], y_buf[:r], t_buf[:r], E_buf[:r], D_buf[:r]
        st, ct = np.sin(ths)[:, None], np.cos(ths)[:, None]
        np.multiply(st, cph, out=x)
        np.multiply(st, sph, out=y)
        for v in range(n):
            np.multiply(b1[v], x, out=F[v])
            np.multiply(b2[v], y, out=t)
            F[v] += t
            F[v] += b3[v] * ct
        for e in range(eu.size):
            s = t if e else E
            np.subtract(F[eu[e]], F[ev[e]], out=s)
            np.abs(s, out=s)
            s **= p
            if em[e] != 1:
                s *= em[e]
            if e:
                E += s
        np.add(F[0], F[1], out=x)  # the mean, into the spent x
        for v in range(2, n):
            x += F[v]
        x /= n
        for v in range(n):
            s = t if v else D
            np.subtract(F[v], x, out=s)
            np.abs(s, out=s)
            s **= p
            if v:
                D += s
        R = np.divide(E, D, out=E)
        k = int(np.argmin(R))
        a, j = divmod(k, nph)
        if R[a, j] < best:
            best, best_th, best_ph = float(R[a, j]), float(ths[a]), float(phs[j])
        np.subtract(R[:, 1:], R[:, :-1], out=t[:, :-1])
        np.subtract(R[:, 0], R[:, -1], out=t[:, -1])
        maxjump = max(maxjump, _abs_max(t))
        if r > 1:
            maxjump = max(maxjump, _abs_max(np.subtract(R[1:], R[:-1], out=t[:-1])))
        if prev_row is not None:
            maxjump = max(maxjump, _abs_max(np.subtract(R[0], prev_row, out=t[0])))
        prev_row = R[-1].copy()
    return best, best_th, best_ph, maxjump


# ======================================================================
# exact p = 1 gap by cut enumeration
# ======================================================================


def _subsets(k):
    """The 2^k subsets of k vertices as 0/1 rows sorted by size, stably,
    and each row's size (int8, so a chunk's table of sizes stays small)."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    size = bits.sum(axis=1).astype(np.int8)
    order = np.argsort(size, kind="stable")
    return bits[order], size[order]


def cut_gap(L):
    """The least quotient of an indicator, ``n cut(S) / (2 |S| |S^c|)``,
    over the 2^(n-1) - 1 proper nonempty S that leave out vertex n-1, for
    the integer n x n Laplacian ``L``.

    Meet in the middle: the other vertices split into a low and a high
    half, and each half's subsets are sorted by size.  With A = -L off the
    diagonal and c_l, c_h each half-subset's cut x L x, the cut of x_l +
    x_h is c_l + c_h - 2 x_l A_lh x_h, so one product ``[X_l A_lh, c_l, 1]
    @ [-2 X_h^T; 1; c_h]`` holds every cut, exact in float64 (integer
    sums).  The product runs ``_CUT_CHUNK`` entries at a time, and each
    chunk keeps the least cut per size |S| (a ``minimum.reduceat`` over the
    high half's size classes).  Returns the least quotient and a 0/1
    indicator attaining it.
    """
    n = L.shape[0]
    free = n - 1
    a = free // 2
    b = free - a
    lo, hi = np.arange(a), np.arange(a, free)
    Xl, sl = _subsets(a)
    Xh, sh = _subsets(b)
    left = np.column_stack([-Xl @ L[np.ix_(lo, hi)], ((Xl @ L[np.ix_(lo, lo)]) * Xl).sum(axis=1), np.ones(len(Xl))])
    right = np.vstack([-2.0 * Xh.T, np.ones(len(Xh)), ((Xh @ L[np.ix_(hi, hi)]) * Xh).sum(axis=1)])
    classes = np.searchsorted(sh, np.arange(b + 1))  # each high size's first column
    rows = max(1, _CUT_CHUNK // len(Xh))
    best = np.full(n, np.inf)  # least cut per size |S|
    chunk_of = np.zeros(n, dtype=np.int64)  # the chunk that first reached it
    for r0 in range(0, len(Xl), rows):
        M = np.minimum.reduceat(left[r0 : r0 + rows] @ right, classes, axis=1)
        got = np.full(n, np.inf)
        np.minimum.at(got, sl[r0 : r0 + rows, None] + np.arange(b + 1), M)
        better = got < best
        best[better], chunk_of[better] = got[better], r0
    k = np.arange(1, n)
    ratios = n * best[1:] / (2.0 * k * (n - k))
    size = 1 + int(np.argmin(ratios))
    r0 = chunk_of[size]
    P = left[r0 : r0 + rows] @ right
    np.putmask(P, sl[r0 : r0 + rows, None] + sh != size, np.inf)
    i, j = divmod(int(np.argmin(P)), len(Xh))
    x = np.zeros(n)
    x[lo], x[hi] = Xl[r0 + i], Xh[j]
    return float(ratios[size - 1]), x


# ======================================================================
# displacement constant
# ======================================================================


def _block_kappa_diffs(xi, perms):
    """xi o s - xi for every generator s: (R, d, g, m) from an (R, d, m) block."""
    return xi[:, :, perms] - xi[:, :, None, :]


def _block_kappa_residuals(diff, p):
    return np.add.reduce(np.abs(diff) ** p, axis=(1, 3)) ** (1.0 / p)


def kappa_residuals(xi, perms, p):
    """||xi o s - xi||_p for each generator s of one (m, d) field."""
    return _block_kappa_residuals(_block_kappa_diffs(xi.T[None], perms), p)[0]


def _block_kappa_normalize(xi, p):
    """Centre each start of an (R, d, m) block in place and scale it to unit
    flat l_p norm where that norm is positive; returns sum |xi|^p before
    scaling."""
    xi -= np.add.reduce(xi, axis=2, keepdims=True) / xi.shape[2]
    S = np.add.reduce(np.abs(xi) ** p, axis=(1, 2))
    xi /= (np.where(S > 0.0, S, 1.0) ** (1.0 / p))[:, None, None]
    return S


def _block_smoothed(r, beta):
    """Log-sum-exp smoothed max of each row of r, the row's max, and the
    softmax weights unscaled and their sum."""
    rmax = r.max(axis=1)
    w = np.exp(beta[:, None] * (r - rmax[:, None]))
    wsum = np.add.reduce(w, axis=1)
    return rmax + np.log(wsum) / beta, rmax, w, wsum


def _block_kappa_grad(xi, perms, inv_flat, p, beta):
    """Smoothed max residual of each start and its gradient.  A zero
    residual is kept out of the power 1 - p; its differences are all 0, so
    their sign makes its term 0."""
    B, d, m = xi.shape
    diff = _block_kappa_diffs(xi, perms)
    r = _block_kappa_residuals(diff, p)
    fsm, _, w, wsum = _block_smoothed(r, beta)
    scale = w / wsum[:, None] * np.where(r > 0.0, r, 1.0) ** (1.0 - p)
    t = scale[:, None, :, None] * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    # t[..., s, v] moves xi[perms[s, v]] up and xi[v] down.
    up = t.reshape(B, d, -1).take(inv_flat, axis=2).reshape(t.shape)
    return fsm, np.add.reduce(up - t, axis=2)


def kappa_descend_block(xi0, perms, p, betas, iters_per_stage, tol, target=-np.inf):
    """Annealed smoothed-max descent of the worst generator displacement
    from each of the (R, m, d) starts ``xi0``, run as one block: one stage
    of ``iters_per_stage`` iterations per entry of ``betas``, until a true
    max residual is at most ``target`` (then certified).  Returns
    ``(xi, value, iterations, stop, backtracks)`` per start: the field with
    the lowest true max residual seen at an accepted step, that residual,
    the total iteration count, the stop code and the count of rejected
    trial steps; a degenerate start has value inf.  Then come the number of
    columns descended (``_descend``) and the block's count of backtracking
    passes.
    """
    xi = np.asarray(xi0, dtype=np.float64).transpose(0, 2, 1).copy()
    m = xi.shape[2]
    g = perms.shape[0]
    inv_flat = (np.arange(g)[:, None] * m + np.argsort(perms, axis=1)).ravel()

    def grad(xi, stage):
        return _block_kappa_grad(xi, perms, inv_flat, p, betas[stage])

    def evaluate(trials, rows, stage):
        # centre and scale in place; a zero field is not admissible
        live = _block_kappa_normalize(trials, p) > 0.0
        r = _block_kappa_residuals(_block_kappa_diffs(trials, perms), p)
        beta = betas[stage[rows]]
        fsm, rmax, _, _ = _block_smoothed(r, np.repeat(beta, len(trials) // len(beta)))
        return fsm, live, rmax

    xi, value, it, _, stop, bt, cols, passes = _descend(
        xi, grad, evaluate, _KAPPA_SHRINK, betas.shape[0], iters_per_stage, tol, False, target=target
    )
    return np.ascontiguousarray(xi.transpose(0, 2, 1)), value, it, stop, bt, cols, passes
