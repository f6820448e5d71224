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
starts share its block.  Each start keeps its own step size, Armijo
backtracking, best point and stop reason; it leaves the block when it
stops, and the block runs until its last start stops.

``descend_block`` returns ``(F, R, iterations, step, stop)`` with one entry
per start: the best map, its recomputed quotient, the iteration count, the
last step norm and a stop code indexing ``STOP_REASONS``.  A start stops
when it has converged (vanishing gradient or a step below ``tol``), when
its best quotient has not improved by more than a relative ``_STALL_REL``
in ``_STALL_ITERS`` iterations (stalled), when the line search finds no
decrease, or at ``max_iter``.  The backtracking factor ``_SHRINK`` is not a
power of two, so the trial steps cannot lock onto an exact
1/(lambda_max - lambda_2) of an integer Laplacian spectrum, where the top
mode flips sign at almost unchanged size and the quotient converges only
like 1/k.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ratio_parts",
    "descend_block",
    "oracle_circle",
    "oracle_sphere",
    "kappa_residuals",
    "kappa_descend_block",
    "STOP_REASONS",
]

_ARMIJO = 1e-4
_BACKTRACKS = 60
_SHRINK = 0.6
_LEVELS = 4
_KAPPA_SHRINK = 0.5
_STALL_REL = 1e-9
_STALL_ITERS = 50

STOP_CONVERGED, STOP_STALLED, STOP_LINE_SEARCH, STOP_MAX_ITER, STOP_DEGENERATE = range(5)
STOP_REASONS = ("converged", "stalled", "line_search", "max_iter", "degenerate")
_RUNNING = -1


def per_restart(iterations, stops) -> list[dict]:
    """Each start's stop reason and iteration count, for diagnostics."""
    return [{"stop_reason": STOP_REASONS[s], "iterations": int(i)} for i, s in zip(iterations, stops)]


# ======================================================================
# gap quotient
# ======================================================================


def _block_ratio(F, eu, ev, em, p, q):
    """Edge energy E and spread D of each start of an (R, d, n) block."""
    nrm = (np.abs(np.take(F, eu, axis=2) - np.take(F, ev, axis=2)) ** q).sum(axis=1) ** (1.0 / q)
    vn = (np.abs(F) ** q).sum(axis=1) ** (1.0 / q)
    return (em * nrm**p).sum(axis=1), (vn**p).sum(axis=1)


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

    ``scatter`` is ``_edge_scatter_index`` for at least R*d rows.
    """
    B, d, n = F.shape
    diff = np.take(F, eu, axis=2) - np.take(F, ev, axis=2)
    adiff = np.abs(diff)
    nq = (adiff**q).sum(axis=1)
    pos = nq > 0.0
    nrm = np.where(pos, nq, 1.0) ** (1.0 / q)
    E = (np.where(pos, em * nrm**p, 0.0)).sum(axis=1)
    c = np.where(pos, em * p * nrm ** (p - q), 0.0)
    t = c[:, None, :] * adiff ** (q - 1.0) * np.sign(diff)
    w = np.concatenate([t, -t], axis=2).ravel()
    gE = np.bincount(scatter[: B * d].ravel(), w, minlength=B * d * n).reshape(B, d, n)
    aF = np.abs(F)
    nq = (aF**q).sum(axis=1)
    pos = nq > 0.0
    nrm = np.where(pos, nq, 1.0) ** (1.0 / q)
    D = (np.where(pos, nrm**p, 0.0)).sum(axis=1)
    c = np.where(pos, p * nrm ** (p - q), 0.0)
    gD = c[:, None, :] * aF ** (q - 1.0) * np.sign(F)
    return E, D, gE, gD


def _backtrack(X, direction, f0, g2, eta, todo, shrink, evaluate):
    """Armijo backtracking along ``-direction`` from step ``4 * eta``, for
    the starts of the block ``X`` flagged in ``todo``.

    ``evaluate(trials, rows)`` takes a stack of trial points, ``_LEVELS``
    per searching start in ``rows``, may project them in place, and returns
    their objective values, a mask of admissible trials and one extra value
    per trial.  Each pass tries the next ``_LEVELS`` steps of every
    searching start at once and accepts the first that passes, which is the
    step a one-at-a-time search accepts: the steps are formed by the same
    repeated multiplication.  Most iterations of both descents need 3 or 4
    trials, so most line searches take one pass.

    Returns the accepted points, their values and extras, the accepted
    steps and the mask of accepted starts; other rows hold no meaning.
    """
    B, d, n = X.shape
    eta_try = eta * 4.0
    X2 = np.empty_like(X)
    f2 = np.zeros(B)
    extra = np.zeros(B)
    accepted = np.zeros(B, dtype=bool)
    rows = np.flatnonzero(todo)
    for _ in range(0, _BACKTRACKS, _LEVELS):
        if not rows.size:
            break
        steps = np.full((rows.size, _LEVELS), shrink)
        steps[:, 0] = eta_try[rows]
        steps = np.multiply.accumulate(steps, axis=1)
        trials = (X[rows, None] - steps[:, :, None, None] * direction[rows, None]).reshape(-1, d, n)
        f, ok, aux = evaluate(trials, rows)
        f = f.reshape(steps.shape)
        ok = ok.reshape(steps.shape) & (f <= f0[rows, None] - _ARMIJO * steps * g2[rows, None])
        found = ok.any(axis=1)
        first = ok.argmax(axis=1)[found]
        hit = rows[found]
        pick = np.flatnonzero(found) * _LEVELS + first
        X2[hit], f2[hit], extra[hit], eta_try[hit] = trials[pick], f[found, first], aux[pick], steps[found, first]
        accepted[hit] = True
        eta_try[rows[~found]] = steps[~found, -1] * shrink
        rows = rows[~found]
    return X2, f2, extra, eta_try, accepted


def descend_block(F0, eu, ev, em, p, q, max_iter, tol):
    """Projected subgradient descent of the gap quotient from each of the
    (R, n, d) starts ``F0``, run as one block."""
    F = np.asarray(F0, dtype=np.float64).transpose(0, 2, 1).copy()
    nR, d, n = F.shape
    F -= F.sum(axis=2, keepdims=True) / n
    E, D = _block_ratio(F, eu, ev, em, p, q)

    def evaluate(trials, rows):
        trials -= trials.sum(axis=2, keepdims=True) / n
        Et, Dt = _block_ratio(trials, eu, ev, em, p, q)
        pos = Dt > 0.0
        return np.divide(Et, Dt, out=np.full_like(Et, np.inf), where=pos), pos, Dt

    out_F = F.copy()
    out_R = np.full(nR, np.inf)
    out_it = np.zeros(nR, dtype=np.int64)
    out_step = np.zeros(nR)
    out_stop = np.full(nR, STOP_DEGENERATE)

    # State of the starts still running, in block order.
    idx = np.flatnonzero(D > 0.0)
    F = F[idx] / (D[idx] ** (1.0 / p))[:, None, None]
    bestF = F.copy()
    bestR = E[idx] / D[idx]
    refR = bestR.copy()
    ref_it = np.zeros(idx.size, dtype=np.int64)
    eta = np.full(idx.size, 0.25)
    step = np.zeros(idx.size)
    code = np.full(idx.size, _RUNNING)
    scatter = _edge_scatter_index(eu, ev, n, idx.size * d)
    it = 0
    while idx.size:
        if it == max_iter:
            code[:] = STOP_MAX_ITER
        else:
            it += 1
            E, D, gE, gD = _block_grads(F, eu, ev, em, p, q, scatter)
            R = E / D
            g = (gE - R[:, None, None] * gD) / D[:, None, None]
            g -= g.sum(axis=2, keepdims=True) / n
            g2 = (g * g).sum(axis=(1, 2))
            code[g2 < 1e-30] = STOP_CONVERGED
            F2, R2, D2, eta_try, accepted = _backtrack(F, g, R, g2, eta, code == _RUNNING, _SHRINK, evaluate)
            code[(code == _RUNNING) & ~accepted] = STOP_LINE_SEARCH
            acc = np.flatnonzero(accepted)
            F2 = F2[acc] / (D2[acc] ** (1.0 / p))[:, None, None]
            eta[acc] = eta_try[acc]
            step[acc] = np.sqrt(((F2 - F[acc]) ** 2).sum(axis=(1, 2)))
            F[acc] = F2
            better = acc[R2[acc] < bestR[acc]]
            bestR[better] = R2[better]
            bestF[better] = F[better]
            code[acc[step[acc] < tol]] = STOP_CONVERGED
            live = acc[code[acc] == _RUNNING]
            gained = bestR[live] < refR[live] - _STALL_REL * np.abs(refR[live])
            refR[live[gained]] = bestR[live[gained]]
            ref_it[live[gained]] = it
            code[live[~gained & (it - ref_it[live] >= _STALL_ITERS)]] = STOP_STALLED
        done = code != _RUNNING
        if done.any():
            j = idx[done]
            out_F[j], out_it[j], out_step[j], out_stop[j] = bestF[done], it, step[done], code[done]
            keep = ~done
            idx, F, bestF, bestR, refR, ref_it, eta, step, code = (
                a[keep] for a in (idx, F, bestF, bestR, refR, ref_it, eta, step, code)
            )
    live = out_stop != STOP_DEGENERATE
    E, D = _block_ratio(out_F[live], eu, ev, em, p, q)
    out_R[live] = E / D
    return np.ascontiguousarray(out_F.transpose(0, 2, 1)), out_R, out_it, out_step, out_stop


# ======================================================================
# grid oracles (scalar maps on at most 4 vertices)
# ======================================================================


def _batch_ratio(Fs, eu, ev, em, p):
    """Fs: (n, batch) scalar maps evaluated columnwise."""
    E = (em[:, None] * np.abs(Fs[eu] - Fs[ev]) ** p).sum(axis=0)
    D = (np.abs(Fs - Fs.mean(axis=0)) ** p).sum(axis=0)
    return E / D


def oracle_circle(b1, b2, eu, ev, em, p, npts, chunk=65536):
    h = math.pi / npts
    best = np.inf
    best_t = 0.0
    maxjump = 0.0
    prev_last = None
    for start in range(0, npts, chunk):
        ts = (np.arange(start, min(start + chunk, npts))) * h
        # grid evaluations: (n, chunk) map values
        Fs = np.outer(b1, np.cos(ts)) + np.outer(b2, np.sin(ts))
        R = _batch_ratio(Fs, eu, ev, em, p)
        k = int(np.argmin(R))
        if R[k] < best:
            best = float(R[k])
            best_t = float(ts[k])
        if R.shape[0] > 1:
            maxjump = max(maxjump, float(np.abs(np.diff(R)).max()))
        if prev_last is not None:
            maxjump = max(maxjump, abs(float(R[0]) - prev_last))
        prev_last = float(R[-1])
    return best, best_t, maxjump


def oracle_sphere(b1, b2, b3, eu, ev, em, p, nth, nph):
    hth = math.pi / (nth - 1)
    hph = 2.0 * math.pi / nph
    phs = np.arange(nph) * hph
    best = np.inf
    best_th = 0.0
    best_ph = 0.0
    maxjump = 0.0
    prev_row = None
    for a in range(nth):
        th = a * hth
        x = math.sin(th) * np.cos(phs)
        y = math.sin(th) * np.sin(phs)
        Fs = np.outer(b1, x) + np.outer(b2, y) + math.cos(th) * b3[:, None]
        R = _batch_ratio(Fs, eu, ev, em, p)
        k = int(np.argmin(R))
        if R[k] < best:
            best = float(R[k])
            best_th = th
            best_ph = float(phs[k])
        if nph > 1:
            maxjump = max(maxjump, float(np.abs(np.diff(R)).max()))
        if prev_row is not None:
            maxjump = max(maxjump, float(np.abs(R - prev_row).max()))
        prev_row = R
    return best, best_th, best_ph, maxjump


# ======================================================================
# displacement constant
# ======================================================================


def _block_kappa_diffs(xi, perms):
    """xi o s - xi for every generator s: (R, d, g, m) from an (R, d, m) block."""
    return xi[:, :, perms] - xi[:, :, None, :]


def _block_kappa_residuals(diff, p):
    return (np.abs(diff) ** p).sum(axis=(1, 3)) ** (1.0 / p)


def kappa_residuals(xi, perms, p):
    """||xi o s - xi||_p for each generator s of one (m, d) field."""
    return _block_kappa_residuals(_block_kappa_diffs(xi.T[None], perms), p)[0]


def _block_kappa_normalize(xi, p):
    """Centre each start of an (R, d, m) block in place and scale it to unit
    flat l_p norm where that norm is positive; returns sum |xi|^p before
    scaling."""
    xi -= xi.sum(axis=2, keepdims=True) / xi.shape[2]
    S = (np.abs(xi) ** p).sum(axis=(1, 2))
    pos = S > 0.0
    xi[pos] /= (S[pos] ** (1.0 / p))[:, None, None]
    return S


def _block_smoothed(r, beta):
    """Log-sum-exp smoothed max of each row of r, and the softmax weights."""
    rmax = r.max(axis=1)
    w = np.exp(beta[:, None] * (r - rmax[:, None]))
    wsum = w.sum(axis=1)
    return rmax + np.log(wsum) / beta, w / wsum[:, None]


def _block_kappa_grad(xi, perms, inv_flat, p, beta):
    """Smoothed max residual of each start and its gradient."""
    B, d, m = xi.shape
    diff = _block_kappa_diffs(xi, perms)
    r = _block_kappa_residuals(diff, p)
    fsm, w = _block_smoothed(r, beta)
    pos = r > 0.0
    scale = np.where(pos & (w != 0.0), w * np.where(pos, r, 1.0) ** (1.0 - p), 0.0)
    t = scale[:, None, :, None] * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    # t[..., s, v] moves xi[perms[s, v]] up and xi[v] down.
    up = t.reshape(B, d, -1)[:, :, inv_flat].reshape(t.shape)
    return fsm, (up - t).sum(axis=2)


def kappa_descend_block(xi0, perms, p, betas, iters_per_stage, tol):
    """Annealed smoothed-max descent of the worst generator displacement
    from each of the (R, m, d) starts ``xi0``, run as one block.

    Each start runs one stage per entry of ``betas``; a stage ends on a
    vanishing gradient or a step below ``tol`` (converged), a failed line
    search, or after ``iters_per_stage`` iterations (max_iter), and the
    next stage resumes from the same field with a fresh step size.  The
    reason that ended a start's last stage is its stop code.  Returns
    ``(xi, value, iterations, stop)`` per start: the field with the lowest
    true max residual seen at an accepted step, that residual, the total
    iteration count and the stop code.  A start whose centred field is zero
    stops at once as degenerate, with value inf.
    """
    xi = np.asarray(xi0, dtype=np.float64).transpose(0, 2, 1).copy()
    nR, d, m = xi.shape
    g = perms.shape[0]
    inv_flat = (np.arange(g)[:, None] * m + np.argsort(perms, axis=1)).ravel()
    S = _block_kappa_normalize(xi, p)
    out_xi = xi.copy()
    out_best = np.full(nR, np.inf)
    out_it = np.zeros(nR, dtype=np.int64)
    out_stop = np.full(nR, STOP_DEGENERATE)

    def evaluate(trials, rows):
        # smooths with each start's current stage parameter, ``beta`` below
        S = _block_kappa_normalize(trials, p)
        r = _block_kappa_residuals(_block_kappa_diffs(trials, perms), p)
        return _block_smoothed(r, np.repeat(beta[rows], _LEVELS))[0], S > 0.0, r.max(axis=1)

    # State of the starts still running, in block order.
    idx = np.flatnonzero(S > 0.0)
    xi = xi[idx]
    best = _block_kappa_residuals(_block_kappa_diffs(xi, perms), p).max(axis=1)
    best_xi = xi.copy()
    stage = np.zeros(idx.size, dtype=np.int64)
    sit = np.zeros(idx.size, dtype=np.int64)
    eta = np.full(idx.size, 0.25)
    total = 0
    while idx.size:
        total += 1
        sit += 1
        beta = betas[stage]
        fsm, grad = _block_kappa_grad(xi, perms, inv_flat, p, beta)
        grad -= grad.sum(axis=2, keepdims=True) / m
        g2 = (grad * grad).sum(axis=(1, 2))
        ended = np.where(g2 < 1e-30, STOP_CONVERGED, _RUNNING)

        xi2, _, tru, eta_try, accepted = _backtrack(
            xi, grad, fsm, g2, eta, ended == _RUNNING, _KAPPA_SHRINK, evaluate
        )
        ended[(ended == _RUNNING) & ~accepted] = STOP_LINE_SEARCH
        acc = np.flatnonzero(accepted)
        better = acc[tru[acc] < best[acc]]
        best[better] = tru[better]
        best_xi[better] = xi2[better]
        eta[acc] = eta_try[acc]
        step = np.sqrt(((xi2[acc] - xi[acc]) ** 2).sum(axis=(1, 2)))
        xi[acc] = xi2[acc]
        ended[acc[step < tol]] = STOP_CONVERGED
        ended[(ended == _RUNNING) & (sit == iters_per_stage)] = STOP_MAX_ITER

        nxt = ended != _RUNNING
        stage[nxt] += 1
        sit[nxt] = 0
        eta[nxt] = 0.25
        done = stage == betas.shape[0]
        if done.any():
            j = idx[done]
            out_xi[j], out_best[j], out_it[j], out_stop[j] = best_xi[done], best[done], total, ended[done]
            keep = ~done
            idx, xi, best_xi, best, stage, sit, eta = (
                a[keep] for a in (idx, xi, best_xi, best, stage, sit, eta)
            )
    return np.ascontiguousarray(out_xi.transpose(0, 2, 1)), out_best, out_it, out_stop
