"""Reference loops for the vectorised kernels.

The descents are the serial numpy kernels that ran one start at a time
before they were vectorised over a block of starts; the tests compare the
block kernels of ``banachgap._kernels`` against them.  The grid oracles
are the half-circle scan (n = 3) and the row-by-row sphere scan (n = 4)
that ``_kernels.oracle_grid`` replaced with one chunked grid kernel, each
with its own plain quotient of a batch of maps.
``cut_quotient_min`` scores every indicator with a plain numpy quotient, the
check of ``_kernels.cut_gap``'s meet-in-the-middle enumeration.
``cholesky_witness_lower`` re-verifies the witness of a ``"cholesky"``
lower end with one unblocked factorisation of the per-edge Laplacian.  The graph and
metric loops are the per-edge dense Laplacian, the per-source BFS, the
pairwise ``Fraction`` distortion and the per-translation displacement that
``banachgap.graphs`` and ``banachgap.distortion`` replaced with array
code; the per-row float distortion and the all-pairs exact one that it
then replaced with blocks of pairs; and the enumeration of all
permutations for the maximal displacement that ``banachgap.distortion``
solves as a bottleneck matching.  ``r_eps_exact`` enumerates subsets for
the exact r_eps, which the ball certificate ``distortion.r_eps_lower``
bounds from below.  The sphere references are the
Gamma(1/p)-and-random-sign sampler and the per-bin envelope loop that
``banachgap.mazur`` replaced.
The group references build actions and Schreier graphs element by element
and vertex by vertex, with m^2 products for the right translations, as
``banachgap.groups`` did before it read them off one closure table and one
search tree.  The realization references are the ``build_graph``-based
even regularization and the per-entry, dict-based reassembly and
round-trip check that ``banachgap.realization`` replaced with integer edge
keys.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from banachgap import groups
from banachgap.graphs import build_graph
from banachgap._kernels import (
    _ARMIJO,
    _BACKTRACKS,
    _SHRINK,
    _STALL_ITERS,
    _STALL_REL,
    STOP_CONVERGED,
    STOP_DEGENERATE,
    STOP_LINE_SEARCH,
    STOP_MAX_ITER,
    STOP_STALLED,
)


def ratio_parts(F, eu, ev, em, p, q):
    if eu.shape[0]:
        diff = F[eu] - F[ev]
        nrm = (np.abs(diff) ** q).sum(axis=1) ** (1.0 / q)
        E = float((em * nrm**p).sum())
    else:
        E = 0.0
    vn = (np.abs(F) ** q).sum(axis=1) ** (1.0 / q)
    return E, float((vn**p).sum())


def grads(F, eu, ev, em, p, q):
    gE = np.zeros_like(F)
    if eu.shape[0]:
        diff = F[eu] - F[ev]
        nq = (np.abs(diff) ** q).sum(axis=1)
        pos = nq > 0.0
        nrm = np.where(pos, nq, 1.0) ** (1.0 / q)
        E = float((em[pos] * nrm[pos] ** p).sum())
        c = np.where(pos, em * p * nrm ** (p - q), 0.0)
        t = c[:, None] * np.abs(diff) ** (q - 1.0) * np.sign(diff)
        np.add.at(gE, eu, t)
        np.subtract.at(gE, ev, t)
    else:
        E = 0.0
    nq = (np.abs(F) ** q).sum(axis=1)
    pos = nq > 0.0
    nrm = np.where(pos, nq, 1.0) ** (1.0 / q)
    D = float((nrm[pos] ** p).sum())
    c = np.where(pos, p * nrm ** (p - q), 0.0)
    gD = c[:, None] * np.abs(F) ** (q - 1.0) * np.sign(F)
    return E, D, gE, gD


def descend(F0, eu, ev, em, p, q, max_iter, tol):
    F = F0.copy()
    F -= F.mean(axis=0)
    E, D = ratio_parts(F, eu, ev, em, p, q)
    if D <= 0.0:
        return F, np.inf, 0, 0.0, STOP_DEGENERATE
    F /= D ** (1.0 / p)
    bestF = F.copy()
    bestR = E / D
    refR = bestR
    ref_it = 0
    eta = 0.25
    step = 0.0
    it = 0
    reason = STOP_MAX_ITER
    while it < max_iter:
        it += 1
        E, D, gE, gD = grads(F, eu, ev, em, p, q)
        R = E / D
        g = (gE - R * gD) / D
        g -= g.mean(axis=0)
        g2 = float((g * g).sum())
        if g2 < 1e-30:
            reason = STOP_CONVERGED
            break
        eta_try = eta * 4.0
        accepted = False
        for _ in range(_BACKTRACKS):
            F2 = F - eta_try * g
            F2 -= F2.mean(axis=0)
            E2, D2 = ratio_parts(F2, eu, ev, em, p, q)
            if D2 > 0.0:
                R2 = E2 / D2
                if R2 <= R - _ARMIJO * eta_try * g2:
                    accepted = True
                    break
            eta_try *= _SHRINK
        if not accepted:
            reason = STOP_LINE_SEARCH
            break
        F2 /= D2 ** (1.0 / p)
        eta = eta_try
        step = float(np.sqrt(((F2 - F) ** 2).sum()))
        F = F2
        if R2 < bestR:
            bestR = R2
            bestF = F.copy()
        if step < tol:
            reason = STOP_CONVERGED
            break
        if bestR < refR - _STALL_REL * abs(refR):
            refR = bestR
            ref_it = it
        elif it - ref_it >= _STALL_ITERS:
            reason = STOP_STALLED
            break
    E, D = ratio_parts(bestF, eu, ev, em, p, q)
    return bestF, E / D, it, step, reason


def _kappa_residuals(xi, perms, p):
    diff = xi[perms] - xi[None, :, :]
    return ((np.abs(diff) ** p).sum(axis=(1, 2))) ** (1.0 / p)


def _kappa_normalize(xi, p):
    xi -= xi.mean(axis=0)
    S = float((np.abs(xi) ** p).sum())
    if S > 0.0:
        xi /= S ** (1.0 / p)
    return S


def _kappa_smoothed(r, beta):
    rmax = float(r.max())
    return rmax + math.log(float(np.exp(beta * (r - rmax)).sum())) / beta


def _kappa_grad(xi, perms, p, beta):
    r = _kappa_residuals(xi, perms, p)
    rmax = float(r.max())
    w = np.exp(beta * (r - rmax))
    wsum = float(w.sum())
    w = w / wsum
    grad = np.zeros_like(xi)
    for s in range(perms.shape[0]):
        if r[s] <= 0.0 or w[s] == 0.0:
            continue
        u = xi[perms[s]] - xi
        t = (w[s] * r[s] ** (1.0 - p)) * np.abs(u) ** (p - 1.0) * np.sign(u)
        grad[perms[s]] += t
        grad -= t
    return rmax + math.log(wsum) / beta, r, grad


def kappa_descend(xi0, perms, p, betas, iters_per_stage, tol):
    xi = xi0.copy()
    _kappa_normalize(xi, p)
    r = _kappa_residuals(xi, perms, p)
    best = float(r.max())
    best_xi = xi.copy()
    total_it = 0
    for beta in betas:
        eta = 0.25
        it = 0
        while it < iters_per_stage:
            it += 1
            total_it += 1
            fsm, r, grad = _kappa_grad(xi, perms, p, beta)
            grad -= grad.mean(axis=0)
            g2 = float((grad * grad).sum())
            if g2 < 1e-30:
                break
            eta_try = eta * 4.0
            accepted = False
            for _ in range(_BACKTRACKS):
                xi2 = xi - eta_try * grad
                S = _kappa_normalize(xi2, p)
                if S > 0.0:
                    r2 = _kappa_residuals(xi2, perms, p)
                    f2 = _kappa_smoothed(r2, beta)
                    if f2 <= fsm - _ARMIJO * eta_try * g2:
                        accepted = True
                        tru = float(r2.max())
                        if tru < best:
                            best = tru
                            best_xi = xi2.copy()
                        break
                eta_try *= 0.5
            if not accepted:
                break
            eta = eta_try
            step = float(np.sqrt(((xi2 - xi) ** 2).sum()))
            xi = xi2
            if step < tol:
                break
    return best_xi, best, total_it


def grid_quotient(Fs, eu, ev, em, p):
    """The quotient of each column of an (n, batch) array of scalar maps."""
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
        R = grid_quotient(Fs, eu, ev, em, p)
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


def sphere_row(b1, b2, b3, eu, ev, em, p, th, phs):
    """The quotient along one row (latitude ``th``) of the sphere grid."""
    x = math.sin(th) * np.cos(phs)
    y = math.sin(th) * np.sin(phs)
    Fs = np.outer(b1, x) + np.outer(b2, y) + math.cos(th) * b3[:, None]
    return grid_quotient(Fs, eu, ev, em, p)


def oracle_sphere(b1, b2, b3, eu, ev, em, p, nth, nph, rows=None):
    """The first ``rows`` rows (all ``nth`` by default) of the grid of nth
    rows from t = 0 to pi and nph columns; a row's jumps include the one
    from its last column back to its first."""
    hth = math.pi / (nth - 1)
    hph = 2.0 * math.pi / nph
    phs = np.arange(nph) * hph
    best = np.inf
    best_th = 0.0
    best_ph = 0.0
    maxjump = 0.0
    prev_row = None
    for a in range(nth if rows is None else rows):
        th = a * hth
        R = sphere_row(b1, b2, b3, eu, ev, em, p, th, phs)
        k = int(np.argmin(R))
        if R[k] < best:
            best = float(R[k])
            best_th = th
            best_ph = float(phs[k])
        maxjump = max(maxjump, float(np.abs(np.diff(R, append=R[0])).max()))
        if prev_row is not None:
            maxjump = max(maxjump, float(np.abs(R - prev_row).max()))
        prev_row = R
    return best, best_th, best_ph, maxjump


def cut_quotient_min(G, chunk=1 << 16):
    """The least p = 1 quotient ``sum_e m |f_u - f_v| / sum_v |f_v - mean|``
    over the indicators f of every proper nonempty vertex set, edge by edge
    over ``G.edges`` (loops included, where they add 0), a chunk of sets at
    a time.  A set and its complement share a quotient, so the sets leave
    out vertex n - 1."""
    n = G.n
    best = np.inf
    for start in range(1, 1 << (n - 1), chunk):
        masks = np.arange(start, min(start + chunk, 1 << (n - 1)))
        f = [((masks >> v) & 1).astype(np.float64) for v in range(n)]
        mean = sum(f) / n
        energy = sum(m * np.abs(f[u] - f[v]) for u, v, m in G.edges)
        spread = sum(np.abs(fv - mean) for fv in f)
        best = min(best, float((energy / spread).min()))
    return best


def laplacian(G):
    L = np.zeros((G.n, G.n))
    for u, v, m in G.edges:
        if u == v:
            continue
        L[u, u] += m
        L[v, v] += m
        L[u, v] -= m
        L[v, u] -= m
    return L


def cholesky_witness_lower(G, witness):
    """The lower end ``shift - margin`` on lambda_2 that the witness ``{t,
    shift, margin}`` of ``spectral._cholesky_certificate`` proves, checked
    without the solvers: one ``np.linalg.cholesky`` of ``L + t 11^T - shift
    I`` on the per-edge Laplacian, which raises ``LinAlgError`` if it fails,
    and the margin from its formula, ``(gamma_{n+1}/(1 - gamma_{n+1}) + u)
    (trace(L) + t n)``."""
    n, t, shift = G.n, witness["t"], witness["shift"]
    assert isinstance(t, int) and t >= 1  # so the off-diagonal entries are exact
    L = laplacian(G)
    u = 2.0**-53
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    np.linalg.cholesky(L + t - shift * np.eye(n))
    return shift - (gamma / (1.0 - gamma) + u) * (float(np.trace(L)) + t * n)


def bfs_distances(G):
    adj = [[] for _ in range(G.n)]
    for u, v, _ in G.edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    dist = np.full((G.n, G.n), -1, dtype=np.int64)
    for s in range(G.n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
    return dist


def distortion_exact_sq(F, d):
    n = len(F)
    max_e = Fraction(0)
    max_c = Fraction(0)
    for u in range(n):
        for v in range(u + 1, n):
            nsq = int(((F[u] - F[v]) ** 2).sum())
            dsq = int(d[u, v]) ** 2
            if nsq == 0:
                raise ValueError(f"embedding is not injective: vertices {u} and {v} collide")
            max_e = max(max_e, Fraction(nsq, dsq))
            max_c = max(max_c, Fraction(dsq, nsq))
    return max_e * max_c


def map_distortion_rows(F, d, q):
    """The per-row loop ``distortion.map_distortion`` ran before its pair
    blocks: (value, lip, lip_inv, witness_expand, witness_contract)."""
    F = np.asarray(F, dtype=np.float64).reshape(len(d), -1)
    lip = lip_inv = 0.0
    we = wc = (0, 1)
    for u in range(len(F) - 1):
        nrm = (np.abs(F[u + 1 :] - F[u]) ** q).sum(axis=1) ** (1.0 / q)
        dd = d[u, u + 1 :].astype(np.float64)
        if np.any(nrm == 0.0):
            v = u + 1 + int(np.nonzero(nrm == 0.0)[0][0])
            raise ValueError(f"embedding is not injective: vertices {u} and {v} collide")
        e = nrm / dd
        c = dd / nrm
        ie, ic = int(np.argmax(e)), int(np.argmax(c))
        if e[ie] > lip:
            lip, we = float(e[ie]), (u, u + 1 + ie)
        if c[ic] > lip_inv:
            lip_inv, wc = float(c[ic]), (u, u + 1 + ic)
    return lip * lip_inv, lip, lip_inv, we, wc


def map_distortion_exact_sq_all_pairs(F, d):
    """The all-pairs ``distortion.map_distortion_exact_sq`` before its pair
    blocks: every pair's int64 squared norm and distance at once, and the
    pairs within 1e-9 of each float maximum compared as Fractions."""
    F = np.asarray(F).reshape(len(d), -1).astype(np.int64)
    iu, iv = np.triu_indices(len(F), 1)
    sq = (F * F).sum(axis=1)
    nsq = sq[iu] + sq[iv] - 2 * (F @ F.T)[iu, iv]
    dsq = d[iu, iv] ** 2
    if not nsq.all():
        k = int(np.flatnonzero(nsq == 0)[0])
        raise ValueError(f"embedding is not injective: vertices {iu[k]} and {iv[k]} collide")

    def max_ratio(num, den):
        r = num / den
        near = np.flatnonzero(r >= r.max(initial=0.0) * (1 - 1e-9))
        return max((Fraction(int(num[i]), int(den[i])) for i in near), default=Fraction(0))

    return max_ratio(nsq, dsq) * max_ratio(dsq, nsq)


def cayley_displacement(d, right_translations):
    best, best_g = -1, 0
    for g, perm in enumerate(right_translations):
        val = int(min(d[v, perm[v]] for v in range(len(perm))))
        if val > best:
            best, best_g = val, g
    return best, best_g


def brute_displacement(d):
    """max over permutations pi of min_v d[v, pi(v)], by enumeration (n <= 8)."""
    n = len(d)
    if n > 8:
        raise ValueError("brute displacement is gated at 8 vertices")
    best = -1
    for perm in itertools.permutations(range(n)):
        best = max(best, int(min(d[v, perm[v]] for v in range(n))))
    return best


def r_eps_exact(d, eps):
    """min diam(A)/diam(G) over the subsets A of ceil(eps n) vertices, by
    enumeration (n <= 16; a larger A has no smaller diameter): the oracle
    for ``distortion.r_eps_lower``."""
    n = len(d)
    if n > 16:
        raise ValueError("exact subset enumeration is gated at 16 vertices")
    subsets = itertools.combinations(range(n), math.ceil(eps * n))
    best = min(max((int(d[a, b]) for a, b in itertools.combinations(A, 2)), default=0) for A in subsets)
    return best / int(d.max())


def sphere_sample(rng, count, d, p):
    g = rng.gamma(shape=1.0 / p, scale=1.0, size=(count, d)) ** (1.0 / p)
    g *= rng.choice(np.array([-1.0, 1.0]), size=(count, d))
    return g / ((np.abs(g) ** p).sum(axis=1) ** (1.0 / p))[:, None]


def fit_envelope(eps, delta, bins=64):
    pos = (eps > 0) & (delta > 0)
    eps, delta = eps[pos], delta[pos]
    if eps.size < 2:
        return 1.0, 1.0
    lo, hi = eps.min(), eps.max()
    if hi <= lo:
        return float(delta.max() / lo), 1.0
    edges = np.geomspace(lo, hi * (1 + 1e-12), bins + 1)
    idx = np.clip(np.searchsorted(edges, eps, side="right") - 1, 0, bins - 1)
    xs, ys = [], []
    for b in range(bins):
        sel = np.nonzero(idx == b)[0]
        if sel.size:
            top = sel[int(np.argmax(delta[sel]))]
            xs.append(math.log(eps[top]))
            ys.append(math.log(delta[top]))
    if len(xs) < 2:
        return float(delta.max() / eps.max()), 1.0
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    alpha = float(min(max(slope, 1e-9), 1.0))
    return float(math.exp(intercept)), alpha


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def _close_elements(identity, gen_elements, mult):
    index = {identity: 0}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_elements:
                y = mult(g, x)
                if y not in index:
                    index[y] = len(order)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order, index


def _group(kind, params):
    """The elements in the library's order, their index, the generators,
    the product and the inverse labels, one product per element and
    generator.  The group definitions are the library's, except that sl_mod
    multiplies matrices entry by entry, not by the library's row update for
    a generator."""
    seed, gens, mult, inverse_of = groups._GROUPS[kind][1](*params)
    if kind == "sl_mod":
        n, k = params
        mult = lambda x, y: tuple(  # noqa: E731
            tuple(sum(x[i][t] * y[t][j] for t in range(n)) % k for j in range(n)) for i in range(n)
        )
        elements, index = _close_elements(next(iter(seed)), [g for _, g in gens], mult)
    else:
        elements = list(seed)
        index = {x: i for i, x in enumerate(elements)}
    return elements, index, gens, mult, inverse_of


def group_action(kind, *params):
    """``groups.action_from_group`` from ``_group``'s products."""
    elements, index, gens, mult, inverse_of = _group(kind, params)
    labels = tuple(lab for lab, _ in gens)
    inverse = tuple(labels.index(inverse_of[lab]) for lab in labels)
    m = len(elements)
    perms = np.empty((len(gens), m), dtype=np.int64)
    for gi, (_, g) in enumerate(gens):
        for xi, x in enumerate(elements):
            perms[gi, xi] = index[mult(g, x)]
    return groups.PermutationAction(m, labels, perms, inverse, tuple(elements))


def right_translations(kind, *params):
    """``PermutationAction.right_translations`` of the group acting on
    itself, by m^2 products: row g maps x to x*g."""
    elements, index, _, mult, _ = _group(kind, params)
    m = len(elements)
    rts = np.empty((m, m), dtype=np.int64)
    for gi, g in enumerate(elements):
        for xi, x in enumerate(elements):
            rts[gi, xi] = index[mult(x, g)]
    return rts


def transitive(perms):
    """Depth-first search from point 0 over the rows of ``perms``."""
    seen = np.zeros(perms.shape[1], dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for row in perms:
            w = int(row[v])
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def schreier_edges(a):
    """Edges of the Schreier graph, vertex by vertex, before normalisation."""
    edges = []
    for i in range(a.size):
        inv = a.inverse[i]
        perm = a.perms[i]
        if inv == i:
            seen = set()
            for v in range(a.m):
                w = int(perm[v])
                if w == v:
                    edges.append((v, v, 1))
                else:
                    key = (min(v, w), max(v, w))
                    if key not in seen:
                        seen.add(key)
                        edges.append((key[0], key[1], 1))
        elif inv > i:
            for v in range(a.m):
                w = int(perm[v])
                edges.append((min(v, w), max(v, w), 1))
    return edges


def even_regularize(G):
    """Doubled edges plus pad loops, merged, sorted and searched by build_graph."""
    delta = G.max_degree
    edges = [(u, v, 2 * m) for u, v, m in G.edges]
    for v in range(G.n):
        pad = delta - G.degrees[v]
        if pad > 0:
            edges.append((v, v, pad))
    return build_graph(G.n, edges)


def reassemble(n, perms):
    """One edge {v, sigma(v)} per vertex per permutation, entry by entry."""
    edges = []
    for sigma in perms:
        for v in range(n):
            w = int(sigma[v])
            edges.append((min(v, w), max(v, w), 1))
    return build_graph(n, edges)


def verify_realization(spec):
    """Edge multiset dicts of the base and the reassembly, and their
    symmetric difference."""
    want = {(u, v): m for u, v, m in spec.base.edges}
    got = {(u, v): m for u, v, m in reassemble(spec.base.n, list(spec.perms)).edges}
    if want == got:
        return True, {}
    diff = {}
    for key in set(want) | set(got):
        a, b = want.get(key, 0), got.get(key, 0)
        if a != b:
            diff[key] = {"expected": a, "rebuilt": b}
    return False, diff
