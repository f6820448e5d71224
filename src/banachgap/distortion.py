"""Distortion bounds for embedding finite graphs into l_q^d.

Two lower-bound routes feed the report: a concentration route built from
the normalized radius r_eps (smallest subset-diameter fraction at mass
eps) and a displacement route built from the maximal displacement D(G)
(the best over permutations of the worst distance any vertex moves).
Upper bounds come from explicit embeddings whose bi-Lipschitz constants
are evaluated exactly over all pairs.  A coarse-union builder and a
compression-exclusion check cover the asymptotic corollaries at family
level.
Both lower-bound routes increase with the gap and with D(G), so they take
the lower ends of those ``spectral.Bound``s and are certified when both are.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .graphs import MetricTable, MultiGraph, all_pairs_distances, require_at_least_one
from .groups import PermutationAction
from .spectral import Bound, GapEstimate

__all__ = [
    "DistortionResult",
    "REpsBound",
    "Displacement",
    "BoundValue",
    "DistortionBounds",
    "CoarseUnion",
    "ExclusionVerdict",
    "map_distortion",
    "map_distortion_exact_sq",
    "hamming_identity_embedding",
    "frechet_embedding",
    "r_eps_lower",
    "r_eps_exact",
    "max_displacement",
    "gn_bound",
    "jv_bound",
    "jv_bound_exact_sq",
    "coarse_union",
    "austin_exclude",
]


# ----------------------------------------------------------------------
# Exact distortion of explicit embeddings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionResult:
    value: float
    lip: float
    lip_inv: float
    witness_expand: tuple[int, int]
    witness_contract: tuple[int, int]


def map_distortion(
    G: MultiGraph, F: np.ndarray, q: float, metric: MetricTable | None = None
) -> DistortionResult:
    """Exact over all vertex pairs: ||f||_Lip * ||f^-1||_Lip for an
    injective embedding F (n rows) into l_q^d."""
    require_at_least_one(("q", q))
    F = _embedding_rows(G, np.asarray(F, dtype=np.float64))
    metric = metric or all_pairs_distances(G)
    n = G.n
    lip = 0.0
    lip_inv = 0.0
    we = wc = (0, 1)
    for u in range(n - 1):
        diff = F[u + 1 :] - F[u]
        nrm = (np.abs(diff) ** q).sum(axis=1) ** (1.0 / q)
        dd = metric.d[u, u + 1 :].astype(np.float64)
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
    return DistortionResult(value=lip * lip_inv, lip=lip, lip_inv=lip_inv, witness_expand=we, witness_contract=wc)


def map_distortion_exact_sq(G: MultiGraph, F: np.ndarray, metric: MetricTable | None = None) -> Fraction:
    """Squared distortion of an integer embedding at q=2, exact: squared
    norms and distances of all pairs are int64, and the pairs whose float
    ratio is within 1e-9 of its maximum are compared as Fractions.  The float
    step is exact only below 2^53, so larger inputs are refused."""
    F = np.asarray(F)
    if not np.issubdtype(F.dtype, np.integer):
        raise ValueError("exact distortion needs integer coordinates")
    F = _embedding_rows(G, F)
    metric = metric or all_pairs_distances(G)
    big = max(int(F.max(initial=0)), -int(F.min(initial=0)))
    if 4 * F.shape[1] * big**2 >= 2**53 or metric.diameter**2 >= 2**53:
        raise ValueError("exact distortion needs squared norms and distances below 2^53")
    F = F.astype(np.int64)
    iu, iv = np.triu_indices(G.n, 1)
    sq = (F * F).sum(axis=1)
    nsq = sq[iu] + sq[iv] - 2 * (F @ F.T)[iu, iv]
    dsq = metric.d[iu, iv] ** 2
    if not nsq.all():
        k = int(np.flatnonzero(nsq == 0)[0])
        raise ValueError(f"embedding is not injective: vertices {iu[k]} and {iv[k]} collide")
    return _max_ratio(nsq, dsq) * _max_ratio(dsq, nsq)


def _embedding_rows(G: MultiGraph, F: np.ndarray) -> np.ndarray:
    """F with one row per vertex of G; a 1-D embedding is one column."""
    if len(F) != G.n:
        raise ValueError(f"embedding has {len(F)} rows, but the graph has {G.n} vertices")
    return F.reshape(G.n, -1)


def _max_ratio(num: np.ndarray, den: np.ndarray) -> Fraction:
    r = num / den
    near = np.flatnonzero(r >= r.max(initial=0.0) * (1 - 1e-9))
    return max((Fraction(int(num[i]), int(den[i])) for i in near), default=Fraction(0))


def hamming_identity_embedding(n: int) -> np.ndarray:
    """Cube vertices as 0/1 coordinate rows (vertex index = bitmask)."""
    return np.array([[(v >> i) & 1 for i in range(n)] for v in range(1 << n)], dtype=np.int64)


def frechet_embedding(G: MultiGraph, metric: MetricTable | None = None) -> np.ndarray:
    """Distance-row embedding v -> (d(v, w))_w; 1-Lipschitz into l_inf and a
    generic integer embedding for upper bounds in any l_q."""
    metric = metric or all_pairs_distances(G)
    return metric.d.copy()


# ----------------------------------------------------------------------
# Normalized subset radius r_eps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class REpsBound:
    value: float
    radius: int
    center: int
    diameter: int
    subset: tuple[int, ...] | None = None


def r_eps_lower(G: MultiGraph, metric: MetricTable, eps: float) -> REpsBound:
    """Ball certificate: any subset with >= eps*n vertices lies in a ball of
    its diameter around each of its points, so the smallest radius whose
    ball reaches mass eps lower-bounds the subset diameter."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    k = math.ceil(eps * G.n)
    radii = np.partition(metric.d, k - 1, axis=1)[:, k - 1]
    best_v = int(np.argmin(radii))
    best_r = int(radii[best_v])
    return REpsBound(
        value=best_r / metric.diameter,
        radius=best_r,
        center=best_v,
        diameter=metric.diameter,
    )


def r_eps_exact(G: MultiGraph, metric: MetricTable, eps: float) -> REpsBound:
    """Exact minimum of diam(A)/diam(G) over subsets with |A| >= ceil(eps n),
    by enumeration (growing A beyond the threshold cannot shrink diam)."""
    if G.n > 16:
        raise ValueError("exact subset enumeration is gated at 16 vertices")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    k = math.ceil(eps * G.n)
    best = None
    best_subset: tuple[int, ...] = ()
    for subset in itertools.combinations(range(G.n), k):
        dia = 0
        for a, b in itertools.combinations(subset, 2):
            if metric.d[a, b] > dia:
                dia = int(metric.d[a, b])
            if best is not None and dia >= best:
                break
        else:
            if best is None or dia < best:
                best, best_subset = dia, subset
            continue
    return REpsBound(
        value=best / metric.diameter,
        radius=int(best),
        center=best_subset[0],
        diameter=metric.diameter,
        subset=best_subset,
    )


# ----------------------------------------------------------------------
# Maximal displacement
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Displacement:
    bound: Bound  # on D(G); exact when the ends meet
    permutation: np.ndarray  # attains the lower end, the value
    hall_set: np.ndarray | None = None  # exact mode: S with fewer than |S| partners at distance >= value + 1

    @property
    def value(self) -> int:
        return self.bound.lower


def _hopcroft_karp(indptr: list, indices: list, match_l: list, match_r: list) -> list:
    """Grow a bipartite matching (left -> right, right -> left, -1 free) to a
    maximum one in place, by Hopcroft-Karp phases on an explicit stack.
    Returns the left vertices the last BFS reached from the free ones: empty
    iff the matching is perfect, else a set S with fewer than |S| neighbours."""
    while True:
        roots = [v for v, w in enumerate(match_l) if w < 0]
        layer = [0 if w < 0 else -1 for w in match_l]
        queue, stop = list(roots), math.inf  # stop: the layer that first sees a free right vertex
        for u in queue:
            if layer[u] > stop:
                break
            for w in indices[indptr[u] : indptr[u + 1]]:
                x = match_r[w]
                if x < 0:
                    stop = layer[u]
                elif layer[x] < 0:
                    layer[x] = layer[u] + 1
                    queue.append(x)
        if stop == math.inf:
            return queue
        ptr = indptr[:-1]
        for root in roots:
            path = [(root, -1)]  # (left vertex, the right vertex it was reached through)
            while path:
                u = path[-1][0]
                if ptr[u] == indptr[u + 1]:  # exhausted for this phase
                    path.pop()
                    continue
                w = indices[ptr[u]]
                ptr[u] += 1
                x = match_r[w]
                if x < 0:
                    for (v, _), (_, y) in zip(path, path[1:] + [(x, w)]):
                        match_l[v], match_r[y] = y, v
                    break
                if layer[x] == layer[u] + 1 and layer[u] < stop:
                    path.append((x, w))


def max_displacement(
    G: MultiGraph, metric: MetricTable, mode: str = "exact", action: PermutationAction | None = None
) -> Displacement:
    """Best-over-permutations worst vertex movement D(G).

    exact: D >= t iff the threshold graph {(v, w) : d(v, w) >= t} has a
    perfect matching (Hall).  D is at most the radius: a centre c moves at
    most ecc(c), so {c} is a Hall set at radius + 1.  Thresholds gallop
    down from the radius (rad, rad-1, rad-3, ...), then bisect; each
    matching grows from the one at the smallest failed threshold.
    ``hall_set`` (None when D is the diameter) shows that D + 1 fails, so
    both ends of the bound are D.
    cayley: for a transitive action on itself, right translations are
    isometries; the best one proves the lower end, and the diameter is the
    upper end, so D(G) is known when they meet.
    """
    n = G.n
    if mode == "exact":
        ecc = metric.d.max(axis=1)
        centre = int(np.argmin(ecc))
        top = int(ecc[centre]) + 1
        lo, hi = -1, top  # D in [lo, hi): lo attained (or -1), hi not
        match, perm = ([-1] * n, [-1] * n), None
        hall = np.array([centre], dtype=np.int64) if top <= metric.diameter else None
        while hi - lo > 1:  # gallop down (rad, rad-1, rad-3, rad-7, ...), then bisect
            t = max(hi - max(top - hi, 1), 0) if lo < 0 else (lo + hi) // 2
            rows = metric.d >= t
            ml, mr = match[0].copy(), match[1].copy()  # the matching at hi is one at t < hi too
            reach = _hopcroft_karp([0, *np.cumsum(rows.sum(axis=1)).tolist()], np.nonzero(rows)[1].tolist(), ml, mr)
            if reach:
                hi, match, hall = t, (ml, mr), np.array(sorted(reach), dtype=np.int64)
            else:
                lo, perm = t, np.array(ml, dtype=np.int64)
        return Displacement(Bound(lo, lo, "permutation", "diameter" if hall is None else "hall"), perm, hall)
    if mode == "cayley":
        if action is None or action.right_translations is None:
            raise ValueError("cayley mode needs an action on itself with right translations")
        if action.m != n:
            raise ValueError("action size does not match the graph")
        worst = metric.d[np.arange(n), action.right_translations].min(axis=1)
        best_g = int(np.argmax(worst))
        best = int(worst[best_g])
        return Displacement(Bound(best, metric.diameter, "permutation", "diameter"), action.right_translations[best_g].copy())
    raise ValueError(f"unknown displacement mode {mode!r}")


# ----------------------------------------------------------------------
# Gap-based lower bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundValue:
    value: float  # from the lower ends of the inputs
    certified: bool  # every one of those ends is proven
    inputs: dict

    @property
    def label(self) -> str:
        return "lower" if self.certified else "heuristic lower"


def gn_bound(
    G: MultiGraph, gap: GapEstimate, p: float, eps: float, r_eps: float, metric: MetricTable | None = None
) -> BoundValue:
    """Concentration route:
    (1-eps)^(1/p) * r_eps/2 * diam * (gap / max_degree)^(1/p), at the gap's
    lower end.  Certified when that end is proven; a descent estimate
    over-reports the infimum and the result is then a heuristic."""
    require_at_least_one(("p", p))
    metric = metric or all_pairs_distances(G)
    lam = gap.bound.lower
    value = (1 - eps) ** (1.0 / p) * (r_eps / 2.0) * metric.diameter * (lam / G.max_degree) ** (1.0 / p)
    return BoundValue(
        float(value),
        gap.bound.lower_proof is not None,
        {"eps": eps, "r_eps": r_eps, "diam": metric.diameter, "max_degree": G.max_degree, "gap": lam},
    )


def jv_bound(G: MultiGraph, gap: GapEstimate, p: float, D: float | Displacement) -> BoundValue:
    """Displacement route: 2^(-(p-1)/p) * D * (gap / avg_degree)^(1/p), at
    the lower ends of D and the gap.  A bare number D carries no proof."""
    require_at_least_one(("p", p))
    d = D.bound if isinstance(D, Displacement) else Bound(float(D), float(D))
    lam, k = gap.bound.lower, G.average_degree
    value = 2.0 ** (-(p - 1.0) / p) * d.lower * (lam / k) ** (1.0 / p)
    certified = gap.bound.lower_proof is not None and d.lower_proof is not None
    return BoundValue(float(value), certified, {"D": d.lower, "avg_degree": k, "gap": lam})


def jv_bound_exact_sq(D: int, gap: Fraction, avg_degree: Fraction) -> Fraction:
    """Squared displacement bound at p=2 in rational arithmetic:
    D^2 * gap / (2 * avg_degree)."""
    return Fraction(D) ** 2 * gap / (2 * avg_degree)


@dataclass(frozen=True)
class DistortionBounds:
    graph: str
    p: float
    q: float
    gn_lower: float
    gn_eps: float
    jv_lower: float
    displacement: int
    upper: float
    upper_description: str
    certified: bool

    def to_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# Coarse disjoint unions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseUnion:
    components: tuple[MultiGraph, ...]
    offsets: tuple[int, ...]  # first global index of each component
    metrics: tuple[MetricTable, ...]

    def component_index(self, global_v: int) -> tuple[int, int]:
        for i in range(len(self.components) - 1, -1, -1):
            if global_v >= self.offsets[i]:
                return i, global_v - self.offsets[i]
        raise IndexError(global_v)

    def cross_distance(self, i: int, j: int) -> int:
        # components are indexed from 1 in the separation rule
        a, b = self.metrics[i].diameter, self.metrics[j].diameter
        return a + b + (i + 1) + (j + 1)

    def distance(self, x: int, y: int) -> int:
        i, xi = self.component_index(x)
        j, yj = self.component_index(y)
        if i == j:
            return int(self.metrics[i].d[xi, yj])
        return self.cross_distance(i, j)

    @property
    def total_size(self) -> int:
        return self.offsets[-1] + self.components[-1].n

    def distance_matrix(self) -> np.ndarray:
        N = self.total_size
        M = np.zeros((N, N), dtype=np.int64)
        for x in range(N):
            for y in range(x + 1, N):
                M[x, y] = M[y, x] = self.distance(x, y)
        return M


def coarse_union(graphs: list[MultiGraph]) -> CoarseUnion:
    """Assemble the family into one metric space: path metric inside each
    component, and the minimal admissible constant
    diam_i + diam_j + (i+1) + (j+1) across components i < j.  The triangle
    inequality of the assembled matrix is verified as a construction guard.
    """
    if not graphs:
        raise ValueError("coarse_union needs at least one component")
    metrics = []
    offsets = []
    total = 0
    for G in graphs:
        if not G.connected:
            raise ValueError("coarse_union components must be connected")
        offsets.append(total)
        metrics.append(all_pairs_distances(G))
        total += G.n
    cu = CoarseUnion(components=tuple(graphs), offsets=tuple(offsets), metrics=tuple(metrics))
    if total <= 64:
        M = cu.distance_matrix()
        viol = (M[:, :, None] + M[None, :, :] < M[:, None, :]).any()
        if viol:
            raise AssertionError("triangle inequality violated in coarse union assembly")
    return cu


# ----------------------------------------------------------------------
# Compression-function exclusion
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionVerdict:
    verdict: str  # excluded | not_excluded | inconclusive
    slope: float
    hypothesis_ok: bool
    details: dict


_SLOPE_TOL = 0.02  # log-log growth slope above which austin_exclude excludes rho
_RHO_POINTS = 64  # points of the range on which rho's hypotheses are checked


def austin_exclude(diams, c_lower, rho) -> ExclusionVerdict:
    """Exclude rho as a compression function for coarse embeddings of the
    family union.

    Requires two distinct diameters and rho nondecreasing with rho(t)/t
    nonincreasing on the sampled range (else "inconclusive").  With valid
    certified lower bounds c_lower_n on the component distortions, a strictly
    growing trend of c_lower_n * rho(diam_n) / diam_n across the family
    (log-log slope above ``_SLOPE_TOL``) yields "excluded"; otherwise "not_excluded".
    """
    diams = np.asarray(diams, dtype=np.float64)
    c_lower = np.asarray(c_lower, dtype=np.float64)
    if diams.shape != c_lower.shape or diams.size < 2:
        raise ValueError("need matching diam and lower-bound sequences of length >= 2")
    ts = np.geomspace(max(diams.min() * 0.5, 1e-9), diams.max() * 2.0, _RHO_POINTS)
    vals = np.array([rho(t) for t in ts], dtype=np.float64)
    ok = bool(np.all(vals > 0)) and bool(np.all(np.diff(vals) >= -1e-12))
    ratio = vals / ts
    ok = ok and bool(np.all(np.diff(ratio) <= 1e-12 * np.abs(ratio[:-1]) + 1e-15))
    if not ok or np.unique(diams).size < 2:
        return ExclusionVerdict(
            verdict="inconclusive",
            slope=float("nan"),
            hypothesis_ok=ok,
            details={"reason": "the diameters are all equal" if ok else "rho fails the monotonicity hypotheses on the sampled range"},
        )
    growth = c_lower * np.array([rho(t) for t in diams]) / diams
    slope = float(np.polyfit(np.log(diams), np.log(growth), 1)[0])
    verdict = "excluded" if slope > _SLOPE_TOL else "not_excluded"
    return ExclusionVerdict(
        verdict=verdict,
        slope=slope,
        hypothesis_ok=True,
        details={"growth_first": float(growth[0]), "growth_last": float(growth[-1]), "slope_tol": _SLOPE_TOL},
    )
