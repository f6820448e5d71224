"""Spectral gaps of multigraphs over l_q^d geometries.

The gap of a connected graph G for exponents (p, q, d) is the infimum of

    (1/2) * sum_{oriented e=(v,w)} ||f(w)-f(v)||_q^p / sum_v ||f(v)-mean||_q^p

over nonconstant maps f: V -> R^d.  Each non-loop edge of multiplicity m
contributes 2m oriented terms (the 1/2 then cancels one direction);
self-loops contribute nothing.  For (p, q, d) = (2, 2, 1) this is the first
positive eigenvalue of the combinatorial Laplacian and is computed exactly;
otherwise a multi-start projected subgradient descent returns the best
quotient found, which upper-bounds the infimum.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .graphs import MultiGraph

__all__ = [
    "VectorMap",
    "GapEstimate",
    "rayleigh_quotient",
    "gap",
    "gap_exact_2",
    "gap_estimate",
    "gap_oracle_small",
    "extrapolation_report",
    "mean_zero_basis",
]

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 5000
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class VectorMap:
    """An assignment V -> R^d with coordinate exponent q and outer exponent p."""

    values: np.ndarray  # (n, d)
    q: float
    p: float

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if arr.ndim == 1:
            arr = arr[:, None]
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GapEstimate:
    value: float
    minimizer: VectorMap
    method: str  # eigen_exact | multistart_descent | grid_oracle
    bound_kind: str  # exact | upper
    p: float
    q: float
    d: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bound_kind": self.bound_kind,
            "method": self.method,
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "diagnostics": self.diagnostics,
        }


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return np.ascontiguousarray(arr)


def rayleigh_quotient(G: MultiGraph, f: VectorMap | np.ndarray, p: float | None = None, q: float | None = None) -> float:
    """Edge-energy quotient of a nonconstant map; raises if f is constant."""
    if isinstance(f, VectorMap):
        p = f.p if p is None else p
        q = f.q if q is None else q
        F = _as_matrix(f.values)
    else:
        if p is None or q is None:
            raise ValueError("p and q required when passing a bare array")
        F = _as_matrix(f)
    if F.shape[0] != G.n:
        raise ValueError(f"map has {F.shape[0]} rows, graph has {G.n} vertices")
    F = F - F.mean(axis=0)
    eu, ev, em = G.nonloop_arrays()
    E, D = _kernels.ratio_parts(F, eu, ev, em, float(p), float(q))
    if D <= 0.0:
        raise ValueError("constant map: quotient undefined")
    return E / D


def _check_estimate(G: MultiGraph, est: GapEstimate, rel: float = 1e-12) -> GapEstimate:
    r = rayleigh_quotient(G, est.minimizer)
    if abs(r - est.value) > rel * max(1.0, abs(est.value)):
        raise AssertionError(f"gap value {est.value} does not match recomputed quotient {r}")
    return est


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS bundled with numpy,
    or None when numpy ships no such library or it lacks the symbols."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count.

    A dense eigh split over two threads stalls whenever another process
    holds the second core: on a 2-vCPU VM, 49 small solves that take 0.03 s
    on one thread took up to 1.4 s.  Without the bundled library this does
    nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _laplacian_head(G: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """The first min(4, n) Laplacian eigenvalues and the Fiedler vector
    ``V[:, 1]``, from one dense eigh per graph object.

    Both are read-only.  Only these O(n) floats stay on the graph, never
    the full eigenbasis or the dense Laplacian.
    """

    def solve():
        L = G.laplacian()
        with _one_blas_thread():
            w, V = np.linalg.eigh(L)
        head = (w[: min(4, len(w))].copy(), V[:, 1].copy())
        for a in head:
            a.setflags(write=False)
        return head

    return G.memo("laplacian_head", solve)


def gap_exact_2(G: MultiGraph) -> GapEstimate:
    """Exact gap at (p, q, d) = (2, 2, 1): second-smallest Laplacian eigenvalue."""
    if not G.connected:
        raise ValueError("gap_exact_2 requires a connected graph")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex (no nonconstant maps)")
    w, fiedler = _laplacian_head(G)
    est = GapEstimate(
        value=float(w[1]),
        minimizer=VectorMap(fiedler[:, None].copy(), q=2.0, p=2.0),
        method="eigen_exact",
        bound_kind="exact",
        p=2.0,
        q=2.0,
        d=1,
        diagnostics={"eigenvalues_head": [float(x) for x in w]},
    )
    return _check_estimate(G, est)


def _fiedler_start(G: MultiGraph, d: int) -> np.ndarray:
    F = np.zeros((G.n, d))
    F[:, 0] = _laplacian_head(G)[1]
    return F


def gap_estimate(
    G: MultiGraph,
    p: float,
    q: float = 2.0,
    d: int = 1,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    warm_starts: list[np.ndarray] | None = None,
) -> GapEstimate:
    """Multi-start projected subgradient minimization of the quotient.

    Returns the best quotient found (an upper bound for the infimum),
    deterministic for a fixed seed.  Starts are the d=1 Laplacian
    eigenvector embedded in the first coordinate, its sign rounding, any
    user-supplied warm starts, and Gaussian draws; all of them descend
    together in one block kernel call.
    """
    if p < 1 or q < 1 or d < 1:
        raise ValueError(f"invalid exponents p={p}, q={q}, d={d}")
    if not G.connected:
        raise ValueError("gap_estimate requires a connected graph")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex")
    eu, ev, em = G.nonloop_arrays()
    rng = np.random.Generator(np.random.PCG64(seed))
    fied = _fiedler_start(G, d)
    starts: list[np.ndarray] = [fied]
    # Sign-rounding of the eigenvector: a cut-shaped candidate that often
    # sits in the right basin when p=1 makes the landscape polyhedral.
    rounded = np.sign(fied)
    rounded[:, 0][rounded[:, 0] == 0.0] = 1.0
    starts.append(rounded)
    for ws in warm_starts or []:
        W = _as_matrix(ws)
        if W.shape != (G.n, d):
            raise ValueError(f"warm start shape {W.shape} != {(G.n, d)}")
        starts.append(W)
    for _ in range(max(0, restarts - len(starts))):
        starts.append(rng.standard_normal((G.n, d)))
    pf, qf = float(p), float(q)
    Fs, values, iters, steps, stops = _kernels.descend_block(np.stack(starts), eu, ev, em, pf, qf, max_iter, tol)
    best_idx = int(np.argmin(values))
    est = GapEstimate(
        value=float(values[best_idx]),
        minimizer=VectorMap(Fs[best_idx], q=qf, p=pf),
        method="multistart_descent",
        bound_kind="upper",
        p=pf,
        q=qf,
        d=d,
        diagnostics={
            "restarts": len(starts),
            "iterations": int(iters.sum()),
            "best_restart": best_idx,
            "best_iterations": int(iters[best_idx]),
            "final_step_norm": float(steps[best_idx]),
            "stop_reason": _kernels.STOP_REASONS[stops[best_idx]],
            "per_restart": _kernels.per_restart(iters, stops),
            "tol": tol,
            "seed": seed,
        },
    )
    return _check_estimate(G, est)


def gap(G: MultiGraph, p: float, q: float = 2.0, d: int = 1, **descent_opts) -> GapEstimate:
    """The gap at (p, q, d): exact when p = q = 2 and d = 1, otherwise the
    multi-start descent, called with ``descent_opts`` (seed, restarts, ...)."""
    if p == 2.0 and q == 2.0 and d == 1:
        return gap_exact_2(G)
    return gap_estimate(G, p=p, q=q, d=d, **descent_opts)


def mean_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the mean-zero subspace of R^n."""
    B = np.zeros((n, n - 1))
    for k in range(1, n):
        c = 1.0 / math.sqrt(k * (k + 1))
        B[:k, k - 1] = c
        B[k, k - 1] = -k * c
    return B


def gap_oracle_small(G: MultiGraph, p: float, resolution: float = 1e-4) -> GapEstimate:
    """Brute-force gap for |V| <= 4, d=1, by angular grid over the mean-zero
    unit sphere.  Independent of the descent path; the grid-induced error
    bound is reported in the diagnostics.
    """
    if G.n > 4:
        raise ValueError("gap_oracle_small supports at most 4 vertices")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex")
    if not G.connected:
        raise ValueError("gap_oracle_small requires a connected graph")
    if p < 1:
        raise ValueError("p must be >= 1")
    eu, ev, em = G.nonloop_arrays()
    B = mean_zero_basis(G.n)
    pf = float(p)
    if G.n == 2:
        f = B[:, 0][:, None]
        value = rayleigh_quotient(G, f, p=pf, q=2.0)
        minimizer, err = f, 0.0
        grid_points = 2
    elif G.n == 3:
        npts = max(8, int(math.ceil(math.pi / resolution)))
        value, t, maxjump = _kernels.oracle_circle(
            np.ascontiguousarray(B[:, 0]), np.ascontiguousarray(B[:, 1]), eu, ev, em, pf, npts
        )
        minimizer = (math.cos(t) * B[:, 0] + math.sin(t) * B[:, 1])[:, None]
        err, grid_points = 2.0 * maxjump, npts
    else:
        nth = max(8, int(math.ceil(math.pi / resolution)) + 1)
        nph = max(8, int(math.ceil(2.0 * math.pi / resolution)))
        value, th, ph, maxjump = _kernels.oracle_sphere(
            np.ascontiguousarray(B[:, 0]),
            np.ascontiguousarray(B[:, 1]),
            np.ascontiguousarray(B[:, 2]),
            eu,
            ev,
            em,
            pf,
            nth,
            nph,
        )
        minimizer = (
            math.sin(th) * math.cos(ph) * B[:, 0]
            + math.sin(th) * math.sin(ph) * B[:, 1]
            + math.cos(th) * B[:, 2]
        )[:, None]
        err, grid_points = 2.0 * maxjump, nth * nph
    est = GapEstimate(
        value=float(value),
        minimizer=VectorMap(np.ascontiguousarray(minimizer), q=2.0, p=pf),
        method="grid_oracle",
        bound_kind="exact",
        p=pf,
        q=2.0,
        d=1,
        diagnostics={"resolution": resolution, "grid_points": grid_points, "grid_error_bound": float(err)},
    )
    return _check_estimate(G, est)


def extrapolation_report(
    family: list[MultiGraph],
    exponents: list[float],
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> dict:
    """Per-graph gaps at each exponent and their ratios against the p=2 gap.

    For p >= 2 the ratio is gap_p / gap_2^(p/2); for p < 2 it is
    gap_p / gap_2.  Also reports the min/max ratio per exponent across the
    family, for boundedness inspection.
    """
    rows = []
    for gi, G in enumerate(family):
        lam2 = gap_exact_2(G).value
        for p in exponents:
            lam_p = gap(G, p=p, seed=seed, restarts=restarts).value
            ratio = lam_p / lam2 ** (p / 2.0) if p >= 2.0 else lam_p / lam2
            rows.append(
                {"graph": gi, "n": G.n, "p": float(p), "gap_p": lam_p, "gap_2": lam2, "ratio": ratio}
            )
    bands = {}
    for p in exponents:
        rs = [r["ratio"] for r in rows if r["p"] == float(p)]
        bands[float(p)] = (min(rs), max(rs))
    return {"rows": rows, "bands": bands}
