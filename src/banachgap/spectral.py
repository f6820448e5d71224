"""Spectral gaps of multigraphs over l_q^d geometries.

The gap of a connected graph G for exponents (p, q, d) is the infimum of

    (1/2) * sum_{oriented e=(v,w)} ||f(w)-f(v)||_q^p / sum_v ||f(v)-mean||_q^p

over nonconstant maps f: V -> R^d.  Each non-loop edge of multiplicity m
contributes 2m oriented terms (the 1/2 then cancels one direction);
self-loops contribute nothing.  For (p, q, d) = (2, 2, 1) this is the first
positive eigenvalue of the combinatorial Laplacian and is computed exactly.
At p = 1 with d = 1 or q = 1 the infimum is attained at an indicator of a
vertex set (coarea; Hein and Buehler, NIPS 2010), so on at most
``CUT_MAX_N`` vertices enumerating the cuts gives it exactly.  Otherwise a
multi-start projected descent returns the best quotient found, which
upper-bounds the infimum.  The descent follows the L-BFGS direction where
the quotient is smooth (p > 1 and q > 1) and the subgradient where it has
kinks (p = 1 or q = 1).

Each gap carries a ``Bound`` whose upper end is its value.  The cut
enumeration proves both ends, the exact p = 2 gap a Cholesky lower end; a
descent or grid minimum proves only its upper end.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _kernels, _parallel
from .graphs import MultiGraph, require_at_least_one

__all__ = [
    "Bound",
    "Estimate",
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
_GAP_TOL = 1e-10  # the gap descent's stopping tolerance
CERTIFIED_REL = 1e-9  # relative slack of the order check of two proven ends, and of kappa's certified stop

# Exact p = 1 gaps (d = 1 or q = 1) by enumerating the 2^(n-1) - 1 cuts, up to
# this many vertices: 0.02-0.03 s at n = 24 on one BLAS thread.
CUT_MAX_N = 24

# The most grid points gap_oracle_small scans; a finer resolution is refused.
# The CLI default, 1e-3, scans 9.9M points on four vertices (0.6 s).
GRID_MAX_POINTS = 1 << 24

# Graphs of at least this many vertices get lambda_2 and the Fiedler vector
# from a Lanczos run (_laplacian_head), smaller ones from one dense eigh;
# exact requests certify either (_exact_head).  Per solve on one BLAS
# thread of a 2-vCPU Xeon VM (best of 5), Lanczos with its Cholesky
# certificate against eigh, in ms:
#   H8 1.9 / 5.2, boolean_cube(8) Schreier graph 1.4 / 5.1,
#   sl_mod(2,7) 4.3 / 9.2, margulis(20) 7.0 / 17.5, H9 8.2 / 30.3,
#   margulis(24) 13.4 / 42.2, symmetric(6) 19.3 / 66.3,
#   random_regular(998,3) 59 / 224.
# Lanczos loses on random_regular(256,3), which converges slowly (9.0 /
# 6.9; it wins at n = 400, 13.7 / 18.6), and on cycles and paths, which
# give up after 40 steps and then pay for the eigh too (+2 ms).
_LANCZOS_MIN_N = 256
_LANCZOS_MAX_STEPS = 400
_LANCZOS_CHECK_EVERY = 20  # steps between solves of the tridiagonal system
_DGKS = 1.0 / math.sqrt(2.0)  # a second Gram-Schmidt pass when the first left less of ||w|| than this
_LANCZOS_SEED = 20131017  # fixed start vector, so the head is deterministic
# The certificate factors graphs of at least _CERT_BLOCKED_MIN_N vertices in
# blocks of _CERT_BLOCK columns on the worker pool, and smaller ones in one
# np.linalg.cholesky call: on two CPUs, blocks of 128 lost up to 0.7 ms at
# n = 256-400 and won 1.5 ms at n = 512.
_CERT_BLOCK = 128
_CERT_BLOCKED_MIN_N = 512


@dataclass(frozen=True)
class VectorMap:
    """An assignment V -> R^d with coordinate exponent q and outer exponent p."""

    values: np.ndarray  # (n, d)
    q: float
    p: float

    def __post_init__(self):  # a 1-D map is one column
        arr = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", np.ascontiguousarray(arr[:, None] if arr.ndim == 1 else arr))


@dataclass(frozen=True)
class Bound:
    """The interval [lower, upper] around a reported number.  A proof is a
    short tag naming what proves that end ("cholesky", "cuts", "grid",
    "admissible_map", "permutation", "hall", "diameter"), or None
    where the end is only an estimate.  Two proven ends more than
    ``CERTIFIED_REL`` relative out of order raise ``AssertionError``."""

    lower: float
    upper: float
    lower_proof: str | None = None
    upper_proof: str | None = None

    def __post_init__(self):
        if self.lower_proof and self.upper_proof and self.lower > self.upper * (1.0 + CERTIFIED_REL):
            raise AssertionError(f"upper end {self.upper} below its certified lower bound {self.lower}")


class Estimate:
    """A minimised quantity: its ``value`` is the upper end of its ``bound``,
    the objective at its ``minimizer``."""

    @property
    def value(self) -> float:
        return self.bound.upper

    def to_dict(self) -> dict:
        """The value, the bound's ends and proofs, and every field but the
        minimiser.  A lower end without a proof is None: it is an estimate,
        and may even lie above the upper end, whose minimiser proves it."""
        ends = asdict(self.bound)
        if ends["lower_proof"] is None:
            ends["lower"] = None
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("bound", "minimizer")}
        return {"value": self.value, **ends, **rest}


@dataclass(frozen=True)
class GapEstimate(Estimate):
    bound: Bound
    minimizer: VectorMap
    method: str  # eigen_exact | cut_enumeration | multistart_descent | grid_oracle
    p: float
    q: float
    d: int
    diagnostics: dict = field(default_factory=dict)


def rayleigh_quotient(G: MultiGraph, f: VectorMap) -> float:
    """Edge-energy quotient of a nonconstant map; raises if f is constant."""
    require_at_least_one(("p", f.p), ("q", f.q))
    if f.values.shape[0] != G.n:
        raise ValueError(f"map has {f.values.shape[0]} rows, graph has {G.n} vertices")
    F = f.values - f.values.mean(axis=0)
    eu, ev, em = G.nonloop_arrays()
    E, D = _kernels.ratio_parts(F, eu, ev, em, float(f.p), float(f.q))
    if D <= 0.0:
        raise ValueError("constant map: quotient undefined")
    return E / D


def _check_estimate(G: MultiGraph, est: GapEstimate) -> GapEstimate:
    r = rayleigh_quotient(G, est.minimizer)
    if abs(r - est.value) > 1e-12 * max(1.0, abs(est.value)):
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


def _laplacian_matvec(G: MultiGraph):
    """x -> L x, matrix-free: two bincounts over the non-loop edges."""
    eu, ev, em = G.nonloop_arrays()
    w = em.astype(np.float64)
    n = G.n

    def mul(x: np.ndarray) -> np.ndarray:
        t = w * (x[eu] - x[ev])
        return np.bincount(eu, t, n) - np.bincount(ev, t, n)

    return mul


def _certificate_margin(G: MultiGraph, theta: float) -> tuple[int, float]:
    """The integer t and the margin of the Cholesky certificate at theta
    (``_cholesky_certificate``): t is the least integer with ``t n >
    theta``, and the margin is ``(gamma_{n+1}/(1 - gamma_{n+1}) + u)
    (trace(L) + t n)``."""
    n = G.n
    u = 2.0**-53
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    t = math.floor(theta / n) + 1
    _, _, em = G.nonloop_arrays()
    return t, (gamma / (1.0 - gamma) + u) * (2.0 * float(em.sum()) + t * n)


def _lanczos(G: MultiGraph) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Lanczos on the mean-zero subspace, with full reorthogonalisation.

    Returns the three smallest Ritz values (the first replaced by
    ``y^T L y``), the unit mean-zero Ritz vector y of the smallest, the
    step count and the residual ``||L y - y^T L y y||``.  The run stops
    once the residual is at most the certificate's margin at theta
    (``_certificate_margin``), the resolution its proof has anyway, or at
    ``min(_LANCZOS_MAX_STEPS, n - 1)`` steps, or when w is exactly 0; the
    caller reads convergence off the residual.

    A Krylov space that stops growing (``||w||`` below 1e-10 of ``||L
    q||``) is checked at once.  Where the residual there is still above
    the margin, the run goes on from the rounding left in w, which the
    Gram-Schmidt passes have made orthogonal to the earlier vectors: its
    coupling to them enters T, and the next steps take it into the Ritz
    vector.  A graph of few distinct eigenvalues (a star with two hubs,
    n = 20) stops growing at step 4 with a residual of 2 margins, and one
    step more brings it below one.

    Each step removes the earlier vectors by one Gram-Schmidt pass, and by
    a second only when the first shrank ``||w||`` below ``_DGKS`` of its
    value before the pass (Daniel, Gragg, Kaufman and Stewart, Math. Comp.
    30, 1976): a pass that cancels little leaves w orthogonal to working
    precision.

    It also gives up at a check where ``r / theta`` has not fallen since
    the last check and is still at least 1: at that rate it cannot reach
    the margin, and theta is not yet located.  A clustered low spectrum
    (``cycle(2000)``, ``path(1000)``) keeps ``r / theta`` at 4-20 for all
    400 steps, while every converging run measured (random regular graphs
    of 1000-2000 vertices, Margulis, Hamming and Schreier graphs) is below
    0.3 at its first check.  A converging run can rise for one check (up
    to 6-fold), but below 1, so that alone does not stop it.
    """
    n = G.n
    mul = _laplacian_matvec(G)
    kmax = min(_LANCZOS_MAX_STEPS, n - 1)
    Q = np.empty((kmax, n))
    alpha, beta = np.empty(kmax), np.empty(kmax)
    rel_last = np.inf  # r / theta at the last check
    q = np.random.Generator(np.random.PCG64(_LANCZOS_SEED)).standard_normal(n)
    q -= q.mean()
    q /= np.linalg.norm(q)
    for k in range(kmax):
        Q[k] = q
        w = mul(q)
        scale = np.linalg.norm(w)
        alpha[k] = q @ w
        w -= alpha[k] * q
        if k:
            w -= beta[k - 1] * Q[k - 1]
        B = Q[: k + 1]
        norm = np.linalg.norm(w)
        for _ in range(2):
            # The constant vector is the zero eigenvector: without removing
            # it here, rounding lets it back in and the smallest Ritz value
            # sinks towards 0.
            w -= w.mean()
            w -= (B @ w) @ B
            before, norm = norm, np.linalg.norm(w)
            if norm >= _DGKS * before:
                break
        beta[k] = norm
        steps = k + 1
        last = steps == kmax or beta[k] == 0.0
        if steps % _LANCZOS_CHECK_EVERY == 0 or last or beta[k] <= 1e-10 * scale:
            T = np.diag(alpha[:steps])
            T[np.arange(1, steps), np.arange(steps - 1)] = beta[: steps - 1]
            ritz, S = np.linalg.eigh(T)
            y = S[:, 0] @ B
            y -= y.mean()
            y /= np.linalg.norm(y)
            Ly = mul(y)
            theta = float(y @ Ly)
            r = float(np.linalg.norm(Ly - theta * y))
            rel = r / theta
            if last or r <= _certificate_margin(G, theta)[1] or rel >= max(rel_last, 1.0):
                ritz = ritz[:3].copy()
                ritz[0] = theta
                return ritz, y, steps, r
            rel_last = rel
        q = w / beta[k]
    raise AssertionError("unreachable: the last step always returns")


def _factors(A: np.ndarray) -> bool:
    """Whether Cholesky factors the symmetric matrix that the lower triangle
    of the n x n array ``A`` holds.  Overwrites ``A``.

    From ``_CERT_BLOCKED_MIN_N`` vertices the factorisation runs in place,
    ``_CERT_BLOCK`` columns at a time.  Each diagonal block is one
    ``np.linalg.cholesky`` call on the block's lower triangle, mirrored.
    The panel solve ``L21 = A21 L11^-T`` and the trailing update ``A22 -=
    L21 L21^T`` run on the worker pool, in chunks of four blocks of rows
    (each chunk's solve factors its matrix again) and of one block of rows.
    The chunks do not depend on the CPU count, so neither does the answer.

    The panel solve is pure substitution: ``np.linalg.solve`` pivots, so it
    gets the upper-triangular ``L11[::-1, ::-1]`` and the reversed
    right-hand sides, and its pivot search sees only exact zeros below the
    diagonal.  Every entry of the factor is then an inner product, summed
    in some order, followed by a division or a square root, as in LAPACK's
    own blocked ``potrf``; Thm 10.3 holds for any order of summation, so
    the certificate's margin is unchanged.
    """
    n = len(A)
    width = n if n < _CERT_BLOCKED_MIN_N else _CERT_BLOCK
    panel = 4 * width
    for k in range(0, n, width):
        e = min(k + width, n)
        D = A[k:e, k:e]  # the first block is A's own, exactly symmetric
        try:
            L11 = np.linalg.cholesky(np.tril(D) + np.tril(D, -1).T if k else D)
        except np.linalg.LinAlgError:
            return False
        U, L21 = L11[::-1, ::-1], np.empty((n - e, e - k))

        def solve(i):
            lo, hi = i * panel, min((i + 1) * panel, n - e)
            L21[lo:hi] = np.linalg.solve(U, A[e + lo : e + hi, k:e][:, ::-1].T)[::-1].T

        def update(i):
            lo, hi = i * width, min((i + 1) * width, n - e)
            A[e + lo : e + hi, e : e + hi] -= L21[lo:hi] @ L21[:hi].T

        _parallel.run_chunks(-(-(n - e) // panel), solve)
        _parallel.run_chunks(-(-(n - e) // width), update)
    return True


def _cholesky_certificate(G: MultiGraph, theta: float, r: float) -> dict | None:
    """The witness ``{t, shift, margin}`` of the proven lower bound ``shift
    - margin`` on lambda_2, near ``theta - r``, or None.

    Factors ``A = L + t 11^T - s I`` by Cholesky (``_factors``), with t
    and the margin from ``_certificate_margin`` (so off-diagonal entries
    are exact integers) and ``s = theta - r - margin``.  Success means the
    computed factor R has ``R^T R = A + dA`` with ``|dA| <= gamma_{n+1}
    |R^T||R|`` (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3), whence ``||dA||_2 <= gamma/(1 - gamma) trace(A)``; rounding
    the shifted diagonal adds at most ``u`` times its largest entry.
    Their sum, bounded with ``trace(A) <= trace(L) + t n``, is the margin,
    so every eigenvalue of ``L + t 11^T`` is at least ``s - margin``.
    Those eigenvalues are ``t n`` on the constants and lambda_2..lambda_n
    on the mean-zero subspace, so lambda_2 >= s - margin, also inside a
    degenerate eigenspace.  The factored shift sits one margin below
    ``theta - r`` so that rounding in the factorisation does not make it
    fail.  ``A`` is the one n x n array the certificate holds.
    """
    n = G.n
    t, margin = _certificate_margin(G, theta)
    s = theta - r - margin
    if s <= 0.0:
        return None
    A = G.add_laplacian(np.full((n, n), float(t)))
    A.reshape(-1)[:: n + 1] -= s
    return {"t": t, "shift": s, "margin": margin} if _factors(A) else None


def _dense_head(G: MultiGraph) -> tuple[np.ndarray, np.ndarray, float]:
    """``w[:4]`` and ``v = V[:, 1]`` of one dense eigh of the Laplacian, read-only,
    and the residual ``||L v - w[1] v||`` (one matvec)."""
    w, V = np.linalg.eigh(G.laplacian())
    w, v = w[: min(4, len(w))].copy(), V[:, 1].copy()
    for a in (w, v):
        a.setflags(write=False)
    return w, v, float(np.linalg.norm(_laplacian_matvec(G)(v) - w[1] * v))


def _laplacian_head(G: MultiGraph) -> tuple[np.ndarray, np.ndarray, dict]:
    """The first min(4, n) Laplacian eigenvalues, the Fiedler vector and
    the solver facts, solved once per graph object.  A descent's Fiedler
    start reads this and nothing else.

    At ``n >= _LANCZOS_MIN_N`` a Lanczos run gives ``[0, theta, theta_3,
    theta_4]`` and its Ritz vector when its residual reaches the
    certificate's margin; theta is the Rayleigh quotient of a mean-zero
    vector, so theta >= lambda_2, and theta_3 and theta_4 are Ritz values,
    upper bounds on lambda_3 and lambda_4 by interlacing.  When the run
    does not converge, and below that size, one dense eigh gives them
    (``_dense_head``); a failed run leaves its steps and time in the facts.
    The facts' ``residual`` is the head's own.  The arrays are read-only.
    Only these O(n) floats stay on the graph, never the full eigenbasis or
    the dense Laplacian.
    """

    def solve():
        facts = {"eigensolver": "dense", "lanczos_steps": 0, "lanczos_s": 0.0}
        head = None
        with _one_blas_thread():
            if G.n >= _LANCZOS_MIN_N:
                t0 = time.perf_counter()
                ritz, y, steps, r = _lanczos(G)
                facts.update(lanczos_steps=steps, lanczos_s=time.perf_counter() - t0)
                if r <= _certificate_margin(G, float(ritz[0]))[1]:
                    head = np.concatenate([[0.0], ritz]), y, r
                    facts["eigensolver"] = "lanczos"
                    for a in head[:2]:
                        a.setflags(write=False)
            w, fiedler, facts["residual"] = head or _dense_head(G)
        return w, fiedler, facts

    return G.memo("laplacian_head", solve)


def _exact_head(G: MultiGraph) -> tuple[np.ndarray, np.ndarray, dict]:
    """``_laplacian_head`` with its certificate, once per graph object: the
    facts gain ``certificate`` (``_cholesky_certificate``'s witness at the
    head's theta and residual, None where the factorisation fails) and
    ``certificate_s``.  Where a Lanczos head's certificate fails, one dense
    eigh answers here and is certified the same way, and the head that
    descents read keeps the Lanczos vector, so a descent's start does not
    depend on whether an exact request ran first."""

    def solve():
        w, fiedler, facts = _laplacian_head(G)
        t0 = time.perf_counter()
        with _one_blas_thread():
            cert = _cholesky_certificate(G, float(w[1]), facts["residual"])
            if cert is None and facts["eigensolver"] == "lanczos":
                w, fiedler, r = _dense_head(G)
                facts = {**facts, "eigensolver": "dense", "residual": r}
                cert = _cholesky_certificate(G, float(w[1]), r)
        return w, fiedler, {**facts, "certificate": cert, "certificate_s": time.perf_counter() - t0}

    return G.memo("exact_head", solve)


def gap_exact_2(G: MultiGraph) -> GapEstimate:
    """Exact gap at (p, q, d) = (2, 2, 1): second-smallest Laplacian eigenvalue.

    The diagnostics name the solver (``eigensolver``, ``lanczos_steps``,
    ``residual``), the certificate's witness (``certificate``: ``t``,
    ``shift`` and ``margin``, with the lower end ``shift - margin``) and
    the seconds of the two stages (``lanczos_s``, ``certificate_s``).  The
    value, the eigenvalue of either solver, is the upper end, and the
    Cholesky certificate proves the lower end; where the factorisation
    fails, the lower end is unproven.
    """
    if not G.connected:
        raise ValueError("gap_exact_2 requires a connected graph")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex (no nonconstant maps)")
    w, fiedler, facts = _exact_head(G)
    lam, cert = float(w[1]), facts["certificate"]
    lower, proof = (cert["shift"] - cert["margin"], "cholesky") if cert else (lam, None)
    est = GapEstimate(
        bound=Bound(lower, lam, proof, "admissible_map"),
        minimizer=VectorMap(fiedler[:, None].copy(), q=2.0, p=2.0),
        method="eigen_exact",
        p=2.0,
        q=2.0,
        d=1,
        diagnostics={"eigenvalues_head": [float(x) for x in w], **facts},
    )
    return _check_estimate(G, est)


def _fiedler_start(G: MultiGraph, d: int) -> np.ndarray:
    F = np.zeros((G.n, d))
    F[:, 0] = _laplacian_head(G)[1]
    return F


def _gap_cuts(G: MultiGraph, q: float, d: int) -> GapEstimate:
    """Exact gap at p = 1 (d = 1, or q = 1 at any d): the least quotient of
    an indicator over the cuts of G (``_kernels.cut_gap``, on one BLAS
    thread).  At p = 1 the spread is at most (1/n) sum_{u,v} |f_u - f_v|,
    with equality on two-valued maps, and the ratio of that to the edge
    energy is least at an indicator (coarea); with d = 1 or q = 1 a map's
    quotient is at least its best coordinate's.

    Among tied minimisers, the best threshold cut of the Fiedler vector
    is taken when it attains the minimum, else the enumeration's first:
    the displacement descent starts from this minimiser, and the spectral
    cut is the one the gap descent's Fiedler start and its sign rounding
    led to.  The minimiser is the centred indicator scaled to unit spread,
    in column 0; the diagnostics give the number of cuts."""
    n = G.n
    L = G.laplacian()
    with _one_blas_thread():
        value, x = _kernels.cut_gap(L)
    sweep = np.empty((n - 1, n))
    sweep[:, np.argsort(-_laplacian_head(G)[1], kind="stable")] = np.tri(n - 1, n)  # row t: the t + 1 highest
    k = np.arange(1, n)
    tied = np.flatnonzero(n * ((sweep @ L) * sweep).sum(axis=1) / (2.0 * k * (n - k)) == value)
    if tied.size:
        x = sweep[tied[0]]
    F = np.zeros((n, d))
    F[:, 0] = x - x.mean()
    F[:, 0] /= np.abs(F[:, 0]).sum()
    est = GapEstimate(
        bound=Bound(value, value, "cuts", "cuts"),
        minimizer=VectorMap(F, q=q, p=1.0),
        method="cut_enumeration",
        p=1.0,
        q=q,
        d=d,
        diagnostics={"cuts": 2 ** (n - 1) - 1},
    )
    return _check_estimate(G, est)


def gap_estimate(
    G: MultiGraph,
    p: float,
    q: float = 2.0,
    d: int = 1,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    warm_starts: list[np.ndarray] | None = None,
) -> GapEstimate:
    """Multi-start projected descent of the quotient: L-BFGS where it is
    smooth (p > 1 and q > 1), the subgradient where it has kinks.

    Returns the best quotient found (an upper bound for the infimum),
    deterministic for a fixed seed.  Starts are the d=1 Laplacian
    eigenvector embedded in the first coordinate, its sign rounding, any
    user-supplied warm starts, and Gaussian draws; all of them descend
    together in one block kernel call.  The diagnostics name the
    ``direction`` (``"quasi_newton"`` or ``"gradient"``), list each
    restart's stop reason, iterations and backtracks under ``per_restart``,
    count the block's backtracking passes under ``passes`` and the columns
    it descended under ``columns``.  With ``restarts`` <= 2 and no warm
    start, no Gaussian start is drawn: ``seed`` is unused, and a d > 1
    block descends column 0 alone, the others staying at zero.

    At p = 1 with d = 1 or q = 1, on at most ``CUT_MAX_N`` vertices, the
    gap is exact instead: ``_gap_cuts`` enumerates the cuts, and the
    descent options, restarts and warm starts are not used.
    """
    require_at_least_one(("p", p), ("q", q), ("d", d), ("restarts", restarts), ("max_iter", max_iter))
    if not G.connected:
        raise ValueError("gap_estimate requires a connected graph")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex")
    if p == 1 and (d == 1 or q == 1) and G.n <= CUT_MAX_N:
        return _gap_cuts(G, float(q), d)
    eu, ev, em = G.nonloop_arrays()
    rng = np.random.Generator(np.random.PCG64(seed))
    fied = _fiedler_start(G, d)
    # Sign-rounding of the eigenvector: a cut-shaped candidate that often
    # sits in the right basin when p=1 makes the landscape polyhedral.
    rounded = np.sign(fied)
    rounded[:, 0][rounded[:, 0] == 0.0] = 1.0
    starts = _kernels.stack_starts([fied, rounded], warm_starts, (G.n, d), restarts, rng)
    pf, qf = float(p), float(q)
    Fs, values, iters, steps, stops, backtracks, columns, passes = _kernels.descend_block(starts, eu, ev, em, pf, qf, max_iter, _GAP_TOL)
    best_idx = int(np.argmin(values))
    best = float(values[best_idx])
    est = GapEstimate(
        bound=Bound(best, best, None, "admissible_map"),
        minimizer=VectorMap(Fs[best_idx], q=qf, p=pf),
        method="multistart_descent",
        p=pf,
        q=qf,
        d=d,
        diagnostics={
            "restarts": len(iters),
            "iterations": int(iters.sum()),
            "best_restart": best_idx,
            "best_iterations": int(iters[best_idx]),
            "final_step_norm": float(steps[best_idx]),
            "stop_reason": _kernels.STOP_REASONS[stops[best_idx]],
            "direction": _kernels.gap_direction(pf, qf),
            "per_restart": _kernels.per_restart(iters, stops, backtracks),
            "columns": columns,
            "passes": passes,
            "tol": _GAP_TOL,
            "seed": seed,
        },
    )
    return _check_estimate(G, est)


def gap(G: MultiGraph, p: float, q: float = 2.0, d: int = 1, **descent_opts) -> GapEstimate:
    """The gap at (p, q, d): exact when p = q = 2 and d = 1, otherwise
    ``gap_estimate`` (exact by cut enumeration on small graphs at p = 1),
    called with ``descent_opts`` (seed, restarts, ...)."""
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
    """Brute-force gap for |V| <= 4, d=1: the least quotient over an angular
    grid of the mean-zero unit sphere, with angle steps about ``resolution``.
    Independent of the descent path.

    At n = 2 the sphere is {+-b} and both ends of the bound are the value.
    At n = 3 the grid is a half circle.  At n = 4 it is a latitude-longitude
    grid of 2k + 1 rows, k = max(4, ceil(pi / (2 resolution))), and
    2 max(4, ceil(pi / resolution)) columns; the quotient is even and each
    grid point's antipode is a grid point, so only the k + 1 rows of one
    hemisphere are scanned, each row's jumps wrapping around from its last
    column to its first.  Every grid point is an admissible map, so only the
    upper end is proven.  A resolution that asks for more than
    ``GRID_MAX_POINTS`` scanned points raises ValueError.  The diagnostics'
    ``grid_points`` counts the scanned points, and ``grid_error_bound`` is
    twice the largest jump between neighbouring grid values, a heuristic
    estimate of the grid error, not a proven bound.
    """
    if G.n > 4:
        raise ValueError("gap_oracle_small supports at most 4 vertices")
    if G.n < 2:
        raise ValueError("gap undefined on a single vertex")
    if not G.connected:
        raise ValueError("gap_oracle_small requires a connected graph")
    require_at_least_one(("p", p))
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be a positive finite number, got {resolution}")
    eu, ev, em = G.nonloop_arrays()
    B = mean_zero_basis(G.n)
    zero = np.zeros(G.n)
    pf = float(p)
    # The grid sin t (cos f b1 + sin f b2) + cos t b3 over rows t and columns f.
    if G.n == 2:
        # one point, t = 0: b3
        basis, nth, hth, nph, hph = (zero, zero, B[:, 0]), 1, 0.0, 1, 0.0
    elif G.n == 3:
        # the half circle cos t B0 + sin t B1 as one column, f = 0
        nth = max(8, int(math.ceil(math.pi / resolution)))
        basis, hth, nph, hph = (B[:, 1], zero, B[:, 0]), math.pi / nth, 1, 0.0
    else:
        # The full grid has rows t = 0..pi (2k + 1 of them) and an even count
        # of columns, so the antipode (pi - t, f + pi) of a grid point is one
        # too.  R is even, so rows 0..k hold every value of the grid.
        k = max(4, int(math.ceil(math.pi / (2.0 * resolution))))
        nth, nph = k + 1, 2 * max(4, int(math.ceil(math.pi / resolution)))
        basis, hth, hph = (B[:, 0], B[:, 1], B[:, 2]), math.pi / (2 * k), 2.0 * math.pi / nph
    if nth * nph > GRID_MAX_POINTS:
        raise ValueError(
            f"resolution {resolution:g} asks for {nth * nph} grid points on {G.n} vertices; the most is {GRID_MAX_POINTS}"
        )
    b1, b2, b3 = basis
    value, th, ph, maxjump = _kernels.oracle_grid(b1, b2, b3, eu, ev, em, pf, nth, hth, nph, hph)
    minimizer = (math.sin(th) * math.cos(ph) * b1 + math.sin(th) * math.sin(ph) * b2 + math.cos(th) * b3)[:, None]
    value = float(value)
    est = GapEstimate(
        bound=Bound(value, value, "grid", "grid") if G.n == 2 else Bound(value, value, None, "admissible_map"),
        minimizer=VectorMap(minimizer, q=2.0, p=pf),
        method="grid_oracle",
        p=pf,
        q=2.0,
        d=1,
        diagnostics={"resolution": resolution, "grid_points": nth * nph, "grid_error_bound": 2.0 * maxjump},
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
