"""Signed-power maps between unit spheres of l_p^d spaces, homogeneous
extensions, blockwise stabilizations, and empirical modulus estimation.

The sphere map with source exponent p and target exponent q sends
``a_i -> sign(a_i) |a_i|^(p/q)`` coordinatewise; it carries S(l_p^d) onto
S(l_q^d) exactly and inverts to the (q, p) map.  For target exponent 2 the
classical upper moduli of continuity are ``(p/2) t`` when p >= 2 and
``4 t^(p/2)`` when p < 2.  A sphere map with modulus C t^alpha stabilizes
blockwise (extend by homogeneity, apply per block) with modulus
``(2C+2) t^alpha`` in the block-l_p norm, for every p >= 1.

The modulus estimators draw their pairs in blocks of ``_BLOCK``.  Block i
draws from its own stream, ``PCG64(seed).jumped(i)``, and the blocks run on
one thread per usable CPU, the caller and the process's one worker pool
(``_parallel.run_chunks``, shared with the metric layer); numpy's random
fills and ufuncs release the GIL.  Results depend only on the seed, never
on the number of threads or the order blocks finish in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import run_chunks
from .graphs import require_at_least_one

__all__ = [
    "SphereMap",
    "ModulusEstimate",
    "StabilizedCheck",
    "mazur_sphere_map",
    "stabilized_map",
    "stabilized_modulus",
    "sphere_sample",
    "estimate_modulus",
    "check_stabilized_modulus",
    "SAMPLERS",
]

_UNIT_TOL = 1e-9
# Pairs per block of the modulus estimators: a block's (pairs, d) temporaries
# stay cache-resident, and no (n_samples, d) array is ever held.
_BLOCK = 4096
# Pairs measured at a time within a block (see _stream).
_ROWS = 512


def _lp_norm(x: np.ndarray, p: float, axis=None):
    """The l_p norm over ``axis``, or over every entry when it is None."""
    if p == 2.0 and (axis == -1 or axis == x.ndim - 1 or (axis is None and x.ndim == 1)):
        return np.sqrt(np.einsum("...i,...i->...", x, x))
    a = np.abs(x, dtype=np.float64)
    if p == 1.0:
        return a.sum(axis=axis)
    a **= p
    return a.sum(axis=axis) ** (1.0 / p)


@dataclass(frozen=True)
class SphereMap:
    """A map between unit spheres, with an optional known power modulus.

    ``fn`` acts on batches: (N, d) -> (N, d).  ``modulus = (C, alpha)``
    certifies ||phi(x)-phi(y)|| <= C ||x-y||^alpha on the source sphere.
    """

    source_p: float
    target_p: float
    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    modulus: tuple[float, float] | None = None


def _signed_power(a: np.ndarray, e: float) -> np.ndarray:
    out = np.abs(a, dtype=np.float64)
    out **= e
    return np.copysign(out, a, out=out)


def mazur_sphere_map(p: float, q: float) -> SphereMap:
    require_at_least_one(("p", p), ("q", q))
    mod = None
    if q == 2.0:
        mod = (p / 2.0, 1.0) if p >= 2.0 else (4.0, p / 2.0)

    def fn(batch: np.ndarray) -> np.ndarray:
        return _signed_power(batch, p / q)

    return SphereMap(source_p=float(p), target_p=float(q), fn=fn, name=f"M[{p}->{q}]", modulus=mod)


def _extension_batch(phi: SphereMap, rows: np.ndarray) -> np.ndarray:
    """The degree-1 homogeneous extension of each row of (k, d), 0 at a zero row."""
    nrm = _lp_norm(rows, phi.source_p, axis=1)
    if nrm.all():
        return nrm[:, None] * phi.fn(rows / nrm[:, None])
    out = np.zeros_like(rows)
    pos = nrm > 0.0
    if pos.any():
        out[pos] = nrm[pos, None] * phi.fn(rows[pos] / nrm[pos, None])
    return out


def stabilized_map(phi: SphereMap, xi: np.ndarray, p: float) -> np.ndarray:
    """Blockwise homogeneous extension on a block-l_p unit vector.

    ``xi`` is (k, d): k blocks on the sphere of l_p(blocks, source space).
    The output has block-l_p norm 1 and commutes with block permutations by
    construction.
    """
    require_at_least_one(("block exponent p", p))
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim != 2:
        raise ValueError("xi must be a (blocks, dim) array")
    src = _lp_norm(_lp_norm(xi, phi.source_p, axis=1), p)
    if abs(src - 1.0) > _UNIT_TOL:
        raise ValueError(f"input block norm is {src}, expected 1")
    return _extension_batch(phi, xi)


def stabilized_modulus(phi: SphereMap) -> tuple[float, float]:
    """(2C+2, alpha) from the base modulus (C, alpha)."""
    if phi.modulus is None:
        raise ValueError(f"sphere map {phi.name} carries no certified modulus")
    C, alpha = phi.modulus
    return 2.0 * C + 2.0, alpha


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


def sphere_sample(rng: np.random.Generator, count: int, d: int, p: float) -> np.ndarray:
    """Samples of the cone measure on the l_p^d unit sphere (the uniform
    measure at p = 1, 2): i.i.d. generalized normals, density proportional
    to exp(-|t|^p), normalised.

    Each coordinate is drawn as V G^(1/p) with V ~ U(-1, 1) and
    G ~ Gamma(1 + 1/p), whose density is exp(-|t|^p) / (2 Gamma(1 + 1/p)):
    the uniform draw carries the sign, and numpy's Gamma sampler is faster
    at shape > 1 than at the shape 1/p of the textbook Gamma(1/p)^(1/p).
    """
    require_at_least_one(("p", p))
    g = rng.standard_gamma(1.0 + 1.0 / p, size=(count, d))
    g **= 1.0 / p
    g *= rng.uniform(-1.0, 1.0, size=(count, d))
    g /= _lp_norm(g, p, axis=1)[:, None]
    return g


# The samplers run on pool threads, so they call the function by this
# private name: a tracer that wraps the public one keeps one span stack.
_sphere_sample = sphere_sample


def _pairs_uniform(rng, count, d, p):
    return _sphere_sample(rng, count, d, p), _sphere_sample(rng, count, d, p)


def _pairs_antipodal(rng, count, d, p):
    x = _sphere_sample(rng, count, d, p)
    return x, -x


def _pairs_near(rng, count, d, p):
    # Perturbation scale log-uniform in [1e-6, 1]: moduli matter as eps -> 0,
    # which uniform pairs almost never probe.
    x = _sphere_sample(rng, count, d, p)
    scale = 10.0 ** rng.uniform(-6.0, 0.0, size=count)
    y = rng.standard_normal((count, d))
    y *= scale[:, None]
    y += x
    nrm = _lp_norm(y, p, axis=1)
    nrm[nrm == 0.0] = 1.0
    y /= nrm[:, None]
    return x, y


SAMPLERS = {
    "uniform_sphere": _pairs_uniform,
    "antipodal_pairs": _pairs_antipodal,
    "near_pairs": _pairs_near,
}


@dataclass(frozen=True)
class ModulusEstimate:
    eps: np.ndarray
    delta: np.ndarray
    fitted_C: float
    fitted_alpha: float
    violations: int | None
    n_samples: int

    def summary(self) -> dict:
        return {
            "C": self.fitted_C,
            "alpha": self.fitted_alpha,
            "violations": self.violations,
            "n_samples": self.n_samples,
        }


def _stream(n_samples: int, seed: int, draw, measure) -> tuple[np.ndarray, np.ndarray]:
    """Fill length-``n_samples`` eps and delta arrays: ``draw(rng, count)``
    returns ``count`` pairs (x, y) drawn from ``rng``, and ``measure(x, y)``
    their (eps, delta), row by row.

    Block i covers pairs [i _BLOCK, (i+1) _BLOCK) and draws from
    ``Generator(PCG64(seed).jumped(i))``; it writes only its own slice.
    ``jumped(0)`` is ``PCG64(seed)`` itself, so a call of at most ``_BLOCK``
    pairs draws exactly what one generator would.  The blocks are the
    chunks of ``_parallel.run_chunks``: the caller and the shared pool run
    them on every usable CPU, and a block's exception reaches the caller.
    A block is measured ``_ROWS`` pairs at a time, so that its temporaries
    beyond x and y stay small (every block held at once adds to the peak;
    see ``_parallel``).
    """
    eps = np.empty(n_samples)
    delta = np.empty(n_samples)
    root = np.random.PCG64(seed)

    def block(i):
        lo = i * _BLOCK
        hi = min(lo + _BLOCK, n_samples)
        x, y = draw(np.random.Generator(root.jumped(i)), hi - lo)
        for a in range(lo, hi, _ROWS):
            b = min(a + _ROWS, hi)
            eps[a:b], delta[a:b] = measure(x[a - lo : b - lo], y[a - lo : b - lo])

    run_chunks(-(-n_samples // _BLOCK), block)
    return eps, delta


_ENVELOPE_BINS = 64  # log-spaced eps bins of _fit_envelope


def _fit_envelope(eps: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """log-log regression through per-bin maxima of delta over log-spaced
    eps bins; robust upper-envelope estimate."""
    pos = (eps > 0) & (delta > 0)
    eps, delta = eps[pos], delta[pos]
    if eps.size < 2:
        return 1.0, 1.0
    lo, hi = eps.min(), eps.max()
    if hi <= lo:
        return float(delta.max() / lo), 1.0
    edges = np.geomspace(lo, hi * (1 + 1e-12), _ENVELOPE_BINS + 1)
    idx = np.clip(np.searchsorted(edges, eps, side="right") - 1, 0, _ENVELOPE_BINS - 1)
    # Each bin's top is the first pair attaining its maximum delta, as argmax
    # over the bin's pairs in order would pick.
    top_delta = np.full(_ENVELOPE_BINS, -np.inf)
    np.maximum.at(top_delta, idx, delta)
    hit = np.flatnonzero(delta == top_delta[idx])
    first = np.full(_ENVELOPE_BINS, eps.size)
    np.minimum.at(first, idx[hit], hit)
    tops = first[first < eps.size]
    xs = [math.log(v) for v in eps[tops]]
    ys = [math.log(v) for v in delta[tops]]
    if len(xs) < 2:
        return float(delta.max() / eps.max()), 1.0
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    alpha = float(min(max(slope, 1e-9), 1.0))
    return float(math.exp(intercept)), alpha


def estimate_modulus(
    phi: SphereMap,
    sampler: str,
    n_samples: int,
    seed: int = 0,
    d: int = 16,
    bound: tuple[float, float] | None = None,
) -> ModulusEstimate:
    """Sample pairs on the source sphere, record (eps, delta) and fit the
    upper envelope to C t^alpha.  If ``bound=(C0, alpha0)`` is supplied,
    count pairs with delta > C0 eps^alpha0 (up to 1e-9 relative float
    slack).  Pairs are drawn and measured ``_BLOCK`` at a time, one stream
    per block, on every usable CPU (see ``_stream``), so memory beyond the
    returned arrays does not grow with ``n_samples``."""
    require_at_least_one(("n_samples", n_samples), ("dimension d", d))
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    sample = SAMPLERS[sampler]

    def draw(rng, count):
        return sample(rng, count, d, phi.source_p)

    def measure(x, y):
        return _lp_norm(x - y, phi.source_p, axis=1), _lp_norm(phi.fn(x) - phi.fn(y), phi.target_p, axis=1)

    eps, delta = _stream(n_samples, seed, draw, measure)
    C, alpha = _fit_envelope(eps, delta)
    violations = None
    if bound is not None:
        C0, a0 = bound
        violations = int((delta > C0 * eps**a0 * (1 + 1e-9)).sum())
    return ModulusEstimate(eps=eps, delta=delta, fitted_C=C, fitted_alpha=alpha, violations=violations, n_samples=n_samples)


@dataclass(frozen=True)
class StabilizedCheck:
    violations: int
    max_ratio: float
    bound_C: float
    alpha: float
    n_samples: int


def _block_pairs(rng, count, k, d, p, phi_p):
    """Pairs on the sphere of l_p(k blocks, l_{phi_p}^d); half of them near."""
    def normalize(z):  # in place
        nrm = _lp_norm(_lp_norm(z, phi_p, axis=2), p, axis=1)
        nrm[nrm == 0.0] = 1.0
        z /= nrm[:, None, None]
        return z

    x = normalize(rng.standard_normal((count, k, d)))
    y = rng.standard_normal((count, k, d))
    half = count // 2
    scale = 10.0 ** rng.uniform(-6.0, 0.0, size=half)
    y[:half] *= scale[:, None, None]
    y[:half] += x[:half]
    return x, normalize(y)


def check_stabilized_modulus(
    phi: SphereMap,
    k: int,
    p: float,
    n_samples: int,
    seed: int = 0,
    d: int = 8,
) -> StabilizedCheck:
    """Count violations of the stabilized bound (2C+2) t^alpha over sampled
    block-vector pairs; the expected count is 0.  The bound is proven for a
    block exponent p >= 1 only.  Pairs are drawn as in ``estimate_modulus``."""
    require_at_least_one(("n_samples", n_samples), ("block count k", k), ("block exponent p", p), ("dimension d", d))
    bound_C, alpha = stabilized_modulus(phi)

    def draw(rng, count):
        return _block_pairs(rng, count, k, d, p, phi.source_p)

    def measure(x, y):
        eps = _lp_norm(_lp_norm(x - y, phi.source_p, axis=2), p, axis=1)
        fx = _extension_batch(phi, x.reshape(-1, d)).reshape(x.shape)
        fy = _extension_batch(phi, y.reshape(-1, d)).reshape(y.shape)
        return eps, _lp_norm(_lp_norm(fx - fy, phi.target_p, axis=2), p, axis=1)

    eps, delta = _stream(n_samples, seed, draw, measure)
    pos = eps > 0
    ratio = delta[pos] / (bound_C * eps[pos] ** alpha)
    violations = int((ratio > 1 + 1e-9).sum())
    return StabilizedCheck(
        violations=violations,
        max_ratio=float(ratio.max()) if ratio.size else 0.0,
        bound_C=bound_C,
        alpha=alpha,
        n_samples=n_samples,
    )
