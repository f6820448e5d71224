"""Even regularization and realization of multigraphs as Schreier graphs.

Any connected multigraph G becomes an even-regular multigraph G' by
doubling every edge and padding vertices with self-loops up to degree
2*max_degree(G).  Loops do not move the gap and doubling scales it by
exactly 2.  An even-regular connected multigraph decomposes into 2-factors:
orient an Euler circuit, colour the edges of the resulting in/out-regular
bipartite multigraph with k colours (König), and read each colour class as
a permutation of the vertex set.  The permutations with their formal
inverses generate a free action whose Schreier graph reproduces G'
edge-for-edge.

The Hierholzer traversal and the König colouring are sequential loops over
Python ints; no graph is rebuilt around them.  The regularization is read
off G's own canonical edge list, and the round-trip check encodes each
edge {v, sigma(v)} of every permutation as the integer key
min(v, sigma(v))*n + max(v, sigma(v)), counted in one ``np.unique`` and
compared with the base's keys and multiplicities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import MultiGraph
from .groups import PermutationAction

__all__ = [
    "SchreierSpec",
    "even_regularize",
    "two_factorize",
    "schreier_realize",
    "verify_realization",
    "spec_to_action",
]


@dataclass(frozen=True)
class SchreierSpec:
    """A realization certificate: the even regularization and the
    permutations whose functional graphs tile it."""

    base: MultiGraph
    perms: tuple[np.ndarray, ...]
    provenance: tuple[str, ...]


def even_regularize(G: MultiGraph) -> MultiGraph:
    """Double every edge, then pad each vertex with loops to degree 2*max.

    Built straight from G's canonical edge list: a vertex's pad loops merge
    into its existing loop, every degree is 2*max_degree(G), and the
    result is connected because G is.
    """
    if not G.connected:
        raise ValueError("even_regularize requires a connected graph")
    delta = G.max_degree
    pad = [delta - d for d in G.degrees]  # each loop adds 2 to the doubled degree
    looped = {u for u, v, _ in G.edges if u == v}
    edges = [(u, v, 2 * m + pad[u]) if u == v else (u, v, 2 * m) for u, v, m in G.edges]
    edges += [(v, v, k) for v, k in enumerate(pad) if k > 0 and v not in looped]
    return MultiGraph(n=G.n, edges=tuple(sorted(edges)), degrees=(2 * delta,) * G.n, connected=True)


def _euler_circuit(G: MultiGraph, seed: int) -> list[tuple[int, int]]:
    """Oriented edges (a, b) of an Euler circuit over all edge copies.

    Every vertex must have even degree.  Loops are traversed once and
    contribute one in- and one out-orientation at their vertex.
    """
    copies: list[tuple[int, int]] = []
    for u, v, m in G.edges:
        copies.extend([(u, v)] * m)
    if not copies:
        return []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for cid, (u, v) in enumerate(copies):
        adj[u].append((cid, v))
        if u != v:
            adj[v].append((cid, u))
    rng = np.random.Generator(np.random.PCG64(seed))
    for lst in adj:
        rng.shuffle(lst)
    used = [False] * len(copies)
    ptr = [0] * G.n
    start = copies[0][0]
    stack: list[tuple[int, int]] = [(start, -1)]
    oriented: list[tuple[int, int]] = []
    while stack:
        v, inc = stack[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            cid, w = adj[v][ptr[v]]
            if used[cid]:
                ptr[v] += 1
                continue
            used[cid] = True
            stack.append((w, cid))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if inc >= 0:
                oriented.append((stack[-1][0], v))
    if len(oriented) != len(copies):
        raise ValueError("graph has no Euler circuit (is it connected with even degrees?)")
    return oriented


def _alternating_path(tables, v: int, colours: tuple[int, int]):
    """Rows of the vertices on the path that leaves v by an edge of
    colours[0], then colours[1], colours[0], ...; tables[i % 2] holds the
    side of the i-th vertex."""
    i = 0
    while v >= 0:
        row = tables[i % 2][v]
        yield row
        v = row[colours[i % 2]]
        i += 1


def _colour_edges(n: int, oriented: list[tuple[int, int]], k: int) -> list[np.ndarray]:
    """Split a k-in/k-out orientation into k permutations by one König
    edge-colouring pass over its tail/head bipartite multigraph; colour
    class c is permutation c.

    An edge (a, b) takes a colour free at both ends if there is one.
    Otherwise alpha is free at a and beta at b; the alpha/beta path from b
    and the beta/alpha path from a are walked side by side, and the colours
    are swapped on the first one to end, which frees alpha at b or beta at
    a.  Bipartite parity keeps each path off the other endpoint.
    """
    out = [[-1] * k for _ in range(n)]  # out[a][c]: head of a's colour-c edge
    inn = [[-1] * k for _ in range(n)]  # inn[b][c]: tail of b's colour-c edge
    for a, b in oriented:
        row_a, row_b = out[a], inn[b]
        c = next((c for c in range(k) if row_a[c] < 0 and row_b[c] < 0), -1)
        if c < 0:
            alpha, beta = row_a.index(-1), row_b.index(-1)
            walks = [
                (_alternating_path((inn, out), b, (alpha, beta)), [], alpha),
                (_alternating_path((out, inn), a, (beta, alpha)), [], beta),
            ]
            for walk, path, c in itertools.cycle(walks):
                row = next(walk, None)
                if row is None:
                    break
                path.append(row)
            for row in path:
                row[alpha], row[beta] = row[beta], row[alpha]
        row_a[c], row_b[c] = b, a
    return list(np.array(out, dtype=np.int64).T.copy())


def two_factorize(Gp: MultiGraph, seed: int = 0) -> list[np.ndarray]:
    """Decompose a connected 2k-regular multigraph into k permutations whose
    functional graphs (one undirected edge per application, loops at fixed
    points) reproduce the edge multiset exactly."""
    degs = set(Gp.degrees)
    if len(degs) != 1:
        raise ValueError(f"graph is not regular: degrees {sorted(degs)}")
    deg = degs.pop()
    if deg % 2 != 0:
        raise ValueError(f"degree {deg} is odd; 2-factorization needs even degree")
    if not Gp.connected:
        raise ValueError("two_factorize requires a connected graph")
    return _colour_edges(Gp.n, _euler_circuit(Gp, seed), deg // 2)


def _functional_keys(n: int, perms) -> np.ndarray:
    """Key min(v, w)*n + max(v, w) of the edge {v, w = sigma(v)} for every
    vertex v of every permutation sigma, in permutation-major order."""
    P = np.asarray(perms, dtype=np.int64).reshape(len(perms), n)
    if P.size and not (0 <= P.min() and P.max() < n):
        raise ValueError(f"permutation entry out of range 0..{n - 1}")
    v = np.arange(n)
    return (np.minimum(v, P) * n + np.maximum(v, P)).ravel()


def schreier_realize(G: MultiGraph, seed: int = 0) -> SchreierSpec:
    """Even-regularize, then 2-factorize; the returned permutations realize
    the regularization as the Schreier graph of their free symmetric set."""
    Gp = even_regularize(G)
    perms = two_factorize(Gp, seed=seed)
    provenance = tuple(f"two-factor {i} of Euler orientation (seed {seed})" for i in range(len(perms)))
    return SchreierSpec(base=Gp, perms=tuple(perms), provenance=provenance)


def verify_realization(spec: SchreierSpec) -> tuple[bool, dict]:
    """Compare the edge multiset of the permutations' functional graphs
    with the base's exactly; on mismatch return the symmetric difference.

    Both sides are integer edge keys min(v, w)*n + max(v, w) with their
    multiplicities.  The mismatch dict maps each pair (v, w) whose counts
    differ to {"expected": base count, "rebuilt": permutation count}.
    """
    n = spec.base.n
    got, got_mult = np.unique(_functional_keys(n, spec.perms), return_counts=True)
    edges = spec.base.edges
    base = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64, count=3 * len(edges)).reshape(-1, 3)
    want, want_mult = base[:, 0] * n + base[:, 1], base[:, 2]
    if np.array_equal(want, got) and np.array_equal(want_mult, got_mult):
        return True, {}
    keys = np.union1d(want, got)
    expected = np.zeros(keys.shape[0], dtype=np.int64)
    rebuilt = np.zeros(keys.shape[0], dtype=np.int64)
    expected[np.searchsorted(keys, want)] = want_mult
    rebuilt[np.searchsorted(keys, got)] = got_mult
    bad = np.flatnonzero(expected != rebuilt)
    diff = {
        (k // n, k % n): {"expected": a, "rebuilt": b}
        for k, a, b in zip(keys[bad].tolist(), expected[bad].tolist(), rebuilt[bad].tolist())
    }
    return not diff, diff


def spec_to_action(spec: SchreierSpec) -> PermutationAction:
    """The free symmetric generating set {sigma_i, sigma_i^-1} as a
    permutation action (formal inverses stay distinct slots even for
    involutions or identity factors, matching the free-group convention)."""
    labels = tuple(lab for i in range(len(spec.perms)) for lab in (f"t{i}", f"t{i}~"))
    rows = [row for sigma in spec.perms for row in (sigma, np.argsort(sigma))]
    perms = np.asarray(rows, dtype=np.int64).reshape(len(rows), spec.base.n)  # (0, n) with no generators
    return PermutationAction(spec.base.n, labels, perms, tuple(i ^ 1 for i in range(len(labels))))
