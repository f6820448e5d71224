"""Finite connected multigraphs: construction, generators, metrics, and I/O.

Vertices are dense integer indices ``0..n-1``.  Edges are stored as merged
``(u, v, mult)`` triples with ``u <= v``; self-loops (``u == v``) are
allowed and contribute 2 to the degree of their vertex.  The oriented-edge
view used by the gap computations contains, per non-loop edge of
multiplicity m, m oriented copies in each direction, and per loop of
multiplicity m, 2m copies ``(v, v)``.

The hop metric (``all_pairs_distances``) is one word-parallel search from
every source; a wide search runs its chunks of sources on every usable CPU
through the process's one worker pool (``_parallel``), and its table does
not depend on the CPU count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import _parallel

__all__ = [
    "MultiGraph",
    "MetricTable",
    "build_graph",
    "gen_family",
    "FAMILY_FORMS",
    "all_pairs_distances",
    "write_edge_list",
    "read_edge_list",
    "graph_to_json",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class MultiGraph:
    """Immutable undirected multigraph with loop and multiplicity support.

    Arrays derived from the edges (the kernels' edge arrays, the spectral
    head) are computed once per graph object and kept in ``_memo``; they
    take no part in equality or hashing and die with the graph.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    degrees: tuple[int, ...]
    connected: bool
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n else 0

    @property
    def average_degree(self) -> float:
        return sum(self.degrees) / self.n

    def memo(self, key: str, build: Callable[[], _T]) -> _T:
        """``build()`` on the first call for ``key``, the stored value after.

        The graph is immutable, so a value derived from it never goes
        stale.  Callers store read-only arrays and copy what they hand out.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def nonloop_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, mult) int64 arrays over non-loop edges, for the kernels.

        Built once per graph and read-only.
        """
        return self.memo("nonloop_arrays", self._build_nonloop_arrays)

    def _build_nonloop_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eu, ev, em = [], [], []
        for u, v, m in self.edges:
            if u != v:
                eu.append(u)
                ev.append(v)
                em.append(m)
        arrays = tuple(np.asarray(x, dtype=np.int64) for x in (eu, ev, em))
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian; loops drop out entirely."""
        return self.add_laplacian(np.zeros((self.n, self.n)))

    def add_laplacian(self, A: np.ndarray) -> np.ndarray:
        """Add the Laplacian into the C-contiguous n x n float64 array ``A``
        in place and return ``A``.  Every entry gains an integer sum, so the
        result is exact while entries stay below 2^53."""
        eu, ev, em = self.nonloop_arrays()
        w = em.astype(np.float64)
        np.add.at(A, (eu, ev), -w)
        np.add.at(A, (ev, eu), -w)
        diag = A.reshape(-1)[:: self.n + 1]  # a view of the diagonal
        np.add.at(diag, eu, w)
        np.add.at(diag, ev, w)
        return A


@dataclass(frozen=True)
class MetricTable:
    """All-pairs hop distances of a connected multigraph; ``d`` is read-only."""

    d: np.ndarray
    diameter: int


def build_graph(n: int, edges: Iterable[tuple[int, int, int]]) -> MultiGraph:
    """Normalize an edge list into a MultiGraph.

    Duplicate pairs are merged by summing multiplicities.  Raises on
    out-of-range endpoints or non-positive multiplicity.
    """
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    merged: dict[tuple[int, int], int] = {}
    for u, v, m in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if m < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
        key = (u, v) if u <= v else (v, u)
        merged[key] = merged.get(key, 0) + m
    edge_tuple = tuple(sorted((u, v, m) for (u, v), m in merged.items()))
    degrees = [0] * n
    for u, v, m in edge_tuple:
        if u == v:
            degrees[u] += 2 * m
        else:
            degrees[u] += m
            degrees[v] += m
    connected = _is_connected(n, edge_tuple)
    return MultiGraph(n=n, edges=edge_tuple, degrees=tuple(degrees), connected=connected)


def _is_connected(n: int, edges: Sequence[tuple[int, int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

# kind -> parameter form
FAMILY_FORMS = {
    "cycle": "cycle:N",
    "complete": "complete:N",
    "hamming": "hamming:N",
    "random_regular": "random_regular:N,D",
    "margulis": "margulis:N",
    "path": "path:N",
}


def gen_family(kind: str, params: Sequence[int], seed: int | None = None) -> MultiGraph:
    """Standard graph generators, deterministic for a fixed seed.

    cycle(n), complete(n), hamming(n), path(n), margulis(n) on (Z/n)^2,
    random_regular(n, d).
    """
    if kind not in FAMILY_FORMS:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {tuple(FAMILY_FORMS)}")
    params = tuple(int(x) for x in params)
    form = FAMILY_FORMS[kind]
    if len(params) != form.count(",") + 1:
        raise ValueError(f"{kind} takes {form}, got {len(params)} parameter(s)")
    if kind == "cycle":
        (n,) = params
        if n < 1:
            raise ValueError("cycle needs n >= 1")
        if n == 1:
            return build_graph(1, [(0, 0, 1)])
        if n == 2:
            return build_graph(2, [(0, 1, 2)])
        return build_graph(n, [(i, (i + 1) % n, 1) for i in range(n)])
    if kind == "complete":
        (n,) = params
        if n < 2:
            raise ValueError("complete needs n >= 2")
        return build_graph(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)])
    if kind == "hamming":
        (n,) = params
        if n < 1:
            raise ValueError("hamming needs n >= 1")
        edges = [(v, v ^ (1 << i), 1) for v in range(1 << n) for i in range(n) if v < v ^ (1 << i)]
        return build_graph(1 << n, edges)
    if kind == "path":
        (n,) = params
        if n < 1:
            raise ValueError("path needs n >= 1")
        return build_graph(n, [(i, i + 1, 1) for i in range(n - 1)])
    if kind == "margulis":
        (n,) = params
        if n < 1:
            raise ValueError("margulis needs n >= 1")
        return _margulis(n)
    # random_regular
    n, d = params
    return _random_regular(n, d, seed)


def _margulis(n: int) -> MultiGraph:
    """8-regular expander on (Z/n)^2: four affine maps plus their inverses.

    Each map T contributes one undirected edge {v, T(v)} per vertex, so each
    vertex meets 4 images and 4 preimages (loops count twice).
    """

    def idx(a: int, b: int) -> int:
        return a * n + b

    maps = (
        lambda a, b: ((a + b) % n, b),
        lambda a, b: ((a + b + 1) % n, b),
        lambda a, b: (a, (b + a) % n),
        lambda a, b: (a, (b + a + 1) % n),
    )
    edges = []
    for a in range(n):
        for b in range(n):
            for T in maps:
                c, e = T(a, b)
                edges.append((idx(a, b), idx(c, e), 1))
    return build_graph(n * n, edges)


_REGULAR_TRIES = 2000  # stub pairings _random_regular draws before it gives up


def _random_regular(n: int, d: int, seed: int | None) -> MultiGraph:
    """Random simple d-regular graph by incremental stub pairing: draw stub
    pairs, skip loops/repeats, restart when stuck.  Handles dense cases the
    one-shot pairing model almost never survives."""
    if d >= n:
        raise ValueError("random_regular needs d < n")
    if (n * d) % 2 != 0:
        raise ValueError("random_regular needs n*d even")
    if d == 0:
        raise ValueError("random_regular needs d >= 1")
    if d == n - 1:
        return gen_family("complete", [n])
    rng = np.random.Generator(np.random.PCG64(0 if seed is None else seed))
    for _ in range(_REGULAR_TRIES):
        stubs = np.repeat(np.arange(n), d).tolist()
        rng.shuffle(stubs)
        taken: set[tuple[int, int]] = set()
        stuck = False
        while stubs and not stuck:
            for _attempt in range(200):
                i = int(rng.integers(len(stubs)))
                j = int(rng.integers(len(stubs)))
                u, v = stubs[i], stubs[j]
                key = (min(u, v), max(u, v))
                if u != v and key not in taken:
                    taken.add(key)
                    for k in sorted((i, j), reverse=True):
                        stubs.pop(k)
                    break
            else:
                stuck = True
        if stuck:
            continue
        G = build_graph(n, [(u, v, 1) for u, v in sorted(taken)])
        if G.connected:
            return G
    raise RuntimeError(f"no connected simple {d}-regular graph on {n} vertices found in {_REGULAR_TRIES} tries")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def all_pairs_distances(G: MultiGraph) -> MetricTable:
    """BFS hop distances, built once per graph; multiplicities and loops do
    not change them.

    One word-parallel search runs from 64 sources per machine word: bit
    ``s % 64`` of word ``s // 64`` in vertex v's cell marks source s.  Each
    level ORs every nonzero frontier cell into its neighbours' cells, keeps
    the bits not seen before, and files them under the level's binary
    digits in bit planes; the planes are unpacked once, at the end, into
    the int64 table.  An expander's cells carry many sources each, so it
    costs a fraction of n separate searches.  A long cycle or path carries
    about one source per cell, so it gains nothing from the words and pays
    for their bookkeeping.  The sources run in chunks of whole words,
    split over the usable CPUs when the search is wide (see
    ``_bfs_all_sources``)."""
    if not G.connected:
        raise ValueError("all_pairs_distances requires a connected graph")
    return G.memo("metric", lambda: _bfs_all_sources(G))


# Neighbour cells that one level of one chunk of _bfs_all_sources may
# gather: a chunk holds at most max(1, _BFS_CHUNK_ENTRIES // (2 |E|)) words
# of sources, so a level's temporaries stay near 2^20 entries.
_BFS_CHUNK_ENTRIES = 1 << 20
_WORD = 64
# Bit planes below this take each level's new cells one by one.  Plane
# k >= _SPARSE_PLANES changes only once in 2^k levels, so it takes a whole
# run of levels at once, as the XOR of the seen words before and after it.
_SPARSE_PLANES = 3
# A search is wide, and its sources are split over the usable CPUs, when
# vertex 0 reaches every vertex within n / _WIDE_RATIO levels.  n / ecc(0)
# is 1-2 on cycles and paths, 18-22 on H7 and random_regular(200, 3), 32
# on H8, 57-154 on H9, margulis(24), margulis(32), H10 and random regular
# graphs of 1000-2000 vertices, and 714 on margulis(100).  Every chunk walks
# all the levels, so a split pays the per-level cost once per chunk: it made
# cycle(2000) 1.7x and path(1000) 2.6x slower, H7 and random_regular(200, 3)
# slower too, and random_regular(2000, 3) 1.7x faster on two CPUs.
_WIDE_RATIO = 48


def _bfs_all_sources(G: MultiGraph) -> MetricTable:
    """Word-parallel breadth-first search from every source, in chunks of
    whole 64-source words (see ``all_pairs_distances``).

    A chunk holds at most the words ``_BFS_CHUNK_ENTRIES`` allows.  A wide
    search (``_wide``) of at least two words per usable CPU is split into
    at least one chunk per usable CPU; the rest keep the fewest chunks.
    The chunks run through ``_parallel.run_chunks``; each fills its own
    columns of the table, and the diameter is the last level any chunk
    reached, so the table does not depend on the CPU count."""
    n = G.n
    eu, ev, _ = G.nonloop_arrays()
    tails = np.concatenate([eu, ev])
    nbr = np.concatenate([ev, eu])[np.argsort(tails, kind="stable")]
    deg = np.bincount(tails, minlength=n)
    first = np.cumsum(deg) - deg
    dist = np.zeros((n, n), dtype=np.int64)
    words = -(-n // _WORD)
    per = max(1, _BFS_CHUNK_ENTRIES // max(1, nbr.size))  # words per chunk
    cpus = _parallel._usable_cpus()
    if words >= 2 * cpus and -(-words // per) < cpus and _wide(nbr, deg, first, G.max_degree):
        per = -(-words // cpus)
    chunk = _WORD * per
    levels = _parallel.run_chunks(
        -(-n // chunk), lambda i: _bfs_words(nbr, deg, first, dist, i * chunk, min((i + 1) * chunk, n))
    )
    dist.setflags(write=False)
    return MetricTable(d=dist, diameter=max(levels))


def _neighbour_slots(v: np.ndarray, deg: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR slots of the neighbours of each vertex in ``v``, in order,
    and each vertex's neighbour count."""
    c = deg[v]
    cut = np.cumsum(c)
    return np.repeat(first[v] - (cut - c), c) + np.arange(cut[-1]), c


def _wide(nbr, deg, first, top: int) -> bool:
    """Whether ecc(0) <= n / _WIDE_RATIO, by a search from vertex 0 that
    stops after that many levels; a long graph pays only those levels.

    No search runs when that many levels cannot hold n vertices: within k
    levels a search reaches at most 1 + D + D(D-1) + ... + D(D-1)^(k-1)
    of them, D <= ``top`` the largest degree (so cycles, paths and sparse
    random graphs of a few hundred vertices are refused from their degrees)."""
    n = deg.size
    limit = n // _WIDE_RATIO
    ball, shell = 1, 1
    for k in range(limit):
        if ball >= n:
            break
        shell *= top if k == 0 else top - 1
        ball += shell
    if ball < n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    front = np.zeros(1, dtype=np.intp)
    for _ in range(limit + 1):
        fresh = np.zeros(n, dtype=bool)
        fresh[nbr[_neighbour_slots(front, deg, first)[0]]] = True
        fresh &= ~seen
        front = np.flatnonzero(fresh)
        if not front.size:
            return True
        seen |= fresh
    return False


def _bfs_words(nbr, deg, first, dist, lo: int, hi: int) -> int:
    """Fill ``dist[:, lo:hi]`` with the hop distances from sources lo..hi-1
    (the table is symmetric) and return the last level reached.

    Cell ``v*words + w`` holds the sources ``lo + 64 w + b`` that have
    reached vertex v, one per set bit b.  The frontier keeps only its
    nonzero cells: ``front`` their indices, ``bits`` their new sources."""
    n = deg.size
    words = -(-(hi - lo) // _WORD)
    local = np.arange(hi - lo)
    front = np.arange(lo, hi) * words + local // _WORD
    bits = np.left_shift(np.uint64(1), (local % _WORD).astype(np.uint64))
    seen = np.zeros(n * words, dtype=np.uint64)
    seen[front] = bits
    mark = np.empty(n * words, dtype=np.intp)
    planes: list[np.ndarray] = []  # plane k: sources first reached at a level with bit k set
    level = 0
    v, w = np.divmod(front, words)
    while True:
        slot, c = _neighbour_slots(v, deg, first)
        cand = nbr[slot] * words + np.repeat(w, c)
        bits = np.repeat(bits, c) & ~seen[cand]
        keep = np.flatnonzero(bits)
        if not keep.size:
            break
        cand, bits = cand[keep], bits[keep]
        # Combine duplicate cells without a sort: the last writer of each
        # cell wins its mark, and the losers OR their bits into its value.
        pos = np.arange(cand.size)
        mark[cand] = pos
        winner = mark[cand]
        lose = winner != pos
        np.bitwise_or.at(bits, winner[lose], bits[lose])
        win = ~lose
        front, bits = cand[win], bits[win]
        level += 1
        if level.bit_length() > len(planes):
            planes.append(np.zeros(n * words, dtype=np.uint64))
        # bits 0..ctz(level) flip from level - 1 to level: their runs start or end
        for k in range(_SPARSE_PLANES, (level & -level).bit_length()):
            planes[k] ^= seen
        seen[front] |= bits
        for k in range(min(_SPARSE_PLANES, level.bit_length())):
            if level >> k & 1:
                planes[k][front] |= bits
        v, w = np.divmod(front, words)
    for k in range(_SPARSE_PLANES, level.bit_length()):
        if level >> k & 1:
            planes[k] ^= seen  # the run still open at the last level
    # Unpack the planes a few rows at a time: bit b of a row's byte j is
    # source lo + 8 j + b once the words are read little-endian.
    width = hi - lo
    rows = max(1, (1 << 16) // width)
    acc_type = np.min_scalar_type((1 << len(planes)) - 1)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        acc = np.zeros((b - a, width), dtype=acc_type)
        for k, plane in enumerate(planes):
            octets = plane[a * words : b * words].astype("<u8", copy=False).view(np.uint8)
            hit = np.unpackbits(octets.reshape(b - a, -1), axis=1, count=width, bitorder="little")
            acc |= np.left_shift(hit, k, dtype=acc_type)
        dist[a:b, lo:hi] = acc
    return level


# ----------------------------------------------------------------------
# File I/O: "n m" header, then "u v mult" lines; '#' comments.
# ----------------------------------------------------------------------


def write_edge_list(G: MultiGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{G.n} {len(G.edges)}\n")
        for u, v, m in G.edges:
            fh.write(f"{u} {v} {m}\n")


def file_rows(path: str) -> list[tuple[int, list[str]]]:
    """The tokens of each line of a file that holds data once its '#'
    comment is cut, with the line's 1-based number."""
    with open(path) as fh:
        rows = [(k, line.split("#", 1)[0].split()) for k, line in enumerate(fh, 1)]
    return [(k, toks) for k, toks in rows if toks]


def row_ints(path: str, line: int, toks: list[str], form: str) -> list[int]:
    """The integers of one file line of the form ``form``, one per word of
    ``form``; a ValueError that names the file and the line otherwise."""
    count = len(form.split())
    if len(toks) != count:
        raise ValueError(f"{path}, line {line}: expected '{form}' ({count} values), got {len(toks)}")
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise ValueError(f"{path}, line {line}: expected integers '{form}', got {' '.join(toks)!r}") from None


def require_at_least_one(*named: tuple[str, float]) -> None:
    """Refuse each ``(name, value)`` whose value is not a finite number >= 1
    (NaN fails the comparison, so it is refused too)."""
    for name, value in named:
        if not (value >= 1 and math.isfinite(value)):
            raise ValueError(f"{name} must be >= 1 and finite, got {value}")


def read_edge_list(path: str) -> MultiGraph:
    rows = file_rows(path)
    if not rows:
        raise ValueError(f"empty edge-list file: {path}")
    n, m = row_ints(path, *rows[0], "n m")
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: header declares {m} edges but file has {len(rows) - 1}")
    return build_graph(n, [tuple(row_ints(path, k, toks, "u v mult")) for k, toks in rows[1:]])


def graph_to_json(G: MultiGraph) -> str:
    return json.dumps({"n": G.n, "edges": [list(e) for e in G.edges]})
