"""The benchmark's three workloads, built from a seed as lists of requests.

A request is one call of banachgap's public API, the way the acceptance
suite and the CLI make them.  Its kind is one of gap, kappa, realize,
distort, sphere, or cli (CLI calls made in-process, timed only in wall_s
unless they map onto a kind).  Every request carries a check that the
benchmark runs on the output after the request's clock has stopped; the
checks use references computed here with numpy, never the program's own
code, so that a check cannot share a defect with what it checks.

Graphs, actions and embeddings are built by ``build`` during set-up and
captured by the requests; the timed phase only calls the API on them.

Why these workloads (each is a closed loop, one client, one process):

* small -- the acceptance suite's traffic at reduced counts: many tiny
  instances, so per-call overhead and descents that run to max_iter
  dominate.  Inputs share nothing.
* large -- a few big distinct instances (n from 256 to 2000): dense
  eigensolves, Python BFS, large descents, realizations that hit the
  recursive matching peel, exact-rational distortion and 10^6 sphere pairs.
* sweep -- a few medium graphs built once per pass, each hit by many
  requests that repeat the same graph-level work (Fiedler eigensolve, edge
  arrays, BFS).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from banachgap import cli, distortion, graphs, groups, mazur, realization, spectral

KINDS = ("gap", "kappa", "realize", "distort", "sphere")

# The nine connected simple graphs on at most four vertices (criterion 2).
SMALL_GRAPHS = {
    "K2": (2, [(0, 1, 1)]),
    "P3": (3, [(0, 1, 1), (1, 2, 1)]),
    "K3": (3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
    "P4": (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]),
    "star4": (4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]),
    "paw": (4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]),
    "C4": (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
    "diamond": (4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]),
    "K4": (4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)]),
}


@dataclass
class Verdict:
    """Outcome of a request's output check, plus the accuracy figures it feeds."""

    ok: bool
    detail: str = ""
    over_ref: float | None = None  # est / exact reference (gap_est_over_ref_max)
    ratio: float | None = None  # criterion-9 normalisation (gap_ratio_gmean)
    over_lower: float | None = None  # kappa / certified lower (kappa_over_lower_max)


@dataclass
class Request:
    kind: str  # one of KINDS, or "cli"
    name: str  # the instance: what it computes on which input, with seeds
    run: Callable[[], object]
    check: Callable[[object, "References"], Verdict]


@dataclass
class Workload:
    name: str
    seed: int
    requests: list[Request]

    def instance_hash(self) -> str:
        """SHA-256 of the instance list; equal seeds must give equal hashes."""
        return hashlib.sha256("\n".join(r.name for r in self.requests).encode()).hexdigest()


# ----------------------------------------------------------------------
# References computed by the benchmark (numpy only)
# ----------------------------------------------------------------------


def content_key(obj) -> str:
    """SHA-256 of a graph's edge list, or of an action's permutations."""
    if hasattr(obj, "perms"):
        return hashlib.sha256(np.ascontiguousarray(obj.perms).tobytes()).hexdigest()
    return hashlib.sha256(repr((obj.n, obj.edges)).encode()).hexdigest()


def fingerprint(G) -> str:
    """Short hash of a graph's edge list, so the instance list names the input."""
    return content_key(G)[:12]


def laplacian(G) -> np.ndarray:
    L = np.zeros((G.n, G.n))
    for u, v, m in G.edges:
        if u != v:
            L[u, u] += m
            L[v, v] += m
            L[u, v] -= m
            L[v, u] -= m
    return L


def action_laplacian(a) -> np.ndarray:
    """Laplacian of an action's Schreier graph: |S| I - sum of the slot
    permutation matrices (an inverse pair contributes P + P^T, a
    self-inverse slot its own symmetric P; fixed points cancel as loops)."""
    L = a.size * np.eye(a.m)
    rows = np.arange(a.m)
    for perm in a.perms:
        np.subtract.at(L, (rows, perm), 1.0)
    return L


class References:
    """Reference values for the checks, cached for the life of a run.

    Values that depend only on a set-up input (lambda_2 of a graph, the
    BFS metric) are computed once per input, keyed by its content, so the
    freshly built inputs of a later pass reuse them; values produced by a
    request in a pass (the grid-oracle value a later descent is checked
    against) are stored under a key by that request's check.
    """

    def __init__(self):
        self._lambda2: dict[str, float] = {}
        self._distances: dict[str, np.ndarray] = {}
        self.stored: dict[str, tuple[float, float]] = {}

    def lambda2(self, obj) -> float:
        """Second Laplacian eigenvalue of a graph, or of an action's Schreier graph."""
        key = content_key(obj)
        if key not in self._lambda2:
            L = action_laplacian(obj) if hasattr(obj, "perms") else laplacian(obj)
            self._lambda2[key] = float(np.linalg.eigvalsh(L)[1])
        return self._lambda2[key]

    def distances(self, G) -> np.ndarray:
        """Hop distances by scipy's breadth-first search."""
        key = content_key(G)
        if key not in self._distances:
            from scipy.sparse import coo_matrix
            from scipy.sparse.csgraph import shortest_path

            eu, ev = zip(*[(u, v) for u, v, _ in G.edges if u != v])
            A = coo_matrix((np.ones(len(eu)), (eu, ev)), shape=(G.n, G.n)).tocsr()
            self._distances[key] = shortest_path(A, directed=False, unweighted=True).astype(np.int64)
        return self._distances[key]


def _normalised(est_value: float, p: float, lam2: float) -> float:
    """Criterion 9's normalisation: gap_p / lam2^(p/2) for p >= 2, else gap_p / lam2."""
    return est_value / lam2 ** (p / 2.0) if p >= 2.0 else est_value / lam2


# ----------------------------------------------------------------------
# Request constructors
# ----------------------------------------------------------------------


def oracle_request(label, G, p, resolution) -> Request:
    key = f"oracle {label} p={p}"

    def run():
        return spectral.gap_oracle_small(G, p=p, resolution=resolution)

    def check(est, refs):
        err = float(est.diagnostics["grid_error_bound"])
        refs.stored[key] = (float(est.value), err)
        return Verdict(ok=math.isfinite(est.value) and est.value > 0.0, detail=f"oracle value {est.value}")

    return Request("gap", f"gap_oracle_small {label}#{fingerprint(G)} p={p} res={resolution}", run, check)


def descent_request(label, G, p, q, d, seed, restarts, max_iter, oracle: bool = False) -> Request:
    """A gap_estimate call.  Checked against the grid oracle's value at
    criterion 2's tolerance max(1e-3, grid_error_bound) when ``oracle``,
    and against lambda_2 (an upper bound may not undercut it) at p = q = 2."""
    okey = f"oracle {label} p={p}"

    def run():
        return spectral.gap_estimate(G, p=p, q=q, d=d, seed=seed, restarts=restarts, max_iter=max_iter)

    def check(est, refs):
        lam2 = refs.lambda2(G)
        v = Verdict(ok=True, ratio=_normalised(est.value, p, lam2))
        if oracle:
            ref, err = refs.stored[okey]
            tol = max(1e-3, err)
            if abs(est.value - ref) > tol:
                v.ok, v.detail = False, f"|{est.value} - oracle {ref}| > {tol}"
            v.over_ref = est.value / ref
        elif p == 2.0 and q == 2.0:
            v.over_ref = est.value / lam2
            if est.value < lam2 * (1.0 - 1e-9):
                v.ok, v.detail = False, f"upper estimate {est.value} below lambda_2 {lam2}"
        return v

    name = f"gap_estimate {label}#{fingerprint(G)} p={p} q={q} d={d} seed={seed} R={restarts} it={max_iter}"
    return Request("gap", name, run, check)


def exact_request(label, G) -> Request:
    def run():
        return spectral.gap_exact_2(G)

    def check(est, refs):
        lam2 = refs.lambda2(G)
        ok = abs(est.value - lam2) <= 1e-9 * max(1.0, lam2)
        return Verdict(ok=ok, detail="" if ok else f"gap_exact_2 {est.value} != lambda_2 {lam2}")

    return Request("gap", f"gap_exact_2 {label}#{fingerprint(G)}", run, check)


def kappa_request(label, a, p, d, seed, gap_restarts, gap_iter, restarts, max_iter, nu=None, warm=None) -> Request:
    """Criterion 4's sandwich: the Schreier gap (exact at p = 2), then
    verify_sandwich with it.  Checked: the report is ok; at p = 2 kappa over
    the certified lower bound (2 lambda_2 / |S|)^(1/2) is recorded."""

    def run():
        S = groups.schreier_graph(a)
        if p == 2.0:
            gap = spectral.gap_exact_2(S)
        else:
            gap = spectral.gap_estimate(S, p=p, q=p, d=1, seed=seed, restarts=gap_restarts, max_iter=gap_iter)
        ws = None if warm is None else [warm(gap)]
        return groups.verify_sandwich(
            a, p=p, d=d, nu=nu, seed=seed, gap=gap, warm_starts=ws, restarts=restarts, max_iter=max_iter
        )

    def check(rep, refs):
        v = Verdict(ok=bool(rep.ok), detail="" if rep.ok else f"sandwich slacks {rep.slacks}")
        if p == 2.0:
            lower = math.sqrt(2.0 * refs.lambda2(a) / a.size)
            v.over_lower = rep.kappa.value / lower
        return v

    name = f"verify_sandwich {label} p={p} d={d} nu={nu} seed={seed} R={restarts} it={max_iter} gapR={gap_restarts} gapit={gap_iter}"
    return Request("kappa", name, run, check)


def realize_request(label, G, seed) -> Request:
    """schreier_realize then verify_realization.  Checked: identical edge
    multisets, 2*max_degree regularity, L(G') = 2 L(G) off the loops (so
    the exact p = 2 gap doubles), and for n <= 64 the doubled lambda_2 to 1e-9."""

    def run():
        spec = realization.schreier_realize(G, seed=seed)
        return spec, realization.verify_realization(spec)

    def check(out, refs):
        spec, (same, diff) = out
        if not same:
            return Verdict(False, f"edge multisets differ on {len(diff)} pairs")
        base = spec.base
        if set(base.degrees) != {2 * G.max_degree}:
            return Verdict(False, f"regularization not {2 * G.max_degree}-regular")
        want = {(u, v): 2 * m for u, v, m in G.edges if u != v}
        got = {(u, v): m for u, v, m in base.edges if u != v}
        if want != got:
            return Verdict(False, "non-loop edges of the regularization are not the doubled graph")
        if G.n <= 64 and G.n >= 2:
            lam, lamp = refs.lambda2(G), float(np.linalg.eigvalsh(laplacian(base))[1])
            if abs(lamp - 2.0 * lam) > 1e-9 * max(1.0, 2.0 * lam):
                return Verdict(False, f"gap {lamp} != 2*{lam}")
        return Verdict(True)

    return Request("realize", f"schreier_realize {label}#{fingerprint(G)} seed={seed}", run, check)


def distort_request(label, G, nbits, cube, p, seed, restarts, max_iter, exact: bool, eps=0.5) -> Request:
    """One distortion row of a Hamming cube, assembled as the CLI's
    _distortion_row does (q = p; the exact-rational upper when ``exact``).
    Checked: the identity embedding's distortion n^(1-1/q) (exactly n
    squared, in rationals), and certified lower bounds below it."""
    F = distortion.hamming_identity_embedding(nbits)

    def run():
        met = graphs.all_pairs_distances(G)
        if p == 2.0:
            gap = spectral.gap_exact_2(G)
        else:
            gap = spectral.gap_estimate(G, p=p, q=p, d=1, seed=seed, restarts=restarts, max_iter=max_iter)
        reps = distortion.r_eps_lower(G, met, eps)
        disp = distortion.max_displacement(G, met, "cayley", action=cube)
        if exact:
            upper = distortion.map_distortion_exact_sq(G, F, metric=met)
        else:
            upper = distortion.map_distortion(G, F, q=p, metric=met).value
        gn = distortion.gn_bound(G, gap, p=p, eps=eps, r_eps=reps.value, metric=met)
        jv = distortion.jv_bound(G, gap, p=p, D=disp)
        return upper, gn, jv

    def check(out, refs):
        upper, gn, jv = out
        if exact:
            if upper != nbits:
                return Verdict(False, f"exact squared distortion {upper} != {nbits}")
            upper = math.sqrt(nbits)
        else:
            want = nbits ** (1.0 - 1.0 / p)
            if abs(upper - want) > 1e-9 * max(1.0, want):
                return Verdict(False, f"upper {upper} != n^(1-1/q) = {want}")
        for b in (gn, jv):
            if b.certified and b.value > upper * (1 + 1e-9):
                return Verdict(False, f"certified {b.label} {b.value} above upper {upper}")
        return Verdict(True)

    mode = "exact" if exact else "float"
    return Request("distort", f"distortion_row {label}#{fingerprint(G)} p={p} q={p} {mode} seed={seed}", run, check)


def apd_request(label, G) -> Request:
    """all_pairs_distances, checked entry by entry against scipy's BFS."""

    def run():
        return graphs.all_pairs_distances(G)

    def check(met, refs):
        ref = refs.distances(G)
        ok = np.array_equal(met.d, ref) and met.diameter == int(ref.max())
        return Verdict(ok, "" if ok else "BFS metric differs from the scipy reference")

    return Request("distort", f"all_pairs_distances {label}#{fingerprint(G)}", run, check)


def modulus_request(p, sampler, pairs, seed) -> Request:
    phi = mazur.mazur_sphere_map(p, 2.0)

    def run():
        est = mazur.estimate_modulus(phi, sampler, pairs, seed=seed, d=16, bound=phi.modulus)
        return est.violations

    def check(violations, refs):
        return Verdict(violations == 0, f"{violations} modulus violations")

    return Request("sphere", f"estimate_modulus M[{p}->2] {sampler} pairs={pairs} d=16 seed={seed}", run, check)


def stabilized_request(p_src, k, p_block, pairs, seed) -> Request:
    phi = mazur.mazur_sphere_map(p_src, 2.0)

    def run():
        return mazur.check_stabilized_modulus(phi, k=k, p=p_block, n_samples=pairs, seed=seed, d=8)

    def check(chk, refs):
        return Verdict(chk.violations == 0, f"{chk.violations} stabilized-modulus violations")

    return Request("sphere", f"check_stabilized_modulus M[{p_src}->2] k={k} p={p_block} pairs={pairs} seed={seed}", run, check)


def cli_request(kind, argv) -> Request:
    """banachgap.cli.main in-process with stdout captured.  Checked: exit 0,
    and JSON output for every subcommand but verify."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def check(res, refs):
        rc, out, err = res
        if rc != 0:
            return Verdict(False, f"exit {rc}: {err.strip()[:200] or out.strip()[-200:]}")
        if argv[0] != "verify":
            json.loads(out)
        return Verdict(True)

    return Request(kind, "cli " + " ".join(argv), run, check)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _seed(rng) -> int:
    return int(rng.integers(1 << 30))


def _cube_warm(n):
    """Criterion 4's coordinate-rotation symmetrised start for a cube sandwich."""

    def warm(gap):
        zeta = gap.minimizer.values[:, 0]
        m = 1 << n
        W = np.zeros((m, n))
        for j in range(n):
            rot = [((v << j) | (v >> (n - j))) & (m - 1) if j % n else v for v in range(m)]
            W[:, j] = zeta[rot]
        return W

    return warm


def realization_corpus(rng, count):
    """Criterion 6's corpus: random regular graphs of seeded sizes, then
    cycles, paths, complete graphs, cubes and Margulis graphs."""
    out = []
    for i in range(count):
        dreg = (3, 4, 5)[i % 3]
        n = int(rng.integers(max(dreg + 1, 6), 51))
        n += (n * dreg) % 2
        out.append((f"rr({n},{dreg})", graphs.gen_family("random_regular", [n, dreg], seed=_seed(rng))))
    if count >= 100:
        out += [(f"cycle({n})", graphs.gen_family("cycle", [n])) for n in range(3, 33)]
        out += [(f"path({n})", graphs.gen_family("path", [n])) for n in range(2, 33)]
        out += [(f"complete({n})", graphs.gen_family("complete", [n])) for n in range(2, 33, 3)]
        out += [(f"hamming({n})", graphs.gen_family("hamming", [n])) for n in range(1, 6)]
        out += [(f"margulis({n})", graphs.gen_family("margulis", [n])) for n in range(2, 6)]
    return out


def build_small(seed: int, tiny: bool = False) -> list[Request]:
    rng = np.random.Generator(np.random.PCG64(seed))
    reqs: list[Request] = []
    ps = (1.5,) if tiny else (1.0, 1.5, 3.0)
    names = ("P3", "C4") if tiny else tuple(SMALL_GRAPHS)
    for label in names:
        n, edges = SMALL_GRAPHS[label]
        G = graphs.build_graph(n, edges)
        for p in ps:
            reqs.append(oracle_request(label, G, p, 1e-4 if n <= 3 else 8e-3))
            reqs.append(descent_request(label, G, p, 2.0, 1, _seed(rng), 3, 600, oracle=True))

    # Criterion 3's block-dimension runs, at matched and Hilbert q.
    block = {"C6": graphs.gen_family("cycle", [6])} if tiny else {
        "C6": graphs.gen_family("cycle", [6]),
        "K4": graphs.gen_family("complete", [4]),
        "H3": graphs.gen_family("hamming", [3]),
    }
    for label, G in block.items():
        for p in (1.5, 2.0):
            for q in sorted({p, 2.0}):
                for d in (1, 2) if tiny else (1, 2, 4):
                    reqs.append(descent_request(label, G, p, q, d, _seed(rng), 3, 300))

    cases = [(f"cyclic({n})", groups.action_from_group("cyclic", n), 1, None) for n in ((5,) if tiny else range(5, 9))]
    if not tiny:
        cases += [(f"boolean_cube({n})", groups.action_from_group("boolean_cube", n), n, n) for n in range(2, 5)]
        cases += [
            ("sl_mod(2,3)", groups.action_from_group("sl_mod", 2, 3), 1, None),
            ("symmetric(4)", groups.action_from_group("symmetric", 4), 1, None),
        ]
    for label, a, d, cube_n in cases:
        for p in (1.5, 2.0) if tiny else (1.0, 1.5, 2.0, 3.0):
            warm = None if cube_n is None else _cube_warm(cube_n)
            nu = 1 if cube_n is not None else None
            # p = 1 descents need more random starts to find the balanced cut of
            # an even cycle: cyclic(8) failed its sandwich on 1 seed of 15 at 8
            # restarts and on 1 of about 40 at 16.  24 is the acceptance suite's count.
            gap_restarts, gap_iter = (24, 80) if p == 1.0 else (8, 100)
            reqs.append(kappa_request(label, a, p, d, _seed(rng), gap_restarts, gap_iter, 2, 400, nu=nu, warm=warm))

    for label, G in realization_corpus(rng, 6 if tiny else 100):
        reqs.append(realize_request(label, G, _seed(rng)))

    # Two restarts are the deterministic starts, as in sweep, so that a row's
    # cost does not depend on the seed.
    for nbits in (2, 3) if tiny else range(2, 8):
        H, cube = graphs.gen_family("hamming", [nbits]), groups.action_from_group("boolean_cube", nbits)
        for p in (1.5, 2.0, 3.0):
            reqs.append(distort_request(f"H{nbits}", H, nbits, cube, p, _seed(rng), 2, 300, exact=p == 2.0))

    pairs = 500 if tiny else 10_000
    reqs.append(stabilized_request(4.0, 4, 2.0, pairs, _seed(rng)))
    reqs.append(stabilized_request(1.0, 1, 3.0, pairs, _seed(rng)))

    # CLI traffic (no --format, --threads or distort --d: those flags are slated for removal).
    s = str(_seed(rng))
    reqs += [
        cli_request("cli", ["verify", "--suite", "1,6,10", "--seed", s]),
        cli_request("gap", ["gap", "--gen", "cycle:6", "--p", "1.5", "--restarts", "3", "--max-iter", "500", "--seed", s]),
        cli_request("kappa", ["kappa", "--group", "cyclic:6", "--p", "2", "--restarts", "2", "--seed", s]),
        cli_request("realize", ["gross", "--gen", "random_regular:24,3", "--verify", "--seed", s]),
        cli_request("distort", ["distort", "--gen", "hamming:4", "--p", "2", "--seed", s]),
        cli_request("sphere", ["mazur", "--p", "3", "--pairs", "2000", "--seed", s]),
    ]
    if tiny:
        reqs = [r for r in reqs if not r.name.startswith("cli verify")]
    return reqs


def build_large(seed: int, tiny: bool = False) -> list[Request]:
    rng = np.random.Generator(np.random.PCG64(seed))
    reqs: list[Request] = []
    big_n = 60 if tiny else 2000
    G = graphs.gen_family("random_regular", [big_n, 3], seed=_seed(rng))
    reqs.append(exact_request(f"rr({big_n},3)", G))
    reqs.append(apd_request(f"rr({big_n},3)", G))

    mid = [
        ("margulis(20)", graphs.gen_family("margulis", [4 if tiny else 20]), 2.0, 2),
        ("margulis(32)", graphs.gen_family("margulis", [5 if tiny else 32]), 3.0, 1),
        ("H9", graphs.gen_family("hamming", [4 if tiny else 9]), 1.5, 2),
    ]
    for label, H, p, d in mid:
        reqs.append(descent_request(label, H, p, 2.0, d, _seed(rng), 2, 30 if tiny else 150))

    specs = [("random_regular", [1000, 5]), ("margulis", [32]), ("margulis", [28]), ("hamming", [9]),
             ("hamming", [10]), ("cycle", [1200]), ("cycle", [2000]), ("random_regular", [2000, 3]), ("path", [1000])]
    if tiny:
        specs = [("random_regular", [40, 5]), ("cycle", [50]), ("path", [30])]
    for kind, params in specs:
        H = graphs.gen_family(kind, params, seed=_seed(rng))
        reqs.append(realize_request(f"{kind}:{','.join(map(str, params))}", H, _seed(rng)))

    acts = [("boolean_cube(8)", groups.action_from_group("boolean_cube", 4 if tiny else 8), 4 if tiny else 8)]
    acts += [
        ("symmetric(6)", groups.action_from_group("symmetric", 4 if tiny else 6), None),
        ("sl_mod(2,7)", groups.action_from_group("sl_mod", 2, 3 if tiny else 7), None),
    ]
    for label, a, cube_n in acts * 2:  # two seeds each, so that kappa_s rests on six calls
        d = 1 if cube_n is None else cube_n
        warm = None if cube_n is None else _cube_warm(cube_n)
        nu = None if cube_n is None else 1
        reqs.append(kappa_request(label, a, 2.0, d, _seed(rng), 2, 100, 4, 800, nu=nu, warm=warm))

    nbits = 4 if tiny else 9
    H, cube = graphs.gen_family("hamming", [nbits]), groups.action_from_group("boolean_cube", nbits)
    reqs.append(distort_request(f"H{nbits}", H, nbits, cube, 2.0, _seed(rng), 2, 100, exact=True))

    reqs.append(modulus_request(3.0, "near_pairs", 2000 if tiny else 1_000_000, _seed(rng)))
    return reqs


def build_sweep(seed: int, tiny: bool = False) -> list[Request]:
    rng = np.random.Generator(np.random.PCG64(seed))
    reqs: list[Request] = []
    shared = [
        ("rr(1000,3)", graphs.gen_family("random_regular", [40 if tiny else 1000, 3], seed=_seed(rng))),
        ("margulis(24)", graphs.gen_family("margulis", [4 if tiny else 24])),
        ("H9", graphs.gen_family("hamming", [4 if tiny else 9])),
    ]
    # Two restarts are the deterministic starts (Fiedler and its sign
    # rounding), so the cost of a request does not depend on the seed.
    ps = (1.5, 2.0) if tiny else (1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
    max_iter = 10 if tiny else 20
    for label, G in shared:
        for p in ps:
            if p == 2.0:
                reqs.append(exact_request(label, G))
            # d = 1 in the Hilbert geometry, d = 2 at matched exponent q = p.
            if p != 2.0:
                reqs.append(descent_request(label, G, p, 2.0, 1, _seed(rng), 2, max_iter))
            reqs.append(descent_request(label, G, p, p, 2, _seed(rng), 2, max_iter))
        for _ in range(2):  # two seeds, so that realize_s rests on more than three calls
            reqs.append(realize_request(label, G, _seed(rng)))

    nbits = 4 if tiny else 9
    H, cube = shared[2][1], groups.action_from_group("boolean_cube", nbits)
    for p in (1.5, 2.0, 3.0):
        reqs.append(distort_request(f"H{nbits}", H, nbits, cube, p, _seed(rng), 2, max_iter, exact=False))

    k = 4 if tiny else 5
    a = groups.action_from_group("symmetric", k)
    for p in (1.5, 2.0, 3.0):
        reqs.append(kappa_request(f"symmetric({k})", a, p, 1, _seed(rng), 2, 300, 1, 400))

    for p in (1.5, 3.0):
        reqs.append(modulus_request(p, "near_pairs", 1000 if tiny else 50_000, _seed(rng)))
    return reqs


WORKLOADS = {"small": build_small, "large": build_large, "sweep": build_sweep}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's requests, each kind spread evenly over the pass in its
    own order (so an oracle still precedes its descent).  A per-kind time
    then samples the whole pass, not one stretch of a machine whose speed
    drifts by 10-20% within seconds."""
    reqs = WORKLOADS[name](seed, tiny)
    count, rank, keys = Counter(r.kind for r in reqs), Counter(), []
    for r in reqs:
        keys.append((rank[r.kind] + 0.5) / count[r.kind])
        rank[r.kind] += 1
    order = sorted(range(len(reqs)), key=keys.__getitem__)
    return Workload(name=name, seed=seed, requests=[reqs[i] for i in order])


def warm_up() -> None:
    """One call per kernel (and one mid-size eigensolve) on tiny inputs, so
    the timed phase measures steady-state cost, not first-call set-up."""
    C = graphs.gen_family("cycle", [4])
    spectral.gap_estimate(C, p=1.5, q=2.0, d=1, seed=0, restarts=2, max_iter=50)
    spectral.gap_oracle_small(C, p=1.5, resolution=0.2)
    spectral.gap_oracle_small(graphs.gen_family("complete", [3]), p=1.5, resolution=0.2)
    spectral.gap_exact_2(graphs.gen_family("cycle", [300]))  # the first large eigh pays ~0.8 s once
    groups.kappa_estimate(groups.action_from_group("cyclic", 4), p=1.5, d=1, seed=0, restarts=2, max_iter=40)
