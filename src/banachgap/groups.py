"""Permutation actions, Schreier graphs, and displacement constants.

A PermutationAction is a symmetric generating multiset of permutations of a
coset index set 0..m-1, with explicit inverse pairing between generator
slots.  A generator may be marked self-inverse (one slot), or a pair of
slots may carry the same permutation (formal inverse of an involution, as
produced by the free generating sets of 2-factorizations).

The Schreier graph convention: an inverse pair {s, s^-1} of distinct slots
contributes one undirected edge {v, s(v)} per vertex; a self-inverse slot
contributes one undirected edge per 2-cycle orbit and a loop per fixed
point.  With fixed-point-free generators this makes the graph exactly
|S|-regular in the degree count.

The displacement constant for exponent p and block dimension d is

    kappa = inf max_s ||xi o s - xi||_p / ||xi||_p

over zero-sum maps xi: cosets -> R^d, with the flat l_p norm over all
m*d entries.  It is estimated by annealed smoothed-max descent; a certified
companion lower bound (2*gap/|S|)^(1/p) comes from the gap of the Schreier
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations as _iter_perms

import numpy as np

from . import _kernels
from .graphs import MultiGraph, build_graph
from .spectral import GapEstimate
from .spectral import gap as spectral_gap

__all__ = [
    "PermutationAction",
    "KappaEstimate",
    "SandwichReport",
    "action_from_group",
    "schreier_graph",
    "kappa_estimate",
    "pak_zuk_nu",
    "verify_sandwich",
    "write_action_file",
    "read_action_file",
]

KAPPA_BETAS = (1e1, 1e2, 1e3, 1e4)
COSET_CAP = 20000
RIGHT_TRANSLATION_CAP = 4096


@dataclass(frozen=True, eq=False)
class PermutationAction:
    m: int
    labels: tuple[str, ...]
    perms: np.ndarray  # (g, m) int64
    inverse: tuple[int, ...]  # slot index of each generator's inverse
    elements: tuple | None = None  # concrete group elements when cosets are the group itself
    right_translations: np.ndarray | None = None  # (m, m): row g = x -> x*g

    @property
    def size(self) -> int:
        return len(self.labels)

    def generator(self, i: int) -> np.ndarray:
        return self.perms[i]


def _is_permutation(row: np.ndarray, m: int) -> bool:
    return bool(np.array_equal(np.sort(row), np.arange(m)))


def validate_action(a: PermutationAction, allow_identity: bool = False) -> None:
    m = a.m
    if a.perms.shape != (a.size, m):
        raise ValueError("perms shape mismatch")
    ident = np.arange(m)
    for i in range(a.size):
        if not _is_permutation(a.perms[i], m):
            raise ValueError(f"generator {a.labels[i]} is not a permutation")
        if not allow_identity and np.array_equal(a.perms[i], ident):
            raise ValueError(f"generator {a.labels[i]} acts as the identity")
        j = a.inverse[i]
        if a.inverse[j] != i:
            raise ValueError("inverse pairing is not an involution on slots")
        comp = a.perms[j][a.perms[i]]
        if not np.array_equal(comp, ident):
            raise ValueError(f"slot {a.labels[j]} is not inverse to {a.labels[i]}")
    if not _transitive(a):
        raise ValueError("action is not transitive (Schreier graph would be disconnected)")


def _transitive(a: PermutationAction) -> bool:
    seen = np.zeros(a.m, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for i in range(a.size):
            w = int(a.perms[i][v])
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


# ----------------------------------------------------------------------
# Construction from standard groups
# ----------------------------------------------------------------------


def _cyclic_tables(n: int):
    elements = list(range(n))
    gens = [("r", 1)]
    if n > 2:
        gens.append(("r~", n - 1))
    mult = lambda x, y: (x + y) % n
    inverse_of = {"r": "r~" if n > 2 else "r", "r~": "r"}
    return elements, gens, mult, inverse_of


def _cube_tables(n: int):
    elements = list(range(1 << n))
    gens = [(f"x{i}", 1 << i) for i in range(n)]
    mult = lambda x, y: x ^ y
    inverse_of = {f"x{i}": f"x{i}" for i in range(n)}
    return elements, gens, mult, inverse_of


def _symmetric_tables(n: int):
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append((f"t{i}", tuple(t)))
    elements = [tuple(p) for p in _iter_perms(range(n))]

    def mult(x, y):  # (x*y)(i) = x[y[i]]
        return tuple(x[y[i]] for i in range(n))

    inverse_of = {f"t{i}": f"t{i}" for i in range(n - 1)}
    return elements, gens, mult, inverse_of


def _sl_tables(n: int, k: int):
    if n < 2 or k < 2:
        raise ValueError("sl_mod needs n >= 2, k >= 2")

    def mat_mult(x, y):
        return tuple(
            tuple(sum(x[i][t] * y[t][j] for t in range(n)) % k for j in range(n)) for i in range(n)
        )

    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for sgn, tag in ((1, "+"), (k - 1, "-")):
                M = [list(row) for row in ident]
                M[i][j] = sgn % k
                gens.append((f"e{i}{j}{tag}", tuple(tuple(row) for row in M)))
    inverse_of = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                inverse_of[f"e{i}{j}+"] = f"e{i}{j}-"
                inverse_of[f"e{i}{j}-"] = f"e{i}{j}+"
    # k = 2: +1 = -1 mod 2, keep a single self-inverse slot
    if k == 2:
        gens = [g for g in gens if g[0].endswith("+")]
        inverse_of = {g[0]: g[0] for g in gens}
    return None, gens, mat_mult, inverse_of  # elements enumerated by closure


def _close_elements(identity, gen_elements, mult, cap: int):
    index = {identity: 0}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_elements:
                y = mult(g, x)
                if y not in index:
                    if len(order) >= cap:
                        raise RuntimeError(f"coset enumeration exceeded cap {cap}")
                    index[y] = len(order)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order, index


def action_from_group(kind: str, *params: int, subgroup="trivial", cap: int = COSET_CAP) -> PermutationAction:
    """Standard actions: cyclic(n), boolean_cube(n), symmetric(n), sl_mod(n, k).

    ``subgroup`` is "trivial" (cosets are the group elements, enumerated by
    closure from the identity) or an iterable of element indices whose
    generated subgroup H defines the left coset space.
    """
    if kind == "cyclic":
        (n,) = params
        if n < 2:
            raise ValueError("cyclic needs n >= 2")
        elements, gens, mult, inverse_of = _cyclic_tables(n)
        identity = 0
    elif kind == "boolean_cube":
        (n,) = params
        if n < 1:
            raise ValueError("boolean_cube needs n >= 1")
        elements, gens, mult, inverse_of = _cube_tables(n)
        identity = 0
    elif kind == "symmetric":
        (n,) = params
        if n < 2:
            raise ValueError("symmetric needs n >= 2")
        elements, gens, mult, inverse_of = _symmetric_tables(n)
        identity = tuple(range(n))
    elif kind == "sl_mod":
        n, k = params
        _, gens, mult, inverse_of = _sl_tables(n, k)
        identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        elements = None
    else:
        raise ValueError(f"unknown group kind {kind!r}")

    gen_elems = [g for _, g in gens]
    if elements is None:
        elements, index = _close_elements(identity, gen_elems, mult, cap)
    else:
        index = {x: i for i, x in enumerate(elements)}
        if len(elements) > cap:
            raise RuntimeError(f"group order {len(elements)} exceeds cap {cap}")

    labels = [lab for lab, _ in gens]
    inverse = tuple(labels.index(inverse_of[lab]) for lab in labels)

    if subgroup == "trivial":
        m = len(elements)
        perms = np.empty((len(gens), m), dtype=np.int64)
        for gi, (_, g) in enumerate(gens):
            for xi, x in enumerate(elements):
                perms[gi, xi] = index[mult(g, x)]
        rts = None
        if m <= RIGHT_TRANSLATION_CAP:
            rts = np.empty((m, m), dtype=np.int64)
            for gi2, g2 in enumerate(elements):
                for xi, x in enumerate(elements):
                    rts[gi2, xi] = index[mult(x, g2)]
        action = PermutationAction(
            m=m,
            labels=tuple(labels),
            perms=perms,
            inverse=inverse,
            elements=tuple(elements),
            right_translations=rts,
        )
    else:
        H = _subgroup_closure([elements[i] for i in subgroup], elements[0], mult)
        cosets, coset_index = _left_cosets(elements, index, H, mult)
        m = len(cosets)
        perms = np.empty((len(gens), m), dtype=np.int64)
        for gi, (_, g) in enumerate(gens):
            for ci, coset in enumerate(cosets):
                rep = elements[coset[0]]
                img = mult(g, rep)
                perms[gi, ci] = coset_index[index[img]]
        action = PermutationAction(m=m, labels=tuple(labels), perms=perms, inverse=inverse)
    validate_action(action)
    return action


def _subgroup_closure(gens, identity, mult):
    H = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mult(g, x)
                if y not in H:
                    H.add(y)
                    nxt.append(y)
        frontier = nxt
    return H


def _left_cosets(elements, index, H, mult):
    """Partition into left cosets xH; cosets indexed by first appearance."""
    coset_of = {}
    cosets = []
    for xi, x in enumerate(elements):
        if xi in coset_of:
            continue
        members = sorted(index[mult(x, h)] for h in H)
        ci = len(cosets)
        cosets.append(tuple(members))
        for mem in members:
            coset_of[mem] = ci
    return cosets, coset_of


# ----------------------------------------------------------------------
# Schreier graph
# ----------------------------------------------------------------------


def schreier_graph(a: PermutationAction) -> MultiGraph:
    validate_action(a, allow_identity=True)
    edges: list[tuple[int, int, int]] = []
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
    return build_graph(a.m, edges)


# ----------------------------------------------------------------------
# Displacement constant
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KappaEstimate:
    value: float
    minimizer: np.ndarray  # (m, d) zero-sum, unit flat l_p
    bound_kind: str
    lower_from_gap: float
    p: float
    d: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bound_kind": self.bound_kind,
            "lower_from_gap": self.lower_from_gap,
            "p": self.p,
            "d": self.d,
            "diagnostics": self.diagnostics,
        }


def _schreier_gap(a: PermutationAction, p: float, seed: int, restarts: int) -> GapEstimate:
    return spectral_gap(schreier_graph(a), p=p, q=p, seed=seed, restarts=restarts)


def kappa_estimate(
    a: PermutationAction,
    p: float,
    d: int = 1,
    restarts: int = 16,
    max_iter: int = 4000,
    tol: float = 1e-12,
    seed: int = 0,
    warm_starts: list[np.ndarray] | None = None,
    gap: GapEstimate | None = None,
) -> KappaEstimate:
    """Minimize the worst generator displacement over zero-sum unit fields.

    Annealed smoothed-max descent (log-sum-exp with beta raised over
    stages); the reported value upper-bounds the true constant.  The
    certified companion ``lower_from_gap`` is (2*gap/|S|)^(1/p), exact at
    p=2 and heuristic otherwise (the gap itself is then an upper estimate).
    """
    if p < 1 or d < 1:
        raise ValueError(f"invalid p={p} or d={d}")
    validate_action(a, allow_identity=True)
    perms = np.ascontiguousarray(a.perms.astype(np.int64))
    rng = np.random.Generator(np.random.PCG64(seed))
    if gap is None:
        gap = _schreier_gap(a, p, seed + 1, restarts)
    lower = (2.0 * gap.value / a.size) ** (1.0 / p)

    starts: list[np.ndarray] = []
    fied = gap.minimizer.values if gap.minimizer.values.shape[0] == a.m else None
    if fied is not None:
        F = np.zeros((a.m, d))
        F[:, 0] = fied[:, 0]
        starts.append(F)
    for ws in warm_starts or []:
        arr = np.asarray(ws, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (a.m, d):
            raise ValueError(f"warm start shape {arr.shape} != {(a.m, d)}")
        starts.append(arr)
    while len(starts) < restarts:
        starts.append(rng.standard_normal((a.m, d)))

    betas = np.asarray(KAPPA_BETAS, dtype=np.float64)
    iters_per_stage = max(1, max_iter // len(KAPPA_BETAS))
    xis, values, iters, stops = _kernels.kappa_descend_block(
        np.stack(starts), perms, float(p), betas, iters_per_stage, tol
    )
    b = int(np.argmin(values))
    best_val, best_xi = float(values[b]), xis[b]
    est = KappaEstimate(
        value=best_val,
        minimizer=best_xi,
        bound_kind="upper",
        lower_from_gap=float(lower),
        p=float(p),
        d=d,
        diagnostics={
            "restarts": len(starts),
            "iterations": int(iters.sum()),
            "per_restart": _kernels.per_restart(iters, stops),
            "tol": tol,
            "seed": seed,
            "gap_method": gap.method,
            "gap_value": gap.value,
        },
    )
    col_sums = np.abs(best_xi.sum(axis=0)).max()
    if col_sums > 1e-12:
        raise AssertionError(f"minimizer violates zero-sum: max |column sum| = {col_sums}")
    return est


# ----------------------------------------------------------------------
# Generator-set symmetry factor and the two-sided gap bounds
# ----------------------------------------------------------------------


def pak_zuk_nu(a: PermutationAction, Q: list[dict[str, str]]) -> int:
    """Largest |S| / |orbit| over the orbits of the label symmetries Q on S.

    Each element of Q must map the label set bijectively onto itself
    (ensuring the relabeled generators are again the generating multiset).
    """
    labels = set(a.labels)
    for qi, qmap in enumerate(Q):
        if set(qmap.keys()) != labels or set(qmap.values()) != labels:
            raise ValueError(f"symmetry {qi} does not map the generator labels onto themselves")
    parent = {lab: lab for lab in a.labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for qmap in Q:
        for lab, img in qmap.items():
            ra, rb = find(lab), find(img)
            if ra != rb:
                parent[ra] = rb
    sizes: dict[str, int] = {}
    for lab in a.labels:
        sizes[find(lab)] = sizes.get(find(lab), 0) + 1
    return max(a.size // s for s in sizes.values()) if sizes else 1


@dataclass(frozen=True)
class SandwichReport:
    kappa: KappaEstimate
    gap: GapEstimate
    generators: int
    nu: int | None
    lower_ok: bool
    upper_ok: bool
    orbit_lower_ok: bool | None
    slacks: dict
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and (self.orbit_lower_ok is not False)


def verify_sandwich(
    a: PermutationAction,
    p: float,
    d: int = 1,
    nu: int | None = None,
    seed: int = 0,
    tolerance: float = 1e-2,
    kappa: KappaEstimate | None = None,
    gap: GapEstimate | None = None,
    **kappa_opts,
) -> SandwichReport:
    """Check kappa^p <= gap <= (|S|/2) kappa^p, and the sharpened lower
    bound (|S|/2 nu) kappa^p <= gap when a symmetry factor nu is supplied.
    Violations beyond the relative tolerance are flagged, not raised."""
    if gap is None:
        gap = _schreier_gap(a, p, seed + 1, kappa_opts.get("restarts", 16))
    if kappa is None:
        kappa = kappa_estimate(a, p=p, d=d, seed=seed, gap=gap, **kappa_opts)
    g = a.size
    kp = kappa.value**p
    lam = gap.value
    tiny = 1e-9
    lower_ok = kp <= lam * (1 + tolerance) + tiny
    upper_ok = lam <= (g / 2.0) * kp * (1 + tolerance) + tiny
    orbit_ok = None
    if nu is not None:
        orbit_ok = (g / (2.0 * nu)) * kp <= lam * (1 + tolerance) + tiny
    slacks = {
        "lower": (lam - kp) / max(lam, tiny),
        "upper": ((g / 2.0) * kp - lam) / max(lam, tiny),
    }
    if nu is not None:
        slacks["orbit_lower"] = (lam - (g / (2.0 * nu)) * kp) / max(lam, tiny)
    return SandwichReport(
        kappa=kappa,
        gap=gap,
        generators=g,
        nu=nu,
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        orbit_lower_ok=orbit_ok,
        slacks=slacks,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# Action file format: "m g" header, then per generator
# "label inverse_label p(0) p(1) ... p(m-1)".
# ----------------------------------------------------------------------


def write_action_file(a: PermutationAction, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{a.m} {a.size}\n")
        for i in range(a.size):
            perm = " ".join(str(int(x)) for x in a.perms[i])
            fh.write(f"{a.labels[i]} {a.labels[a.inverse[i]]} {perm}\n")


def read_action_file(path: str, allow_identity: bool = False) -> PermutationAction:
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    m, g = (int(t) for t in lines[0].split())
    labels, invlabels, rows = [], [], []
    for ln in lines[1 : g + 1]:
        toks = ln.split()
        labels.append(toks[0])
        invlabels.append(toks[1])
        rows.append([int(t) for t in toks[2:]])
        if len(rows[-1]) != m:
            raise ValueError(f"permutation row for {toks[0]} has wrong length")
    inverse = tuple(labels.index(lab) for lab in invlabels)
    a = PermutationAction(m=m, labels=tuple(labels), perms=np.asarray(rows, dtype=np.int64), inverse=inverse)
    validate_action(a, allow_identity=allow_identity)
    return a
