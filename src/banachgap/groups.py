"""Permutation actions, Schreier graphs, and displacement constants.

A PermutationAction is a transitive symmetric generating multiset of
permutations of a coset index set 0..m-1, with explicit inverse pairing
between generator slots.  A generator may be marked self-inverse (one slot),
or a pair of slots may carry the same permutation (formal inverse of an
involution, as produced by the free generating sets of 2-factorizations).
It is checked once, when built, and keeps ``perms`` read-only.  Only
``action_from_group`` and ``read_action_file`` refuse identity generators.

The Schreier graph convention: an inverse pair {s, s^-1} of distinct slots
contributes one undirected edge {v, s(v)} per vertex; a self-inverse slot
contributes one undirected edge per 2-cycle orbit and a loop per fixed
point.  With fixed-point-free generators this makes the graph exactly
|S|-regular in the degree count.

The displacement constant for exponent p and block dimension d is

    kappa = inf max_s ||xi o s - xi||_p / ||xi||_p

over zero-sum maps xi: cosets -> R^d, with the flat l_p norm over all
m*d entries.  It is estimated by annealed smoothed-max descent, the upper
end of a ``spectral.Bound`` whose lower end (2*gap/|S|)^(1/p) takes the
lower end of the Schreier graph's gap and its proof: proven at p = 2, and
at p = 1 on at most ``spectral.CUT_MAX_N`` cosets (cut enumeration).  A
proven gap also ends the descent once it reaches the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from itertools import permutations as _iter_perms

import numpy as np

from . import _kernels
from .graphs import MultiGraph, build_graph, file_rows, require_at_least_one, row_ints
from .spectral import CERTIFIED_REL, Bound, Estimate, GapEstimate
from .spectral import gap as spectral_gap

__all__ = [
    "PermutationAction",
    "KappaEstimate",
    "SandwichReport",
    "action_from_group",
    "GROUP_FORMS",
    "schreier_graph",
    "kappa_estimate",
    "pak_zuk_nu",
    "verify_sandwich",
    "write_action_file",
    "read_action_file",
]

KAPPA_BETAS = (1e1, 1e2, 1e3, 1e4)
KAPPA_RESTARTS = 16  # default starts of kappa_estimate, verify_sandwich and the CLI's kappa
_KAPPA_TOL = 1e-12  # the kappa descent's stopping tolerance
COSET_CAP = 20000
SANDWICH_TOLERANCE = 1e-2  # relative slack of verify_sandwich's inequalities


@dataclass(frozen=True, eq=False)
class PermutationAction:
    m: int
    labels: tuple[str, ...]
    perms: np.ndarray  # (g, m) int64
    inverse: tuple[int, ...]  # slot index of each generator's inverse
    elements: tuple | None = None  # concrete group elements when cosets are the group itself

    def __post_init__(self):
        perms = np.asarray(self.perms)
        if perms.shape != (self.size, self.m):
            raise ValueError("perms shape mismatch")
        perms = perms.astype(np.int64, order="C", casting="same_kind")
        ident = np.arange(self.m)
        for i in range(self.size):
            if not np.array_equal(np.sort(perms[i]), ident):
                raise ValueError(f"generator {self.labels[i]} is not a permutation")
            j = self.inverse[i]
            if self.inverse[j] != i:
                raise ValueError("inverse pairing is not an involution on slots")
            if not np.array_equal(perms[j][perms[i]], ident):
                raise ValueError(f"slot {self.labels[j]} is not inverse to {self.labels[i]}")
        if len(_search_tree(perms)[0]) != self.m:
            raise ValueError("action is not transitive (Schreier graph would be disconnected)")
        perms.flags.writeable = False
        object.__setattr__(self, "perms", perms)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def right_translations(self) -> np.ndarray | None:
        """The read-only (m, m) table whose row g maps x to x*g, built on
        first read and kept on the object; None unless the cosets are the
        group itself."""
        if self.elements is None:
            return None
        table = _right_translations(self.perms)
        table.flags.writeable = False
        return table

    @cached_property
    def _schreier_graph(self) -> MultiGraph:
        v = np.arange(self.m)
        edges: list[tuple[int, int, int]] = []
        for i, j in enumerate(self.inverse):
            w = self.perms[i]
            if j == i:  # an involution: each 2-cycle once, each fixed point a loop
                edges += zip(v[v <= w].tolist(), w[v <= w].tolist(), repeat(1))
            elif j > i:  # the pair's first slot draws all its edges
                edges += zip(np.minimum(v, w).tolist(), np.maximum(v, w).tolist(), repeat(1))
        return build_graph(self.m, edges)


def _refuse_identity(a: PermutationAction) -> PermutationAction:
    """``a``, unless one of its generators acts as the identity."""
    fixed = np.flatnonzero((a.perms == np.arange(a.m)).all(axis=1))
    if fixed.size:
        raise ValueError(f"generator {a.labels[fixed[0]]} acts as the identity")
    return a


def _search_tree(perms: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from point 0 along the rows of ``perms``.

    Returns the points in visiting order and, per point x, its parent y and
    the slot s with perms[s][y] = x (both -1 at point 0 and at points the
    search does not reach).
    """
    rows = perms.tolist()
    parent = [-1] * perms.shape[1]
    slot = list(parent)
    seen = [False] * len(parent)
    seen[0] = True
    order = [0]
    for y in order:  # the list grows while it is walked: a FIFO queue
        for s, row in enumerate(rows):
            x = row[y]
            if not seen[x]:
                seen[x] = True
                parent[x], slot[x] = y, s
                order.append(x)
    return order, parent, slot


# ----------------------------------------------------------------------
# Construction from standard groups
# ----------------------------------------------------------------------
#
# Each builder returns (seed, gens, mult, inverse_of): an iterable whose
# first element is the identity, the (label, element) generators, the
# product, and each label's inverse label.  The seed is lazy, so a group
# beyond COSET_CAP is refused before its elements are listed.


def _cyclic_tables(n: int):
    if n < 2:
        raise ValueError("cyclic needs n >= 2")
    gens = [("r", 1)]
    if n > 2:
        gens.append(("r~", n - 1))
    mult = lambda x, y: (x + y) % n
    inverse_of = {"r": "r~" if n > 2 else "r", "r~": "r"}
    return range(n), gens, mult, inverse_of


def _cube_tables(n: int):
    if n < 1:
        raise ValueError("boolean_cube needs n >= 1")
    gens = [(f"x{i}", 1 << i) for i in range(n)]
    mult = lambda x, y: x ^ y
    inverse_of = {f"x{i}": f"x{i}" for i in range(n)}
    return range(1 << n), gens, mult, inverse_of


def _symmetric_tables(n: int):
    if n < 2:
        raise ValueError("symmetric needs n >= 2")
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append((f"t{i}", tuple(t)))

    def mult(x, y):  # (x*y)(i) = x[y[i]]
        return tuple(x[y[i]] for i in range(n))

    inverse_of = {f"t{i}": f"t{i}" for i in range(n - 1)}
    return _iter_perms(range(n)), gens, mult, inverse_of


def _sl_tables(n: int, k: int):
    if n < 2 or k < 2:
        raise ValueError("sl_mod needs n >= 2, k >= 2")

    row_ops = {}  # generator I + s E_ij -> (i, j, s)

    def mat_mult(x, y):
        op = row_ops.get(x)
        if op is not None:  # (I + s E_ij) y adds s times row j of y to row i
            i, j, sgn = op
            rows = list(y)
            rows[i] = tuple((a + sgn * b) % k for a, b in zip(y[i], y[j]))
            return tuple(rows)
        return tuple(
            tuple(sum(x[i][t] * y[t][j] for t in range(n)) % k for j in range(n)) for i in range(n)
        )

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # I + E_ij and I - E_ij; at k = 2, +1 = -1 and a single self-inverse slot remains
    signs = [(1, "+", "-"), (k - 1, "-", "+")] if k > 2 else [(1, "+", "+")]
    gens, inverse_of = [], {}
    for i, j in _iter_perms(range(n), 2):
        for sgn, tag, inv in signs:
            M = [list(row) for row in ident]
            M[i][j] = sgn
            M = tuple(map(tuple, M))
            row_ops[M] = (i, j, sgn)
            gens.append((f"e{i}{j}{tag}", M))
            inverse_of[f"e{i}{j}{tag}"] = f"e{i}{j}{inv}"
    return (ident,), gens, mat_mult, inverse_of  # the closure enumerates the rest


# kind -> (parameter form, builder)
_GROUPS = {
    "cyclic": ("cyclic:N", _cyclic_tables),
    "boolean_cube": ("boolean_cube:N", _cube_tables),
    "symmetric": ("symmetric:N", _symmetric_tables),
    "sl_mod": ("sl_mod:N,K", _sl_tables),
}
GROUP_FORMS = {kind: form for kind, (form, _) in _GROUPS.items()}


def _close(seed, gens, mult):
    """Close ``seed`` under left multiplication by ``gens``, breadth first.

    Seed elements keep their order and new elements follow in the order a
    FIFO queue meets them.  Returns the elements, their index, and the
    (len(gens), m) int64 table whose row s maps x to g_s * x.  More than
    COSET_CAP elements raise RuntimeError; at most COSET_CAP + 1 seed
    elements are drawn before that.
    """
    elements = list(islice(seed, COSET_CAP + 1))
    index = {x: i for i, x in enumerate(elements)}
    rows: list[list[int]] = [[] for _ in gens]
    for x in elements:  # the list grows while it is walked: a FIFO queue
        if len(elements) > COSET_CAP:
            raise RuntimeError(f"group order exceeds cap {COSET_CAP}")
        for row, g in zip(rows, gens):
            y = mult(g, x)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            row.append(index[y])
    return elements, index, np.array(rows, dtype=np.int64).reshape(len(gens), len(elements))


def _right_translations(perms: np.ndarray) -> np.ndarray:
    """The (m, m) table whose row g maps x to x*g, from the left action
    ``perms`` of a generating set on the group itself.  Element 0 must be
    the identity.

    Row x of L = right_translations.T maps g to x*g, so L[0] is the identity
    map and x = s*y gives L[x] = perms[s][L[y]]: one gather per element down
    the search tree.
    """
    m = perms.shape[1]
    order, parent, slot = _search_tree(perms)
    L = np.empty((m, m), dtype=np.int64)
    L[0] = np.arange(m)
    for x in order[1:]:
        L[x] = perms[slot[x]][L[parent[x]]]
    return np.ascontiguousarray(L.T)


def _left_cosets(elements, index, H, mult):
    """Number the left cosets xH by first appearance in ``elements``.

    Returns each element's coset number and each coset's first element.
    """
    coset_of = np.full(len(elements), -1, dtype=np.int64)
    reps: list[int] = []
    for xi, x in enumerate(elements):
        if coset_of[xi] < 0:
            coset_of[[index[mult(x, h)] for h in H]] = len(reps)
            reps.append(xi)
    return coset_of, reps


def action_from_group(kind: str, *params: int, subgroup="trivial") -> PermutationAction:
    """Standard actions: cyclic(n), boolean_cube(n), symmetric(n), sl_mod(n, k).

    ``subgroup`` is "trivial" (cosets are the group elements) or an iterable
    of element indices whose generated subgroup H defines the left coset
    space.  Element 0 is the identity.  The elements of cyclic and
    boolean_cube are the integers 0..m-1 in order (a cube vertex is its
    bitmask), those of symmetric are itertools.permutations order, and those
    of sl_mod follow the breadth-first closure from the identity.
    """
    if kind not in _GROUPS:
        raise ValueError(f"unknown group kind {kind!r}")
    form, tables = _GROUPS[kind]
    if len(params) != form.count(",") + 1:
        raise ValueError(f"{kind} takes {form}, got {len(params)} parameter(s)")
    seed, gens, mult, inverse_of = tables(*params)
    labels = tuple(lab for lab, _ in gens)
    inverse = tuple(labels.index(inverse_of[lab]) for lab in labels)
    elements, index, perms = _close(seed, [g for _, g in gens], mult)

    if subgroup == "trivial":
        action = PermutationAction(len(elements), labels, perms, inverse, tuple(elements))
    else:
        H, _, _ = _close(elements[:1], [elements[i] for i in subgroup], mult)
        coset_of, reps = _left_cosets(elements, index, H, mult)
        action = PermutationAction(len(reps), labels, coset_of[perms.take(reps, axis=1)], inverse)
    return _refuse_identity(action)


# ----------------------------------------------------------------------
# Schreier graph
# ----------------------------------------------------------------------


def schreier_graph(a: PermutationAction) -> MultiGraph:
    """The action's Schreier graph, built on the first call and kept on it."""
    return a._schreier_graph


# ----------------------------------------------------------------------
# Displacement constant
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KappaEstimate(Estimate):
    bound: Bound
    minimizer: np.ndarray  # (m, d) zero-sum, unit flat l_p
    p: float
    d: int
    diagnostics: dict = field(default_factory=dict)


def _schreier_gap(a: PermutationAction, p: float, seed: int, restarts: int) -> GapEstimate:
    return spectral_gap(schreier_graph(a), p=p, q=p, seed=seed, restarts=restarts)


def kappa_estimate(
    a: PermutationAction,
    p: float,
    d: int = 1,
    restarts: int = KAPPA_RESTARTS,
    max_iter: int = 4000,
    seed: int = 0,
    warm_starts: list[np.ndarray] | None = None,
    gap: GapEstimate | None = None,
) -> KappaEstimate:
    """Minimize the worst generator displacement over zero-sum unit fields.

    Annealed smoothed-max descent (log-sum-exp with beta raised over
    stages); the reported value is the bound's upper end.  Its lower end is
    (2*lower/|S|)^(1/p) for the Schreier gap's lower end, from gap <=
    (|S|/2) kappa^p, with that end's proof (None where the gap is a descent
    estimate from above).

    When the gap's lower end is proven, the block stops as soon as one
    start's true max residual is at most (2*gap/|S|)^(1/p) * (1 + 1e-9) for
    the gap's value (stop reason ``certified``): a stopping rule, not a
    claim.  A value more than 1e-9 relative below a proven lower end raises
    ``AssertionError``.
    """
    require_at_least_one(("p", p), ("d", d))
    rng = np.random.Generator(np.random.PCG64(seed))
    if gap is None:
        gap = _schreier_gap(a, p, seed + 1, restarts)
    proof = gap.bound.lower_proof
    target = (2.0 * gap.value / a.size) ** (1.0 / p) * (1.0 + CERTIFIED_REL) if proof else -np.inf

    fixed = []
    if gap.minimizer.values.shape[0] == a.m:
        F = np.zeros((a.m, d))
        F[:, 0] = gap.minimizer.values[:, 0]
        fixed.append(F)
    starts = _kernels.stack_starts(fixed, warm_starts, (a.m, d), restarts, rng)

    betas = np.asarray(KAPPA_BETAS, dtype=np.float64)
    iters_per_stage = max(1, max_iter // len(KAPPA_BETAS))
    xis, values, iters, stops, backtracks, passes = _kernels.kappa_descend_block(
        starts, a.perms, float(p), betas, iters_per_stage, _KAPPA_TOL, target
    )
    b = int(np.argmin(values))
    best_xi = xis[b]
    col_sums = np.abs(best_xi.sum(axis=0)).max()
    if col_sums > 1e-12:
        raise AssertionError(f"minimizer violates zero-sum: max |column sum| = {col_sums}")
    return KappaEstimate(
        bound=Bound((2.0 * gap.bound.lower / a.size) ** (1.0 / p), float(values[b]), proof, "admissible_map"),
        minimizer=best_xi,
        p=float(p),
        d=d,
        diagnostics={
            "restarts": len(iters),
            "iterations": int(iters.sum()),
            "per_restart": _kernels.per_restart(iters, stops, backtracks),
            "passes": passes,
            "tol": _KAPPA_TOL,
            "seed": seed,
            "gap_method": gap.method,
            "gap_value": gap.value,
        },
    )


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
    gap: GapEstimate | None = None,
    **kappa_opts,
) -> SandwichReport:
    """Check kappa^p <= gap <= (|S|/2) kappa^p, and the sharpened lower
    bound (|S|/2 nu) kappa^p <= gap when a symmetry factor nu is supplied.
    Violations beyond the relative tolerance ``SANDWICH_TOLERANCE`` are
    flagged, not raised."""
    if nu is not None and nu < 1:
        raise ValueError(f"nu = |S|/|orbit| is at least 1, got {nu}")
    if gap is None:
        gap = _schreier_gap(a, p, seed + 1, kappa_opts.get("restarts", KAPPA_RESTARTS))
    kappa = kappa_estimate(a, p=p, d=d, seed=seed, gap=gap, **kappa_opts)
    g = a.size
    kp = kappa.value**p
    lam = gap.value
    tiny = 1e-9
    lower_ok = kp <= lam * (1 + SANDWICH_TOLERANCE) + tiny
    upper_ok = lam <= (g / 2.0) * kp * (1 + SANDWICH_TOLERANCE) + tiny
    orbit_ok = None
    if nu is not None:
        orbit_ok = (g / (2.0 * nu)) * kp <= lam * (1 + SANDWICH_TOLERANCE) + tiny
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
        tolerance=SANDWICH_TOLERANCE,
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


def read_action_file(path: str) -> PermutationAction:
    rows = file_rows(path)
    if not rows:
        raise ValueError(f"empty action file: {path}")
    m, g = row_ints(path, *rows[0], "m g")
    if len(rows) - 1 != g:
        raise ValueError(f"{path}: header declares {g} generators but file has {len(rows) - 1}")
    labels, invlabels, perms = [], [], []
    for k, toks in rows[1:]:
        if len(toks) != m + 2:
            raise ValueError(
                f"{path}, line {k}: expected 'label inverse-label' and {m} images, got {len(toks)} values"
            )
        try:
            perms.append([int(t) for t in toks[2:]])
        except ValueError:
            raise ValueError(f"{path}, line {k}: expected {m} integer images, got {' '.join(toks[2:])!r}") from None
        labels.append(toks[0])
        invlabels.append(toks[1])
    for lab in invlabels:
        if lab not in labels:
            raise ValueError(f"unknown inverse label {lab!r}")
    inverse = tuple(labels.index(lab) for lab in invlabels)
    return _refuse_identity(PermutationAction(m=m, labels=tuple(labels), perms=perms, inverse=inverse))
