"""Spans around the calls into banachgap's layers, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules
wherever a banachgap module binds it (``_kernels.descend`` as spectral
calls it, ``gap_exact_2`` as groups imported it), plus the MultiGraph
methods that rebuild arrays.  Each call becomes a span: name, layer, start,
end, parent span, request id, whether it raised, and for a few functions a
small record of its work (iterations, pairs, grid points) taken from the
arguments and the return value.  Spans stay in memory until the run ends.
``uninstall`` puts the original functions back.

Layers are the modules of src/banachgap; ``_kernels`` reports as
``kernels``.  The benchmark's own spans (set-up, one per request) are layer
``bench``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("graphs", "spectral", "kernels", "groups", "realization", "mazur", "distortion", "acceptance", "cli")
_MODULES = {layer: "banachgap." + ("_kernels" if layer == "kernels" else layer) for layer in LAYERS}
_METHODS = ("nonloop_arrays", "laplacian", "adjacency", "edge_multiset")


def _descend_work(args, kwargs, out):
    # descend(F0, eu, ev, em, p, q, max_iter, tol) -> (F, R, iterations, step)
    return {"iters": int(out[2]), "max_iter": int(args[6]), "value": float(out[1])}


def _kappa_work(args, kwargs, out):
    # kappa_descend(xi0, perms, p, betas, iters_per_stage, tol) -> (xi, value, iterations)
    return {"iters": int(out[2]), "value": float(out[1])}


# Work records: function -> extractor(args, kwargs, result) -> small dict.
_WORK = {
    "kernels.descend": _descend_work,
    "kernels.kappa_descend": _kappa_work,
    "kernels.oracle_circle": lambda a, k, out: {"points": int(a[6])},
    "kernels.oracle_sphere": lambda a, k, out: {"points": int(a[7]) * int(a[8])},
    "graphs.all_pairs_distances": lambda a, k, out: {"pairs": int(a[0].n) ** 2},
    "mazur.estimate_modulus": lambda a, k, out: {"pairs": int(k.get("n_samples", a[2] if len(a) > 2 else 0))},
    "mazur.check_stabilized_modulus": lambda a, k, out: {"pairs": int(k.get("n_samples", a[3] if len(a) > 3 else 0))},
}


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent, request, failed, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, 0.0, 0.0, parent, self.request, False, None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
        work = _WORK.get(name)
        if work is not None:
            rec[7] = work(args, kwargs, out)
        return out

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        wrapper.__wrapped_original__ = fn
        return wrapper

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(mod) for layer, mod in _MODULES.items()}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for public in getattr(mod, "__all__", ()):
                fn = getattr(mod, public, None)
                if not callable(fn) or inspect.isclass(fn):
                    continue
                # _kernels binds its numpy/numba variants under public names.
                if layer != "kernels" and fn.__module__ != mod.__name__:
                    continue
                wrappers.setdefault(id(fn), self._wrap(f"{layer}.{public}", layer, fn))
        targets = list(modules.values()) + [importlib.import_module("banachgap")]
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                # Private aliases (_kernels' _descend_np calls _ratio_parts_np)
                # are the kernels' insides, not calls between layers.
                if w is not None and not attr.startswith("_"):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, w)
        graph_cls = modules["graphs"].MultiGraph
        for meth in _METHODS:
            fn = graph_cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                self._patches.append((graph_cls, meth, fn))
                setattr(graph_cls, meth, self._wrap(f"graphs.{meth}", "graphs", fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- reading --------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "request", "failed", "work")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover
        (children of one single-threaded parent never overlap)."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def nesting_errors(self) -> int:
        """Spans that do not lie inside their parent's interval."""
        bad = 0
        for s in self.spans:
            if s[4] >= 0:
                par = self.spans[s[4]]
                bad += not (par[2] <= s[2] <= s[3] <= par[3])
        return bad

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls and failures per layer, and the per-function
        figures BENCHMARK.json names (times in s, totals over the spans)."""
        selfs = self.self_times()
        m: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            name, layer = s[0], s[1]
            m[f"{layer}.self_s"] += selfs[i]
            if layer != "bench":
                m[f"{layer}.calls"] += 1
                m[f"{layer}.failed"] += s[6]
            by_name[name].append(i)
        for layer in LAYERS:
            for k in ("self_s", "calls", "failed"):
                m[f"{layer}.{k}"] += 0.0

        def total(name):
            return sum(self.spans[i][3] - self.spans[i][2] for i in by_name.get(name, ()))

        def work(name, key):
            return sum((self.spans[i][7] or {}).get(key, 0) for i in by_name.get(name, ()))

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        for fn in ("descend", "kappa_descend"):
            name = f"kernels.{fn}"
            s, iters = total(name), work(name, "iters")
            m[f"{name}.calls"] = len(by_name.get(name, ()))
            m[f"{name}.s"] = s
            m[f"{name}.iters"] = iters
            m[f"{name}.us_per_iter"] = per(s, iters, 1e6)
            m[f"{name}.useful_iter_share"] = per(self._winning_iters(by_name.get(name, ())), iters, 1.0)
        restarts = [self.spans[i][7] for i in by_name.get("kernels.descend", ()) if self.spans[i][7]]
        m["kernels.descend.max_iter_share"] = per(sum(r["iters"] == r["max_iter"] for r in restarts), len(restarts), 1.0)

        oracle_s = total("kernels.oracle_circle") + total("kernels.oracle_sphere")
        points = work("kernels.oracle_circle", "points") + work("kernels.oracle_sphere", "points")
        m["kernels.oracle.s"] = oracle_s
        m["kernels.oracle.ns_per_point"] = per(oracle_s, points, 1e9)

        m["spectral.gap_exact_2.s"] = total("spectral.gap_exact_2")
        m["spectral.gap_exact_2.calls"] = len(by_name.get("spectral.gap_exact_2", ()))
        m["graphs.laplacian.s"] = total("graphs.laplacian")
        m["graphs.nonloop_arrays.calls"] = len(by_name.get("graphs.nonloop_arrays", ()))
        for name in ("graphs.all_pairs_distances", "mazur.check_stabilized_modulus", "mazur.estimate_modulus"):
            m[f"{name}.s"] = total(name)
            m[f"{name}.ns_per_pair"] = per(total(name), work(name, "pairs"), 1e9)
        for name in ("groups.action_from_group", "groups.schreier_graph", "realization.two_factorize",
                     "realization.verify_realization", "distortion.map_distortion_exact_sq",
                     "distortion.max_displacement", "acceptance.run_suite"):
            m[f"{name}.s"] = total(name)
        return dict(m)

    def _winning_iters(self, idx) -> int:
        """Iterations of the winning restart of each call that ran restarts
        (the lowest value, first on ties, as gap_estimate and
        kappa_estimate pick it)."""
        groups: dict[int, list[dict]] = defaultdict(list)
        for i in idx:
            if self.spans[i][7]:
                groups[self.spans[i][4]].append(self.spans[i][7])
        won = 0
        for runs in groups.values():
            best = min(range(len(runs)), key=lambda j: (runs[j]["value"], j))
            won += runs[best]["iters"]
        return won
