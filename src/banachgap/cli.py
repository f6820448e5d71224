"""Command-line surface.

Subcommands: gen, gap, kappa, gross, distort, mazur, verify.  Artifacts are
JSON (floats serialized at 12 significant digits, so a fixed seed
reproduces byte-identical output) or CSV.  Exit codes: 0 success, 1 failed
verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import mazur as mazur_mod
from .acceptance import FAST_IDS, SUITE_IDS, format_table, run_suite
from .distortion import (
    frechet_embedding,
    gn_bound,
    hamming_identity_embedding,
    jv_bound,
    map_distortion,
    max_displacement,
    r_eps_lower,
)
from .graphs import (
    FAMILY_FORMS,
    MetricTable,
    MultiGraph,
    all_pairs_distances,
    gen_family,
    graph_to_json,
    read_edge_list,
    write_edge_list,
)
from .groups import GROUP_FORMS, KAPPA_RESTARTS, action_from_group, verify_sandwich, write_action_file
from .realization import schreier_realize, spec_to_action, verify_realization
from .spectral import gap as spectral_gap
from .spectral import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL, gap_oracle_small

__all__ = ["main"]


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def dump_csv(rows: list[dict], path: str) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in cols) + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return "" if v is None else str(v)


def _load_graph(args) -> MultiGraph:
    if args.file:
        return read_edge_list(args.file)
    kind, params = _parse_spec(args.gen, FAMILY_FORMS)
    return gen_family(kind, params, seed=args.seed)


def _load_action(spec: str):
    kind, params = _parse_spec(spec, GROUP_FORMS)
    return action_from_group(kind, *params)


def _parse_spec(spec: str, forms: dict[str, str]) -> tuple[str, list[int]]:
    """Split ``KIND:P1,P2,...`` into the kind and its integer parameters.
    A parameter that is not an integer is refused with the kind's form."""
    kind, _, rest = spec.partition(":")
    if kind not in forms:
        return kind, []  # its builder refuses the unknown kind
    try:
        return kind, [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"{kind} takes {forms[kind]}, got {rest!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """``--family``'s ``LO:HI`` as two integers with LO <= HI."""
    try:
        lo, hi = map(int, text.split(":"))
        if lo <= hi:
            return lo, hi
    except ValueError:  # not two integers
        pass
    raise ValueError(f"--family takes LO:HI with LO <= HI, got {text!r}")


def _out_path(args, name: str) -> str | None:
    if not args.out:
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit(args, payload: dict, name: str) -> None:
    text = dump_json(payload, _out_path(args, name))
    sys.stdout.write(text)


# ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    G = _load_graph(args)
    if args.out:
        write_edge_list(G, _out_path(args, "graph.edges"))
    sys.stdout.write(graph_to_json(G) + "\n")
    return 0


def cmd_gap(args) -> int:
    if args.dump_minimizer and not args.out:
        raise ValueError("--dump-minimizer writes minimizer.csv under --out; got no --out")
    G = _load_graph(args)
    if args.method == "oracle":
        if (args.q, args.d) != (2.0, 1) or G.n > 4:
            raise ValueError(
                f"--method oracle needs --q 2 --d 1 and at most 4 vertices, got --q {args.q:g} --d {args.d} on {G.n} vertices"
            )
        est = gap_oracle_small(G, p=args.p, resolution=args.resolution)
    else:
        est = spectral_gap(
            G, p=args.p, q=args.q, d=args.d, restarts=args.restarts, max_iter=args.max_iter,
            tol=args.tol, seed=args.seed,
        )
    _emit(args, est.to_dict(), "gap.json")
    if args.dump_minimizer:
        dump_csv(
            [{f"c{j}": float(x) for j, x in enumerate(row)} for row in est.minimizer.values],
            _out_path(args, "minimizer.csv"),
        )
    return 0


def cmd_kappa(args) -> int:
    action = _load_action(args.group)
    rep = verify_sandwich(
        action, p=args.p, d=args.d, nu=args.nu, seed=args.seed, restarts=args.restarts
    )
    payload = {
        "group": args.group,
        "kappa": rep.kappa.to_dict(),
        "gap": rep.gap.to_dict(),
        "generators": rep.generators,
        "sandwich": {
            "lower_ok": rep.lower_ok,
            "upper_ok": rep.upper_ok,
            "orbit_lower_ok": rep.orbit_lower_ok,
            "slacks": rep.slacks,
            "tolerance": rep.tolerance,
        },
    }
    _emit(args, payload, "kappa.json")
    return 0 if rep.ok else 1


def cmd_gross(args) -> int:
    G = _load_graph(args)
    spec = schreier_realize(G, seed=args.seed)
    ok, diff = verify_realization(spec)
    payload = {
        "input_n": G.n,
        "regularized_degree": spec.base.max_degree,
        "factors": len(spec.perms),
        "verified": ok,
        "diff": {f"{k}": v for k, v in diff.items()},
        "provenance": list(spec.provenance),
    }
    if args.out:
        write_action_file(spec_to_action(spec), _out_path(args, "action.txt"))
        write_edge_list(spec.base, _out_path(args, "regularized.edges"))
        dump_json({"provenance": list(spec.provenance), "seed": args.seed}, _out_path(args, "provenance.json"))
    _emit(args, payload, "gross.json")
    if args.verify and not ok:
        return 1
    return 0


def _distortion_row(
    G: MultiGraph, met: MetricTable, graph_id: str, kind: str, p: float, q: float, eps: float, seed: int, restarts: int
) -> dict:
    gap = spectral_gap(G, p=p, q=p, seed=seed, restarts=restarts)
    reps = r_eps_lower(G, met, eps)
    if kind == "hamming":
        F = hamming_identity_embedding(int(round(np.log2(G.n))))
        upper_desc = "identity cube embedding"
    else:
        F = frechet_embedding(G, met)
        upper_desc = "distance-row embedding"
    disp = max_displacement(G, met)
    upper = map_distortion(G, F, q=q, metric=met).value
    gn = gn_bound(G, gap, p=p, eps=eps, r_eps=reps.value, metric=met)
    jv = jv_bound(G, gap, p=p, D=disp)
    return {
        "graph": graph_id,
        "p": p,
        "q": q,
        "gn_lower": gn.value,
        "gn_eps": eps,
        "jv_lower": jv.value,
        "displacement": disp.value,
        "upper": upper,
        "upper_description": upper_desc,
        "certified": gn.certified and jv.certified,
    }


def cmd_distort(args) -> int:
    if args.family:
        if args.file:
            raise ValueError("--family sweeps the first --gen parameter; got --file")
        kind, params = _parse_spec(args.gen, FAMILY_FORMS)
        lo, hi = _parse_range(args.family)
        rows = []
        for n in range(lo, hi + 1):
            G = gen_family(kind, [n, *params[1:]], seed=args.seed)
            met = all_pairs_distances(G)
            row = _distortion_row(G, met, f"{kind}:{n}", kind, args.p, args.q, args.eps, args.seed, args.restarts)
            target = n ** (1.0 - 1.0 / min(args.p, 2.0)) if kind == "hamming" else None  # no closed form off the cube
            rows.append(
                {
                    "n": n,
                    "diam": met.diameter,
                    **{k: row[k] for k in ("gn_lower", "jv_lower", "displacement", "upper")},
                    "target_order": target,
                }
            )
        if args.out:
            dump_csv(rows, _out_path(args, "family.csv"))
        sys.stdout.write(dump_json(rows))
        return 0
    G = _load_graph(args)
    kind = args.gen.partition(":")[0] if args.gen else ""
    row = _distortion_row(G, all_pairs_distances(G), args.gen or args.file, kind, args.p, args.q, args.eps, args.seed, args.restarts)
    _emit(args, row, "distortion.json")
    return 0


def cmd_mazur(args) -> int:
    phi = mazur_mod.mazur_sphere_map(args.p, args.q)
    est = mazur_mod.estimate_modulus(
        phi, args.sampler, args.pairs, seed=args.seed, d=args.dim, bound=phi.modulus
    )
    payload = {"map": phi.name, **est.summary()}
    if phi.modulus:
        payload["bound"] = {"C": phi.modulus[0], "alpha": phi.modulus[1]}
    if args.blocks:
        chk = mazur_mod.check_stabilized_modulus(phi, k=args.blocks, p=args.block_p, n_samples=args.pairs, seed=args.seed)
        payload["stabilized"] = {
            "blocks": args.blocks,
            "block_p": args.block_p,
            "violations": chk.violations,
            "bound_C": chk.bound_C,
            "alpha": chk.alpha,
            "max_ratio": chk.max_ratio,
        }
    if args.out:
        dump_csv(
            [{"eps": float(e), "delta": float(dl)} for e, dl in zip(est.eps, est.delta)],
            _out_path(args, "modulus.csv"),
        )
    _emit(args, payload, "mazur.json")
    bad = (est.violations or 0) + (payload.get("stabilized", {}).get("violations", 0) if args.blocks else 0)
    return 1 if bad else 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        ids = SUITE_IDS
    elif args.suite == "fast":
        ids = FAST_IDS
    else:
        ids = [tok.strip() for tok in args.suite.split(",")]
        unknown = [i for i in ids if i not in SUITE_IDS]
        if unknown:
            raise SystemExit(f"unknown criterion ids: {unknown}")
    results = run_suite(ids, seed=args.seed)
    sys.stdout.write(format_table(results) + "\n")
    if args.out:
        dump_json(
            [
                {"id": r.cid, "title": r.title, "passed": r.passed, "elapsed": r.elapsed, "details": r.details}
                for r in results
            ],
            _out_path(args, "verify.json"),
        )
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gen", help="generator spec KIND:P1,P2 (cycle, complete, hamming, random_regular, margulis, path)")
    source.add_argument("--file", help="edge-list file (header 'n m', lines 'u v mult')")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="banachgap", description=__doc__)
    ap.add_argument("--version", action="version", version="banachgap 0.1.0")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write/echo it")
    _add_graph_source(g)
    _add_common(g)
    g.set_defaults(fn=cmd_gen)

    g = sub.add_parser("gap", help="spectral gap (exact at p=q=2, d=1; descent otherwise)")
    _add_graph_source(g)
    _add_common(g)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--q", type=float, default=2.0)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--method", choices=("auto", "oracle"), default="auto")
    g.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    g.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    g.add_argument("--tol", type=float, default=DEFAULT_TOL)
    g.add_argument("--resolution", type=float, default=1e-3, help="grid oracle resolution")
    g.add_argument("--dump-minimizer", action="store_true")
    g.set_defaults(fn=cmd_gap)

    g = sub.add_parser("kappa", help="displacement constant and the two-sided gap sandwich")
    _add_common(g)
    g.add_argument("--group", required=True, help="cyclic:N | boolean_cube:N | symmetric:N | sl_mod:N,K")
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--nu", type=int, help="generator-orbit symmetry factor for the sharpened lower bound")
    g.add_argument("--restarts", type=int, default=KAPPA_RESTARTS)
    g.set_defaults(fn=cmd_kappa)

    g = sub.add_parser("gross", help="even regularization + 2-factorization realization")
    _add_graph_source(g)
    _add_common(g)
    g.add_argument("--verify", action="store_true", help="exit 1 if the realization check fails")
    g.set_defaults(fn=cmd_gross)

    g = sub.add_parser("distort", help="distortion bounds (concentration, displacement, embedding upper)")
    _add_graph_source(g)
    _add_common(g)
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--q", type=float, default=2.0)
    g.add_argument("--eps", type=float, default=0.5)
    g.add_argument("--restarts", type=int, default=16)
    g.add_argument("--family", help="LO:HI sweep of the first --gen parameter: JSON rows, family.csv under --out")
    g.set_defaults(fn=cmd_distort)

    g = sub.add_parser("mazur", help="sphere-map modulus estimation and checks")
    _add_common(g)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--q", type=float, default=2.0)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--pairs", type=int, default=100000)
    g.add_argument("--sampler", choices=tuple(mazur_mod.SAMPLERS), default="near_pairs")
    g.add_argument("--blocks", type=int, default=0, help="also check the k-block stabilized modulus")
    g.add_argument("--block-p", type=float, default=2.0)
    g.set_defaults(fn=cmd_mazur)

    g = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(g)
    g.add_argument("--suite", default="all", help="all | fast | comma-separated ids")
    g.set_defaults(fn=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
