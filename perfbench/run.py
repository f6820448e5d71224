"""banachgap benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload small|large|sweep --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.

Every time metric is scaled to a reference machine speed (speed.py): the
run samples a fixed reference job between requests, and a request's time
is multiplied by REF_S over the reference job's median time near it.  A
shared host's slow spells, which outlast a pass, then cancel out.

setup_s is the median, over SETUP_PROBES child processes, of the time from
a process's start to its first request being ready: import, building the
workload's graphs and actions, and one warm-up call per kernel.  Each child
is fresh, so each pays every one-off cost.  The children run one at a
time, spread before, between and after the passes below; each is scaled by
the reference job's speed sampled just before and after it.

The run then warms up once and runs the workload's request list in passes,
one request after the other.  Every pass gets freshly built inputs from the
same seed, so a cache keyed on a graph or an action hits only where the
requests of one pass share an input (as in sweep), never because an earlier
pass ran the same request.  The number of passes is --seconds over the
workload's nominal pass time (at least two), so it is the same on every
commit and every machine state.  A request's time is the median of its
scaled times over the passes; time metrics sum these over the workload
(wall_s) or over one kind of request.  Each request's output is checked
after its clock stops.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the passes
untraced, then builds the inputs and runs one pass with spans recorded, and
prints the per-layer metrics: self time, calls and failures of every layer,
the per-function figures, the ratio_parts microbenchmark, and
trace.overhead_share (traced over untraced scaled pass time, minus one).
The other per-layer times are not scaled.  bench.self_s is the benchmark's
own time in the traced pass: its set-up and request spans minus the layers'
time inside them, plus the checks, speed samples and loop work between
requests, timed on their own.

Stdout carries an environment line, a failures line, and last a JSON
object {"correct", "attempted", "failed", "metrics"}.  The full result
(and, traced, the spans as JSONL) is written under perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_BURST = 20  # reference-job samples before and after each set-up probe
# Seconds one pass of each workload took on a 2-vCPU Xeon VM when the
# benchmark was added (checks included, rounded up, in the machine's slower
# spells); they fix the pass count and nothing else.
NOMINAL_PASS_S = {"small": 17.0, "large": 20.0, "sweep": 11.0}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# estimate_modulus materialises six d-vectors (x, y, x-y and their images)
# and two scalars per pair; d = 16 in every modulus request.
MODULUS_BYTES_PER_PAIR = (6 * 16 + 2) * 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "gap_s": "s",
    "kappa_s": "s",
    "realize_s": "s",
    "distort_s": "s",
    "sphere_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "gap_est_over_ref_max": "ratio",
    "gap_ratio_gmean": "ratio",
    "kappa_over_lower_max": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("self_s", ".s")):
        return "s"
    if name.endswith(("calls", "failed", "iters")):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    if ".us." in name or name.endswith("us_per_iter"):
        return "us"
    if "ns_per_" in name:
        return "ns"
    if "bytes" in name:
        return "bytes"
    raise ValueError(f"no unit for {name}")


def cap_threads() -> dict:
    """Run BLAS/OpenMP single-threaded (set before numpy loads).

    On a 2-vCPU VM whose host is shared, two OpenBLAS threads made a dense
    eigh at n = 2000 take 8 to 21 s whenever the other vCPU was busy,
    against 1.7 s on one thread; one thread keeps runs comparable.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def _command(argv) -> str | None:
    try:
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(threads: dict, workload, requests_per_kind: dict) -> dict:
    import numpy as np
    import banachgap

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = _command(["getconf", "LEVEL3_CACHE_SIZE"])
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not stable
        blas = None
    mode = getattr(banachgap, "active_mode", None)
    return {
        "git_commit": _command(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_mode": mode() if callable(mode) else "n/a",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_model": cpu,
        "blas": blas,
        "threads": threads,
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "bandwidth_claim": "none: 4x the L3 does not fit in memory; byte counts are computed, not measured",
        "workload": workload.name,
        "seed": workload.seed,
        "requests": len(workload.requests),
        "requests_per_kind": requests_per_kind,
        "instances_sha256": workload.instance_hash(),
        "load": "closed loop, 1 client thread, 1 process",
    }


class PassStats:
    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # each request's start and end
        self.wall_s = 0.0  # sum of request times
        self.loop_s = 0.0  # the whole pass, checks included
        self.own_s = 0.0  # the pass minus its requests: checks, speed samples, loop work
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.failures: list[tuple[str, str]] = []
        self.over_ref: list[float] = []
        self.ratios: list[float] = []
        self.over_lower: list[float] = []


def run_pass(requests, refs, speed, tracer=None) -> PassStats:
    st = PassStats()
    t_pass = last_burst = time.perf_counter()
    for i, req in enumerate(requests):
        t_iter = time.perf_counter()
        speed.burst(t_iter - last_burst)
        last_burst = time.perf_counter()
        st.attempted += 1
        out, error = None, None
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = req.run() if tracer is None else tracer.span("bench.request", "bench", req.run)
        except Exception as exc:  # a failed request is counted and the loop goes on
            error = type(exc).__name__
        t1 = time.perf_counter()
        dt = t1 - t0
        st.spans.append((t0, t1))
        if tracer is not None:
            tracer.request = None
        st.wall_s += dt
        if error is not None:
            st.raised += 1
            st.failures.append((req.name, f"raised {error}"))
        else:
            record_check(st, req, out, refs)
        del out
        st.own_s += time.perf_counter() - t_iter - dt
    t_end = time.perf_counter()
    speed.burst(t_end - last_burst)
    st.own_s += time.perf_counter() - t_end
    st.loop_s = time.perf_counter() - t_pass
    return st


def record_check(st: PassStats, req, out, refs) -> None:
    from workloads import Verdict

    try:
        v = req.check(out, refs)
    except Exception as exc:  # malformed output: a failed check
        v = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
    if not v.ok:
        st.wrong += 1
        st.failures.append((req.name, v.detail))
    if v.over_ref is not None:
        st.over_ref.append(v.over_ref)
    if v.ratio is not None:
        st.ratios.append(v.ratio)
    if v.over_lower is not None:
        st.over_lower.append(v.over_lower)


def probe_setup(args, count: int, speed) -> list[float]:
    """Scaled start-to-ready times of ``count`` fresh processes, run one at
    a time, with the reference job sampled before and after each."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(count):
        speed.burst(count=PROBE_BURST)
        t0 = time.perf_counter()
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        speed.burst(count=PROBE_BURST)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr[-500:]}")
        times.append(json.loads(res.stdout)["setup_s"] * speed.factor(t0, t1))
    return times


def scaled_request_s(passes: list[PassStats], speed) -> list[float]:
    """Each request's median scaled time over the passes."""
    per_pass = [[(b - a) * speed.factor(a, b) for a, b in p.spans] for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(requests, passes: list[PassStats], request_s: list[float], setup_s: float) -> dict:
    import math

    from workloads import KINDS

    med = lambda xs: statistics.median(xs) if xs else 0.0
    m = {"setup_s": setup_s, "wall_s": sum(request_s)}
    for kind in KINDS:
        m[f"{kind}_s"] = sum(t for t, r in zip(request_s, requests) if r.kind == kind)
    m["ok_share"] = med([1.0 - (p.raised + p.wrong) / p.attempted for p in passes])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["gap_est_over_ref_max"] = med([max(p.over_ref) for p in passes if p.over_ref])
    m["gap_ratio_gmean"] = med([math.exp(statistics.fmean(map(math.log, p.ratios))) for p in passes if p.ratios])
    m["kappa_over_lower_max"] = med([max(p.over_lower) for p in passes if p.over_lower])
    return m


def ratio_parts_micro(seed: int, tiny: bool) -> dict:
    """Median microseconds per _kernels.ratio_parts call on random 3-regular
    graphs, and the computed bytes its inputs occupy at n = 2000."""
    import numpy as np
    from banachgap import _kernels, graphs

    rng = np.random.Generator(np.random.PCG64(seed))
    out = {}
    for n in (12, 60, 2000):
        G = graphs.gen_family("random_regular", [n, 3], seed=seed)
        eu, ev, em = G.nonloop_arrays()
        for d in (1, 2):
            F = rng.standard_normal((n, d))
            F -= F.mean(axis=0)
            calls, samples = (20 if tiny else 200), []
            for _ in range(3 if tiny else 7):
                t0 = time.perf_counter()
                for _ in range(calls):
                    _kernels.ratio_parts(F, eu, ev, em, 1.5, 2.0)
                samples.append((time.perf_counter() - t0) / calls)
            out[f"kernels.ratio_parts.us.n{n}.d{d}"] = statistics.median(samples) * 1e6
            if n == 2000:
                out[f"kernels.ratio_parts.bytes.n2000.d{d}"] = float(F.nbytes + eu.nbytes + ev.nbytes + em.nbytes)
    return out


def summarize(passes: list[PassStats]) -> dict:
    failures = defaultdict(int)
    for p in passes:
        for name, why in p.failures:
            failures[f"{name}: {why}"] += 1
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.raised + p.wrong for p in passes),
        "wrong_outputs": sum(p.wrong for p in passes),
        "failed_share": sum(p.raised + p.wrong for p in passes) / sum(p.attempted for p in passes),
        "failures": dict(failures),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("small", "large", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every instance (for selfcheck.py)")
    ap.add_argument("--setup-probe", action="store_true", help="set up once, print the time taken, exit")
    args = ap.parse_args(argv)

    threads = cap_threads()
    if not (ROOT / "src" / "banachgap" / "__init__.py").is_file():
        sys.stderr.write(f"error: no banachgap sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from speed import Speedometer
    from tracing import Tracer

    if args.setup_probe:
        workloads.build(args.workload, args.seed, tiny=args.tiny)
        workloads.warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    passes = max(2, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    refs = workloads.References()
    tracer = Tracer() if args.trace else None
    speed = Speedometer()
    workloads.warm_up()

    def fresh_pass():
        wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
        return wl, run_pass(wl.requests, refs, speed)

    if tracer is None:
        # SETUP_PROBES set-ups dealt over the gaps before, between and after the passes.
        per_gap = [len(range(i, SETUP_PROBES, passes + 1)) for i in range(passes + 1)]
        setups = probe_setup(args, per_gap[0], speed)
        measured = []
        for i in range(passes):
            wl = None  # the previous pass's inputs go before the next are built
            wl, st = fresh_pass()
            measured.append(st)
            setups += probe_setup(args, per_gap[i + 1], speed)
        metrics = end_to_end(wl.requests, measured, scaled_request_s(measured, speed), statistics.median(setups))
    else:
        untraced = []
        for _ in range(passes // 2):
            wl = None
            wl, st = fresh_pass()
            untraced.append(st)
        wl = None
        tracer.install()
        t0 = time.perf_counter()
        wl = tracer.span("bench.setup", "bench", workloads.build, args.workload, args.seed, tiny=args.tiny)
        traced_setup_s = time.perf_counter() - t0
        traced = run_pass(wl.requests, refs, speed, tracer)
        tracer.uninstall()
        measured = untraced + [traced]
        metrics = tracer.layer_metrics()
        metrics["bench.self_s"] += traced.own_s
        metrics["mazur.bytes_per_pair"] = float(MODULUS_BYTES_PER_PAIR) if metrics["mazur.estimate_modulus.s"] else 0.0
        scaled_wall = lambda p: sum(scaled_request_s([p], speed))
        metrics["trace.overhead_share"] = scaled_wall(traced) / statistics.median(map(scaled_wall, untraced)) - 1.0
        metrics.update(ratio_parts_micro(args.seed, args.tiny))

    kinds = defaultdict(int)
    for r in wl.requests:
        kinds[r.kind] += 1
    env = environment(threads, wl, dict(kinds))
    env["passes"] = len(measured)
    env["pass_request_s"] = [p.wall_s for p in measured]
    env["speed_samples"] = len(speed.dt)
    env["reference_job_median_s"] = statistics.median(speed.dt)
    summary = summarize(measured)
    if tracer is not None:
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        env["trace_accounting"] = {
            "traced_wall_s": traced_setup_s + traced.loop_s,
            "layer_self_plus_bench_s": layer_self,
            "nesting_errors": tracer.nesting_errors(),
            "negative_self_times": sum(t < -1e-9 for t in tracer.self_times()),
        }
    units = {k: unit_of(k) for k in metrics} if tracer else END_TO_END_UNITS
    result = {
        "correct": summary["wrong_outputs"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"environment": env, "summary": summary, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{stem}.jsonl"))
    print(json.dumps({"environment": env}))
    print(json.dumps({"failures": summary["failures"], "failed_share": summary["failed_share"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
