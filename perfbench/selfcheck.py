"""Self-check of the benchmark, run at a tiny size (about a minute).

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks that:

1. every metric BENCHMARK.json names is printed, with its unit, by
   ``run.py --trace 0`` (end-to-end) and ``--trace 1`` (per-layer), and
   nothing else is;
2. the same seed generates identical inputs (hash of the instance list);
3. two seeds generate different inputs;
4. in the traced run, the layers' self times plus the benchmark's own time
   add up to the traced wall time, and every span lies inside its parent.
   Span times come from the spans; the benchmark's own time between
   requests and the traced wall time come from run.py's clocks, so a span
   that is lost or counted twice shows as a difference.  Only the loop
   work between those clocks (microseconds per request) goes uncounted.

Exits 1 and lists what failed if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace}: exit {res.returncode}: {res.stderr[-500:]}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    problems = []
    for w in (entry["name"] for entry in spec["workloads"]):
        a, b = workloads.build(w, 11, tiny=True), workloads.build(w, 11, tiny=True)
        if a.instance_hash() != b.instance_hash():
            problems.append(f"{w}: seed 11 built twice gives different instances")
        if workloads.build(w, 12, tiny=True).instance_hash() == a.instance_hash():
            problems.append(f"{w}: seeds 11 and 12 give identical instances")

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            env, result = run(w, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace={trace}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{w} trace={trace}: missing {missing}, extra {extra}, wrong units {units}")
            if trace:
                acc = env["trace_accounting"]
                gap = abs(acc["traced_wall_s"] - acc["layer_self_plus_bench_s"])
                if gap > max(2e-3, 1e-3 * acc["traced_wall_s"]):
                    problems.append(f"{w}: self times add up to {acc['layer_self_plus_bench_s']}, traced wall {acc['traced_wall_s']}")
                if acc["nesting_errors"] or acc["negative_self_times"]:
                    problems.append(f"{w}: {acc['nesting_errors']} spans outside their parent, "
                                    f"{acc['negative_self_times']} negative self times")
        print(f"{w}: checked", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
