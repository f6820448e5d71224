"""The benchmark's workloads at their tiny size, run in-process: every
request's call and its output check.  A renamed attribute or call that the
benchmark reads fails here rather than as a drop of its ok share."""

import sys
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("scipy")  # the references use scipy's breadth-first search
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from banachgap import _parallel, distortion, graphs, mazur  # noqa: E402


@pytest.mark.parametrize("name", ["small", "large", "sweep"])
def test_tiny_workload_requests_check_ok(name):
    refs = workloads.References()
    bad = []
    for req in workloads.build(name, 11, tiny=True).requests:
        verdict = req.check(req.run(), refs)
        if not verdict.ok:
            bad.append(f"{req.name}: {verdict.detail}")
    assert not bad


def test_traced_pool_chunks_nest():
    # Chunks run on pool threads as well as the caller; the tracer keeps one
    # span stack, so a public name called from a chunk would misnest there.
    tracer = Tracer()
    tracer.install()
    try:
        with mock.patch.object(_parallel, "_usable_cpus", lambda: 2), mock.patch.object(
            distortion, "_PAIR_BLOCK_ENTRIES", 1 << 10
        ):
            phi = mazur.mazur_sphere_map(3.0, 2.0)
            mazur.estimate_modulus(phi, "near_pairs", 8 * mazur._BLOCK, seed=1, d=4)
            mazur.check_stabilized_modulus(phi, k=2, p=2.0, n_samples=4 * mazur._BLOCK, seed=1, d=4)
            H = graphs.gen_family("hamming", [9])
            met = graphs.all_pairs_distances(H)
            F = distortion.hamming_identity_embedding(9)
            distortion.map_distortion(H, F, 1.5, met)
            distortion.map_distortion_exact_sq(H, F, met)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert tracer.nesting_errors() == 0
    assert min(tracer.self_times()) >= -1e-9
    assert names.count("mazur.estimate_modulus") == names.count("mazur.check_stabilized_modulus") == 1
    assert "mazur.sphere_sample" not in names
