"""The benchmark's workloads at their tiny size, run in-process: every
request's call and its output check.  A renamed attribute or call that the
benchmark reads fails here rather than as a drop of its ok share."""

import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")  # the references use scipy's breadth-first search
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["small", "large", "sweep"])
def test_tiny_workload_requests_check_ok(name):
    refs = workloads.References()
    bad = []
    for req in workloads.build(name, 11, tiny=True).requests:
        verdict = req.check(req.run(), refs)
        if not verdict.ok:
            bad.append(f"{req.name}: {verdict.detail}")
    assert not bad
