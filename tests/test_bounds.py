"""Property tests of the reported intervals: no proven interval is inverted,
and no proven lower end exceeds the exact value of the same quantity."""

from unittest import mock

import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from kernel_reference import cut_quotient_min
from kernel_reference import laplacian as reference_laplacian

from banachgap import spectral
from banachgap.acceptance import _SMALL_GRAPHS, _sandwich_cases
from banachgap.distortion import max_displacement
from banachgap.graphs import all_pairs_distances, build_graph
from banachgap.groups import kappa_estimate, schreier_graph
from banachgap.spectral import CERTIFIED_REL, Bound, gap_estimate, gap_exact_2, gap_oracle_small


def _assert_proven_order(b: Bound):
    if b.lower_proof and b.upper_proof:
        assert b.lower <= b.upper * (1 + CERTIFIED_REL)


def _assert_below(b: Bound, exact: float):
    """A proven lower end is at most the exact value."""
    _assert_proven_order(b)
    if b.lower_proof:
        assert b.lower <= exact * (1 + 1e-12)


def test_bound_raises_on_an_inverted_proven_pair():
    with pytest.raises(AssertionError, match="below its certified lower bound"):
        Bound(1.0 + 1e-8, 1.0, "cholesky", "admissible_map")


def test_bound_allows_an_inversion_at_an_unproven_end_or_within_the_slack():
    Bound(2.0, 1.0, None, "admissible_map")
    Bound(2.0, 1.0, "eigh", None)
    Bound(1.0 + 1e-10, 1.0, "eigh", "eigh")


def _lambda2(G):
    return float(np.linalg.eigvalsh(reference_laplacian(G))[1])


@given(connected_multigraphs(1, 12, drawn_reach=True).filter(lambda G: G.n >= 2))
@settings(max_examples=60, deadline=None)
def test_gap_intervals_hold_on_random_multigraphs(G):
    lam2, cut = _lambda2(G), cut_quotient_min(G)
    _assert_below(gap_exact_2(G).bound, lam2)
    _assert_below(gap_estimate(G, p=1.0, q=1.0, d=1).bound, cut)
    # The Lanczos path on the same graph: a Cholesky lower end below lambda_2.
    lanczos = build_graph(G.n, G.edges)
    with mock.patch.object(spectral, "_LANCZOS_MIN_N", 2):
        _assert_below(gap_exact_2(lanczos).bound, lam2)


@pytest.mark.parametrize("name", list(_SMALL_GRAPHS))
def test_gap_intervals_hold_on_the_small_graphs(name):
    G = build_graph(*_SMALL_GRAPHS[name])
    lam2, cut = _lambda2(G), cut_quotient_min(G)
    for b in (gap_exact_2(G).bound, gap_oracle_small(G, p=2.0, resolution=1e-2).bound):
        _assert_below(b, lam2)
    for b in (gap_estimate(G, p=1.0).bound, gap_oracle_small(G, p=1.0, resolution=1e-2).bound):
        _assert_below(b, cut)
    for p in (1.5, 3.0):
        _assert_proven_order(gap_oracle_small(G, p=p, resolution=1e-2).bound)


@pytest.mark.parametrize("name,a,d,cube", _sandwich_cases(), ids=[c[0] for c in _sandwich_cases()])
def test_kappa_and_displacement_intervals_hold_on_the_sandwich_actions(name, a, d, cube):
    G = schreier_graph(a)
    met = all_pairs_distances(G)
    exact = max_displacement(G, met)
    assert exact.bound.lower == exact.bound.upper
    _assert_below(max_displacement(G, met, "cayley", action=a).bound, exact.value)
    # cut_gap equals the brute force on these graphs (test_spectral), and is far faster at n = 24
    for p, gap in ((1.0, gap_estimate(G, p=1.0).value), (2.0, _lambda2(G))):
        est = kappa_estimate(a, p=p, d=d, restarts=2, max_iter=80, seed=1)
        assert est.bound.lower_proof is not None
        _assert_below(est.bound, (2.0 * gap / a.size) ** (1.0 / p))
