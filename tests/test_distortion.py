import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import brute_displacement, cayley_displacement, distortion_exact_sq

from banachgap.distortion import (
    austin_exclude,
    coarse_union,
    frechet_embedding,
    gn_bound,
    hamming_identity_embedding,
    jv_bound,
    jv_bound_exact_sq,
    map_distortion,
    map_distortion_exact_sq,
    max_displacement,
    r_eps_exact,
    r_eps_lower,
)
from banachgap.graphs import MetricTable, all_pairs_distances, build_graph, gen_family
from banachgap.groups import action_from_group, schreier_graph
from banachgap.spectral import Bound, gap_estimate, gap_exact_2, gap_oracle_small


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bound_exponents_must_be_finite(bad):
    C6 = gen_family("cycle", [6])
    met = all_pairs_distances(C6)
    gap = gap_exact_2(C6)
    with pytest.raises(ValueError, match="^p must be >= 1 and finite"):
        gn_bound(C6, gap, p=bad, eps=0.5, r_eps=0.5, metric=met)
    with pytest.raises(ValueError, match="^p must be >= 1 and finite"):
        jv_bound(C6, gap, p=bad, D=3.0)
    with pytest.raises(ValueError, match="^q must be >= 1 and finite"):
        map_distortion(C6, frechet_embedding(C6, met), q=bad, metric=met)


@pytest.fixture(scope="module")
def cube3():
    G = gen_family("hamming", [3])
    return G, all_pairs_distances(G)


def test_identity_cube_embedding_distortions(cube3):
    G, met = cube3
    F = hamming_identity_embedding(3)
    res = map_distortion(G, F, q=2, metric=met)
    assert res.value == pytest.approx(math.sqrt(3))
    assert res.lip == pytest.approx(1.0)
    assert res.lip_inv == pytest.approx(math.sqrt(3))
    assert map_distortion(G, F, q=1, metric=met).value == pytest.approx(1.0)
    assert map_distortion_exact_sq(G, F, metric=met) == Fraction(3)


def test_distortion_at_least_one(cube3):
    G, met = cube3
    rng = np.random.Generator(np.random.PCG64(0))
    F = rng.standard_normal((G.n, 5))
    assert map_distortion(G, F, q=2, metric=met).value >= 1.0


def test_one_dimensional_embedding_is_its_column():
    G = gen_family("path", [5])
    f = np.array([0.0, 1.0, 2.5, 3.0, 5.0])
    assert map_distortion(G, f, q=1.5) == map_distortion(G, f[:, None], q=1.5)


@pytest.mark.parametrize("rows", [3, 8])
def test_distortion_refuses_a_wrong_row_count(rows):
    G = gen_family("cycle", [4])
    F = np.arange(rows)[:, None]
    with pytest.raises(ValueError, match=f"^embedding has {rows} rows, but the graph has 4 vertices$"):
        map_distortion(G, F, q=2)
    with pytest.raises(ValueError, match=f"^embedding has {rows} rows, but the graph has 4 vertices$"):
        map_distortion_exact_sq(G, F)
    assert map_distortion_exact_sq(G, np.arange(4)) == map_distortion_exact_sq(G, np.arange(4)[:, None])


def test_distortion_rejects_collisions():
    G = gen_family("cycle", [4])
    F = np.array([[0.0], [1.0], [0.0], [2.0]])
    with pytest.raises(ValueError, match="injective"):
        map_distortion(G, F, q=2)


def test_exact_distortion_needs_integers(cube3):
    G, met = cube3
    with pytest.raises(ValueError, match="integer"):
        map_distortion_exact_sq(G, hamming_identity_embedding(3).astype(float), metric=met)


@given(st.integers(0, 10_000), st.sampled_from([("cycle", [9]), ("hamming", [3]), ("path", [6]), ("complete", [5])]))
@settings(max_examples=80, deadline=None)
def test_exact_distortion_equals_reference_loop(seed, spec):
    G = gen_family(*spec)
    met = all_pairs_distances(G)
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = int(rng.integers(1, 4))
    # Small ranges give tied maxima and collisions; negatives are allowed.
    F = rng.integers(-3, 4, size=(G.n, dim))
    try:
        want = distortion_exact_sq(F, met.d)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            map_distortion_exact_sq(G, F, metric=met)
    else:
        assert map_distortion_exact_sq(G, F, metric=met) == want


def test_exact_distortion_tied_maxima_and_collision():
    C6 = gen_family("cycle", [6])
    met = all_pairs_distances(C6)
    F = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]])
    assert map_distortion_exact_sq(C6, F, metric=met) == distortion_exact_sq(F, met.d) == Fraction(9)
    F[4] = F[1]
    with pytest.raises(ValueError, match="vertices 1 and 4 collide"):
        map_distortion_exact_sq(C6, F, metric=met)


def test_exact_distortion_refuses_values_beyond_2_53(cube3):
    G, met = cube3
    F = hamming_identity_embedding(3)
    assert map_distortion_exact_sq(G, F * (1 << 24), metric=met) == Fraction(3)
    with pytest.raises(ValueError, match="2\\^53"):
        map_distortion_exact_sq(G, F * (1 << 25), metric=met)
    far = MetricTable(d=met.d, diameter=1 << 27)
    with pytest.raises(ValueError, match="2\\^53"):
        map_distortion_exact_sq(G, F, metric=far)


def test_r_eps_lower_values(cube3):
    K5 = gen_family("complete", [5])
    assert r_eps_lower(K5, all_pairs_distances(K5), 0.5).value == 1.0
    C8 = gen_family("cycle", [8])
    assert r_eps_lower(C8, all_pairs_distances(C8), 0.5).value == 0.5
    G, met = cube3
    assert r_eps_lower(G, met, 0.5).value == pytest.approx(1 / 3)


def test_r_eps_exact_values():
    K4 = gen_family("complete", [4])
    assert r_eps_exact(K4, all_pairs_distances(K4), 0.5).value == 1.0
    C8 = gen_family("cycle", [8])
    assert r_eps_exact(C8, all_pairs_distances(C8), 0.5).value == 0.75
    C4 = gen_family("cycle", [4])
    assert r_eps_exact(C4, all_pairs_distances(C4), 0.75).value == 1.0


def test_r_eps_lower_below_exact_everywhere():
    for G in (gen_family("cycle", [9]), gen_family("hamming", [3]), gen_family("path", [7])):
        met = all_pairs_distances(G)
        for eps in (0.3, 0.5, 0.8):
            assert r_eps_lower(G, met, eps).value <= r_eps_exact(G, met, eps).value + 1e-12


def test_r_eps_exact_gate():
    G = gen_family("cycle", [17])
    with pytest.raises(ValueError, match="16"):
        r_eps_exact(G, all_pairs_distances(G), 0.5)


def _check_certificate(met, disp):
    """The permutation attains D; the Hall set shows D + 1 is not attained."""
    d, D = met.d, disp.value
    n = len(d)
    assert disp.bound.lower == disp.bound.upper and type(D) is int
    assert np.array_equal(np.sort(disp.permutation), np.arange(n))
    assert d[np.arange(n), disp.permutation].min() == D
    if D == met.diameter:
        assert disp.hall_set is None and disp.bound.upper_proof == "diameter"
    else:
        S = disp.hall_set
        assert S is not None and S.size > 0 and np.unique(S).size == S.size
        partners = np.flatnonzero((d[S] >= D + 1).any(axis=0))
        assert partners.size < S.size


def test_displacement_brute_values(cube3):
    C6, K4 = gen_family("cycle", [6]), gen_family("complete", [4])
    for G, met, want in ((C6, all_pairs_distances(C6), 3), (K4, all_pairs_distances(K4), 1), (*cube3, 3)):
        assert max_displacement(G, met).value == brute_displacement(met.d) == want


@given(connected_multigraphs(1, 8))
@settings(max_examples=60, deadline=None)
def test_displacement_exact_equals_brute(G):
    met = all_pairs_distances(G)
    disp = max_displacement(G, met)
    assert disp.value == brute_displacement(met.d)
    _check_certificate(met, disp)


@pytest.mark.parametrize(
    "kind, params", [("random_regular", [60, 3]), ("random_regular", [200, 3]), ("margulis", [10]), ("hamming", [8]), ("path", [9])]
)
def test_displacement_certificate(kind, params):
    G = gen_family(kind, params, seed=1)
    met = all_pairs_distances(G)
    _check_certificate(met, max_displacement(G, met))


def test_displacement_cayley_matches_brute(cube3):
    G, met = cube3
    d = max_displacement(G, met, "cayley", action=action_from_group("boolean_cube", 3))
    assert d.value == 3 and d.bound.lower == d.bound.upper


@pytest.mark.parametrize("kind, n", [("boolean_cube", n) for n in range(2, 7)] + [("cyclic", 7), ("symmetric", 4)])
def test_displacement_cayley_equals_reference_loop(kind, n):
    a = action_from_group(kind, n)
    G = schreier_graph(a)
    met = all_pairs_distances(G)
    d = max_displacement(G, met, "cayley", action=a)
    best, best_g = cayley_displacement(met.d, a.right_translations)
    assert d.value == best and type(d.value) is int
    assert np.array_equal(d.permutation, a.right_translations[best_g])
    assert d.bound == Bound(best, met.diameter, "permutation", "diameter")


def test_displacement_exact_beats_old_heuristic():
    # D reported by the seeded random-permutation-and-2-swap search this solver replaced
    old = {("random_regular", (60, 3)): 6, ("random_regular", (200, 3)): 7, ("margulis", (10,)): 3, ("hamming", (8,)): 6}
    for (kind, params), heuristic in old.items():
        G = gen_family(kind, params, seed=1)
        met = all_pairs_distances(G)
        assert heuristic <= max_displacement(G, met).value <= met.diameter


def test_displacement_never_exceeds_diameter():
    for G in (gen_family("cycle", [7]), gen_family("path", [6])):
        met = all_pairs_distances(G)
        assert max_displacement(G, met).value <= met.diameter


def test_displacement_exact_matches_brute_on_small_graphs():
    for G in (gen_family("cycle", [6]), gen_family("cycle", [7]), gen_family("hamming", [3]), gen_family("path", [5])):
        met = all_pairs_distances(G)
        disp = max_displacement(G, met)
        assert disp.value == brute_displacement(met.d)
        _check_certificate(met, disp)


@pytest.mark.parametrize(
    "kind, params, want",
    [("cycle", [2000], 1000), ("random_regular", [2000, 3], 12), ("path", [1000], 500), ("path", [2000], 1000)],
)
def test_displacement_exact_scales_without_recursion(kind, params, want):
    G = gen_family(kind, params, seed=1)
    met = all_pairs_distances(G)
    disp = max_displacement(G, met)
    assert disp.value == want
    _check_certificate(met, disp)


def test_displacement_rejects_unknown_mode(cube3):
    G, met = cube3
    for mode in ("brute", "heuristic"):
        with pytest.raises(ValueError, match="unknown displacement mode"):
            max_displacement(G, met, mode)


def test_gn_bound_values(cube3):
    G, met = cube3
    b = gn_bound(G, gap_exact_2(G), p=2.0, eps=0.5, r_eps=1 / 3, metric=met)
    assert b.value == pytest.approx(0.288675134, abs=1e-6)
    assert b.certified
    K4 = gen_family("complete", [4])
    bk = gn_bound(K4, gap_exact_2(K4), p=2.0, eps=0.5, r_eps=1.0)
    assert bk.value == pytest.approx(math.sqrt(0.5) / 2 * math.sqrt(4 / 3), abs=1e-9)


def test_gn_bound_degenerate_gap(cube3):
    G, met = cube3
    gap = gap_exact_2(G)
    zero = dataclasses.replace(gap, bound=Bound(0.0, 0.0, "eigh", "eigh"))
    assert gn_bound(G, zero, p=2.0, eps=0.5, r_eps=1 / 3, metric=met).value == 0.0


def test_jv_bound_hamming_sqrt_n():
    for n in (2, 3, 4):
        H = gen_family("hamming", [n])
        met = all_pairs_distances(H)
        D = max_displacement(H, met, "cayley", action=action_from_group("boolean_cube", n))
        b = jv_bound(H, gap_exact_2(H), p=2.0, D=D)
        assert b.value == pytest.approx(math.sqrt(n), rel=1e-9)
        assert jv_bound_exact_sq(D.value, Fraction(2), Fraction(n)) == Fraction(n)


def test_bounds_take_the_proven_lower_end_of_a_lanczos_gap():
    # H10 has 1024 vertices, so its gap comes from the Lanczos path: theta = 2
    # is the upper end, and the Cholesky certificate proves a lower end below it.
    H = gen_family("hamming", [10])
    met = all_pairs_distances(H)
    gap = gap_exact_2(H)
    assert gap.bound.lower_proof == "cholesky" and gap.bound.lower < gap.value
    D = max_displacement(H, met)
    jv = jv_bound(H, gap, p=2.0, D=D)
    assert jv.certified
    assert jv.value <= 2.0**-0.5 * D.value * (gap.bound.lower / H.average_degree) ** 0.5 < math.sqrt(10)
    gn = gn_bound(H, gap, p=2.0, eps=0.5, r_eps=r_eps_lower(H, met, 0.5).value, metric=met)
    assert gn.certified and gn.inputs["gap"] == gap.bound.lower


def test_jv_heuristic_label():
    H = gen_family("hamming", [3])
    est = gap_estimate(H, p=3.0, q=3.0, seed=0, restarts=4)
    b = jv_bound(H, est, p=3.0, D=3)
    assert not b.certified and b.label == "heuristic lower"


def test_bounds_from_a_grid_oracle_gap_are_not_certified():
    # the grid minimum on C4 only bounds its gap from above
    C4 = gen_family("cycle", [4])
    gap = gap_oracle_small(C4, p=1.5, resolution=0.05)
    D = max_displacement(C4, all_pairs_distances(C4), "cayley", action=action_from_group("cyclic", 4))
    assert not jv_bound(C4, gap, p=1.5, D=D).certified
    assert not gn_bound(C4, gap, p=1.5, eps=0.5, r_eps=1.0).certified


def test_jv_bare_number_is_not_certified():
    H = gen_family("hamming", [3])
    b = jv_bound(H, gap_exact_2(H), p=2.0, D=3)
    assert not b.certified and b.label == "heuristic lower"


def test_lower_bounds_below_upper(cube3):
    G, met = cube3
    upper = map_distortion(G, hamming_identity_embedding(3), q=2, metric=met).value
    gap = gap_exact_2(G)
    gn = gn_bound(G, gap, p=2.0, eps=0.5, r_eps=r_eps_lower(G, met, 0.5).value, metric=met)
    jv = jv_bound(G, gap, p=2.0, D=max_displacement(G, met))
    assert gn.value <= upper + 1e-12
    assert jv.value <= upper + 1e-12


def test_frechet_embedding_upper_bound():
    G = gen_family("cycle", [9])
    met = all_pairs_distances(G)
    val = map_distortion(G, frechet_embedding(G, met), q=2, metric=met).value
    assert 1.0 <= val < 10.0


def test_coarse_union_distances():
    K2 = build_graph(2, [(0, 1, 1)])
    cu = coarse_union([K2, K2])
    assert cu.distance(0, 1) == 1
    assert cu.distance(0, 2) == 5
    cu2 = coarse_union([gen_family("cycle", [4]), gen_family("cycle", [6])])
    assert cu2.distance(0, 4) == 8
    M = cu2.distance_matrix()
    assert (M == M.T).all() and (np.diag(M) == 0).all()


def test_coarse_union_single_component_plain_metric():
    C4 = gen_family("cycle", [4])
    cu = coarse_union([C4])
    assert cu.distance(0, 2) == 2


def test_austin_verdicts():
    ns = np.arange(2, 9, dtype=float)
    cl = np.sqrt(ns)
    assert austin_exclude(ns, cl, lambda t: t**0.6).verdict == "excluded"
    assert austin_exclude(ns, cl, lambda t: t**0.4).verdict == "not_excluded"
    assert austin_exclude(ns, ns * 0.5, lambda t: t).verdict == "excluded"
    # superlinear rho violates the rho(t)/t hypothesis
    assert austin_exclude(ns, cl, lambda t: t**2).verdict == "inconclusive"
    # decreasing rho violates monotonicity
    assert austin_exclude(ns, cl, lambda t: 1.0 / (1.0 + t)).verdict == "inconclusive"


@pytest.mark.filterwarnings("error")
def test_austin_single_diameter_is_inconclusive():
    v = austin_exclude([4, 4], [1.0, 2.0], lambda t: t**0.6)
    assert (v.verdict, v.hypothesis_ok, math.isnan(v.slope)) == ("inconclusive", True, True)
    assert v.details == {"reason": "the diameters are all equal"}
