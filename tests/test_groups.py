import dataclasses
import math
import re
import resource
import time
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import group_action, right_translations, schreier_edges, transitive

from banachgap._kernels import kappa_residuals
from banachgap.graphs import build_graph, gen_family
from banachgap.realization import schreier_realize, spec_to_action
from banachgap import spectral
from banachgap.spectral import Bound, gap_estimate, gap_exact_2
from banachgap.groups import (
    PermutationAction,
    action_from_group,
    kappa_estimate,
    pak_zuk_nu,
    read_action_file,
    schreier_graph,
    verify_sandwich,
    write_action_file,
)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_kappa_exponent_must_be_finite(bad):
    a = action_from_group("cyclic", 4)
    with pytest.raises(ValueError, match="^p must be >= 1 and finite"):
        kappa_estimate(a, p=bad, gap=gap_exact_2(schreier_graph(a)))
    with pytest.raises(ValueError, match="^p must be >= 1 and finite"):
        verify_sandwich(a, p=bad)


def test_cyclic_action_gives_cycle_graph():
    a = action_from_group("cyclic", 6)
    assert a.m == 6 and a.size == 2
    assert schreier_graph(a).edges == gen_family("cycle", [6]).edges


def test_cyclic_2_single_self_inverse_generator():
    a = action_from_group("cyclic", 2)
    assert a.size == 1 and a.inverse == (0,)
    assert schreier_graph(a).edges == ((0, 1, 1),)


def test_cube_action_gives_hamming_graph():
    a = action_from_group("boolean_cube", 3)
    assert a.m == 8 and a.size == 3
    assert all(a.inverse[i] == i for i in range(3))
    assert schreier_graph(a).edges == gen_family("hamming", [3]).edges


def test_sl2_mod3():
    a = action_from_group("sl_mod", 2, 3)
    assert a.m == 24 and a.size == 4
    G = schreier_graph(a)
    assert set(G.degrees) == {4} and G.connected


def test_sl2_mod2_halves_generators():
    a = action_from_group("sl_mod", 2, 2)
    assert a.m == 6  # SL_2 over the 2-element field
    assert a.size == 2 and all(a.inverse[i] == i for i in range(2))


def test_symmetric_3_with_transpositions_is_a_6_cycle():
    a = action_from_group("symmetric", 3)
    G = schreier_graph(a)
    assert G.n == 6 and set(G.degrees) == {2} and G.connected


T0 = list(permutations(range(4))).index((1, 0, 2, 3))  # element index of t0 in symmetric(4)


def test_coset_action():
    a = action_from_group("cyclic", 6, subgroup=[3])
    assert a.m == 3
    assert schreier_graph(a).edges == gen_family("cycle", [3]).edges
    # S_4 on the 12 cosets of <t0>: t0 fixes the base coset, so it has a loop
    b = action_from_group("symmetric", 4, subgroup=[T0])
    assert b.m == 12 and b.elements is None and b.right_translations is None
    assert b.perms[0, 0] == 0 and (0, 0, 1) in schreier_graph(b).edges
    assert schreier_graph(b).connected


ACTION_CASES = (
    [("cyclic", (n,), "trivial") for n in range(2, 10)]
    + [("boolean_cube", (n,), "trivial") for n in range(1, 11)]
    + [("symmetric", (n,), "trivial") for n in range(2, 7)]
    + [("sl_mod", (2, k), "trivial") for k in (2, 3, 5, 7)]
    + [("sl_mod", (3, k), "trivial") for k in (2, 3)]
    + [("cyclic", (6,), [3]), ("symmetric", (4,), [T0]), ("sl_mod", (2, 3), [1, 2]), ("boolean_cube", (4,), [3])]
)


ACTION_IDS = [f"{k}{p}" + (f"/{s}" if s != "trivial" else "") for k, p, s in ACTION_CASES]
REFERENCE_TABLE_MAX = 4096  # the reference table costs m^2 Python products: sl_mod(3, 3) is left out


@pytest.mark.parametrize("kind,params,subgroup", ACTION_CASES, ids=ACTION_IDS)
def test_action_equals_reference_construction(kind, params, subgroup):
    a = action_from_group(kind, *params, subgroup=subgroup)
    ref = group_action(kind, *params, subgroup=subgroup)
    assert (a.m, a.labels, a.inverse, a.elements) == (ref.m, ref.labels, ref.inverse, ref.elements)
    assert a.perms.dtype == ref.perms.dtype and np.array_equal(a.perms, ref.perms)
    if subgroup != "trivial":
        assert a.right_translations is None
    elif a.m <= REFERENCE_TABLE_MAX:
        first = a.right_translations
        ref_table = right_translations(kind, *params)
        assert first.dtype == ref_table.dtype and np.array_equal(first, ref_table)
        assert a.right_translations is first and not first.flags.writeable
    assert schreier_graph(a).edges == build_graph(ref.m, schreier_edges(ref)).edges


def test_element_order():
    # criterion 4's cube start and the cayley displacement rely on vertex = bitmask
    assert action_from_group("boolean_cube", 4).elements == tuple(range(16))
    assert action_from_group("cyclic", 5).elements == tuple(range(5))
    assert action_from_group("symmetric", 4).elements == tuple(permutations(range(4)))
    assert action_from_group("sl_mod", 2, 5).elements[0] == ((1, 0), (0, 1))


def test_right_translations_wait_for_the_first_read():
    a = action_from_group("boolean_cube", 12)  # its table would take 128 MB
    assert set(vars(a)) == {"m", "labels", "perms", "inverse", "elements"}


@pytest.mark.parametrize("kind,n", [("boolean_cube", 40), ("symmetric", 12)])
def test_cap_refuses_before_listing_the_group(kind, n):
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="cap"):
        action_from_group(kind, n)
    assert time.perf_counter() - t0 < 1.0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0 < 50 * 1024  # KiB on Linux


def test_one_schreier_graph_and_one_eigensolve_per_action(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda L, *args, **kw: calls.append(L.shape) or eigh(L, *args, **kw))
    a = action_from_group("sl_mod", 2, 3)
    assert schreier_graph(a) is schreier_graph(a)
    for p in (1.5, 2.0, 3.0):
        assert verify_sandwich(a, p=p, seed=3, restarts=2, max_iter=40).ok
    assert calls == [(a.m, a.m)]


def test_regularity_of_schreier_degree():
    for a in (action_from_group("boolean_cube", 4), action_from_group("sl_mod", 2, 3), action_from_group("cyclic", 7)):
        assert set(schreier_graph(a).degrees) == {a.size}


def test_perms_are_a_frozen_copy():
    rows = np.array([[1, 2, 0], [2, 0, 1]], dtype=np.int32)
    a = PermutationAction(m=3, labels=("r", "l"), perms=rows, inverse=(1, 0))
    rows[0] = [0, 1, 2]
    assert a.perms.tolist() == [[1, 2, 0], [2, 0, 1]]
    assert a.perms.dtype == np.int64 and a.perms.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        a.perms[0, 0] = 0
    with pytest.raises(TypeError, match="same_kind"):
        PermutationAction(m=3, labels=("r", "l"), perms=rows + 0.5, inverse=(1, 0))


def test_construction_refuses_a_wrong_shape_and_a_non_permutation():
    with pytest.raises(ValueError, match="^perms shape mismatch$"):
        PermutationAction(m=3, labels=("r", "l"), perms=np.array([[1, 2, 0]]), inverse=(1, 0))
    with pytest.raises(ValueError, match="^generator r is not a permutation$"):
        PermutationAction(m=3, labels=("r", "l"), perms=np.array([[2, 0, 0], [2, 0, 1]]), inverse=(1, 0))


def test_construction_refuses_an_intransitive_action():
    swap_pairs = np.array([[1, 0, 3, 2]])
    with pytest.raises(ValueError, match=r"^action is not transitive \(Schreier graph would be disconnected\)$"):
        PermutationAction(m=4, labels=("s",), perms=swap_pairs, inverse=(0,))


def test_identity_generators_are_refused_only_by_group_and_file_actions(tmp_path):
    ident = PermutationAction(m=3, labels=("e", "r", "l"), perms=[[0, 1, 2], [1, 2, 0], [2, 0, 1]], inverse=(0, 2, 1))
    assert (0, 0, 1) in schreier_graph(ident).edges
    # x0 fixes every coset of the subgroup {0, x0}
    with pytest.raises(ValueError, match="^generator x0 acts as the identity$"):
        action_from_group("boolean_cube", 4, subgroup=[1])
    path = _write(tmp_path / "a.txt", "3 3\ne e 0 1 2\nr l 1 2 0\nl r 2 0 1\n")
    with pytest.raises(ValueError, match="^generator e acts as the identity$"):
        read_action_file(path)
    # a vertex padded with loops gives identity factors
    spec = schreier_realize(build_graph(2, [(0, 1, 1), (1, 1, 1)]), seed=0)
    assert any(np.array_equal(sigma, np.arange(2)) for sigma in spec.perms)
    assert schreier_graph(spec_to_action(spec)).edges == spec.base.edges


@st.composite
def _paired_perms(draw):
    """Random permutations of up to 9 points, each paired with its inverse;
    half the draws keep {0..k-1} invariant, so the action is intransitive."""
    m = draw(st.integers(1, 9))
    k = draw(st.integers(1, m)) if draw(st.booleans()) else m
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.permutations(range(k))) + draw(st.permutations(range(k, m)))
        rows += [p, list(np.argsort(p))]
    return np.array(rows, dtype=np.int64)


@given(_paired_perms())
@settings(max_examples=200, deadline=None)
def test_transitivity_verdict_equals_reference(perms):
    g = perms.shape[0]
    labels = tuple(map(str, range(g)))
    inverse = tuple(i ^ 1 for i in range(g))
    if transitive(perms):
        PermutationAction(m=perms.shape[1], labels=labels, perms=perms, inverse=inverse)
    else:
        with pytest.raises(ValueError, match="transitive"):
            PermutationAction(m=perms.shape[1], labels=labels, perms=perms, inverse=inverse)


def test_construction_refuses_a_wrong_inverse():
    perms = np.array([[1, 2, 0], [1, 2, 0]])
    with pytest.raises(ValueError, match="^slot b is not inverse to a$"):
        PermutationAction(m=3, labels=("a", "b"), perms=perms, inverse=(1, 0))
    with pytest.raises(ValueError, match="^inverse pairing is not an involution on slots$"):
        PermutationAction(m=3, labels=("a", "b", "c"), perms=np.vstack([perms, perms[:1]]), inverse=(1, 2, 0))


@given(st.integers(0, 5000), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_generator_and_inverse_displace_equally(seed, p):
    a = action_from_group("sl_mod", 2, 3)
    rng = np.random.Generator(np.random.PCG64(seed))
    xi = np.ascontiguousarray(rng.standard_normal((a.m, 2)))
    r = kappa_residuals(xi, np.ascontiguousarray(a.perms), p)
    for i in range(a.size):
        assert r[i] == pytest.approx(r[a.inverse[i]], rel=1e-12)


def test_kappa_cyclic_closed_form():
    for n in (3, 5, 6):
        est = kappa_estimate(action_from_group("cyclic", n), p=2.0, d=1, seed=2)
        assert est.value == pytest.approx(2 * math.sin(math.pi / n), abs=1e-3)


def test_kappa_cube_value_and_certified_lower():
    # inf-sup value for the cube at p=2 is 2/sqrt(n); equals the certified
    # lower bound from the gap, so the sandwich upper inequality is tight
    est = kappa_estimate(action_from_group("boolean_cube", 2), p=2.0, d=1, seed=2)
    assert est.value == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert est.bound.lower <= est.value + 1e-6
    est3 = kappa_estimate(action_from_group("boolean_cube", 3), p=2.0, d=1, seed=2)
    assert est3.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)


def test_kappa_constant_start_is_degenerate_and_never_wins():
    # A constant field centres to zero; it must not report a value below
    # the certified lower bound (kappa of cyclic(6) at p = 2 is exactly 1).
    est = kappa_estimate(action_from_group("cyclic", 6), p=2.0, restarts=3, warm_starts=[np.ones((6, 1))])
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.diagnostics["per_restart"][1] == {"stop_reason": "degenerate", "iterations": 0, "backtracks": 0}


def test_kappa_minimizer_zero_sum_and_unit():
    est = kappa_estimate(action_from_group("cyclic", 5), p=3.0, d=2, seed=1)
    assert np.abs(est.minimizer.sum(axis=0)).max() < 1e-12
    assert (np.abs(est.minimizer) ** 3).sum() == pytest.approx(1.0, rel=1e-9)


def test_lower_from_gap_invariant_across_actions():
    for a, p in [
        (action_from_group("cyclic", 6), 1.0),
        (action_from_group("boolean_cube", 2), 2.0),
        (action_from_group("sl_mod", 2, 3), 3.0),
    ]:
        est = kappa_estimate(a, p=p, d=1, seed=0)
        assert est.bound.lower <= est.value * (1 + 1e-6) + 1e-9


@pytest.mark.parametrize(
    "group,params,p", [("cyclic", (6,), 2.0), ("sl_mod", (2, 3), 2.0), ("cyclic", (8,), 1.0), ("symmetric", (4,), 1.0)]
)
def test_kappa_start_at_a_certified_lower_stops_every_start(group, params, p):
    # The exact gap's minimiser has equal generator displacements here, so
    # the block stops before its first iteration.  At symmetric(4), p = 1,
    # that rests on the cut route's preference for a Fiedler threshold cut.
    est = kappa_estimate(action_from_group(group, *params), p=p, restarts=4, seed=3)
    assert est.bound.lower_proof is not None
    assert est.diagnostics["per_restart"] == [{"stop_reason": "certified", "iterations": 0, "backtracks": 0}] * 4
    assert est.bound.lower <= est.value <= est.bound.lower * (1 + 1e-9)


def test_kappa_with_an_upper_gap_never_certifies():
    a = action_from_group("cyclic", 6)
    exact = gap_exact_2(schreier_graph(a))
    upper = dataclasses.replace(exact, bound=Bound(exact.value, exact.value, None, "admissible_map"))
    est = kappa_estimate(a, p=2.0, restarts=3, max_iter=200, gap=upper)
    assert est.bound.lower_proof is None
    assert all(r["stop_reason"] != "certified" and r["iterations"] > 0 for r in est.diagnostics["per_restart"])
    assert kappa_estimate(a, p=1.5, restarts=3, max_iter=200).bound.lower_proof is None


def test_kappa_below_a_certified_lower_raises():
    a = action_from_group("cyclic", 6)
    exact = gap_exact_2(schreier_graph(a))
    too_high = dataclasses.replace(exact, bound=Bound(2.0 * exact.value, 2.0 * exact.value, "eigh", "eigh"))
    with pytest.raises(AssertionError, match="below its certified lower bound"):
        kappa_estimate(a, p=2.0, restarts=2, max_iter=40, gap=too_high)


@given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0]), st.integers(1, 2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_kappa_is_never_below_its_certified_lower(seed, p, d, lanczos):
    # With ``lanczos`` the p = 2 gap takes the Lanczos path, whose proven
    # lower end lies strictly below its value; kappa's lower end follows it.
    rng = np.random.Generator(np.random.PCG64(seed))
    m = int(rng.integers(2, 10))
    rows = [rng.permutation(m) for _ in range(int(rng.integers(1, 3)))]
    rows = [r for row in rows for r in (row, np.argsort(row))]
    perms = np.array(rows, dtype=np.int64)
    if not transitive(perms):
        return
    a = PermutationAction(m=m, labels=tuple(f"s{i}" for i in range(len(rows))), perms=perms, inverse=tuple(i ^ 1 for i in range(len(rows))))
    with mock.patch.object(spectral, "_LANCZOS_MIN_N", 2 if lanczos else spectral._LANCZOS_MIN_N):
        gap = spectral.gap(schreier_graph(a), p=p, q=p, seed=seed + 1, restarts=3)
    est = kappa_estimate(a, p=p, d=d, restarts=3, max_iter=200, seed=seed, gap=gap)
    assert est.bound.lower_proof == gap.bound.lower_proof is not None
    assert est.bound.lower == (2.0 * gap.bound.lower / a.size) ** (1.0 / p)
    assert est.value >= est.bound.lower * (1 - 1e-9)


def test_nu_values():
    cube = action_from_group("boolean_cube", 3)
    assert pak_zuk_nu(cube, [{"x0": "x1", "x1": "x2", "x2": "x0"}]) == 1
    cyc = action_from_group("cyclic", 6)
    assert pak_zuk_nu(cyc, [{"r": "r~", "r~": "r"}]) == 1
    sl = action_from_group("sl_mod", 2, 3)
    swap = {"e01+": "e10+", "e10+": "e01+", "e01-": "e10-", "e10-": "e01-"}
    assert pak_zuk_nu(sl, [swap]) == 2
    assert pak_zuk_nu(sl, []) == 4  # no symmetry: singleton orbits


def test_nu_rejects_non_label_maps():
    cube = action_from_group("boolean_cube", 2)
    with pytest.raises(ValueError, match="labels"):
        pak_zuk_nu(cube, [{"x0": "x1"}])
    with pytest.raises(ValueError, match="labels"):
        pak_zuk_nu(cube, [{"x0": "x0", "x1": "nope"}])


def test_sandwich_tight_on_cycles():
    rep = verify_sandwich(action_from_group("cyclic", 8), p=2.0, nu=1, seed=3)
    assert rep.ok
    assert abs(rep.slacks["lower"]) < 1e-6
    assert abs(rep.slacks["upper"]) < 1e-6


@pytest.mark.parametrize("nu", [0, -1])
def test_sandwich_rejects_nu_below_one(nu):
    with pytest.raises(ValueError, match="at least 1"):
        verify_sandwich(action_from_group("cyclic", 5), p=2.0, nu=nu)


def test_sandwich_cube_p2_upper_equality():
    # gap = (|S|/2) kappa^2 exactly on cubes
    rep = verify_sandwich(action_from_group("boolean_cube", 3), p=2.0, seed=3)
    assert rep.ok
    lam = rep.gap.value
    assert (rep.generators / 2.0) * rep.kappa.value**2 == pytest.approx(lam, rel=0.01)


def test_sandwich_sl2_p3():
    rep = verify_sandwich(action_from_group("sl_mod", 2, 3), p=3.0, seed=3)
    assert rep.ok, rep.slacks


def test_action_file_roundtrip(tmp_path):
    a = action_from_group("sl_mod", 2, 3)
    path = tmp_path / "action.txt"
    write_action_file(a, str(path))
    b = read_action_file(str(path))
    assert b.m == a.m and b.labels == a.labels and b.inverse == a.inverse
    assert np.array_equal(b.perms, a.perms)
    assert b.elements is None and b.right_translations is None


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_action_file_refuses_missing_generator_lines(tmp_path):
    path = _write(tmp_path / "a.txt", "3 3\nr l 1 2 0\nl r 2 0 1\n")
    with pytest.raises(ValueError, match="declares 3 generators but file has 2"):
        read_action_file(path)


def test_action_file_refuses_extra_generator_lines(tmp_path):
    path = _write(tmp_path / "a.txt", "3 1\nr l 1 2 0\nl r 2 0 1\n")
    with pytest.raises(ValueError, match="declares 1 generators but file has 2"):
        read_action_file(path)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "3 2\nr l 1 2 0\nl\n"])
def test_action_file_refuses_malformed_files_by_path(tmp_path, text):
    path = _write(tmp_path / "a.txt", text)
    with pytest.raises(ValueError, match=re.escape(path)):
        read_action_file(path)


@pytest.mark.parametrize(
    "text,line,what",
    [
        ("3\nr l 1 2 0\n", 1, "expected 'm g' (2 values), got 1"),
        ("3 2\n# rotations\nr l 1 2 0\nl r 2 0\n", 4, "expected 'label inverse-label' and 3 images, got 4 values"),
        ("3 2\nr l 1 2 0\nl r 2 0 y\n", 3, "expected 3 integer images, got '2 0 y'"),
    ],
)
def test_action_file_names_the_line_of_a_bad_row(tmp_path, text, line, what):
    path = _write(tmp_path / "a.txt", text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {what}")):
        read_action_file(path)


def test_action_file_names_unknown_inverse_label(tmp_path):
    path = _write(tmp_path / "a.txt", "3 2\nr z 1 2 0\nl r 2 0 1\n")
    with pytest.raises(ValueError, match="unknown inverse label 'z'"):
        read_action_file(path)
