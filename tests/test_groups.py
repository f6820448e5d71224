import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachgap._kernels import kappa_residuals
from banachgap.graphs import gen_family
from banachgap.groups import (
    PermutationAction,
    action_from_group,
    kappa_estimate,
    pak_zuk_nu,
    read_action_file,
    schreier_graph,
    validate_action,
    verify_sandwich,
    write_action_file,
)


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


def test_coset_action():
    a = action_from_group("cyclic", 6, subgroup=[3])
    assert a.m == 3
    assert schreier_graph(a).edges == gen_family("cycle", [3]).edges


def test_regularity_of_schreier_degree():
    for a in (action_from_group("boolean_cube", 4), action_from_group("sl_mod", 2, 3), action_from_group("cyclic", 7)):
        assert set(schreier_graph(a).degrees) == {a.size}


def test_validate_rejects_identity_and_intransitive():
    ident = np.arange(3)[None, :]
    with pytest.raises(ValueError, match="identity"):
        validate_action(PermutationAction(m=3, labels=("e",), perms=ident, inverse=(0,)))
    swap_pairs = np.array([[1, 0, 3, 2]])
    with pytest.raises(ValueError, match="transitive"):
        validate_action(PermutationAction(m=4, labels=("s",), perms=swap_pairs, inverse=(0,)))


def test_validate_rejects_wrong_inverse():
    perms = np.array([[1, 2, 0], [1, 2, 0]])
    with pytest.raises(ValueError, match="inverse"):
        validate_action(PermutationAction(m=3, labels=("a", "b"), perms=perms, inverse=(1, 0)))


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
    assert est.lower_from_gap <= est.value + 1e-6
    est3 = kappa_estimate(action_from_group("boolean_cube", 3), p=2.0, d=1, seed=2)
    assert est3.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)


def test_kappa_constant_start_is_degenerate_and_never_wins():
    # A constant field centres to zero; it must not report a value below
    # the certified lower bound (kappa of cyclic(6) at p = 2 is exactly 1).
    est = kappa_estimate(action_from_group("cyclic", 6), p=2.0, restarts=3, warm_starts=[np.ones((6, 1))])
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.diagnostics["per_restart"][1] == {"stop_reason": "degenerate", "iterations": 0}


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
        assert est.lower_from_gap <= est.value * (1 + 1e-6) + 1e-9


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
