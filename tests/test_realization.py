import numpy as np
import pytest

from banachgap.graphs import build_graph, gen_family
from banachgap.groups import schreier_graph
from banachgap.realization import (
    SchreierSpec,
    even_regularize,
    reassemble,
    schreier_realize,
    spec_to_action,
    two_factorize,
    verify_realization,
)
from banachgap.spectral import gap_estimate, gap_exact_2

K2 = build_graph(2, [(0, 1, 1)])


def test_regularize_single_edge():
    Gp = even_regularize(K2)
    assert Gp.edges == ((0, 1, 2),)
    assert set(Gp.degrees) == {2}


def test_regularize_path_pads_endpoints():
    Gp = even_regularize(gen_family("path", [3]))
    assert set(Gp.degrees) == {4}
    assert Gp.edge_multiset()[(0, 0)] == 1
    assert Gp.edge_multiset()[(2, 2)] == 1
    assert (1, 1) not in Gp.edge_multiset()


def test_regularize_loop_vertex():
    G = build_graph(1, [(0, 0, 1)])
    Gp = even_regularize(G)
    # the loop doubles like any edge; max degree 2 means target degree 4
    assert Gp.edges == ((0, 0, 2),)


@pytest.mark.parametrize(
    "G",
    [K2, gen_family("path", [3]), gen_family("complete", [5]), gen_family("hamming", [3]), gen_family("margulis", [2])],
)
def test_regularity_and_gap_doubling(G):
    Gp = even_regularize(G)
    assert set(Gp.degrees) == {2 * G.max_degree}
    if G.n > 1:
        assert gap_exact_2(Gp).value == pytest.approx(2 * gap_exact_2(G).value, rel=1e-12)


def test_gap_doubling_at_other_exponents():
    G = gen_family("cycle", [5])
    Gp = even_regularize(G)
    for p in (1.0, 3.0):
        lam = gap_estimate(G, p=p, q=p, seed=1).value
        lamp = gap_estimate(Gp, p=p, q=p, seed=1).value
        assert lamp == pytest.approx(2 * lam, rel=1e-4)


def test_factorize_doubled_edge_is_transposition():
    perms = two_factorize(even_regularize(K2))
    assert len(perms) == 1
    assert perms[0].tolist() == [1, 0]


def test_factorize_cycle_is_rotation():
    perms = two_factorize(gen_family("cycle", [6]), seed=1)
    assert len(perms) == 1
    sigma = perms[0]
    shifts = {(int(sigma[v]) - v) % 6 for v in range(6)}
    assert shifts in ({1}, {5})  # one full rotation, direction seed-determined
    assert reassemble(6, [sigma]).edges == gen_family("cycle", [6]).edges


def test_factorize_rejects_irregular_and_odd():
    with pytest.raises(ValueError, match="regular"):
        two_factorize(gen_family("path", [3]))
    with pytest.raises(ValueError, match="odd|even"):
        two_factorize(gen_family("complete", [4]))


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
def test_factorize_roundtrip_random_regular(deg):
    for i in range(5):
        G = gen_family("random_regular", [12 + 2 * i, deg], seed=100 + 10 * deg + i)
        perms = two_factorize(G, seed=i)
        assert len(perms) == deg // 2
        assert reassemble(G.n, list(perms)).edges == G.edges


def test_realize_triangle():
    spec = schreier_realize(gen_family("complete", [3]), seed=0)
    assert set(spec.base.degrees) == {4}
    assert len(spec.perms) == 2
    ok, diff = verify_realization(spec)
    assert ok and not diff


def test_realize_loop_vertex_identity_factors():
    spec = schreier_realize(build_graph(1, [(0, 0, 1)]), seed=0)
    assert all(sigma.tolist() == [0] for sigma in spec.perms)
    assert verify_realization(spec)[0]


def test_realize_hamming3():
    spec = schreier_realize(gen_family("hamming", [3]), seed=2)
    assert set(spec.base.degrees) == {6}
    assert len(spec.perms) == 3
    assert verify_realization(spec)[0]


def test_realized_action_schreier_graph_equals_base():
    for G in (gen_family("complete", [3]), gen_family("hamming", [2]), gen_family("random_regular", [10, 3], seed=4)):
        spec = schreier_realize(G, seed=7)
        action = spec_to_action(spec)
        assert schreier_graph(action).edges == spec.base.edges


def test_verify_detects_corruption():
    spec = schreier_realize(gen_family("cycle", [6]), seed=0)
    bad = (np.roll(spec.perms[0], 2),)
    ok, diff = verify_realization(SchreierSpec(base=spec.base, perms=bad, provenance=spec.provenance))
    assert not ok and diff


def test_inverse_rotation_same_multiset():
    rot = np.array([1, 2, 3, 4, 5, 0])
    assert reassemble(6, [rot]).edges == reassemble(6, [np.argsort(rot)]).edges


def test_realization_deterministic_per_seed():
    G = gen_family("random_regular", [14, 4], seed=9)
    s1 = schreier_realize(G, seed=5)
    s2 = schreier_realize(G, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(s1.perms, s2.perms))


@pytest.mark.parametrize("gen", ["cycle:2000", "path:3000", "random_regular:2000,5", "cycle:5000"])
def test_realize_large_roundtrip(gen):
    kind, params = gen.split(":")
    G = gen_family(kind, [int(x) for x in params.split(",")], seed=1)
    spec = schreier_realize(G, seed=3)
    assert verify_realization(spec)[0]
    assert all(np.array_equal(np.sort(sigma), np.arange(G.n)) for sigma in spec.perms)
