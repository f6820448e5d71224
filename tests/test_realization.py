import hashlib

import kernel_reference as ref
import numpy as np
import pytest
from graph_strategies import connected_multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st

from banachgap.acceptance import _realization_corpus
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
        assert action.right_translations is None


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


def _golden_graph(name):
    if name == "loops":  # pad loops of 4 at vertex 0 merge into its loop; 1 and 3 gain new ones
        return build_graph(4, [(0, 0, 1), (0, 1, 2), (1, 2, 1), (2, 2, 2), (2, 3, 3)])
    if name == "loop3":
        return build_graph(1, [(0, 0, 3)])
    kind, params = name.split(":")
    return gen_family(kind, [int(x) for x in params.split(",")], seed=1)


# SHA-256 of np.asarray(schreier_realize(G, seed).perms, dtype=np.int64).tobytes():
# every generator family, merged pad loops, one vertex with loops (cycle:1,
# loop3) and the benchmark's large realizations.
GOLDEN_PERMS = [
    ("cycle:1", 0, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ("cycle:2", 1, "af8a44699e0fe2cbe8fcb03e513ef95500dcd533abce01646342d7d2d5dbc5d4"),
    ("cycle:7", 2, "d520ded8cdd9c8dcd6fa725689d84d0b567674f10237823c55a53aa72e6f9a7c"),
    ("complete:2", 0, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    ("complete:5", 3, "eaf16d95a05b016fa43b037d682d1366a1dd965e38f00b2241d3606617def71f"),
    ("complete:6", 4, "c5317fa8fb678c8b8004f1e7ced2fef396b8739074dbc8161c9870e40d4b037c"),
    ("hamming:1", 0, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    ("hamming:4", 5, "3a20b69b5766661f5d247e54d3467694f9db853faf62d75bac0bf082d03b3b5f"),
    ("path:1", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("path:2", 0, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    ("path:9", 6, "6852aa50eb4be5a95785a5482633dc2aec465e70b9928b2d0439ad3e9bb5797b"),
    ("margulis:1", 0, "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"),
    ("margulis:3", 7, "2b6f985b3fb05299d33499dd52b3f9d2db032aaf630124f4e355c75e1c5ffc96"),
    ("margulis:6", 8, "aa7701c5ba2c08523961b6cd22f56a5a6b96a399ad98a6c8c35ec39aa8efdb72"),
    ("random_regular:12,3", 9, "9f666570a3658e52435f3201d31e2f0ad0db574ba3e5a9bc0c6667dfed9ca15c"),
    ("random_regular:30,4", 1, "e00fdd7149e83347be5feacfdf024091ab8b27381c12d27d1eaf1c03cdae8ad8"),
    ("random_regular:24,5", 3, "9a2e6b1f57fd81cd59fa5045e3037056f0cabd941e375bd7115c44b93047ce3b"),
    ("loops", 0, "e2aec931f2cde3f230381349b11b43538a0d4531947a84139f8c7b5249a7661b"),
    ("loops", 5, "8f73bf4eea7dcd51eee7f2c0de75f271a6b94fa117a5812d533df2c3def0b747"),
    ("loop3", 2, "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1"),
    ("hamming:10", 11, "4aef9b252d0976c616fab56775ab6034579ea44b672375734c183a82635e2f52"),
    ("margulis:32", 12, "1da583a4f4cce84aad76d0c5a2d56af2baacaac553852defc1fc89e8826db709"),
    ("random_regular:2000,3", 13, "aa374ee9d543a7e1aab003458c966bdbd8c48623323fdc65341dcdec669a4885"),
    ("cycle:2000", 14, "d7ad611ba7db71a8e14f88925ce9cd67d76855eaf2c383ed04fa581a08a15265"),
    ("path:1000", 15, "70ac44f9625e4a7efc00fa4090d13090cd92347cd54468ebdc2ae190f7c015a1"),
]


@pytest.mark.parametrize("name, seed, digest", GOLDEN_PERMS)
def test_realization_permutations_are_byte_identical(name, seed, digest):
    perms = schreier_realize(_golden_graph(name), seed=seed).perms
    assert hashlib.sha256(np.asarray(perms, dtype=np.int64).tobytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def corpus():
    """Criterion 6's graphs at seeds 0-2."""
    return [G for seed in range(3) for _, G in _realization_corpus(seed)]


def _assert_regularization_matches_reference(G):
    Gp, want = even_regularize(G), ref.even_regularize(G)
    assert (Gp.edges, Gp.degrees, Gp.connected) == (want.edges, want.degrees, want.connected)
    assert all(type(x) is int for e in Gp.edges for x in e)


def test_regularization_matches_the_reference_on_the_corpus(corpus):
    for G in corpus:
        _assert_regularization_matches_reference(G)


@given(connected_multigraphs(1, 12, drawn_reach=True))
@settings(max_examples=150, deadline=None)
def test_regularization_matches_the_reference_on_random_multigraphs(G):
    _assert_regularization_matches_reference(G)


def _corruptions(perms):
    """A rolled first permutation, two of its entries swapped, an identity
    factor in its place, and a non-bijective array."""
    sigma, rest = perms[0], tuple(perms[1:])
    swapped, squashed = sigma.copy(), sigma.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    squashed[0] = squashed[-1]
    return [(np.roll(sigma, 1), *rest), (swapped, *rest), (np.arange(sigma.shape[0]), *rest), (squashed, *rest)]


def _assert_round_trip_matches_reference(spec):
    n = spec.base.n
    for perms in [spec.perms, *(_corruptions(spec.perms) if spec.perms else [])]:
        check = SchreierSpec(base=spec.base, perms=perms, provenance=spec.provenance)
        ok, diff = verify_realization(check)
        assert (ok, diff) == ref.verify_realization(check)
        assert all(type(x) is int for key, counts in diff.items() for x in (*key, *counts.values()))
        assert reassemble(n, list(perms)) == ref.reassemble(n, perms)


def test_round_trip_matches_the_reference_on_the_corpus(corpus):
    for i, G in enumerate(corpus):
        _assert_round_trip_matches_reference(schreier_realize(G, seed=i))


@given(connected_multigraphs(1, 12, drawn_reach=True), st.integers(0, 1 << 30))
@settings(max_examples=150, deadline=None)
def test_round_trip_matches_the_reference_on_random_multigraphs(G, seed):
    _assert_round_trip_matches_reference(schreier_realize(G, seed=seed))


@pytest.mark.parametrize("entry", [-1, 6, 1 << 40])
def test_permutation_entry_out_of_range_raises(entry):
    spec = schreier_realize(gen_family("cycle", [6]), seed=0)
    sigma = spec.perms[0].copy()
    sigma[2] = entry
    with pytest.raises(ValueError, match="out of range"):
        verify_realization(SchreierSpec(base=spec.base, perms=(sigma,), provenance=spec.provenance))
    with pytest.raises(ValueError, match="out of range"):
        reassemble(6, [sigma])
