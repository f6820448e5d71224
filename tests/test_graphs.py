import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from graph_strategies import connected_multigraphs
from kernel_reference import bfs_distances, laplacian

from banachgap import graphs
from banachgap.distortion import frechet_embedding
from banachgap.graphs import (
    all_pairs_distances,
    build_graph,
    gen_family,
    graph_to_json,
    read_edge_list,
    write_edge_list,
)
from banachgap.spectral import gap_exact_2


def test_nonloop_arrays_are_read_only_and_built_once():
    G = build_graph(3, [(0, 1, 2), (1, 2, 1), (2, 2, 1)])
    eu, ev, em = G.nonloop_arrays()
    assert eu.tolist() == [0, 1] and ev.tolist() == [1, 2] and em.tolist() == [2, 1]
    with pytest.raises(ValueError):
        eu[0] = 5
    with pytest.raises(ValueError):
        G.nonloop_arrays()[2][:] = 0
    assert G.nonloop_arrays()[0] is eu


def test_filled_cache_leaves_equality_and_hash_alone():
    G = gen_family("random_regular", [20, 3], seed=4)
    fresh = gen_family("random_regular", [20, 3], seed=4)
    G.nonloop_arrays()
    gap_exact_2(G)
    assert G._memo and not fresh._memo
    assert G == fresh
    assert hash(G) == hash(fresh)
    assert "_memo" not in repr(G)


def test_build_single_edge():
    G = build_graph(2, [(0, 1, 1)])
    assert G.degrees == (1, 1)
    assert G.connected


def test_loop_counts_twice():
    G = build_graph(1, [(0, 0, 1)])
    assert G.degrees == (2,)


def test_triangle_merges_duplicates():
    G = build_graph(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1), (0, 2, 1)])
    assert G.edge_multiset()[(0, 1)] == 3
    assert G.max_degree == 4


@pytest.mark.parametrize(
    "edges, err",
    [([(0, 3, 1)], "out of range"), ([(0, 1, 0)], "multiplicity")],
)
def test_build_errors(edges, err):
    with pytest.raises(ValueError, match=err):
        build_graph(2, edges)


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
                min_size=1,
                max_size=12,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_handshake(case):
    n, edges = case
    G = build_graph(n, edges)
    assert sum(G.degrees) == G.oriented_edge_count == 2 * sum(m for _, _, m in G.edges)


def test_hamming_properties():
    for n in range(1, 6):
        H = gen_family("hamming", [n])
        assert H.n == 2**n
        assert set(H.degrees) == {n}
        assert all_pairs_distances(H).diameter == n


def test_hamming2_is_a_4_cycle():
    H = gen_family("hamming", [2])
    assert H.n == 4 and set(H.degrees) == {2} and H.connected
    assert all_pairs_distances(H).diameter == 2


def test_complete_4():
    K = gen_family("complete", [4])
    assert set(K.degrees) == {3}
    assert all_pairs_distances(K).diameter == 1


def test_cycle_small_cases():
    assert gen_family("cycle", [1]).edges == ((0, 0, 1),)
    assert gen_family("cycle", [2]).edges == ((0, 1, 2),)
    assert len(gen_family("cycle", [6]).edges) == 6


def test_path():
    P = gen_family("path", [5])
    assert len(P.edges) == 4
    assert all_pairs_distances(P).diameter == 4


def test_metric_values():
    assert all_pairs_distances(gen_family("cycle", [6])).diameter == 3
    K5 = all_pairs_distances(gen_family("complete", [5]))
    off = K5.d[~np.eye(5, dtype=bool)]
    assert set(off.tolist()) == {1}
    H3 = all_pairs_distances(gen_family("hamming", [3]))
    assert H3.d[0, 7] == 3


@pytest.mark.parametrize("kind,params", [("cycle", [7]), ("hamming", [3]), ("complete", [5])])
def test_vertex_transitive_row_multisets(kind, params):
    G = gen_family(kind, params)
    met = all_pairs_distances(G)
    rows = {tuple(sorted(met.d[v].tolist())) for v in range(G.n)}
    assert len(rows) == 1


def test_random_regular_basics():
    G = gen_family("random_regular", [20, 3], seed=7)
    assert set(G.degrees) == {3}
    assert G.connected
    assert gen_family("random_regular", [20, 3], seed=7).edges == G.edges


def test_random_regular_dense_case():
    G = gen_family("random_regular", [8, 5], seed=3)
    assert set(G.degrees) == {5} and G.connected


def test_random_regular_parity_error():
    with pytest.raises(ValueError, match="even"):
        gen_family("random_regular", [7, 3])


# SHA-256 over repr((n, d, seed, edges as int triples)) for n = 6..50, 1000 and
# 2000 (n*d even) and seeds 0-4: the stub pairing's edge lists stay fixed.
RANDOM_REGULAR_DIGESTS = {
    3: "773d0cbe23224832dfea498191c845a77374bf022cbeb57efb7e083683912c38",
    4: "d5889bb0a18a2db6c3404fe93e3dc414af555cd646099e1b76728977ea7c5448",
    5: "c2f43e6a8f86171ada74523d48c2efd69ffa15328352daa58395db758caba112",
}


@pytest.mark.parametrize("d", sorted(RANDOM_REGULAR_DIGESTS))
def test_random_regular_edge_lists_are_fixed_python_ints(d):
    digest = hashlib.sha256()
    for n in [*range(6, 51), 1000, 2000]:
        if n * d % 2:
            continue
        for seed in range(5):
            edges = list(gen_family("random_regular", [n, d], seed=seed).edges)
            assert all(type(x) is int for e in edges for x in e)
            digest.update(repr((n, d, seed, edges)).encode())
    assert digest.hexdigest() == RANDOM_REGULAR_DIGESTS[d]


def test_margulis():
    G = gen_family("margulis", [3])
    assert G.n == 9
    assert set(G.degrees) == {8}
    assert G.connected


# Up to 200 vertices: a search runs one, two, three or four 64-source words.
WORD_GRAPHS = connected_multigraphs(1, 200, drawn_reach=True)


@given(WORD_GRAPHS)
@settings(max_examples=150, deadline=None)
def test_metric_equals_reference_bfs(G):
    met = all_pairs_distances(G)
    ref = bfs_distances(G)
    assert met.d.dtype == np.int64
    assert np.array_equal(met.d, ref)
    assert met.diameter == int(ref.max())


@given(WORD_GRAPHS, st.integers(1, 3000))
@settings(max_examples=100, deadline=None)
def test_chunked_metric_equals_reference_bfs(G, entries):
    # chunks of max(1, entries // 2|E|) words of 64 sources: single words,
    # several words, partial last words and partial last chunks
    with mock.patch.object(graphs, "_BFS_CHUNK_ENTRIES", entries):
        met = graphs._bfs_all_sources(G)
    ref = bfs_distances(G)
    assert np.array_equal(met.d, ref)
    assert met.diameter == int(ref.max())


@given(connected_multigraphs(1, 12, drawn_reach=True), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_laplacian_equals_reference_loop(G, t):
    assert G.laplacian().tobytes() == laplacian(G).tobytes()
    # The certificate's shifted matrix: integer fill plus the Laplacian, exactly.
    filled = G.add_laplacian(np.full((G.n, G.n), float(t)))
    assert filled.tobytes() == (laplacian(G) + float(t)).tobytes()


def test_metric_of_one_vertex():
    for G in (build_graph(1, []), build_graph(1, [(0, 0, 2)])):
        met = all_pairs_distances(G)
        assert met.d.tolist() == [[0]] and met.diameter == 0


@pytest.mark.parametrize(
    "make, want, diameter",
    [
        (lambda: gen_family("path", [3000]), lambda i, j: np.abs(i - j), 2999),
        (lambda: gen_family("cycle", [3000]), lambda i, j: np.minimum(np.abs(i - j), 3000 - np.abs(i - j)), 1500),
        (lambda: build_graph(30, [(0, v, 1) for v in range(1, 30)]), lambda i, j: np.where(i == j, 0, 1 + ((i > 0) & (j > 0))), 2),
        (lambda: gen_family("complete", [40]), lambda i, j: (i != j).astype(np.int64), 1),
    ],
    ids=["path:3000", "cycle:3000", "star:30", "complete:40"],
)
def test_metric_closed_forms(make, want, diameter):
    G = make()
    met = all_pairs_distances(G)
    i, j = np.indices((G.n, G.n))
    assert np.array_equal(met.d, want(i, j))
    assert met.diameter == diameter


def test_metric_margulis_equals_reference_bfs():
    for m in (6, 12):  # 36 vertices in one word, 144 in three
        G = gen_family("margulis", [m])
        assert np.array_equal(all_pairs_distances(G).d, bfs_distances(G))


def test_search_peaks_within_one_and_three_quarter_tables():
    # the words, the bit planes and a level's cells stay small beside the table
    G = gen_family("random_regular", [2000, 3], seed=1)
    G.nonloop_arrays()
    tracemalloc.start()
    try:
        met = graphs._bfs_all_sources(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * met.d.nbytes


def test_metric_is_built_once_and_read_only():
    G = gen_family("hamming", [4])
    met = all_pairs_distances(G)
    assert all_pairs_distances(G) is met
    assert not met.d.flags.writeable
    with pytest.raises(ValueError):
        met.d[0, 1] = 7
    F = frechet_embedding(G, met)
    assert F.flags.writeable and np.array_equal(F, met.d)
    F[0, 1] = 7
    assert met.d[0, 1] == 1


def test_disconnected_flag_and_metric_error():
    G = build_graph(4, [(0, 1, 1), (2, 3, 1)])
    assert not G.connected
    with pytest.raises(ValueError):
        all_pairs_distances(G)


def test_edge_list_roundtrip(tmp_path):
    G = gen_family("margulis", [2])
    path = tmp_path / "g.edges"
    write_edge_list(G, str(path))
    assert read_edge_list(str(path)).edges == G.edges
    assert '"n": 4' in graph_to_json(G)


def test_edge_list_header_mismatch(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 2\n0 1 1\n")
    with pytest.raises(ValueError, match="header"):
        read_edge_list(str(path))


@pytest.mark.parametrize(
    "text,line,what",
    [
        ("3\n0 1 1\n", 1, "expected 'n m' (2 values), got 1"),
        ("# a triangle\n3 3\n0 1 1\n1 2\n2 0 1\n", 4, "expected 'u v mult' (3 values), got 2"),
        ("3 2\n0 1 1\n\n1 2 1 1\n", 4, "expected 'u v mult' (3 values), got 4"),
        ("3 2\n0 1 1\n1 x 1\n", 3, "expected integers 'u v mult', got '1 x 1'"),
    ],
)
def test_edge_list_names_the_file_and_line_of_a_bad_row(tmp_path, text, line, what):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {what}")):
        read_edge_list(str(path))
