"""The hypothesis strategy for connected multigraphs, shared by the test modules."""

from hypothesis import strategies as st

from banachgap.graphs import build_graph


@st.composite
def connected_multigraphs(draw, min_n, max_n, drawn_reach=False):
    """A random spanning tree plus extra edges, with loops and multiplicities.

    Vertex v hangs off one of the ``reach`` vertices before it, so a small
    reach gives a long, path-like tree and a large one a shallow tree.  The
    reach is drawn from 1..n when ``drawn_reach`` is set, else it is n.
    """
    n = draw(st.integers(min_n, max_n))
    reach = draw(st.integers(1, n)) if drawn_reach else n
    edges = [(draw(st.integers(max(0, v - reach), v - 1)), v, draw(st.integers(1, 3))) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=2 * n))
    return build_graph(n, edges)
