"""The colouring and matching searches against brute force on small inputs.

The reference helpers here share no code with the library: a plain
backtracking k-colouring in vertex order, and a scan over every edge subset.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.graph_core import build_graph, chromatic_number
from ramseylab.hypergraph_lab import make_hypergraph, max_matching


def _colourable(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[max(u, v)].append(min(u, v))
    colours = [0] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if all(colours[u] != c for u in nbrs[v]):
                colours[v] = c
                if extend(v + 1):
                    return True
        return False

    return extend(0)


def _brute_chromatic(n: int, edges: list[tuple[int, int]]) -> int:
    return next(k for k in range(n + 1) if _colourable(n, edges, k))


def _brute_matching(edges: list[tuple[int, ...]]) -> int:
    for size in range(len(edges), 0, -1):
        for subset in combinations(edges, size):
            used = [set(col) for col in zip(*subset)]
            if all(len(col) == size for col in used):
                return size
    return 0


_graphs = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]),
             unique=True) if n > 1 else st.just([])))

_hypergraphs = st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes),
        st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=10)))


@settings(max_examples=300, deadline=None)
@given(_graphs)
def test_chromatic_number_is_the_least_colourable_palette(graph):
    n, edges = graph
    res = chromatic_number(build_graph(n, edges))
    assert res.value == _brute_chromatic(n, edges)
    assert all(res.witness.colors[u] != res.witness.colors[v] for u, v in edges)


@settings(max_examples=300, deadline=None)
@given(_hypergraphs)
def test_max_matching_is_the_largest_disjoint_subset(hypergraph):
    sizes, edges = hypergraph
    res = max_matching(make_hypergraph(sizes, edges))
    assert res.size == _brute_matching(edges) == len(res.witness)
    picked = [edges[j] for j in res.witness]
    assert all(len(set(col)) == len(picked) for col in zip(*picked))
