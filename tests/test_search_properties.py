"""The colouring, matching, c_k edge and maximum cover searches against
brute force on small inputs.

The reference helpers here share no code with the library: a plain
backtracking k-colouring in vertex order, a Grundy check, a scan over every
edge subset, a scan over every edge colouring of K_n, and a scan over every
r-tuple of edge-maximal generalized factors of K_n.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import or_

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylab.factor_lab import max_coverable_edges
from ramseylab.graph_core import NodeBudget, _exact_k_coloring, build_graph, chromatic_number
from ramseylab.extremal import claim51_hypergraph, truncated_plane
from ramseylab.hypergraph_lab import (
    _clique_cover,
    _masks,
    _vertex_ids,
    disjoint_copies,
    make_hypergraph,
    max_matching,
)
from ramseylab.ramsey_search import parse_family
from test_ramsey_search import color_kn


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


def _grundy(n: int, edges: list[tuple[int, int]], colours: list[int]) -> bool:
    """Whether every vertex of colour c has a neighbour of each colour below c."""
    seen: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        seen[u].add(colours[v])
        seen[v].add(colours[u])
    return all(set(range(colours[v])) <= seen[v] for v in range(n))


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

# the same graphs with the edges across a random cut dropped: mostly disconnected
_split_graphs = st.tuples(_graphs, st.integers(1, 7)).map(
    lambda drawn: (drawn[0][0], [(u, v) for u, v in drawn[0][1]
                                 if (u < drawn[1]) == (v < drawn[1])]))

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
    assert all(res.colors[u] != res.colors[v] for u, v in edges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_graphs, _split_graphs))
# two 3-colourable graphs whose saturation first fit takes 4 colours: the
# search must keep a branch in which a vertex lacks a lower colour that an
# uncoloured neighbour can still take
@example((7, [(0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 6), (4, 5),
              (4, 6)]))
@example((8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (3, 5), (3, 7), (4, 6), (5, 6),
              (5, 7), (6, 7)]))
def test_k_colouring_search_finds_a_grundy_colouring_whenever_one_exists(graph):
    # the search keeps only Grundy colourings and starts each component at colour 0
    n, edges = graph
    g = build_graph(n, edges)
    for k in range(1, n + 1):
        found = _exact_k_coloring(g, k, NodeBudget())
        assert (found is not None) == _colourable(n, edges, k)
        if found is not None:
            assert max(found) < k and all(found[u] != found[v] for u, v in edges)
            assert _grundy(n, edges, found)


@settings(max_examples=300, deadline=None)
@given(_hypergraphs)
def test_max_matching_is_the_largest_disjoint_subset(hypergraph):
    sizes, edges = hypergraph
    res = max_matching(make_hypergraph(sizes, edges))
    assert res.size == _brute_matching(edges) == len(res.witness)
    picked = [edges[j] for j in res.witness]
    assert all(len(set(col)) == len(picked) for col in zip(*picked))


def _plane(p: int) -> tuple[list[int], list[tuple[int, ...]]]:
    h = truncated_plane(p)
    return list(h.part_sizes), list(h.edges)


@settings(max_examples=300, deadline=None)
@given(_hypergraphs)
# every two edges meet, and no vertex lies on all of them
@example(_plane(2))
@example(_plane(3))
def test_clique_cover_groups_pairwise_meet_and_bound_every_matching(hypergraph):
    sizes, edges = hypergraph
    verts, starts = _vertex_ids(make_hypergraph(sizes, edges))
    groups = _clique_cover(_masks(verts, starts[-1])[1], len(edges))
    assert sorted(j for g in groups for j in range(len(edges)) if g >> j & 1) == \
        list(range(len(edges)))
    assert len(groups) >= _brute_matching(edges)
    for g in groups:
        members = [edges[j] for j in range(len(edges)) if g >> j & 1]
        assert all(any(x == y for x, y in zip(a, b)) for a, b in combinations(members, 2))


def test_a_tight_clique_cover_settles_each_component_at_its_root():
    # claim51 with p = 2, m = 1 is one group of pairwise meeting edges
    for copies in (1, 2, 5):
        res = max_matching(disjoint_copies(claim51_hypergraph(2, 1), copies))
        assert (res.size, res.nodes) == (copies, copies)
    for p in (2, 3):
        assert max_matching(truncated_plane(p)).nodes == 1


def _contains(n: int, edges: list[tuple[int, int]], token: str) -> bool:
    """Whether the graph on 0..n-1 with these edges contains the pattern a
    family token names: K3, P4 (3-edge path), S3 (3-edge star), STAR:r (the
    star with r + 1 edges), PATH:l (l edges) or MATCH:m (m disjoint edges)."""
    present = set(edges) | {(v, u) for u, v in edges}
    if token == "K3":
        return any({(a, b), (b, c), (a, c)} <= present for a, b, c in combinations(range(n), 3))
    kind, _, size = {"P4": "PATH:3", "S3": "STAR:2"}.get(token, token).partition(":")
    size = int(size)
    if kind == "STAR":
        return any(sum((v, u) in present for u in range(n)) > size for v in range(n))
    if kind == "PATH":
        return any(all((a, b) in present for a, b in zip(walk, walk[1:]))
                   for walk in permutations(range(n), size + 1))
    return any(len({v for e in subset for v in e}) == 2 * size
               for subset in combinations(edges, size))


def _admissible(n: int, k: int, tokens: list[str], colours) -> bool:
    pairs = list(combinations(range(n), 2))
    return not any(_contains(n, [e for e, c in zip(pairs, colours) if c == colour], token)
                   for colour in range(k) for token in tokens)


def _brute_colourable(n: int, k: int, tokens: list[str]) -> bool:
    return any(_admissible(n, k, tokens, colours)
               for colours in product(range(k), repeat=n * (n - 1) // 2))


_tokens = st.lists(st.one_of(
    st.sampled_from(["K3", "P4", "S3"]),
    st.integers(0, 3).map(lambda r: f"STAR:{r}"),
    st.integers(1, 4).map(lambda length: f"PATH:{length}"),
    st.integers(1, 3).map(lambda m: f"MATCH:{m}")), min_size=1, max_size=3)

_sizes = st.one_of(st.tuples(st.integers(1, 5), st.integers(1, 2)),
                   st.tuples(st.integers(1, 4), st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(_tokens, _sizes)
def test_edge_search_agrees_with_enumeration(tokens, size):
    # the row break, canonical colour introduction and the order the row
    # tries its colours in may drop colourings, never the last admissible one
    n, k = size
    fam = parse_family(",".join(tokens))
    coloring, _ = color_kn(n, k, fam)
    assert (coloring is not None) == _brute_colourable(n, k, tokens)
    if coloring is not None:
        assert _admissible(n, k, tokens, coloring)


def _generalized_factors(n: int) -> list[int]:
    """Every edge subset of K_n, as a bitmask over its pairs in lexicographic
    order, whose components have at most three vertices."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        part = list(range(n))
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                old, new = part[v], part[u]
                part = [new if p == old else p for p in part]
        if all(part.count(p) <= 3 for p in part):
            out.append(mask)
    return out


def test_max_cover_is_the_best_union_of_factors():
    for n in range(1, 7):
        factors = _generalized_factors(n)
        assert n < 6 or len(factors) == 556
        # a factor lies in an edge-maximal one, so these reach the best union
        maximal = [f for f in factors if not any(f != g and f & g == f for g in factors)]
        for r in range(1, 4):
            best = max(reduce(or_, tup).bit_count()
                       for tup in combinations_with_replacement(maximal, r))
            assert max_coverable_edges(n, r).value == best, (n, r)
