"""Partite hypergraphs: the factor bijection, matchings, chromatic index."""

from __future__ import annotations

import random

import pytest

from ramseylab.errors import BudgetExceededError, ParseError, ValidationError
from ramseylab.extremal import truncated_plane
from ramseylab.factor_lab import PROPER, random_factor
from ramseylab.graph_core import build_graph, chromatic_number, union_graphs
from ramseylab.hypergraph_lab import (
    MAX_MATCHING_EDGES,
    PartiteHypergraph,
    disjoint_copies,
    factors_to_hypergraph,
    hypergraph_from_text,
    hypergraph_to_factors,
    hypergraph_to_text,
    line_graph,
    make_hypergraph,
    max_matching,
    regularity,
)


def _random_hypergraph(rng: random.Random, r: int | None = None,
                       max_edges: int = 9) -> PartiteHypergraph:
    r = r if r is not None else rng.randint(2, 4)
    sizes = [rng.randint(2, 4) for _ in range(r)]
    m = rng.randint(1, max_edges)
    edges = [tuple(rng.randrange(s) for s in sizes) for _ in range(m)]
    return make_hypergraph(sizes, edges)


def _disjoint(h: PartiteHypergraph, idxs: list[int]) -> bool:
    for i in range(h.r):
        col = [h.edges[j][i] for j in idxs]
        if len(set(col)) != len(col):
            return False
    return True


def _brute_matching(h: PartiteHypergraph) -> int:
    """Maximum matching size, by subset scan."""
    best = 0
    for mask in range(1 << h.m):
        idxs = [j for j in range(h.m) if mask >> j & 1]
        if len(idxs) > best and _disjoint(h, idxs):
            best = len(idxs)
    return best


# -- construction ----------------------------------------------------------------


def test_make_hypergraph_validation():
    with pytest.raises(ValidationError):
        make_hypergraph([], [])
    with pytest.raises(ValidationError):
        make_hypergraph([2, 0], [])
    with pytest.raises(ValidationError) as exc:
        make_hypergraph([2, 2], [(0, 1, 0)])
    assert exc.value.code == "OUT_OF_RANGE"
    with pytest.raises(ValidationError):
        make_hypergraph([2, 2], [(0, 2)])
    h = make_hypergraph([2, 2], [(0, 1), (0, 1)])
    assert h.m == 2 and h.edges == ((0, 1), (0, 1))


def test_regularity():
    h = make_hypergraph([2, 2], [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert regularity(h) == 2
    assert regularity(make_hypergraph([2, 2], [(0, 0)])) is None
    # a vertex on no edge has degree 0, and takes no slot in the count
    assert regularity(make_hypergraph([1, 1], [(0, 0), (0, 0)])) == 2
    assert regularity(make_hypergraph([10 ** 15, 1], [(0, 0)])) is None
    assert regularity(make_hypergraph([10 ** 15, 10 ** 15], [])) == 0


# -- bijection with proper factors --------------------------------------------------


def test_bijection_round_trip_from_factors():
    rng = random.Random(101)
    for _ in range(50):
        n = 3 * rng.randint(2, 4)
        r = rng.randint(1, 4)
        factors = [random_factor(n, PROPER, seed=rng.randint(0, 10**9))
                   for _ in range(r)]
        h = factors_to_hypergraph(factors)
        assert h.part_sizes == tuple([n // 3] * r)
        assert regularity(h) == 3 and h.m == n
        assert hypergraph_to_factors(h) == factors


def test_bijection_line_graph_identity():
    rng = random.Random(103)
    for _ in range(50):
        n = 3 * rng.randint(2, 4)
        factors = [random_factor(n, PROPER, seed=rng.randint(0, 10**9))
                   for _ in range(rng.randint(1, 3))]
        h = factors_to_hypergraph(factors)
        assert line_graph(h) == union_graphs(factors)


def test_bijection_canonical_form_is_idempotent():
    # one pass through factors renumbers part vertices by least hyperedge;
    # after that the correspondence is an exact two-sided inverse
    h = make_hypergraph([2, 2], [(1, 0), (1, 1), (0, 0), (0, 1), (1, 0), (0, 1)])
    canon = factors_to_hypergraph(hypergraph_to_factors(h))
    assert canon.m == h.m and regularity(canon) == 3
    assert factors_to_hypergraph(hypergraph_to_factors(canon)) == canon


def test_bijection_rejects_bad_input():
    with pytest.raises(ValidationError) as exc:
        factors_to_hypergraph([random_factor(9, seed=4)])
    assert exc.value.code == "NOT_PROPER"
    with pytest.raises(ValidationError) as exc:
        hypergraph_to_factors(make_hypergraph([2, 3], [(0, 0)] * 3 + [(1, 1)] * 3))
    assert exc.value.code == "NOT_EQUIPARTITE"
    with pytest.raises(ValidationError) as exc:
        hypergraph_to_factors(make_hypergraph([2, 2], [(0, 0), (1, 1)]))
    assert exc.value.code == "NOT_3_REGULAR"


# -- line graph and chromatic index ---------------------------------------------------


def test_line_graph_repeats_intersect():
    h = make_hypergraph([2, 2], [(0, 0), (0, 0), (1, 1)])
    lg = line_graph(h)
    assert lg.has_edge(0, 1) and not lg.has_edge(0, 2)


def test_line_graph_is_the_pairwise_rule():
    # two edge occurrences are adjacent when some coordinate is equal
    rng = random.Random(20)
    cases = [truncated_plane(p) for p in (2, 3, 5, 7)]
    for _ in range(60):
        h = _random_hypergraph(rng, r=rng.randint(1, 4), max_edges=20)
        cases.append(make_hypergraph(h.part_sizes, h.edges + tuple(rng.choices(h.edges, k=3))))
    for h in cases:
        pairs = [(a, b) for a in range(h.m) for b in range(a + 1, h.m)
                 if any(x == y for x, y in zip(h.edges[a], h.edges[b]))]
        assert line_graph(h) == build_graph(h.m, pairs)


def test_chromatic_index_specials():
    for edges, index in (([], 0), ([(0, 1)], 1), ([(0, 1), (0, 1)], 2)):
        h = make_hypergraph([2, 2], edges)
        assert chromatic_number(line_graph(h)).value == index


def test_chromatic_index_bipartite_is_largest_degree():
    # edge coloring of a bipartite multigraph needs exactly its max degree
    rng = random.Random(107)
    for _ in range(40):
        h = _random_hypergraph(rng, r=2, max_edges=10)
        max_deg = max(sum(e[i] == x for e in h.edges)
                      for i in range(2) for x in range(h.part_sizes[i]))
        assert chromatic_number(line_graph(h)).value == max_deg


# -- matchings ------------------------------------------------------------------------


def test_max_matching_vs_brute_force():
    rng = random.Random(109)
    for _ in range(120):
        h = _random_hypergraph(rng)
        best = _brute_matching(h)
        res = max_matching(h)
        assert res.size == best
        assert _disjoint(h, list(res.witness)) and len(res.witness) == best
        assert res.size <= min(h.part_sizes)


def test_max_matching_pigeonhole_lower_bound():
    # some color class of an optimal edge coloring is a matching of size m/chi
    rng = random.Random(127)
    for _ in range(30):
        h = _random_hypergraph(rng, max_edges=8)
        chi = chromatic_number(line_graph(h)).value
        assert max_matching(h).size >= -(-h.m // chi)


def test_max_matching_budget_partial():
    rng = random.Random(131)
    sizes = [6, 6, 6]
    edges = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(40)]
    h = make_hypergraph(sizes, edges)
    with pytest.raises(BudgetExceededError) as exc:
        max_matching(h, budget=2)
    partial = exc.value.partial
    assert partial["exact"] is False
    assert partial["nodes"] >= 2
    assert partial["lower"] == len(partial["witness"])
    assert _disjoint(h, list(partial["witness"]))


def test_max_matching_edge_cap():
    sizes = [MAX_MATCHING_EDGES + 1, MAX_MATCHING_EDGES + 1]
    edges = [(j, j) for j in range(MAX_MATCHING_EDGES + 1)]
    with pytest.raises(ValidationError) as exc:
        max_matching(make_hypergraph(sizes, edges))
    assert exc.value.code == "OUT_OF_RANGE"


# -- disjoint copies --------------------------------------------------------------------


def test_disjoint_copies():
    h = make_hypergraph([2, 3], [(0, 2), (1, 0)])
    assert disjoint_copies(h, 1) == h
    h3 = disjoint_copies(h, 3)
    assert h3.part_sizes == (6, 9) and h3.m == 6
    assert max_matching(h3).size == 3 * max_matching(h).size
    with pytest.raises(ValidationError):
        disjoint_copies(h, 0)


def test_disjoint_copies_preserve_regularity():
    h = factors_to_hypergraph([random_factor(9, PROPER, seed=2)])
    assert regularity(disjoint_copies(h, 4)) == 3


# -- text format -------------------------------------------------------------------------


def test_text_round_trip():
    h = make_hypergraph([2, 3, 2], [(0, 2, 1), (1, 0, 0), (0, 2, 1)])
    again = hypergraph_from_text(hypergraph_to_text(h))
    assert again == h
    simple = make_hypergraph([2, 2], [(0, 0), (1, 1)])
    assert hypergraph_from_text(hypergraph_to_text(simple)) == simple


def test_text_parse_errors():
    for bad in ("", "2\n", "x\n1 1\n", "2\n1 2 3\n", "2\n2 2\n0\n",
                "2\n2 2\n0 5\n", "2\n2 a\n"):
        with pytest.raises(ParseError):
            hypergraph_from_text(bad)
