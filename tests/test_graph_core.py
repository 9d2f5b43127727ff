"""Graph primitives against brute-force oracles and hand-checked cases."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from ramseylab.errors import BudgetExceededError, ParseError, ValidationError
from ramseylab.graph_core import (
    Graph,
    NodeBudget,
    _exact_k_coloring,
    build_graph,
    chromatic_number,
    complete_graph,
    connected_components,
    cycle_graph,
    extend_coloring_from_core,
    graph_from_text,
    graph_to_text,
    is_proper_coloring,
    k_core,
    matching_graph,
    max_clique,
    path_graph,
    restrict,
    star_graph,
    union_graphs,
)


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def _brute_chromatic(g: Graph) -> int:
    """Straight sequential backtracking, no ordering heuristics or bounds."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def rec(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(v) if g.has_edge(u, v)):
                    colors[v] = c
                    if rec(v + 1):
                        return True
                    colors[v] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def _brute_clique(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if len(verts) <= best:
            continue
        if all(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2)):
            best = len(verts)
    return best


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


# -- construction and validation -----------------------------------------------


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValidationError) as exc:
        build_graph(3, [(0, 3)])
    assert exc.value.code == "OUT_OF_RANGE"
    with pytest.raises(ValidationError) as exc:
        build_graph(3, [(1, 1)])
    assert exc.value.code == "SELF_LOOP"
    with pytest.raises(ValidationError) as exc:
        build_graph(3, [(0, 1), (1, 0)])
    assert exc.value.code == "DUPLICATE_EDGE"


def test_factories():
    assert complete_graph(5).m == 10
    assert path_graph(4).m == 3
    assert cycle_graph(4).m == 4
    assert star_graph(6).m == 6 and star_graph(6).degree(0) == 6
    assert matching_graph(3).m == 3 and set(map(matching_graph(3).degree, range(6))) == {1}
    assert build_graph(4, []).m == 0


def test_complete_graph_vertex_guard():
    assert complete_graph(64).m == 64 * 63 // 2
    for n in (-1, 65):
        with pytest.raises(ValidationError) as exc:
            complete_graph(n)
        assert exc.value.code == "OUT_OF_RANGE"


def test_star_graph_leaf_guard():
    assert star_graph(0).n == 1 and star_graph(0).m == 0
    for leaves in (-1, -2):
        with pytest.raises(ValidationError) as exc:
            star_graph(leaves)
        assert exc.value.code == "OUT_OF_RANGE"


@pytest.mark.parametrize("generate", [path_graph, cycle_graph, star_graph, matching_graph])
def test_generator_refuses_a_huge_size_before_building_edges(generate):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as exc:
            generate(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == "OUT_OF_RANGE"
    assert peak < 1 << 20


def _union_find_components(n, edges):
    """Vertex masks of the classes that uniting each edge's ends leaves, by
    lowest member."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    masks: dict[int, int] = {}
    for v in range(n):
        masks[find(v)] = masks.get(find(v), 0) | 1 << v
    return sorted(masks.values(), key=lambda mask: mask & -mask)


def test_components_and_restrict():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert comps == [0b000111, 0b001000, 0b110000]
    assert connected_components(Graph(0, ())) == []
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 20)
        p = rng.choice([0.0, 0.05, 0.1, 0.2, 0.5])
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        assert connected_components(build_graph(n, edges)) == _union_find_components(n, edges)
    sub = restrict(g, 0b000111)
    assert sub.m == 2 and sub.has_edge(0, 1) and sub.has_edge(1, 2)


def test_union_graphs():
    a = build_graph(4, [(0, 1)])
    b = build_graph(4, [(0, 1), (2, 3)])
    u = union_graphs([a, b])
    assert u.m == 2 and u.has_edge(0, 1) and u.has_edge(2, 3)


# -- text format -----------------------------------------------------------------


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        g = _random_graph(rng.randint(0, 9), 0.4, rng)
        assert graph_from_text(graph_to_text(g)) == g


def test_text_parse_errors():
    for bad in ("", "3", "x y\n", "2 1\n", "2 1\n0 1\n2 3\n", "2 1\n0\n", "2 1\na b\n"):
        with pytest.raises(ParseError):
            graph_from_text(bad)
    # structurally fine text with semantically bad edges keeps the edge codes
    for bad, code in (("2 1\n0 2\n", "OUT_OF_RANGE"), ("2 1\n0 0\n", "SELF_LOOP"),
                      ("2 2\n0 1\n1 0\n", "DUPLICATE_EDGE")):
        with pytest.raises(ValidationError) as exc:
            graph_from_text(bad)
        assert exc.value.code == code


# -- chromatic number -------------------------------------------------------------


def test_chromatic_hand_cases():
    assert chromatic_number(build_graph(4, [])).value == 1
    assert chromatic_number(build_graph(0, [])).value == 0
    assert chromatic_number(cycle_graph(4)).value == 2
    assert chromatic_number(cycle_graph(5)).value == 3
    assert chromatic_number(complete_graph(6)).value == 6
    assert chromatic_number(_petersen()).value == 3


def test_chromatic_exhaustive_small():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            res = chromatic_number(g)
            assert res.value == _brute_chromatic(g)
            assert is_proper_coloring(g, res.colors)
            assert len(set(res.colors)) == res.value


def test_chromatic_random_vs_oracle():
    rng = random.Random(41)
    for _ in range(60):
        g = _random_graph(rng.randint(5, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        res = chromatic_number(g)
        assert res.value == _brute_chromatic(g)
        assert is_proper_coloring(g, res.colors)
        assert res.value <= max(map(g.degree, range(g.n))) + 1


def test_a_vertex_starting_a_component_takes_color_0_only():
    # 14 disjoint stars K_{1,3} and a C5: each star's free choice of color
    # for its center would double the refutation of k = 2
    edges = [(4 * s, 4 * s + leaf) for s in range(14) for leaf in (1, 2, 3)]
    edges += [(56 + i, 56 + (i + 1) % 5) for i in range(5)]
    bud = NodeBudget()
    assert _exact_k_coloring(build_graph(61, edges), 2, bud) is None
    assert bud.spent == 60


def test_no_color_colors_no_vertex():
    for g in (Graph(1, (0,)), complete_graph(3)):
        assert _exact_k_coloring(g, 0, NodeBudget()) is None
    assert _exact_k_coloring(Graph(0, ()), 0, NodeBudget()) == []


def test_chromatic_nodes_are_the_budget_it_needs():
    # the clique search and every palette: a budget one node short cuts there
    grotzsch = build_graph(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
                           + [(u, 5 + v) for u, v in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3),
                                                      (3, 2), (3, 4), (4, 3), (4, 0), (0, 4))]
                           + [(5 + i, 10) for i in range(5)])
    for g in (_petersen(), cycle_graph(7), complete_graph(5), grotzsch):
        res = chromatic_number(g)
        assert chromatic_number(g, budget=res.nodes) == res
        with pytest.raises(BudgetExceededError) as exc:
            chromatic_number(g, budget=res.nodes - 1)
        assert exc.value.partial["nodes"] == res.nodes - 1
    assert chromatic_number(Graph(0, ())).nodes == 0


def test_chromatic_budget_partial():
    g = complete_graph(12)
    with pytest.raises(BudgetExceededError) as exc:
        chromatic_number(g, budget=5)
    partial = exc.value.partial
    assert partial["lower"] <= 12 <= partial["upper"]
    assert partial["nodes"] >= 5


# -- cliques ----------------------------------------------------------------------


def test_clique_hand_cases():
    assert max_clique(complete_graph(7))[0] == 7
    assert max_clique(cycle_graph(5))[0] == 2
    assert max_clique(_petersen())[0] == 2
    size, verts = max_clique(build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    assert size == 3 and set(verts) == {0, 1, 2}


def test_clique_random_vs_oracle():
    rng = random.Random(17)
    for _ in range(60):
        g = _random_graph(rng.randint(4, 8), rng.choice([0.3, 0.6, 0.9]), rng)
        size, verts = max_clique(g)
        assert size == _brute_clique(g)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2))


def test_clique_forcing_at_near_complete_order():
    # a graph on n+1 vertices can only reach chromatic number n by containing K_n
    for n in range(2, 5):
        pairs = list(itertools.combinations(range(n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n + 1, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if chromatic_number(g).value == n:
                assert max_clique(g)[0] >= n


def test_clique_forcing_random_larger():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(4, 7)
        g = _random_graph(n + 1, rng.random(), rng)
        if chromatic_number(g).value == n:
            assert max_clique(g)[0] >= n


# -- cores and extension -----------------------------------------------------------


def test_core_hand_case():
    # triangle with a pendant path: the 2-core is the triangle
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    res = k_core(g, 2)
    assert set(res.vertices) == {0, 1, 2}
    assert res.elimination_order == (4, 3)
    assert res.graph.m == 3


def test_core_is_maximal_min_degree_subgraph():
    rng = random.Random(59)
    for _ in range(40):
        g = _random_graph(rng.randint(3, 8), 0.45, rng)
        d = rng.randint(1, 4)
        res = k_core(g, d)
        core_set = set(res.vertices)
        for v in res.vertices:
            assert sum(g.has_edge(v, u) for u in core_set) >= d
        # every subset inducing min degree >= d lies inside the core
        for size in range(d + 1, g.n + 1):
            for verts in itertools.combinations(range(g.n), size):
                mask = 0
                for v in verts:
                    mask |= 1 << v
                sub = restrict(g, mask)
                if sub.m and min(sub.degree(v) for v in verts) >= d:
                    assert set(verts) <= core_set


def test_core_elimination_order_is_valid_peeling():
    rng = random.Random(61)
    for _ in range(40):
        g = _random_graph(rng.randint(2, 9), 0.5, rng)
        d = rng.randint(1, 3)
        res = k_core(g, d)
        alive = set(range(g.n))
        for v in res.elimination_order:
            assert sum(g.has_edge(v, u) for u in alive) < d
            alive.discard(v)
        assert alive == set(res.vertices)


def test_extend_coloring_from_core():
    rng = random.Random(67)
    for _ in range(60):
        g = _random_graph(rng.randint(2, 9), 0.4, rng)
        d = rng.randint(1, 4)
        res = k_core(g, d)
        if res.vertices:
            chrom = chromatic_number(res.graph)
            if chrom.value > d:
                continue
            core_coloring = {v: chrom.colors[v] for v in res.vertices}
        else:
            core_coloring = {}
        full = extend_coloring_from_core(g, d, core_coloring)
        assert is_proper_coloring(g, full)
        assert all(0 <= c < d for c in full)
        for v, c in core_coloring.items():
            assert full[v] == c


def test_extend_coloring_rejects_bad_core_input():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    core = k_core(g, 2)  # the triangle
    with pytest.raises(ValidationError) as exc:
        extend_coloring_from_core(g, 2, {v: 0 for v in core.vertices})
    assert exc.value.code == "INVALID_CORE_COLORING"  # triangle miscolored
    with pytest.raises(ValidationError) as exc:
        extend_coloring_from_core(g, 2, {0: 0, 1: 1})
    assert exc.value.code == "INVALID_CORE_COLORING"  # wrong vertex set
    with pytest.raises(ValidationError) as exc:
        extend_coloring_from_core(g, 2, {v: v + 5 for v in core.vertices})
    assert exc.value.code == "INVALID_CORE_COLORING"  # colors outside 0..d-1
