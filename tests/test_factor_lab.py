"""Factors of complete graphs: covers, decompositions, extremal unions."""

from __future__ import annotations

import ast
import random
import tracemalloc
from pathlib import Path

import pytest

from ramseylab import factor_lab, graph_core
from ramseylab.errors import BudgetExceededError, ValidationError, VerificationError
from ramseylab.factor_lab import (
    COVER,
    COVER_SCHEME,
    DECOMP_SCHEME,
    DECOMPOSITION,
    GENERALIZED,
    NOT_A_FACTOR,
    PROPER,
    _edge_mask,
    _enumerate_maximal_factors,
    _iter_factor_masks_within,
    _last_cover_factor,
    _verify_cover_payload,
    chi_r_report,
    classify_factor,
    cover_search,
    galaxy_cover,
    k11_cover,
    max_coverable_edges,
    random_factor,
    walecki_decomposition,
)
from ramseylab.graph_core import (
    build_graph,
    chromatic_number,
    complete_graph,
    union_graphs,
)
from ramseylab.ramsey_search import (
    FAMILY_PRESETS,
    closed_form_c_k,
    make_edge_coloring,
    mono_free_search,
    verify_mono_free,
)


def _triangle_blocks(n: int, *blocks: tuple[int, int, int]):
    edges = []
    for a, b, c in blocks:
        edges.extend([(a, b), (a, c), (b, c)])
    return build_graph(n, edges)


# -- classification and construction ----------------------------------------------


def test_classify_factor():
    assert classify_factor(_triangle_blocks(6, (0, 1, 2), (3, 4, 5))) == PROPER
    assert classify_factor(build_graph(4, [])) == GENERALIZED
    assert classify_factor(build_graph(4, [(0, 1), (2, 3)])) == GENERALIZED
    assert classify_factor(build_graph(3, [(0, 1), (1, 2)])) == GENERALIZED
    assert classify_factor(build_graph(4, [(0, 1), (1, 2), (2, 3)])) == NOT_A_FACTOR
    assert classify_factor(build_graph(4, [(0, 1), (0, 2), (0, 3)])) == NOT_A_FACTOR


def test_verify_cover_payload_validation():
    tri = _triangle_blocks(6, (0, 1, 2), (3, 4, 5))
    path = build_graph(6, [(0, 1), (1, 2)])
    covered = _verify_cover_payload(6, 2, GENERALIZED, COVER, [tri, path],
                                    require_cover=False)
    assert covered == _edge_mask(tri) | _edge_mask(path)
    for n, factors, properness, mode, check in (
            (5, [tri], GENERALIZED, COVER, "factor-order"),
            (6, [build_graph(6, [(0, 1), (1, 2), (2, 3)])], GENERALIZED, COVER,
             "factor-shape"),
            (6, [path], PROPER, COVER, "factor-proper"),
            (6, [tri, tri], GENERALIZED, DECOMPOSITION, "edge-disjoint"),
            (6, [tri, path], GENERALIZED, COVER, "union-complete")):
        with pytest.raises(VerificationError) as exc:
            _verify_cover_payload(n, len(factors), properness, mode, factors,
                                  require_cover=True)
        assert exc.value.check == check
    with pytest.raises(ValidationError):
        cover_search(6, 1, mode="NEITHER")


def test_union_of_factors_counts_a_shared_edge_once():
    tri = _triangle_blocks(6, (0, 1, 2), (3, 4, 5))
    other = _triangle_blocks(6, (0, 3, 4))
    assert union_graphs([tri, other]).m == 8  # edge (3, 4) sits in both factors


# -- factor enumeration --------------------------------------------------------------


def _is_maximal_factor(g) -> bool:
    """True maximality: no single edge of K_n can be added and keep a factor."""
    if classify_factor(g) == NOT_A_FACTOR:
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                bigger = build_graph(g.n, g.edges() + [(u, v)])
                if classify_factor(bigger) != NOT_A_FACTOR:
                    return False
    return True


def test_enumerate_maximal_factors_counts():
    # n = 6: 10 ways to split into two triangles, 15 perfect matchings
    masks6 = _enumerate_maximal_factors(6)
    assert len(masks6) == 25
    # n = 7: 70 two-triangle-plus-spare, 105 triangle plus two disjoint edges
    assert len(_enumerate_maximal_factors(7)) == 175


def test_enumerate_maximal_factors_are_maximal():
    from ramseylab.factor_lab import _mask_to_graph

    for n in (5, 6, 7):
        masks = _enumerate_maximal_factors(n)
        assert len(set(masks)) == len(masks)
        for mask in masks:
            g = _mask_to_graph(mask, n)
            assert classify_factor(g) != NOT_A_FACTOR
            assert _is_maximal_factor(g)


def _proper_masks(n: int, adj=None) -> list[int]:
    return list(_iter_factor_masks_within(n, adj or complete_graph(n).adj, True))


def test_enumerate_proper_factors_counts():
    # (3k)! / (6^k k!) triangle partitions: 10 at n = 6, 280 at n = 9
    assert len(_proper_masks(6)) == 10
    assert len(_proper_masks(9)) == 280


def test_proper_factor_iterator_yields_only_triangle_partitions():
    from ramseylab.factor_lab import _mask_to_graph
    for n in (6, 9):
        masks = _proper_masks(n)
        assert len(set(masks)) == len(masks)
        assert all(classify_factor(_mask_to_graph(m, n)) == PROPER for m in masks)
    assert _proper_masks(7) == _proper_masks(8) == _proper_masks(16) == []
    # drawn from K_6 minus the edge 01: the triangle partitions avoiding it
    adj = list(complete_graph(6).adj)
    adj[0] ^= 1 << 1
    adj[1] ^= 1 << 0
    masks = _proper_masks(6, adj)
    assert len(masks) == 6
    assert all(classify_factor(_mask_to_graph(m, 6)) == PROPER for m in masks)


def test_proper_maximal_factors_are_the_triangle_partitions():
    for n in (3, 6, 9, 12):
        assert _enumerate_maximal_factors(n, True) == sorted(_proper_masks(n)), n


# -- cover and decomposition search ---------------------------------------------------


def test_cover_search_small_positive():
    res = cover_search(5, 3)
    assert res.factors is not None and res.scheme == COVER_SCHEME
    assert union_graphs(res.factors).m == 10


def test_cover_search_refutes_six_three():
    res = cover_search(6, 3)
    assert res.factors is None
    assert res.nodes > 0 and res.scheme == COVER_SCHEME


def test_cover_search_six_four():
    res = cover_search(6, 4)
    assert res.factors is not None
    assert union_graphs(res.factors).m == 15


def test_proper_decomposition_of_k9():
    # the classic resolvable triple system on nine points
    res = cover_search(9, 4, properness=PROPER, mode=DECOMPOSITION)
    assert res.factors is not None and res.scheme == DECOMP_SCHEME
    total = sum(f.m for f in res.factors)
    assert total == 36 and union_graphs(res.factors).m == 36


def test_proper_decomposition_tries_only_proper_factors():
    # five proper factors of K_9 carry 45 edges, K_9 has 36: no decomposition
    res = cover_search(9, 5, properness=PROPER, mode=DECOMPOSITION)
    assert res.factors is None and res.scheme == DECOMP_SCHEME
    assert res.nodes == 86


def test_decomposition_requires_exact_divisibility():
    # K_6 has 15 edges, factors carry at most 6: three generalized factors
    # can cover at most 18 but cannot partition 15 into factor shapes of K_6
    res = cover_search(6, 3, mode=DECOMPOSITION)
    assert res.factors is None


def test_cover_search_validation():
    with pytest.raises(ValidationError) as exc:
        cover_search(0, 2)
    assert exc.value.code == "BAD_N"
    with pytest.raises(ValidationError) as exc:
        cover_search(17, 2)
    assert exc.value.code == "BAD_N"
    with pytest.raises(ValidationError):
        cover_search(5, 0)
    with pytest.raises(ValidationError):
        cover_search(5, 2, properness="ODD")


# (n, r, properness, mode) -> (nodes, edge masks of the witness, None if refuted)
PINNED_SEARCHES = {
    (4, 2, GENERALIZED, COVER): (3, None),
    (5, 3, GENERALIZED, COVER): (3, [531, 184, 324]),
    (6, 3, GENERALIZED, COVER): (53, None),
    (6, 4, GENERALIZED, COVER): (15, [16897, 656, 6444, 9282]),
    (7, 3, GENERALIZED, COVER): (1, None),
    (7, 4, GENERALIZED, COVER): (2082, [360515, 135716, 527632, 1073288]),
    (8, 4, GENERALIZED, COVER): (220, [139198595, 10521156, 50479408, 68236296]),
    (6, 3, PROPER, COVER): (12, None),
    (6, 5, PROPER, COVER): (6, [28707, 5905, 5905, 6354, 6444]),
    (9, 3, PROPER, COVER): (1, None),
    (9, 4, PROPER, COVER): (56, [60202942723, 1376134276, 2693861968, 4446537768]),
    (4, 3, GENERALIZED, DECOMPOSITION): (3, [33, 6, 24]),
    (5, 3, GENERALIZED, DECOMPOSITION): (4, [531, 292, 200]),
    (6, 3, GENERALIZED, DECOMPOSITION): (385, None),
    (6, 4, GENERALIZED, DECOMPOSITION): (4, [28707, 2316, 208, 1536]),
    (7, 4, GENERALIZED, DECOMPOSITION): (64, [1081411, 591124, 150024, 274592]),
    (8, 4, GENERALIZED, DECOMPOSITION): (520, [139198595, 68178980, 50430280, 10627600]),
    (3, 2, PROPER, DECOMPOSITION): (2, None),
    (9, 4, PROPER, DECOMPOSITION): (4, [60202942723, 4572980260, 1627953288, 2315600464]),
    (9, 5, PROPER, DECOMPOSITION): (86, None),
}


def test_cover_search_pinned_nodes_and_witnesses():
    for case, (nodes, masks) in PINNED_SEARCHES.items():
        res = cover_search(*case)
        found = None if res.factors is None else [_edge_mask(g) for g in res.factors]
        assert (res.nodes, found) == (nodes, masks), case


def test_cover_search_budget_runs_out_at_pinned_nodes():
    for case in ((7, 4, GENERALIZED, COVER), (6, 3, GENERALIZED, DECOMPOSITION),
                 (8, 4, GENERALIZED, DECOMPOSITION)):
        nodes = PINNED_SEARCHES[case][0]
        assert cover_search(*case, budget=nodes).nodes == nodes
        with pytest.raises(BudgetExceededError) as exc:
            cover_search(*case, budget=nodes - 1)
        assert exc.value.partial == {"nodes": nodes - 1}, case


def _triangle_partitions(n: int) -> list[int]:
    """Edge masks of every partition of K_n's vertices into triangles, by
    brute force over the triangles of the lowest vertex left."""
    out: list[int] = []

    def rec(rest: list[int], mask: int) -> None:
        if not rest:
            out.append(mask)
            return
        v, *others = rest
        for i, u in enumerate(others):
            for w in others[i + 1:]:
                tri = _edge_mask(_triangle_blocks(n, (v, u, w)))
                rec([x for x in others if x not in (u, w)], mask | tri)

    rec(list(range(n)), 0)
    return out


def test_last_proper_factor_agrees_with_brute_force():
    # missing edges drawn from one triangle partition, sometimes with a stray
    # edge: a proper last factor exists exactly when some partition holds them
    rng = random.Random(34)
    for n in (3, 6, 9):
        partitions = _triangle_partitions(n)
        assert len(partitions) == {3: 1, 6: 10, 9: 280}[n]
        edges = n * (n - 1) // 2
        for _ in range(2500):
            base = rng.choice(partitions)
            missing = sum(1 << i for i in range(edges) if base >> i & 1 and rng.random() < 0.5)
            if rng.random() < 0.2:
                missing |= 1 << rng.randrange(edges)
            mask = _last_cover_factor(n, missing, proper=True)
            if mask is None:
                assert not any(missing & ~p == 0 for p in partitions), (n, missing)
            else:
                assert mask in partitions and missing & ~mask == 0, (n, missing)
    # an edge takes a spare vertex; three edges leave no spare vertex on K_6
    one = _edge_mask(build_graph(6, [(0, 1)]))
    assert _last_cover_factor(6, one, proper=True) == _edge_mask(
        _triangle_blocks(6, (0, 1, 2), (3, 4, 5)))
    three = _edge_mask(build_graph(6, [(0, 1), (2, 3), (4, 5)]))
    assert _last_cover_factor(6, three, proper=True) is None


def test_degree_bound_refutes_at_the_root():
    # a vertex of K_n has n - 1 edges and r factors take at most 2r of them
    for case in ((12, 3, PROPER), (10, 4), (7, 2, GENERALIZED, DECOMPOSITION)):
        res = cover_search(*case)
        assert (res.factors, res.nodes) == (None, 1), case
    # K_10 has degree 9 <= 10, so five factors are refuted a level lower
    res = cover_search(10, 5, mode=DECOMPOSITION)
    assert (res.factors, res.nodes) == (None, 4)


def test_generalized_covers_exist_exactly_when_decompositions_do():
    # factors F_1, ..., F_r covering K_n give the decomposition D_i = F_i minus
    # the earlier factors, as a spanning subgraph of a factor is one
    agreed = 0
    for n in range(1, 10):
        for r in range(1, 6):
            try:
                cover = cover_search(n, r, budget=100_000).factors is not None
                decomposed = cover_search(n, r, mode=DECOMPOSITION,
                                          budget=100_000).factors is not None
            except BudgetExceededError:
                continue
            assert cover == decomposed, (n, r)
            agreed += 1
    assert agreed >= 43


def test_factor_pools_are_built_on_first_use(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("factor pool built")

    monkeypatch.setattr(factor_lab, "_enumerate_maximal_factors", boom)
    monkeypatch.setattr(factor_lab, "_iter_factor_masks_within", boom)
    res = cover_search(13, 3)
    assert (res.factors, res.nodes) == (None, 1)
    for search, args in ((cover_search, (10, 5)), (cover_search, (9, 4, PROPER)),
                         (cover_search, (10, 5, GENERALIZED, DECOMPOSITION)),
                         (cover_search, (9, 4, PROPER, DECOMPOSITION)),
                         (max_coverable_edges, (8, 4))):
        with pytest.raises(BudgetExceededError) as exc:
            search(*args, budget=1)
        assert exc.value.partial == {"nodes": 1}, args


def test_covers_by_factors_are_f6_free_colorings():
    # a {P4, S3}-free class is a union of triangles and paths of at most two
    # edges, so a subgraph of a generalized factor: K_n has an admissible
    # k-coloring for F6 exactly when k factors cover it
    fam = FAMILY_PRESETS["F6"]
    for n in range(1, 10):
        for k in range(1, 5):
            covered = cover_search(n, k).factors is not None
            assert covered == (mono_free_search(n, k, fam)[0] is not None), (n, k)


def test_c5_of_f6_is_nine():
    # no closed form below delta0; the search settles it
    fam = FAMILY_PRESETS["F6"]
    assert closed_form_c_k(fam, 5) is None
    coloring, nodes = mono_free_search(9, 5, fam)
    assert coloring is not None and nodes == 8747
    assert verify_mono_free(coloring, fam).ok
    res = cover_search(10, 5)
    assert (res.factors, res.nodes) == (None, 4)


def test_factor_search_runs_deeper_than_the_python_stack():
    # one node per level: every level's first factor, then a last factor
    # taking what is left
    res = cover_search(5, 3000)
    assert res.factors is not None and res.nodes == 3000
    assert max_coverable_edges(4, 3000).value == 6


# -- exact maximum coverage ------------------------------------------------------------


def test_max_coverable_edges_small():
    assert max_coverable_edges(3, 1).value == 3
    assert max_coverable_edges(4, 2).value == 5
    assert max_coverable_edges(5, 3).value == 10


def test_max_coverable_edges_frozen_values():
    res = max_coverable_edges(6, 3)
    assert res.value == 13  # brute-force oracle over all 556 factor subgraphs
    assert res.value <= 14
    res = max_coverable_edges(7, 3)
    assert res.value == 16
    assert res.value <= 17
    res = max_coverable_edges(6, 4)
    assert res.value == 15  # K_6 is fully coverable with a fourth factor


def test_max_cover_stops_at_full_coverage():
    # the greedy cover, one node a factor, already covers K_6, K_7 and K_8,
    # so no search level runs
    res = max_coverable_edges(6, 4)
    assert (res.value, res.nodes) == (15, 4)
    res = max_coverable_edges(8, 4)
    assert (res.value, res.nodes) == (28, 4)
    res = max_coverable_edges(7, 5)
    assert (res.value, res.nodes) == (21, 5)
    assert union_graphs(res.factors) == complete_graph(7)


def test_max_cover_stops_at_the_edge_bound():
    # 4 factors of at most n - 1 edges cover at most 36 of K_10's 45 edges
    # and 40 of K_11's 55: the greedy cover reaches that
    for n, value in ((10, 36), (11, 40)):
        res = max_coverable_edges(n, 4)
        assert (res.value, res.nodes) == (value, 4), n


def test_max_coverable_witness_consistency():
    for n, r in ((5, 2), (6, 3), (7, 3)):
        res = max_coverable_edges(n, r)
        assert len(res.factors) == r
        assert union_graphs(res.factors).m == res.value


def test_max_coverable_validation():
    with pytest.raises(ValidationError) as exc:
        max_coverable_edges(13, 2)
    assert exc.value.code == "BAD_N"
    with pytest.raises(ValidationError):
        max_coverable_edges(6, 0)


# -- named constructions ----------------------------------------------------------------


def test_walecki_decompositions():
    for k in range(1, 11):
        cycles = walecki_decomposition(k)
        n = 2 * k + 1
        assert len(cycles) == k
        assert all(c.m == n for c in cycles)
        assert union_graphs(list(cycles)).m == n * (n - 1) // 2
    with pytest.raises(ValidationError) as exc:
        walecki_decomposition(0)
    assert exc.value.code == "BAD_K"


def test_galaxy_covers():
    for k in range(2, 11):
        classes = galaxy_cover(k)
        assert len(classes) == k + 1
        assert union_graphs(list(classes)).m == k * (2 * k - 1)
    with pytest.raises(ValidationError) as exc:
        galaxy_cover(1)
    assert exc.value.code == "BAD_K"


@pytest.mark.parametrize("build, n", [(walecki_decomposition, 2 * 10 ** 6 + 1),
                                      (galaxy_cover, 2 * 10 ** 6)])
def test_construction_past_the_vertex_cap_builds_nothing(build, n):
    # the vertex count is checked before any edge list grows with k
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as exc:
            build(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (exc.value.code, str(exc.value)) == ("OUT_OF_RANGE", f"vertex count {n} not in 0..64")


def test_galaxy_classes_avoid_triangle_and_p4():
    # galaxies witness c_k(triangle, 4-path) >= 2k - 2 after dropping colors
    classes = galaxy_cover(5)
    base = complete_graph(10)
    color_of = {e: c for c, g in enumerate(classes) for e in g.edges()}
    assert sum(g.m for g in classes) == len(color_of) == base.m  # a partition
    coloring = make_edge_coloring(base, len(classes), [color_of[e] for e in base.edges()])
    assert verify_mono_free(coloring, FAMILY_PRESETS["F4"]).ok


def test_k11_cover():
    factors = k11_cover()
    assert len(factors) == 6 and all(f.n == 11 for f in factors)
    union = union_graphs(factors)
    assert union.m == 55
    assert chromatic_number(union).value == 11


# -- extremal chromatic number reports ----------------------------------------------------


def test_chi_r_exact_residues():
    assert chi_r_report(1).status == "EXACT" and chi_r_report(1).upper == 3
    assert chi_r_report(4) == chi_r_report(4)
    r4 = chi_r_report(4)
    assert (r4.lower, r4.upper, r4.status) == (9, 9, "EXACT")
    r9 = chi_r_report(9)
    assert (r9.lower, r9.upper, r9.status) == (18, 18, "EXACT")
    r2 = chi_r_report(2)
    assert (r2.lower, r2.upper, r2.status) == (3, 3, "EXACT")


def test_chi_r_open_exceptional_cases():
    for r in (3, 6, 18, 21, 24, 30, 33, 39, 42, 51, 66):
        rep = chi_r_report(r)
        assert (rep.lower, rep.upper, rep.status) == (2 * r - 1, 2 * r, "INTERVAL")
    # nearby multiples of three stay exact
    for r in (9, 12, 15, 27, 36, 45, 48, 54, 57, 60, 63, 69):
        assert chi_r_report(r).status == "EXACT"


def test_chi_r_threshold_behavior():
    below = chi_r_report(8)
    assert (below.lower, below.upper, below.status) == (15, 16, "INTERVAL")
    at = chi_r_report(8, delta0=8)
    assert (at.lower, at.upper, at.status) == (15, 15, "CONDITIONAL")
    big = chi_r_report(5 * 10**13)  # = default delta0, and 2 mod 3
    assert big.status == "CONDITIONAL" and big.lower == 10**14 - 1
    assert chi_r_report(5 * 10**13 - 3).status == "INTERVAL"
    with pytest.raises(ValidationError):
        chi_r_report(0)
    with pytest.raises(ValidationError):
        chi_r_report(5, delta0=0)


def test_chi_r_consistent_with_small_searches():
    # unions of r factors on few vertices never beat the reported upper bound
    rng = random.Random(23)
    for _ in range(40):
        r = rng.randint(1, 4)
        n = rng.choice([6, 9, 12])
        factors = [random_factor(n, GENERALIZED, seed=rng.randint(0, 10**9))
                   for _ in range(r)]
        chi = chromatic_number(union_graphs(factors)).value
        assert chi <= chi_r_report(r).upper


# -- random factors ------------------------------------------------------------------------


def test_random_factor_shapes():
    for seed in range(30):
        g = random_factor(10, GENERALIZED, seed=seed)
        assert classify_factor(g) != NOT_A_FACTOR
        p = random_factor(9, PROPER, seed=seed)
        assert classify_factor(p) == PROPER
    assert random_factor(8, seed=5) == random_factor(8, seed=5)
    assert random_factor(8, seed=5) != random_factor(8, seed=6)
    with pytest.raises(ValidationError) as exc:
        random_factor(8, PROPER, seed=1)
    assert exc.value.code == "BAD_N"


def test_factor_lab_reads_the_edge_list_of_k_n_from_graph_core():
    # the edge bits of K_n follow the one cached list, graph_core.complete_edges
    assert not hasattr(factor_lab, "_edge_pairs")
    assert factor_lab.complete_edges is graph_core.complete_edges
    assert factor_lab._mask_to_graph((1 << 15) - 1, 6) == graph_core.complete_graph(6)


def test_factor_lab_does_not_import_ramsey_search_and_no_function_imports():
    # one import direction: ramsey_search builds its witnesses from
    # factor_lab, so factor_lab must not reach back; and every import sits at
    # the top of its module, where a cycle would show at load time
    src = Path(factor_lab.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "factor_lab.py":
            modules = [node.module or "" for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)]
            modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names]
            assert not [m for m in modules if "ramsey_search" in m]
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = [node for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}: {getattr(fn, 'name', 'lambda')} imports"
