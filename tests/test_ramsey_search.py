"""Pattern detection, admissible colorings, c_k search, closed forms."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab import ramsey_search
from ramseylab.cli import run
from ramseylab.errors import BudgetExceededError, ValidationError, VerificationError
from ramseylab.factor_lab import DEFAULT_DELTA0
from ramseylab.graph_core import (
    Graph,
    NodeBudget,
    build_graph,
    complete_edges,
    complete_graph,
    star_graph,
)
from ramseylab.ramsey_search import (
    FAMILY_PRESETS,
    P4,
    S3,
    TRIANGLE,
    ClosedForm,
    ForbiddenFamily,
    _color_edges,
    _least_subset_total,
    _max_s_for_pairs,
    closed_form_c_k,
    compute_c_k,
    counting_refutes,
    ex_bound,
    explicit_pattern,
    find_copy,
    make_edge_coloring,
    matching_pattern,
    mono_free_search,
    parse_family,
    path_pattern,
    star_pattern,
    verify_mono_free,
)


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


# -- patterns and parsing --------------------------------------------------------


def test_pattern_realizations():
    assert TRIANGLE.realize().m == 3 and TRIANGLE.realize().n == 3
    assert P4.realize().n == 4 and P4.realize().m == 3
    assert S3.realize().n == 4 and S3.realize().degree(0) == 3
    assert star_pattern(5).realize().m == 5
    assert set(map(matching_pattern(3).realize().degree, range(6))) == {1}
    assert path_pattern(4).realize().n == 5


def test_pattern_forest_flag():
    assert not TRIANGLE.is_forest()
    assert P4.is_forest() and S3.is_forest()
    assert matching_pattern(2).is_forest()
    assert not explicit_pattern(complete_graph(4)).is_forest()
    assert explicit_pattern(build_graph(5, [(0, 1), (2, 3), (3, 4)])).is_forest()


def test_parse_family_presets_and_tokens():
    assert parse_family("F4") is FAMILY_PRESETS["F4"]
    assert parse_family("f7").spec() == "F7"
    fam = parse_family("K3, P4")
    assert fam.spec() == "K3,P4"
    assert [(p.kind, p.size) for p in fam.patterns] == [("triangle", 0), ("path", 3)]
    # STAR:r denotes the star one edge bigger than r
    star = parse_family("STAR:2").patterns[0]
    assert star.realize().m == 3
    assert parse_family("MATCH:4").patterns[0].size == 4
    assert parse_family("PATH:5").patterns[0].realize().n == 6


def test_aliases_are_one_pattern_with_their_own_spelling():
    assert P4 == path_pattern(3) and S3 == star_pattern(3)
    assert parse_family("PATH:3").patterns == parse_family("P4").patterns
    assert parse_family("STAR:2").patterns == parse_family("s3").patterns
    for spec in ("K3,P4", "P4,S3", "PATH:3", "STAR:2", "K3,STAR:2", "MATCH:2,S3"):
        assert parse_family(spec).spec() == spec
    assert parse_family("p4,star:02").spec() == "P4,STAR:2"
    assert {p.kind for f in FAMILY_PRESETS.values() for p in f.patterns} == {
        "triangle", "path", "star"}


def test_explicit_token_round_trips():
    fam = parse_family("K3,EXPLICIT[0-1;1-2;2-3|4]")
    assert fam.spec() == "K3,EXPLICIT[0-1;1-2;2-3|4]"
    g = fam.patterns[1].realize()
    assert (g.n, g.edges()) == (4, [(0, 1), (1, 2), (2, 3)])
    assert parse_family(fam.spec()) == fam
    for bad, code in (("EXPLICIT[0-1;1-x|4]", "OUT_OF_RANGE"), ("EXPLICIT[0-1-2|4]", "OUT_OF_RANGE"),
                      ("EXPLICIT[0-1|]", "OUT_OF_RANGE"), ("EXPLICIT[0-5|4]", "OUT_OF_RANGE"),
                      ("EXPLICIT[0-0|4]", "SELF_LOOP"), ("EXPLICIT[|4]", "OUT_OF_RANGE")):
        with pytest.raises(ValidationError) as exc:
            parse_family(bad)
        assert exc.value.code == code, bad


def test_canonical_folds_patterns_that_coincide():
    def explicit(n, edges):
        return explicit_pattern(build_graph(n, edges))

    # (pattern, the (kind, size) it is built with, the key its kernel folds it to)
    cases = [
        (path_pattern(1), ("path", 1), ("star", 1)),
        (matching_pattern(1), ("matching", 1), ("star", 1)),
        (star_pattern(1), ("star", 1), ("star", 1)),
        (path_pattern(2), ("path", 2), ("star", 2)),
        (P4, ("path", 3), ("path", 3)), (S3, ("star", 3), ("star", 3)),
        (TRIANGLE, ("triangle", 0), ("triangle", 0)),
        (matching_pattern(2), ("matching", 2), ("matching", 2)),
        (path_pattern(4), ("path", 4), ("path", 4)),
        (explicit(2, [(0, 1)]), ("matching", 1), ("star", 1)),
        (explicit(3, [(0, 1), (1, 2)]), ("star", 2), ("star", 2)),
        (explicit(3, [(0, 1), (1, 2), (0, 2)]), ("triangle", 0), ("triangle", 0)),
        (explicit(4, [(2, 0), (0, 3), (3, 1)]), ("path", 3), ("path", 3)),
        (explicit(4, [(1, 0), (1, 2), (1, 3)]), ("star", 3), ("star", 3)),
        (explicit(6, [(0, 1), (2, 3), (4, 5)]), ("matching", 3), ("matching", 3)),
        (explicit(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), ("path", 4), ("path", 4)),
        (explicit(5, [(0, 1), (1, 2), (2, 3)]), ("explicit", 0), None),  # isolated vertex
        (explicit(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), ("explicit", 0), None),
        (explicit(5, [(0, 1), (1, 2), (3, 4)]), ("explicit", 0), None),  # P3 + K2
    ]
    for p, built, key in cases:
        assert (p.kind, p.size) == built, p
        folded = ({}, (p,)) if key is None else (dict([key]), ())
        assert ForbiddenFamily((p,)).kernel == folded, p
        # a pattern given as a graph realizes as that very graph
        assert p.graph is None or p.realize() is p.graph
    # the search folds explicit paths and stars into its kernel tests
    fam = ForbiddenFamily((TRIANGLE, explicit(4, [(2, 0), (0, 3), (3, 1)]),
                           explicit(5, [(0, 1), (0, 2), (0, 3), (0, 4)])))
    assert fam.kernel == ({"triangle": 0, "path": 3, "star": 4}, ())
    # the kernel is computed once and takes no part in equality or hashing
    fresh = ForbiddenFamily(fam.patterns)
    assert fam.kernel is fam.kernel and fresh == fam and hash(fresh) == hash(fam)
    # and it is read-only, since preset families are shared
    with pytest.raises(TypeError):
        FAMILY_PRESETS["F4"].kernel[0]["star"] = 1
    assert closed_form_c_k(fam, 4) == closed_form_c_k(parse_family("K3,P4,STAR:3"), 4)


def test_explicit_paths_and_stars_search_like_their_kernels():
    p4_file = explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    s3_file = explicit_pattern(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    for fam, same in ((ForbiddenFamily((TRIANGLE, p4_file)), FAMILY_PRESETS["F4"]),
                      (ForbiddenFamily((s3_file,)), FAMILY_PRESETS["F3"])):
        for k in (1, 2, 3):
            for n in range(2, 7):
                a, na = mono_free_search(n, k, fam)
                b, nb = mono_free_search(n, k, same)
                assert na == nb
                assert (a is None) == (b is None)
                assert a is None or a.assignment == b.assignment


def test_parse_family_file_pattern(tmp_path):
    path = tmp_path / "pat.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    fam = parse_family(f"@{path}")
    assert fam.patterns[0].kind == "explicit"
    assert fam.patterns[0].realize().m == 4


def test_parse_family_missing_file(tmp_path):
    with pytest.raises(ValidationError) as exc:
        parse_family(f"K3,@{tmp_path / 'missing.txt'}")
    assert exc.value.code == "BAD_FILE"


def test_parse_family_errors():
    for bad in ("", "QUUX", "STAR:x", "MATCH:", "PATH:0"):
        with pytest.raises(ValidationError):
            parse_family(bad)
    # stray separators are tolerated
    assert parse_family("K3,,").patterns == (TRIANGLE,)


# -- copy detection vs generic embedding ------------------------------------------


def test_detectors_agree_with_generic_embedder():
    rng = random.Random(91)
    probes = [TRIANGLE, P4, S3, star_pattern(4), matching_pattern(2),
              matching_pattern(3), path_pattern(2), path_pattern(4)]
    for _ in range(80):
        g = _random_graph(rng.randint(2, 8), rng.choice([0.2, 0.4, 0.7]), rng)
        for p in probes:
            assert ((find_copy(g, p) is None)
                    == (find_copy(g, explicit_pattern(p.realize())) is None))


def test_find_copy_witnesses_are_real_copies():
    rng = random.Random(97)
    for _ in range(60):
        g = _random_graph(rng.randint(3, 8), 0.5, rng)
        w = find_copy(g, TRIANGLE)
        if w is not None:
            u, v, x = w
            assert g.has_edge(u, v) and g.has_edge(v, x) and g.has_edge(u, x)
        w = find_copy(g, S3)
        if w is not None:
            center, *leaves = w
            assert len(set(w)) == 4
            assert all(g.has_edge(center, leaf) for leaf in leaves)
        w = find_copy(g, P4)
        if w is not None:
            assert len(set(w)) == 4
            assert all(g.has_edge(a, b) for a, b in zip(w, w[1:]))
        w = find_copy(g, matching_pattern(2))
        if w is not None:
            assert len(set(w)) == 4
            assert g.has_edge(w[0], w[1]) and g.has_edge(w[2], w[3])


def _first_matching(adj, avail, m):
    """The first m pairwise disjoint edges among the vertices of avail, as
    2m endpoints: the lowest vertex v with a neighbour in avail is matched
    to each neighbour in ascending order, then left out."""
    if m == 0:
        return ()
    live = [v for v in range(len(adj)) if avail >> v & 1 and adj[v] & avail]
    if not live:
        return None
    v = live[0]
    for u in range(len(adj)):
        if avail >> u & 1 and adj[v] >> u & 1:
            rest = _first_matching(adj, avail & ~(1 << v) & ~(1 << u), m - 1)
            if rest is not None:
                return (v, u) + rest
    return _first_matching(adj, avail & ~(1 << v), m)


def test_matching_copy_is_the_first_in_branching_order():
    rng = random.Random(53)
    found = 0
    for _ in range(300):
        g = _random_graph(rng.randint(0, 10), rng.choice([0.1, 0.3, 0.6]), rng)
        for m in range(1, 5):
            w = find_copy(g, matching_pattern(m))
            assert w == _first_matching(g.adj, g.full_mask, m), (g, m)
            found += w is not None
    assert found > 300


def _brute_force_copy(host_n, host_edges, pattern_n, pattern_edges):
    """Whether some injective map of the pattern's vertices into the host's
    sends every pattern edge to a host edge; plain itertools, no ramseylab."""
    edges = {frozenset(e) for e in host_edges}
    return any(all(frozenset((image[a], image[b])) in edges for a, b in pattern_edges)
               for image in itertools.permutations(range(host_n), pattern_n))


def test_embed_agrees_with_brute_force():
    patterns = {
        "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "K4-e": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        "P3+K2": (5, [(0, 1), (1, 2), (3, 4)]),
        "K1,3+K2": (6, [(0, 1), (0, 2), (0, 3), (4, 5)]),
        "P4+K1": (5, [(0, 1), (1, 2), (2, 3)]),
    }
    rng = random.Random(2024)
    found = missed = 0
    for _ in range(40):
        n = rng.randint(4, 7)
        p = rng.choice([0.3, 0.5, 0.7])
        host_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        host = build_graph(n, host_edges)
        for name, (pn, pedges) in patterns.items():
            pat = explicit_pattern(build_graph(pn, pedges))
            assert pat.kind == "explicit", name
            w = find_copy(host, pat)
            assert (w is not None) == _brute_force_copy(n, host_edges, pn, pedges), name
            if w is None:
                missed += 1
                continue
            found += 1
            assert len(w) == pn and len(set(w)) == pn, name
            assert all(host.has_edge(w[a], w[b]) for a, b in pedges), name
    assert found > 30 and missed > 30  # both verdicts are exercised


def test_explicit_witness_layout():
    pattern = build_graph(3, [(0, 1), (1, 2)])
    host = build_graph(4, [(2, 3), (3, 1)])
    w = find_copy(host, explicit_pattern(pattern))
    assert w is not None and len(set(w)) == 3
    for u, v in pattern.edges():
        assert host.has_edge(w[u], w[v])


# -- edge colorings ----------------------------------------------------------------


def test_make_edge_coloring_validation():
    base = complete_graph(3)
    with pytest.raises(ValidationError):
        make_edge_coloring(base, 0, [])
    with pytest.raises(ValidationError):
        make_edge_coloring(base, 2, [0, 1])
    with pytest.raises(ValidationError):
        make_edge_coloring(base, 2, [0, 1, 2])
    col = make_edge_coloring(base, 2, [0, 1, 1])
    # color 1 holds (0, 2) and (1, 2), the only 2-edge path; color 0 holds one edge
    report = verify_mono_free(col, parse_family("PATH:2"))
    assert (report.ok, report.color, sorted(report.vertices)) == (False, 1, [0, 1, 2])


def test_verify_mono_free_reports_violation():
    base = complete_graph(3)
    col = make_edge_coloring(base, 1, [0, 0, 0])
    report = verify_mono_free(col, FAMILY_PRESETS["F1"])
    assert not report.ok and report.color == 0
    assert report.pattern is TRIANGLE and len(report.vertices) == 3
    col2 = make_edge_coloring(base, 2, [0, 0, 1])
    assert verify_mono_free(col2, FAMILY_PRESETS["F1"]).ok


def test_verify_mono_free_checks_only_the_colors_in_use(monkeypatch):
    searched = []

    def counted(g, p):
        searched.append((frozenset(g.edges()), p.token))
        return find_copy(g, p)

    monkeypatch.setattr(ramsey_search, "find_copy", counted)
    # K_4 edges in order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
    col = make_edge_coloring(complete_graph(4), 2 ** 70, [5, 0, 9, 0, 5, 0])
    tracemalloc.start()
    try:
        assert verify_mono_free(col, FAMILY_PRESETS["F4"]).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    classes = [frozenset({(0, 2), (1, 2), (2, 3)}), frozenset({(0, 1), (1, 3)}),
               frozenset({(0, 3)})]  # colors 0, 5 and 9
    assert searched == [(cls, token) for cls in classes for token in ("K3", "P4")]
    searched.clear()
    # colors 7 and 9 each hold a P4 (2-0-3-1 and 0-1-2-3); the lower one is reported
    col = make_edge_coloring(complete_graph(4), 2 ** 70, [9, 7, 7, 9, 7, 9])
    report = verify_mono_free(col, FAMILY_PRESETS["F2"])
    assert (report.ok, report.color) == (False, 7)
    assert searched == [(frozenset({(0, 2), (0, 3), (1, 3)}), "P4")]


def test_search_memory_does_not_grow_with_the_palette():
    fam = FAMILY_PRESETS["F4"]
    tracemalloc.start()
    try:
        coloring, nodes = mono_free_search(5, 10 ** 6, fam)
        # counting refutes no K_n up to the cap for 10^6 colors, so no
        # construction on 2 * 10^6 + 1 vertices is started
        with pytest.raises(BudgetExceededError) as cap_exc:
            compute_c_k(FAMILY_PRESETS["F3"], 10 ** 6, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cap_exc.value.partial["lower"] == cap_exc.value.partial["cap"] == 10
    # 10 edges never open more than 10 colors, so any larger palette searches alike
    small, small_nodes = mono_free_search(5, 10, fam)
    assert (coloring.assignment, nodes) == (small.assignment, small_nodes)
    with pytest.raises(BudgetExceededError) as exc:
        compute_c_k(fam, 10 ** 6, cap=4)
    assert exc.value.partial["lower"] == exc.value.partial["cap"] == 4


# -- the search ---------------------------------------------------------------------


def test_search_input_validation():
    fam = FAMILY_PRESETS["F1"]
    with pytest.raises(ValidationError) as exc:
        mono_free_search(0, 1, fam)
    assert exc.value.code == "BAD_N"
    with pytest.raises(ValidationError) as exc:
        mono_free_search(3, 0, fam)
    assert exc.value.code == "BAD_K"


def test_triangle_two_colors_boundary():
    fam = FAMILY_PRESETS["F1"]
    col, _ = mono_free_search(5, 2, fam)
    assert col is not None and verify_mono_free(col, fam).ok
    assert mono_free_search(6, 2, fam)[0] is None


def test_witnesses_always_verify():
    rng = random.Random(7)
    for _ in range(20):
        fam = rng.choice(list(FAMILY_PRESETS.values()))
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        col, _ = mono_free_search(n, k, fam)
        if col is not None:
            assert verify_mono_free(col, fam).ok
            assert col.base.n == n and col.k == k


def test_search_budget_exhaustion():
    with pytest.raises(BudgetExceededError) as exc:
        mono_free_search(10, 2, FAMILY_PRESETS["F1"], budget=3)
    assert exc.value.partial["nodes"] >= 3


_GROWN = [TRIANGLE, star_pattern(3), star_pattern(4), P4, path_pattern(3),
          path_pattern(4), path_pattern(5), matching_pattern(2), matching_pattern(3),
          explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(
           lambda n: st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)])),
       st.sampled_from(_GROWN))
def test_incremental_checks_agree_with_find_copy(edges, p):
    # with one color, the search adds the edges in order and stops at the
    # first one it rejects, after as many nodes as edges it tried
    n = max(max(e) for e in edges) + 1
    bud = NodeBudget(len(edges))
    colors = _color_edges(n, 1, edges, ForbiddenFamily((p,)), bud)
    accepted = len(edges) if colors is not None else bud.spent - 1
    for i in range(min(accepted + 1, len(edges)) + 1):
        assert (find_copy(build_graph(n, edges[:i]), p) is not None) == (i > accepted)


def test_matching_search_leaves_no_garbage():
    # the matching test runs at every node of a matching family's search; a
    # closure per test left one reference cycle per node, and the collector's
    # pauses took a third of the time of MATCH:2 at k = 4
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        coloring, nodes = mono_free_search(7, 4, parse_family("MATCH:2"))
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert coloring is None and nodes == 1815
    assert grown < 100


_ROW_FAMILIES = ["F1", "F2", "F3", "F4", "F5", "F6", "F7", "K3,PATH:4", "PATH:4",
                 "MATCH:2", "MATCH:3", "STAR:4", "EXPLICIT[0-1;1-2;2-3;3-0|4]"]


@pytest.mark.parametrize("spec", _ROW_FAMILIES)
def test_row_break_never_changes_an_answer(spec):
    # K_n up to the first n without an admissible coloring (existence is
    # monotone in n): sorting vertex 0's row keeps every answer and never
    # adds a node to a refutation
    fam = parse_family(spec)
    for k in (1, 2, 3):
        for n in range(2, 8):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            plain_bud, broken_bud = NodeBudget(10**7), NodeBudget(10**7)
            plain = _color_edges(n, k, edges, fam, plain_bud)
            broken = _color_edges(n, k, edges, fam, broken_bud, row=n - 1)
            assert (plain is None) == (broken is None), (k, n)
            if plain is None:
                assert broken_bud.spent <= plain_bud.spent, (k, n)
                break


# ck_search cases, with vertex 0's row opening a new color before repeating one:
# (family, k, c_k, witness nodes, refutation nodes, witness assignment)
_PINNED = [
    ("F3", 5, 11, 0, 35,
     "0112233440122334401233440023440013400114011201221232334"),
    ("MATCH:2", 4, 6, 37, 1815, "001230123123112"),
    ("MATCH:3", 2, 7, 312, 2280, "000011000110011011111"),
    ("PATH:3", 3, 5, 20, 363, "0012012120"),
    ("F2", 3, 5, 20, 363, "0012012120"),
    ("K3,PATH:4", 3, 6, 149, 6917, "001121220220011"),
    ("F4", 4, 6, 0, 27214, "003121132223001"),
    # the search alone does not refute K_9 within the default budget
    ("K3,PATH:4", 4, 8, 60667, None, "0011223102132023123221001100"),
]

# the cases of _PINNED whose K_{c_k + 1} compute_c_k refutes by counting
_COUNTED = {("F3", 5), ("MATCH:3", 2), ("F4", 4), ("MATCH:2", 4), ("K3,PATH:4", 3),
            ("K3,PATH:4", 4)}

# the cases of _PINNED whose K_{c_k} witness compute_c_k builds, with the nodes
# and witness of the search that no longer runs
_BUILT = {("F3", 5): ("walecki", 39025,
                      "0011223344011223344221144333340402434020401031030212211"),
          ("F4", 4): ("galaxy", 105, "001231213332010")}


@pytest.mark.parametrize("spec, k, value, witness_nodes, refutation_nodes, assignment",
                         _PINNED, ids=[f"{case[0]}-{case[1]}" for case in _PINNED])
def test_search_node_counts_and_witnesses_are_pinned(spec, k, value, witness_nodes,
                                                     refutation_nodes, assignment):
    fam = parse_family(spec)
    res = compute_c_k(fam, k)
    counted = (spec, k) in _COUNTED
    assert (res.value, res.witness_nodes, res.counted) == (value, witness_nodes, counted)
    assert "".join(map(str, res.witness.assignment)) == assignment
    built, search_nodes, search_assignment = _BUILT.get((spec, k), (None, witness_nodes,
                                                                    assignment))
    assert res.built == built
    if built:
        # the search still finds its K_{c_k} witness in the pinned count on its own
        coloring, nodes = mono_free_search(value, k, fam)
        assert (nodes, "".join(map(str, coloring.assignment))) == (search_nodes,
                                                                   search_assignment)
    if counted:
        # the search still refutes K_{c_k + 1} in the pinned count on its own
        assert res.refutation_nodes == 0
        if refutation_nodes is not None:
            assert mono_free_search(value + 1, k, fam) == (None, refutation_nodes)
    else:
        assert res.refutation_nodes == refutation_nodes


@pytest.mark.parametrize("spec, k, value, witness_nodes, refutation_nodes, counted", [
    # galaxy star forests color K_6, and counting subset signatures refutes K_7
    ("F4", 4, 6, 0, 0, True),
    # a C4-or-tree class holds at most 6 of K_7's 21 edges
    ("K3,PATH:4", 3, 6, 149, 0, True),
    # the K_9 witness's row is 0,0,1,1,2,2,3,3, which the row reaches first
    # by opening each color as soon as it may; it is searched, since
    # Walecki's Hamilton cycles of K_9 contain P4
    ("F2", 4, 9, 1910, 0, True),
], ids=["F4-4", "K3,PATH:4-3", "F2-4"])
def test_row_break_headline_counts(spec, k, value, witness_nodes, refutation_nodes, counted):
    res = compute_c_k(parse_family(spec), k)
    assert (res.value, res.witness_nodes, res.refutation_nodes, res.counted) == (
        value, witness_nodes, refutation_nodes, counted)


def test_budget_cap_matches_node_budget():
    # the budget is checked before each node, as NodeBudget.tick does
    with pytest.raises(BudgetExceededError) as exc:
        mono_free_search(10, 5, FAMILY_PRESETS["F2"], budget=200_000)
    assert exc.value.partial["nodes"] == 200_000
    col, nodes = mono_free_search(4, 2, FAMILY_PRESETS["F2"])
    assert col is not None
    assert mono_free_search(4, 2, FAMILY_PRESETS["F2"], budget=nodes)[1] == nodes
    with pytest.raises(BudgetExceededError):
        mono_free_search(4, 2, FAMILY_PRESETS["F2"], budget=nodes - 1)


def test_color_edges_charges_its_budget_on_every_exit():
    # a budget that earlier sizes drew on ends each search with that search's
    # nodes added (MATCH:2 with 4 colors, as pinned above: 37 for the K_6
    # witness, 1,815 for the K_7 refutation), and at its limit on a cut
    fam = parse_family("MATCH:2")
    bud = NodeBudget(10**6)
    bud.spent = 100
    assert _color_edges(6, 4, complete_edges(6), fam, bud, row=5) is not None
    assert bud.spent == 100 + 37
    assert _color_edges(7, 4, complete_edges(7), fam, bud, row=6) is None
    assert bud.spent == 100 + 37 + 1815
    bud = NodeBudget(1000)
    bud.spent = 100
    with pytest.raises(BudgetExceededError) as exc:
        _color_edges(7, 4, complete_edges(7), fam, bud, row=6)
    assert bud.spent == exc.value.partial["nodes"] == 1000


def test_compute_c_k_spends_one_budget_on_the_whole_scan():
    # K_1 to K_9 take 3,604 nodes together for F2 at k = 4, and K_10 is
    # refuted by counting; one node fewer cuts the search of K_9
    fam = FAMILY_PRESETS["F2"]
    assert compute_c_k(fam, 4, budget=3604).value == 9
    with pytest.raises(BudgetExceededError) as exc:
        compute_c_k(fam, 4, budget=3603)
    partial = exc.value.partial
    assert (partial["nodes"], partial["lower"], partial["witness"].base.n) == (3603, 8, 8)
    assert verify_mono_free(partial["witness"], fam).ok


def _mono_k5_search(monkeypatch):
    """Patch the edge search so that K_5, c_3(F2), comes out in one color:
    a coloring holding P4, which the scan must not pass on unchecked."""
    real = ramsey_search._color_edges

    def search(n, k, edges, fam, budget, *, row=0):
        chosen = real(n, k, edges, fam, budget, row=row)
        return [0] * len(edges) if n == 5 else chosen

    monkeypatch.setattr(ramsey_search, "_color_edges", search)


def test_compute_c_k_checks_the_coloring_it_returns(monkeypatch):
    fam = FAMILY_PRESETS["F2"]
    below = sum(mono_free_search(n, 3, fam)[1] for n in range(1, 6))
    _mono_k5_search(monkeypatch)
    # the value, the cut of the K_6 search and the cap each carry K_5
    for budget, cap in ((None, 32), (below + 1, 32), (None, 5)):
        with pytest.raises(VerificationError) as exc:
            compute_c_k(fam, 3, cap=cap, budget=budget)
        assert exc.value.check == "mono-free-witness", (budget, cap)
    with pytest.raises(VerificationError):
        mono_free_search(5, 3, fam)


def test_compute_c_k_checks_the_coloring_counting_settles(monkeypatch):
    # with K_6 refuted by counting and no construction for K_5, the scan
    # searches K_1 to K_5 and returns the counted value with that K_5
    fam = FAMILY_PRESETS["F2"]
    real = ramsey_search.counting_refutes
    monkeypatch.setattr(ramsey_search, "counting_refutes",
                        lambda f, k, n: n == 6 or real(f, k, n))
    result = compute_c_k(fam, 3)
    assert (result.value, result.counted, result.built) == (5, True, None)
    _mono_k5_search(monkeypatch)
    with pytest.raises(VerificationError) as exc:
        compute_c_k(fam, 3)
    assert exc.value.check == "mono-free-witness"


def test_compute_c_k_checks_one_coloring(monkeypatch):
    # a coloring of K_n restricts to every smaller K_m, so the scan re-checks
    # only the K_5 it returns, not K_1 to K_4 as well
    calls = []

    def counted(coloring, fam):
        calls.append(coloring.base.n)
        return verify_mono_free(coloring, fam)

    monkeypatch.setattr(ramsey_search, "verify_mono_free", counted)
    assert compute_c_k(FAMILY_PRESETS["F2"], 3).value == 5
    assert calls == [5]


def test_search_depth_exceeds_recursion_limit():
    # K_50 has 1225 edges, more than Python's default recursion limit
    col, nodes = mono_free_search(50, 1, parse_family("STAR:60"))
    assert col is not None and nodes == 1225


def test_compute_c_k_classic_values():
    res = compute_c_k(FAMILY_PRESETS["F1"], 1)
    assert res.value == 2
    res = compute_c_k(FAMILY_PRESETS["F1"], 2)
    assert res.value == 5
    assert res.witness.base.n == 5
    assert verify_mono_free(res.witness, FAMILY_PRESETS["F1"]).ok
    assert res.witness_nodes > 0 and res.refutation_nodes > 0


def test_compute_c_k_cap(tmp_path, capsys):
    with pytest.raises(BudgetExceededError) as exc:
        compute_c_k(FAMILY_PRESETS["F3"], 2, cap=4)  # true value is 5
    assert "cap" in exc.value.partial and exc.value.partial["lower"] == 4
    assert exc.value.partial["witness"].base.n == 4
    # counting refutes K_6, one past cap 5, so the built K_5 settles the value
    assert compute_c_k(FAMILY_PRESETS["F3"], 2, cap=5).value == 5
    # counting refutes K_10, one past cap 9, so the searched K_9 settles
    # c_4(F2) = 9 as well
    res = compute_c_k(FAMILY_PRESETS["F2"], 4, cap=9)
    assert (res.value, res.witness_nodes, res.refutation_nodes, res.counted, res.built) == (
        9, 1910, 0, True, None)
    assert run(["ramsey", "--family", "F2", "--colors", "4", "--cap", "9",
                "--deterministic"]) == 0
    out = capsys.readouterr().out
    cert = json.loads(out)
    assert (cert["outcome"], cert["value"], cert["stats"]["refutation"]) == ("VALUE", 9, "counting")
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "true\n"


# -- witnesses from constructions -----------------------------------------------------


_BUILT_SPECS = ["F1", "F2", "F3", "F4", "F5", "F6", "F7", "STAR:1", "STAR:2", "STAR:3",
                "PATH:2", "PATH:3", "PATH:4", "MATCH:2", "MATCH:3"]


def test_built_witness_agrees_with_the_search():
    # wherever a construction settles c_k with N - 1 <= 15, scanning K_n
    # upward with the search alone stops at the same value; budget 0 shows
    # that compute_c_k builds before it searches
    settled = []
    for spec in _BUILT_SPECS:
        fam = parse_family(spec)
        for k in range(1, 8):
            try:
                res = compute_c_k(fam, k, cap=15, budget=0)
            except BudgetExceededError:
                continue
            if res.built is None:
                continue
            assert (res.witness_nodes, res.refutation_nodes, res.counted) == (0, 0, True)
            assert verify_mono_free(res.witness, fam).ok
            settled.append((spec, k, res.built))
            if spec == "F4" and k >= 5:
                # refuting K_9 at k = 5 takes the search more than 60M nodes
                assert res.value == closed_form_c_k(fam, k).value == 2 * k - 2
                continue
            n = 2
            while mono_free_search(n, k, fam)[0] is not None:
                n += 1
            assert res.value == n - 1, (spec, k)
    assert len(settled) == 32
    assert {(spec, k) for spec, k, built in settled if built == "galaxy"} == {
        ("F4", 4), ("F4", 5), ("F4", 6), ("F4", 7),
        ("F7", 3), ("F7", 4), ("STAR:1", 3), ("PATH:2", 3)}


@pytest.mark.parametrize("spec", ["F3", "F5"])
@pytest.mark.parametrize("k", [8, 9, 10])
def test_star_families_beyond_the_search_are_built(spec, k):
    # the search took 1,727,340 nodes for F3's K_17 witness at k = 8, and
    # stopped every other case here unsettled at 4M nodes
    res = compute_c_k(FAMILY_PRESETS[spec], k)
    assert (res.value, res.built, res.witness_nodes, res.counted) == (
        2 * k + 1, "walecki", 0, True)


def _max_free_edges(n: int, *patterns) -> int:
    """ex(n, patterns) by branch and bound over the edges of K_n."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen: list[tuple[int, int]] = []
    best = 0

    def rec(i: int) -> None:
        nonlocal best
        if len(chosen) + len(edges) - i <= best:
            return
        if i == len(edges):
            best = len(chosen)
            return
        chosen.append(edges[i])
        g = build_graph(n, chosen)
        if all(find_copy(g, p) is None for p in patterns):
            rec(i + 1)
        chosen.pop()
        rec(i + 1)

    rec(0)
    return best


def test_ex_bound_against_brute_force():
    # exact for the triangle, stars, P4 and matchings; an upper bound for
    # longer paths
    for p in (TRIANGLE, star_pattern(1), star_pattern(2), S3, star_pattern(4), P4,
              matching_pattern(2), matching_pattern(3), path_pattern(4), path_pattern(5)):
        for n in range(1, 7):
            ex = _max_free_edges(n, p)
            bound = ex_bound(ForbiddenFamily((p,)), n)
            if p.kind == "path" and p.size >= 4:
                assert bound >= ex, (p.token, n)
            else:
                assert bound == ex, (p.token, n)


def test_ex_bound_of_star_forests_against_brute_force():
    # free of K3 and P4, a graph is a star forest: n - 1 edges at most, or
    # n - ceil(n / s) when the s-edge star is forbidden as well
    for spec in ("F4", "F7", "K3,P4,STAR:1", "K3,P4,STAR:3", "K3,P4,STAR:4"):
        fam = parse_family(spec)
        for n in range(1, 8):
            assert ex_bound(fam, n) == _max_free_edges(n, *fam.patterns), (spec, n)


def test_ex_bound_of_c4_or_tree_classes_against_brute_force():
    # free of K3 and P5, each component is a tree or a C4: n edges when
    # 4 | n, else n - 1
    for spec in ("K3,PATH:4", "K3,PATH:4,STAR:3"):
        fam = parse_family(spec)
        for n in range(1, 8):
            assert ex_bound(fam, n) == _max_free_edges(n, *fam.patterns), (spec, n)


def test_ex_bound_of_one_star_or_one_triangle_against_brute_force():
    # free of 2K2, a graph is one star or one triangle: s - 1 edges at most
    # with the s-edge star forbidden, or 3 when a triangle fits
    for spec in ("MATCH:2", "MATCH:2,STAR:1", "MATCH:2,STAR:2", "MATCH:2,STAR:3",
                 "K3,MATCH:2", "K3,MATCH:2,STAR:3", "MATCH:2,PATH:2"):
        fam = parse_family(spec)
        for n in range(1, 7):
            assert ex_bound(fam, n) == _max_free_edges(n, *fam.patterns), (spec, n)


def test_star_or_triangle_bound_settles_match2_with_a_star_by_counting():
    # 8 classes of at most 3 edges hold 24 < 28 edges of K_8, which the
    # search refuted in 2,154,540 nodes
    fam = parse_family("MATCH:2,STAR:3")
    for k, value in zip(range(3, 9), (4, 5, 6, 6, 7, 7)):
        res = compute_c_k(fam, k)
        assert (res.value, res.counted, res.refutation_nodes) == (value, True, 0), k


def test_star_forest_bound_settles_f7_by_counting():
    # the bound first refutes exactly c_k + 1 for k = 1..5, so it never
    # refutes a colorable size; the search agrees on each refuted size
    fam = FAMILY_PRESETS["F7"]
    for k, value in enumerate((2, 3, 4, 6, 6), 1):
        res = compute_c_k(fam, k)
        assert (res.value, res.counted, res.refutation_nodes) == (value, True, 0), k
        # the galaxy star forests of K_4 and K_6 are its witnesses at k = 3, 4
        assert res.built == ("galaxy" if k in (3, 4) else None), k
        refuted, nodes = mono_free_search(value + 1, k, fam)
        assert refuted is None, k
    # the search spends 686,685 nodes on the last of them, K_7 at k = 5
    assert nodes == 686685


def test_ex_bound_takes_the_smallest_pattern_bound():
    assert ex_bound(FAMILY_PRESETS["F6"], 10) == 9  # P4 beats S3's 10
    assert ex_bound(FAMILY_PRESETS["F5"], 10) == 10  # S3 beats K3's 25
    assert ex_bound(parse_family("K3,PATH:4"), 7) == 6  # a C4 and a 3-vertex tree
    assert ex_bound(parse_family("MATCH:3"), 8) == 13  # 1 + 2 * 6 beats C(5, 2)
    assert ex_bound(parse_family("MATCH:3"), 4) == 6  # K_4 has no 3 disjoint edges
    # an explicit pattern of a kernel kind is classified when it is built;
    # a 4-cycle adds no bound
    c4 = explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert ex_bound(ForbiddenFamily((c4,)), 9) == 36
    p4_file = explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert ex_bound(ForbiddenFamily((c4, p4_file)), 9) == 9


def test_path_check_stops_when_too_few_vertices_are_left(monkeypatch):
    # a new 100-edge path needs 101 vertices, so on K_12 no walk is tried
    def walked(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(ramsey_search, "_extend_path", walked)
    with pytest.raises(BudgetExceededError) as exc:
        compute_c_k(parse_family("PATH:100"), 2, cap=12)
    assert (exc.value.partial["lower"], exc.value.partial["cap"]) == (12, 12)


def test_bounds_of_an_explicit_path_classify_nothing(monkeypatch):
    # explicit_pattern classifies the graph when it is built; the kernel,
    # which the bounds and the search's checks read, only reads its kind
    fam = ForbiddenFamily((TRIANGLE, explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3)]))))
    calls = []

    def counting(g):
        calls.append(g)
        return []

    monkeypatch.setattr(ramsey_search, "connected_components", counting)
    assert [ex_bound(fam, n) for n in (4, 6, 9)] == [3, 5, 8]
    assert fam.kernel == ({"triangle": 0, "path": 3}, ())
    assert calls == []


def test_counting_refutes():
    # 4 P4-free classes on 10 vertices hold at most 36 < 45 edges; on 9
    # vertices, 36 = 36
    assert counting_refutes(FAMILY_PRESETS["F2"], 4, 10)
    assert not counting_refutes(FAMILY_PRESETS["F2"], 4, 9)
    # K_1 has no edges to count, even when every edge is forbidden
    assert not counting_refutes(parse_family("STAR:0"), 3, 1)
    assert counting_refutes(parse_family("STAR:0"), 3, 2)
    # 4 star forests on 7 vertices hold 24 >= 21 edges, but 7 distinct
    # signatures from 4 classes total at least 0 + 4 * 1 + 2 * 2 = 8 > 28 - 21
    fam = FAMILY_PRESETS["F4"]
    assert 4 * ex_bound(fam, 7) >= 21 and _least_subset_total(4, 7) == 8
    assert counting_refutes(fam, 4, 7)
    assert not counting_refutes(fam, 4, 6)


def _least_totals_by_brute_force(k: int) -> list[float]:
    """For n = 0 .. 2^k + 1, the least total size over every choice of n
    distinct subsets of a k-set (infinite when there is no choice)."""
    sizes = [m.bit_count() for m in range(1 << k)]
    if k <= 4:
        return [min((sum(c) for c in itertools.combinations(sizes, n)), default=math.inf)
                for n in range(len(sizes) + 2)]
    # C(32, 16) choices are too many at k = 5; a choice's total depends only
    # on how many subsets of each size it takes, so try every such count
    best = [math.inf] * (len(sizes) + 2)
    for counts in itertools.product(*(range(math.comb(k, s) + 1) for s in range(k + 1))):
        n = sum(counts)
        best[n] = min(best[n], sum(s * c for s, c in enumerate(counts)))
    return best


@pytest.mark.parametrize("k", range(6))
def test_least_subset_total_against_brute_force(k):
    assert [_least_subset_total(k, n) for n in range(2 ** k + 2)] == (
        _least_totals_by_brute_force(k))


@pytest.mark.parametrize("spec", ["F4", "F7", "K3,P4,STAR:1", "K3,P4,STAR:3", "STAR:1",
                                  "PATH:2", "K3,EXPLICIT[0-1;1-2;2-3|4]"])
def test_signature_count_refutes_no_colorable_size(spec):
    # every class of these families is a star forest; the search colors each
    # K_n below the first one it refutes, and counting must refute none of them
    fam = parse_family(spec)
    for k in range(1, 5):
        n = 1
        while mono_free_search(n, k, fam)[0] is not None:
            assert not counting_refutes(fam, k, n), (k, n)
            n += 1


@pytest.mark.parametrize("spec", ["F1", "F2", "F3", "F5", "F6", "K3,PATH:4"])
def test_counting_refutes_other_families_by_edges_alone(spec):
    # a family with a free graph that is not a star forest, nor one star or
    # one triangle, gets no signature or cover count
    fam = parse_family(spec)
    for k in range(1, 7):
        for n in range(1, 21):
            assert counting_refutes(fam, k, n) == (k * ex_bound(fam, n) < n * (n - 1) // 2)


def test_cover_count_of_match2():
    # with j triangle classes, k - j star centers leave n - k + j vertices
    # whose C(n - k + j, 2) edges the triangles must hold: K_{k+3} never
    # fits, and K_{k+2} needs one or two triangles
    fam = parse_family("MATCH:2")
    for k in range(1, 9):
        assert [counting_refutes(fam, k, n) for n in (k + 2, k + 3, k + 4)] == [
            False, True, True], k
        # the edge count alone refutes K_{k+3} only for k <= 2
        assert (k * ex_bound(fam, k + 3) < math.comb(k + 3, 2)) == (k <= 2), k
    k3 = parse_family("K3,MATCH:2")
    # with K3 forbidden too, j = 0: the k star centers must cover every edge
    assert [counting_refutes(k3, 4, n) for n in (5, 6)] == [False, True]


@pytest.mark.parametrize("spec", ["MATCH:2", "K3,MATCH:2", "MATCH:2,STAR:3", "MATCH:2,PATH:3"])
def test_cover_count_refutes_no_colorable_size(spec):
    # the search colors each K_n below the first one it refutes, and counting
    # must refute none of them
    fam = parse_family(spec)
    for k in range(1, 6):
        n = 1
        while mono_free_search(n, k, fam)[0] is not None:
            assert not counting_refutes(fam, k, n), (k, n)
            n += 1


@pytest.mark.parametrize("spec, offset", [("MATCH:2", 2), ("K3,MATCH:2", 1)])
def test_cover_count_settles_match2(spec, offset):
    # Cockayne-Lorimer: c_k(2K2) = k + 2, and k + 1 with K3 forbidden too
    fam = parse_family(spec)
    for k in range(1, 9):
        res = compute_c_k(fam, k)
        assert (res.value, res.counted, res.refutation_nodes) == (k + offset, True, 0), k
        assert closed_form_c_k(fam, k) == ClosedForm(k + offset), k


@pytest.mark.parametrize("k", range(4, 11))
def test_f4_is_settled_by_the_galaxy_and_the_signature_count(k):
    res = compute_c_k(FAMILY_PRESETS["F4"], k)
    assert (res.value, res.built, res.witness_nodes, res.refutation_nodes, res.counted) == (
        2 * k - 2, "galaxy", 0, 0, True)


# -- closed forms ------------------------------------------------------------------


def test_closed_forms_match_search_on_small_cases():
    cases = [("F2", 1), ("F2", 2), ("F2", 3), ("F3", 1), ("F3", 2),
             ("F4", 1), ("F4", 2), ("F4", 3), ("F5", 1), ("F5", 2),
             ("F6", 1), ("F6", 2),
             ("MATCH:2", 1), ("MATCH:2", 2), ("MATCH:2", 3), ("MATCH:2", 4),
             ("S3,STAR:3", 1), ("S3,STAR:3", 2), ("K3,P4,PATH:4", 1), ("K3,P4,PATH:4", 2),
             ("K3,P4,PATH:4", 3)]
    for name, k in cases:
        fam = parse_family(name)
        form = closed_form_c_k(fam, k)
        assert form is not None and not form.asymptotic and not form.conditional
        assert compute_c_k(fam, k).value == form.value
        # the search agrees with the formula without the counting bound's help
        assert mono_free_search(form.value + 1, k, fam)[0] is None, (name, k)


def test_closed_form_reduces_the_family_like_the_search():
    # a star, path or matching containing a smaller one of its kind adds nothing
    for spec, reduced in (("S3,STAR:3", "S3"), ("P4,PATH:5", "P4"), ("K3,P4,PATH:4", "F4"),
                          ("STAR:3,STAR:3", "STAR:3"), ("STAR:3,STAR:4", "STAR:3")):
        for k in (2, 3, 4):
            form = closed_form_c_k(parse_family(spec), k)
            assert form is not None and form == closed_form_c_k(parse_family(reduced), k)
    assert [closed_form_c_k(parse_family("S3,STAR:3"), k).value for k in (2, 3, 4)] == [5, 7, 9]


def test_closed_form_of_p3_holds_only_where_the_explicit_patterns_add_nothing():
    # a P3-free class is a matching: it may hold K2+K1 or 2K2+K1, so the
    # formula k + (k mod 2) gives way; P3+K1 and K3+K1 contain P3 itself
    for e in ("EXPLICIT[0-1|3]", "EXPLICIT[0-1;2-3|5]"):
        assert all(closed_form_c_k(parse_family(f"STAR:1,{e}"), k) is None for k in (1, 2, 3))
    for e in ("EXPLICIT[0-1;1-2|4]", "EXPLICIT[0-1;1-2;0-2|4]"):
        for k in (1, 2, 3):
            fam = parse_family(f"STAR:1,{e}")
            assert closed_form_c_k(fam, k) == ClosedForm(k + k % 2)
            assert compute_c_k(fam, k).value == k + k % 2
    assert compute_c_k(parse_family("STAR:1,EXPLICIT[0-1|3]"), 3).value == 2


def test_closed_form_p4_family_residues():
    fam = FAMILY_PRESETS["F2"]
    assert closed_form_c_k(fam, 3).value == 5
    assert closed_form_c_k(fam, 4).value == 9
    assert closed_form_c_k(fam, 6).value == 12
    assert closed_form_c_k(fam, 7).value == 15


def test_closed_form_star_families():
    assert closed_form_c_k(FAMILY_PRESETS["F3"], 10).value == 21
    assert closed_form_c_k(FAMILY_PRESETS["F5"], 1).value == 2
    assert closed_form_c_k(FAMILY_PRESETS["F5"], 9).value == 19
    assert closed_form_c_k(FAMILY_PRESETS["F4"], 25).value == 48


def test_closed_form_p4_s3_family_gaps():
    fam = FAMILY_PRESETS["F6"]
    assert closed_form_c_k(fam, 4).value == 9
    assert closed_form_c_k(fam, 9).value == 18
    assert closed_form_c_k(fam, 2).value == 3
    assert closed_form_c_k(fam, 3) is None  # exceptional multiple of 3, open
    assert closed_form_c_k(fam, 6) is None
    assert closed_form_c_k(fam, 5) is None  # below the conditional threshold
    cond = closed_form_c_k(fam, 5, delta0=5)
    assert cond == ClosedForm(9, conditional=True, note="for k >= delta0 = 5")


def _f6_residue_table(k: int, delta0: int) -> ClosedForm | None:
    """c_k(P4, S3) by the residue of k mod 3, with the eleven open
    exceptional multiples of 3 and the delta0 threshold for k = 2 (mod 3)."""
    if k % 3 == 1:
        return ClosedForm(2 * k + 1)
    if k % 3 == 0 and k not in {3, 6, 18, 21, 24, 30, 33, 39, 42, 51, 66}:
        return ClosedForm(2 * k)
    if k == 2:
        return ClosedForm(3)
    if k % 3 == 2 and k >= delta0:
        return ClosedForm(2 * k - 1, conditional=True, note=f"for k >= delta0 = {delta0}")
    return None


def test_closed_form_p4_s3_family_is_the_residue_table():
    fam = FAMILY_PRESETS["F6"]
    for delta0 in (1, 5, 8, 50, DEFAULT_DELTA0):
        for k in range(1, 151):
            expect = _f6_residue_table(k, delta0)
            assert closed_form_c_k(fam, k, delta0=delta0) == expect, (k, delta0)


def test_closed_form_all_three_family():
    fam = FAMILY_PRESETS["F7"]
    form = closed_form_c_k(fam, 6)
    assert form.value == 9 and form.asymptotic
    assert closed_form_c_k(fam, 15).value == 21
    assert closed_form_c_k(fam, 7) is None


def test_closed_form_shape_folding():
    # a single edge forbidden in any drape gives c_k = 1
    for spec in ("MATCH:1", "PATH:1", "STAR:0", "K3,MATCH:1"):
        assert closed_form_c_k(parse_family(spec), 5) == ClosedForm(1)
    # a 2-edge path and a 2-edge star are the same pattern
    assert closed_form_c_k(parse_family("PATH:2"), 5).value == 6
    assert closed_form_c_k(parse_family("STAR:1"), 5).value == 6
    assert closed_form_c_k(parse_family("PATH:2"), 4).value == 4
    # a 3-edge path is P4
    assert closed_form_c_k(parse_family("PATH:3"), 4).value == 9


def test_closed_form_small_pattern_rules():
    # two disjoint edges forbidden: near-pencils survive
    assert closed_form_c_k(parse_family("MATCH:2"), 7) == ClosedForm(9)
    form = closed_form_c_k(parse_family("MATCH:2,S3"), 6)
    assert form.asymptotic and form.value == 5  # s(s-1)/2 <= 2k = 12
    form = closed_form_c_k(parse_family("STAR:1,MATCH:3"), 4)
    assert form.asymptotic and form.value == 4  # s(s-1)/2 <= 2k = 8
    form = closed_form_c_k(parse_family("STAR:4,K3"), 10)
    assert form.asymptotic and form.value == 41


def test_max_s_for_pairs_is_the_largest_s_with_c_s_2_at_most_the_budget():
    rng = random.Random(59)
    budgets = itertools.chain(range(200_000),
                              (rng.getrandbits(rng.randint(1, 400)) for _ in range(100_000)))
    for b in budgets:
        s = _max_s_for_pairs(b)
        assert s * (s - 1) // 2 <= b < (s + 1) * s // 2, b


def test_closed_form_two_edge_matching_with_other_patterns():
    # patterns containing 2K2 add nothing; a triangle leaves one star a class
    for spec, value in (("MATCH:2,P4", 2), ("MATCH:2,PATH:4,MATCH:3", 2), ("K3,MATCH:2", 1)):
        for k in (1, 2, 3):
            fam = parse_family(spec)
            form = closed_form_c_k(fam, k)
            assert form == ClosedForm(k + value)
            assert compute_c_k(fam, k).value == form.value
    c4 = explicit_pattern(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert closed_form_c_k(ForbiddenFamily((matching_pattern(2), c4)), 3) is None


def test_closed_form_none_for_plain_triangle():
    assert closed_form_c_k(FAMILY_PRESETS["F1"], 3) is None
    with pytest.raises(ValidationError) as exc:
        closed_form_c_k(FAMILY_PRESETS["F1"], 0)
    assert exc.value.code == "BAD_K"


def test_star_upper_bound_sanity():
    # c_k(F3) = 2k+1 always sits under the forest bound 8k
    for k in range(1, 6):
        assert closed_form_c_k(FAMILY_PRESETS["F3"], k).value <= 8 * k
