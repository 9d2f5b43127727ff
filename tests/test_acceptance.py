"""Acceptance gate: ten checks covering the library's headline guarantees.

Every check is an exact integer assertion (tolerance zero); wall-clock
limits are pinned per check and enforced with perf_counter.  Each test
prints one ACCEPTANCE line so a log scan shows the pass/fail verdicts.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from ramseylab.extremal import ach_bound, ach_counterexample, claim51_hypergraph
from ramseylab.factor_lab import (
    DECOMPOSITION,
    GENERALIZED,
    PROPER,
    chi_r_report,
    cover_search,
    galaxy_colors,
    k11_colors,
    max_coverable_edges,
    random_factor,
    walecki_colors,
)
from ramseylab.graph_core import (
    build_graph,
    chromatic_number,
    color_classes,
    complete_edges,
    extend_coloring_from_core,
    is_proper_coloring,
    k_core,
    max_clique,
    union_graphs,
)
from ramseylab.hypergraph_lab import (
    disjoint_copies,
    factors_to_hypergraph,
    hypergraph_to_factors,
    line_graph,
    max_matching,
)
from ramseylab.ramsey_search import (
    FAMILY_PRESETS,
    closed_form_c_k,
    compute_c_k,
)

MINUTE = 60.0


def _timed(fn, limit: float):
    started = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit:.0f}s"
    return out, elapsed


def test_acceptance_01_path_family_values():
    total = 0.0
    for k, expected in ((1, 3), (2, 4), (3, 5)):
        res, elapsed = _timed(lambda k=k: compute_c_k(FAMILY_PRESETS["F2"], k),
                              MINUTE)
        assert res.value == expected
        total += elapsed
    print(f"ACCEPTANCE 1: PASS c_k of the 4-path family is 3, 4, 5 "
          f"for k = 1, 2, 3 ({total:.1f}s)")


def test_acceptance_02_small_family_values():
    cases = (("F5", 1, 2), ("F5", 2, 5),
             ("F3", 1, 3), ("F3", 2, 5),
             ("F6", 1, 3), ("F6", 2, 3),
             ("F4", 1, 2), ("F4", 2, 3), ("F4", 3, 4))
    total = 0.0
    for name, k, expected in cases:
        res, elapsed = _timed(
            lambda name=name, k=k: compute_c_k(FAMILY_PRESETS[name], k),
            5 * MINUTE)
        assert res.value == expected, f"c_{k}({name}) = {res.value} != {expected}"
        total += elapsed
    print(f"ACCEPTANCE 2: PASS all nine exact family values ({total:.1f}s)")


def test_acceptance_03_three_factor_coverage_limits():
    res63, t1 = _timed(lambda: cover_search(6, 3), 10 * MINUTE)
    assert res63.factors is None
    res53, t2 = _timed(lambda: cover_search(5, 3), 10 * MINUTE)
    assert res53.factors is not None

    max63, t3 = _timed(lambda: max_coverable_edges(6, 3), 10 * MINUTE)
    assert max63.value <= 14  # proven upper bound, hard assertion
    assert max63.value == 13  # exact maximum from exhaustive search
    max73, t4 = _timed(lambda: max_coverable_edges(7, 3), 10 * MINUTE)
    assert max73.value <= 17  # proven upper bound, hard assertion
    assert max73.value == 16  # exact maximum from exhaustive search
    assert union_graphs(max63.factors).m == 13
    assert union_graphs(max73.factors).m == 16
    print(f"ACCEPTANCE 3: PASS three factors never cover K_6 (yes for K_5); "
          f"max coverage 13 <= 14 and 16 <= 17 ({t1 + t2 + t3 + t4:.1f}s)")


def test_acceptance_04_eleven_vertex_union_bounds():
    factors = list(color_classes(11, complete_edges(11), k11_colors()).values())
    assert len(factors) == 6
    union = union_graphs(factors)
    assert union.m == 55 and union.n == 11
    lower = chromatic_number(union).value
    assert lower == 11
    report = chi_r_report(6)
    assert report.lower == 11 and report.upper == 12
    assert report.lower <= report.upper and report.status == "INTERVAL"
    print("ACCEPTANCE 4: PASS six factors cover K_11, union bounds 11 <= chi <= 12")


def test_acceptance_05_named_decompositions():
    _, t1 = _timed(lambda: [walecki_colors(k) for k in range(1, 11)], MINUTE)
    _, t2 = _timed(lambda: [galaxy_colors(k) for k in range(2, 11)], MINUTE)
    kirkman, t3 = _timed(
        lambda: cover_search(9, 4, properness=PROPER, mode=DECOMPOSITION), MINUTE)
    assert kirkman.factors is not None
    assert sum(f.m for f in kirkman.factors) == 36
    print(f"ACCEPTANCE 5: PASS cycle decompositions k <= 10, galaxy covers "
          f"k <= 10, triple-system decomposition of K_9 ({t1 + t2 + t3:.1f}s)")


def test_acceptance_06_factor_hypergraph_correspondence():
    rng = random.Random(661)

    def suite():
        for _ in range(200):
            r = rng.randint(1, 3)
            n = 3 * rng.randint(1, 4)
            factors = [random_factor(n, PROPER, seed=rng.randint(0, 10**9))
                       for _ in range(r)]
            h = factors_to_hypergraph(factors)
            union = union_graphs(factors)
            assert line_graph(h) == union
            assert hypergraph_to_factors(h) == factors

    _, elapsed = _timed(suite, 5 * MINUTE)
    print(f"ACCEPTANCE 6: PASS 200 random instances: line graph equals factor "
          f"union (so chi equals chi'), round-trip exact ({elapsed:.1f}s)")


def test_acceptance_07_matching_bound_refutation():
    def suite():
        h4, _ = ach_counterexample(4)
        assert max_matching(h4).size == 4
        assert ach_bound(4, h4.part_sizes[0]) == 5
        h5, _ = ach_counterexample(5)
        assert max_matching(h5).size == 5
        assert ach_bound(5, h5.part_sizes[0]) == 6
        for t in (2, 3):
            copies = disjoint_copies(h4, t)
            ratio = Fraction(max_matching(copies).size, copies.part_sizes[0])
            assert ratio == Fraction(2, 3)

    _, elapsed = _timed(suite, MINUTE)
    print(f"ACCEPTANCE 7: PASS matchings 4 < 5 and 5 < 6 beat the conjectured "
          f"bound; copies pin the ratio at 2/3 ({elapsed:.1f}s)")


def test_acceptance_08_stacked_plane_matchings():
    def suite():
        from ramseylab.hypergraph_lab import regularity
        for p, m, degree in ((2, 1, 4), (2, 2, 8), (3, 1, 9)):
            h = claim51_hypergraph(p, m)
            assert regularity(h) == degree
            size = max_matching(h).size
            assert size == m
            assert Fraction(size, h.part_sizes[0]) == Fraction(1, p)

    _, elapsed = _timed(suite, MINUTE)
    print(f"ACCEPTANCE 8: PASS stacked planes: degrees 4, 8, 9 with matchings "
          f"1, 2, 1, covered fraction 1/p ({elapsed:.1f}s)")


def test_acceptance_09_property_suites():
    rng = random.Random(909)

    def two_proper_unions():
        for _ in range(500):
            n = 3 * rng.randint(2, 10)
            factors = [random_factor(n, PROPER, seed=rng.randint(0, 10**9))
                       for _ in range(2)]
            assert chromatic_number(union_graphs(factors)).value <= 3

    def bounded_unions():
        for _ in range(500):
            r = rng.randint(1, 4)
            n = rng.randint(6, 15)
            factors = [random_factor(n, GENERALIZED, seed=rng.randint(0, 10**9))
                       for _ in range(r)]
            assert chromatic_number(union_graphs(factors)).value <= 2 * r + 1

    def five_factor_unions_stay_incomplete():
        for i in range(1000):
            factors = [random_factor(10, GENERALIZED, seed=9000 + 7 * i + j)
                       for j in range(5)]
            # neither K_10 (45 edges) nor K_10 minus one edge (44)
            assert union_graphs(factors).m <= 43

    def near_complete_chromatic_forcing():
        for order in range(3, 7):
            pairs = list(itertools.combinations(range(order), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(order,
                                [e for i, e in enumerate(pairs) if mask >> i & 1])
                if chromatic_number(g).value == order - 1:
                    assert max_clique(g)[0] >= order - 1

    def core_extensions_stay_proper():
        done = 0
        for _ in range(900):
            n = rng.randint(2, 10)
            p = rng.choice([0.25, 0.4, 0.55])
            g = build_graph(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if rng.random() < p])
            d = rng.randint(2, 4)
            core = k_core(g, d)
            if core.vertices:
                chrom = chromatic_number(core.graph)
                if chrom.value > d:
                    continue  # the core itself needs more than d colors
                coloring = {v: chrom.colors[v] for v in core.vertices}
            else:
                coloring = {}
            full = extend_coloring_from_core(g, d, coloring)
            assert is_proper_coloring(g, full)
            done += 1
        assert done >= 500

    def suite():
        two_proper_unions()
        bounded_unions()
        five_factor_unions_stay_incomplete()
        near_complete_chromatic_forcing()
        core_extensions_stay_proper()

    _, elapsed = _timed(suite, 10 * MINUTE)
    print(f"ACCEPTANCE 9: PASS property suites: 2-factor unions 3-colorable, "
          f"r-factor unions (2r+1)-colorable, 5-factor unions never reach "
          f"K_10 or K_10 minus an edge, chromatic forcing exhaustive through "
          f"6 vertices, core extensions proper ({elapsed:.1f}s)")


def test_acceptance_10_closed_form_consistency():
    table = {"F2": range(1, 4), "F3": range(1, 5), "F4": range(1, 11),
             "F5": range(1, 4), "F6": range(1, 3)}
    computed: dict[str, list[int]] = {}
    compared = 0
    started = time.perf_counter()
    for name, ks in table.items():
        fam = FAMILY_PRESETS[name]
        values = []
        for k in ks:
            value = compute_c_k(fam, k).value
            values.append(value)
            form = closed_form_c_k(fam, k)
            if form is not None and not form.asymptotic and not form.conditional:
                assert form.value == value, (
                    f"{name}, k={k}: search {value}, formula {form.value}")
                compared += 1
        computed[name] = values
    for name, values in computed.items():
        assert values == sorted(values), f"c_k({name}) not monotone: {values}"
    elapsed = time.perf_counter() - started
    assert compared >= 22
    print(f"ACCEPTANCE 10: PASS {compared} search/formula agreements and "
          f"per-family monotonicity across the table ({elapsed:.1f}s)")
