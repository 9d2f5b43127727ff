"""Extremal hypergraph generators and their matching-size guarantees."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ramseylab.errors import ValidationError, VerificationError
from ramseylab.extremal import (
    _verify_ach,
    _verify_claim51,
    _verify_intersecting,
    _verify_plane,
    _verify_truncated_plane,
    ach_bound,
    ach_counterexample,
    ach_matching,
    claim51_hypergraph,
    claim51_matching,
    projective_plane,
    truncated_plane,
)
from ramseylab.graph_core import complete_graph
from ramseylab.hypergraph_lab import (
    disjoint_copies,
    is_matching,
    line_graph,
    make_hypergraph,
    max_matching,
    regularity,
)


# -- the matching-bound counterexample ---------------------------------------------


def test_ach_structure():
    h, labels = ach_counterexample(4)
    assert h.part_sizes == (6, 6, 6)
    assert h.m == 24 and regularity(h) == 4  # 4*2 off-diagonal triples
    assert len(labels) == 24
    h5, _ = ach_counterexample(5)
    assert h5.part_sizes == (7, 7, 7)
    # odd d adds the five diagonal edges
    assert h5.m == 5 * 2 * 3 + 5 and regularity(h5) == 5
    assert (0, 0, 0) in h5.edges and (0, 0, 0) not in h.edges


def test_ach_refutes_the_matching_bound():
    for d in (4, 5, 6, 7):
        h, _ = ach_counterexample(d)
        res = max_matching(h)
        assert res.size == d  # the label classes cap it, and d is attained
        assert res.size < ach_bound(d, h.part_sizes[0])


def test_ach_matching_takes_one_edge_per_label():
    for d in range(4, 41):
        h, labels = ach_counterexample(d)
        picked = ach_matching(d)
        assert is_matching(h, picked)
        assert sorted(labels[j] for j in picked) == list(range(d))
        _verify_ach(h, labels, d, 3 * d // 2, picked)


def test_ach_label_is_the_diagonal_each_edge_meets_twice():
    # label i is the unique i in A that at least two coordinates equal
    for d in range(4, 31):
        h, labels = ach_counterexample(d)
        for e, label in zip(h.edges, labels):
            assert {x for x in e if x < d and e.count(x) >= 2} == {label}, (d, e)


def test_ach_odd_d_covered_fraction():
    # a maximum matching covers 3d of the 3 * (3d-1)/2 vertices for odd d
    for d in (5, 7):
        h, _ = ach_counterexample(d)
        covered = Fraction(3 * max_matching(h).size, 3 * h.part_sizes[0])
        assert covered == Fraction(2 * d, 3 * d - 1)


def test_ach_validation():
    with pytest.raises(ValidationError) as exc:
        ach_counterexample(1)
    assert exc.value.code == "BAD_D"


def test_ach_needs_d_at_least_four():
    # below d = 4 the construction does not beat the bound it refutes
    for d in (2, 3):
        with pytest.raises(ValidationError) as exc:
            ach_counterexample(d)
        assert exc.value.code == "BAD_D"


def test_ach_bound_values():
    assert ach_bound(4, 6) == 5
    assert ach_bound(5, 7) == 6
    assert ach_bound(1, 10) == 0
    assert ach_bound(3, 0) == 0
    with pytest.raises(ValidationError):
        ach_bound(0, 5)


# -- greedy matching bound -----------------------------------------------------------


def test_greedy_bound_is_a_true_lower_bound():
    # on every generated regular instance the maximum matching covers at
    # least nd/(1+(d-1)r) vertices per part... i.e. matching >= bound/d
    cases = [ach_counterexample(d)[0] for d in (4, 5)]
    cases.append(truncated_plane(2))
    cases.append(truncated_plane(3))
    for h in cases:
        d = regularity(h)
        n = h.part_sizes[0]
        bound = Fraction(n * d, 1 + (d - 1) * h.r)
        assert max_matching(h).size >= bound / d


# -- projective planes -----------------------------------------------------------------


def test_projective_plane_shapes():
    for p in (2, 3, 5, 7, 11, 13):
        lines = projective_plane(p)
        assert len(lines) == p * p + p + 1
        assert all(len(ln) == p + 1 for ln in lines)
        _verify_plane(p, lines)


def _plane_by_orthogonality(p: int) -> tuple[tuple[int, ...], ...]:
    """The plane by its definition, the reference for the chart listing:
    points are normalized homogeneous triples over Z_p in lexicographic
    order, and a line is the set of points orthogonal to one triple."""
    triples = ([(1, a, b) for a in range(p) for b in range(p)]
               + [(0, 1, a) for a in range(p)]
               + [(0, 0, 1)])
    return tuple(sorted(
        tuple(i for i, x in enumerate(triples)
              if (c[0] * x[0] + c[1] * x[1] + c[2] * x[2]) % p == 0)
        for c in triples))


def test_projective_plane_lists_the_orthogonality_construction():
    for p in (2, 3, 5, 7, 11, 13):
        assert projective_plane(p) == _plane_by_orthogonality(p), p


def test_projective_plane_fano_is_unique_order_two():
    fano = projective_plane(2)
    assert len(fano) == 7
    # every pair of points spans exactly one line
    seen = set()
    for ln in fano:
        for a in ln:
            for b in ln:
                if a < b:
                    assert (a, b) not in seen
                    seen.add((a, b))
    assert len(seen) == 21


def test_projective_plane_nonprime_rejected():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValidationError) as exc:
            projective_plane(bad)
        assert exc.value.code == "NOT_PRIME"


def _verify_plane_by_definition(p: int, lines) -> None:
    """The axioms checked straight from their statement, O(N^3 p): the
    reference that the pair-counting check must agree with."""
    n_pts = p * p + p + 1
    if len(lines) != n_pts:
        raise VerificationError("line-count", f"expected {n_pts} lines")
    if p < 2 or any(p % f == 0 for f in range(2, p)):
        raise VerificationError("prime", f"order {p}")
    on_lines = [0] * n_pts
    for ln in lines:
        if len(ln) != p + 1 or len(set(ln)) != p + 1 or not all(0 <= x < n_pts for x in ln):
            raise VerificationError("line-size", f"line {ln} is not {p + 1} points")
        for x in ln:
            on_lines[x] += 1
    if any(c != p + 1 for c in on_lines):
        raise VerificationError("point-degree", "some point is not on exactly p+1 lines")
    for a in range(n_pts):
        for b in range(a + 1, n_pts):
            if sum(1 for ln in lines if a in ln and b in ln) != 1:
                raise VerificationError("two-points", f"points {a},{b}")
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if len(set(lines[i]) & set(lines[j])) != 1:
                raise VerificationError("two-lines", f"lines {i},{j}")


def _verdict(check, p: int, lines) -> str | None:
    """None if the plane passes, else the name of the failed check."""
    try:
        check(p, lines)
    except VerificationError as exc:
        return exc.check
    return None


def _mutations(lines, rng: random.Random):
    """One of each defect, at random places: a point moved between two
    lines, a line written over another, a dropped point, a point off the
    plane, and two points swapped across lines."""
    lines = [list(ln) for ln in lines]
    i, j = rng.sample(range(len(lines)), 2)
    n_pts = len(lines)  # a plane has as many points as lines

    def edited(edit):
        copy = [list(ln) for ln in lines]
        edit(copy)
        return tuple(tuple(ln) for ln in copy)

    def move(ls):
        x = rng.choice([x for x in ls[i] if x not in ls[j]])
        ls[i].remove(x)
        ls[j].append(x)

    def duplicate(ls):
        ls[j] = list(ls[i])

    def drop(ls):
        ls[i].pop(rng.randrange(len(ls[i])))

    def off_plane(ls):
        ls[i][rng.randrange(len(ls[i]))] = n_pts

    def swap(ls):
        a = rng.choice([x for x in ls[i] if x not in ls[j]])
        b = rng.choice([x for x in ls[j] if x not in ls[i]])
        ls[i][ls[i].index(a)], ls[j][ls[j].index(b)] = b, a

    return [edited(edit) for edit in (move, duplicate, drop, off_plane, swap)]


def test_plane_check_agrees_with_the_definition():
    cases = [(0, ((0,),)), (1, ((0, 1), (0, 2), (1, 2))),
             (1, ((0, 1), (0, 1), (1, 2))), (2, ())]
    for p in (2, 3, 5):
        lines = projective_plane(p)
        cases.append((p, lines))
        for seed in range(6):
            rng = random.Random(1000 * p + seed)
            cases.extend((p, bad) for bad in _mutations(lines, rng))
            # two swaps at once keep every size and degree as well
            cases.append((p, _mutations(_mutations(lines, rng)[-1], rng)[-1]))
    verdicts = [_verdict(_verify_plane_by_definition, p, lines) for p, lines in cases]
    assert [_verdict(_verify_plane, p, lines) for p, lines in cases] == verdicts
    # every check is reached, and a swap is caught by two-points
    assert {None, "prime", "line-count", "line-size", "point-degree",
            "two-points"} <= set(verdicts)


def test_truncated_plane_shapes():
    for p in (2, 3):
        h = truncated_plane(p)
        assert h.part_sizes == tuple([p] * (p + 1))
        assert h.m == p * p and regularity(h) == p
        assert max_matching(h).size == 1  # edges pairwise intersect


def test_construction_check_rejects_each_defect():
    # the repeated edge, the disjoint pair and the wrong degree each fail
    # under their own check name
    for edges, degree, check in (([(0, 0), (0, 0), (1, 1), (1, 1)], 2, "simple"),
                                 ([(0, 0), (1, 1)], 1, "pairwise-intersect"),
                                 ([(0, 0), (1, 1)], 2, "regular")):
        h = make_hypergraph([2, 2], edges)
        with pytest.raises(VerificationError) as exc:
            _verify_intersecting(h, degree, [h.edges], 2, "pairwise-intersect")
        assert exc.value.check == check
    h = make_hypergraph([2, 2], [(0, 0), (0, 1), (1, 0), (1, 1)])
    _verify_intersecting(h, 2, [h.edges[:2], h.edges[2:]], 2, "pairwise-intersect")


def _first_disjoint_pair(groups, width: int) -> str | None:
    """The message of the pair loop the intersection check replaced: the
    lowest b > a for the lowest a whose edges miss in the first width
    coordinates."""
    for group in groups:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if all(group[a][i] != group[b][i] for i in range(width)):
                    return f"edges {group[a]} and {group[b]} of one group are disjoint"
    return None


def test_intersection_check_reports_the_pair_loops_first_disjoint_pair():
    # the groups need not be edges of h, which only has to pass the
    # regularity and simplicity checks; widths run from 0 to r, and some
    # groups repeat an edge
    h = make_hypergraph([1], [(0,)])
    rng = random.Random(3000)
    verdicts = set()
    for _ in range(3000):
        r = rng.randint(1, 4)
        width = rng.randint(0, r)
        values = rng.randint(1, 4)
        groups = [[tuple(rng.randrange(values) for _ in range(r))
                   for _ in range(rng.randint(0, 10))] for _ in range(rng.randint(1, 3))]
        for group in groups:
            if group and rng.random() < 0.3:
                group.insert(rng.randrange(len(group) + 1), rng.choice(group))
        expected = _first_disjoint_pair(groups, width)
        try:
            _verify_intersecting(h, 1, groups, width, "copy-intersect")
            got = None
        except VerificationError as exc:
            assert exc.check == "copy-intersect"
            got = str(exc)
        assert got == expected, (groups, width)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_truncated_plane_of_order_31_is_checked_in_one_pass():
    # 961 edges: the pair loop compared 461,280 pairs of them, per check
    h = truncated_plane(31)
    assert h.part_sizes == (31,) * 32 and h.m == 961 and regularity(h) == 31
    _verify_truncated_plane(h, 31)


def test_truncated_plane_of_order_61_shape():
    # the order at which the README times `truncated-plane`
    h = truncated_plane(61)
    assert h.part_sizes == (61,) * 62 and h.m == 3721 and regularity(h) == 61
    _verify_truncated_plane(h, 61)


def test_truncated_fano_line_graph_is_complete():
    h = truncated_plane(2)
    assert line_graph(h) == complete_graph(4)


# -- stacked planes ----------------------------------------------------------------------


def test_claim51_shapes_and_matchings():
    for p, m in ((2, 1), (2, 2), (3, 1)):
        h = claim51_hypergraph(p, m)
        assert h.r == p + 2
        assert h.part_sizes == tuple([p * m] * (p + 2))
        assert h.m == p**3 * m * m
        assert regularity(h) == p * p * m
        assert max_matching(h).size == m
        _verify_claim51(h, p, m, None, claim51_matching(p, m))


def test_claim51_covered_fraction_is_one_over_p():
    for p, m in ((2, 1), (2, 2), (3, 1)):
        h = claim51_hypergraph(p, m)
        covered = Fraction(max_matching(h).size, h.part_sizes[0])
        assert covered == Fraction(1, p)


def test_claim51_uniformity_flag():
    base = claim51_hypergraph(2, 1)
    fat = claim51_hypergraph(2, 1, uniformity=6)
    assert fat.r == 6 and fat.part_sizes == base.part_sizes + (2, 2)
    assert fat.m == base.m
    # duplicated coordinates change nothing about which edges can co-exist
    assert max_matching(fat).size == max_matching(base).size
    with pytest.raises(ValidationError):
        claim51_hypergraph(2, 1, uniformity=3)


def test_claim51_validation():
    with pytest.raises(ValidationError) as exc:
        claim51_hypergraph(4, 1)
    assert exc.value.code == "NOT_PRIME"
    with pytest.raises(ValidationError) as exc:
        claim51_hypergraph(2, 0)
    assert exc.value.code == "BAD_M"


def test_claim51_matching_stays_m_under_copies():
    h = claim51_hypergraph(2, 1)
    assert max_matching(disjoint_copies(h, 3)).size == 3
