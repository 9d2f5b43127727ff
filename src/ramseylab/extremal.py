"""Hypergraphs witnessing that regular multipartite matchings can be small.

Three generator families; a caller checks each with its _verify_* function:

* a 3-partite d-regular hypergraph on parts of size floor(3d/2) whose edges
  fall into d pairwise-intersecting label classes, capping its matching at d
  and refuting the ceil((d-1)n/d) matching bound;
* projective planes of prime order and their truncation at a point, giving
  (p+1)-partite p-regular hypergraphs whose edges pairwise intersect;
* stacked truncated planes with an extra joining part, whose maximum
  matching is exactly the number of stacked copies and so covers only a 1/p
  fraction of the vertices.
"""

from __future__ import annotations

from math import ceil
from typing import Iterable, Sequence

from .errors import ValidationError, VerificationError
from .hypergraph_lab import PartiteHypergraph, is_matching, make_hypergraph, regularity


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


# -- the matching-bound counterexample ------------------------------------------

# at d = 81 the hypergraph still fits the MAX_MATCHING_EDGES cap of 10,000 edges
MAX_ACH_D = 81


def ach_counterexample(d: int) -> tuple[PartiteHypergraph, tuple[int, ...]]:
    """3-partite d-regular simple hypergraph with parts of size m = floor(3d/2)
    whose maximum matching is at most d, and its edge labels into
    A = {0..d-1}, where edges sharing a label intersect.

    With A the first d indices and B the rest, every i in A and j in B
    contribute the edges (i,i,j), (i,j,i), (j,i,i); odd d adds the diagonals
    (i,i,i).  Label i goes to the 3(m - d) + d mod 2 edges that i
    contributes, each meeting the diagonal triple {x_i, y_i, z_i} in at least
    two vertices; so the d label classes each pairwise intersect, and a
    matching takes at most one edge per class.  A caller checks the result
    and ach_matching(d) with _verify_ach.
    """
    if d < 4:
        # below 4 the construction does not beat ceil((d-1) m / d)
        raise ValidationError("BAD_D", f"need d >= 4, got {d}")
    if d > MAX_ACH_D:
        raise ValidationError("OUT_OF_RANGE", f"need d <= {MAX_ACH_D}, got {d}")
    m = 3 * d // 2
    edges: list[tuple[int, int, int]] = []
    labels: list[int] = []
    for i in range(d):
        for j in range(d, m):
            edges.extend([(i, i, j), (i, j, i), (j, i, i)])
        if d % 2 == 1:
            edges.append((i, i, i))
        labels.extend([i] * (len(edges) - len(labels)))  # the edges just built
    return make_hypergraph([m, m, m], edges), tuple(labels)


def ach_matching(d: int) -> list[int]:
    """Edge indices of d pairwise disjoint edges of ach_counterexample(d),
    one per label: for each b < floor(d/2), with j = d + b, the edges
    (2b, 2b, j) and (2b+1, j, 2b+1), and for odd d also (d-1, d-1, d-1)."""
    t = d // 2
    per_label = 3 * t + d % 2
    matching = []
    for b in range(t):
        matching += [2 * b * per_label + 3 * b, (2 * b + 1) * per_label + 3 * b + 1]
    if d % 2:
        matching.append((d - 1) * per_label + 3 * t)
    return matching


def _verify_ach(h: PartiteHypergraph, labels: Sequence[int], d: int, m: int,
                matching: Sequence[int]) -> None:
    """Labels into 0..d-1 whose classes pairwise intersect, which caps any
    matching at d, and a matching of size d, which is then the maximum."""
    by_label: dict[int, list[tuple[int, ...]]] = {}
    for e, lab in zip(h.edges, labels):
        by_label.setdefault(lab, []).append(e)
    if set(by_label) != set(range(d)):
        raise VerificationError("label-range", "labels do not cover A")
    _verify_intersecting(h, d, by_label.values(), 3, "label-intersect")
    if not is_matching(h, matching):
        raise VerificationError("matching-disjoint", "matching witness is not disjoint")
    if len(matching) != d:
        raise VerificationError("matching-exact", "matching witness must have size d")


def _verify_intersecting(h: PartiteHypergraph, degree: int,
                         groups: Iterable[Sequence[tuple[int, ...]]], width: int,
                         check: str) -> None:
    """The one check of the three constructions: h is degree-regular and
    simple, and any two edges of one group meet in one of their first width
    coordinates, so a matching takes at most one edge per group."""
    if regularity(h) != degree:
        raise VerificationError("regular", f"expected {degree}-regularity")
    if len(set(h.edges)) != h.m:
        raise VerificationError("simple", "repeated edge")
    for group in groups:
        # per coordinate, each value -> the mask of the group's edges that have
        # it; an edge meets exactly the OR of the masks of its values
        having: list[dict[int, int]] = [{} for _ in range(width)]
        for idx, e in enumerate(group):
            for by_value, x in zip(having, e):
                by_value[x] = by_value.get(x, 0) | 1 << idx
        everyone = (1 << len(group)) - 1
        for a, e in enumerate(group):
            met = 0
            for by_value, x in zip(having, e):
                met |= by_value[x]
            missed = (everyone & ~met) >> (a + 1)  # the later edges e misses
            if missed:
                b = a + (missed & -missed).bit_length()
                raise VerificationError(check, f"edges {e} and {group[b]} "
                                               "of one group are disjoint")


def ach_bound(d: int, n: int) -> int:
    """ceil((d-1) n / d): the conjectured matching size the counterexample beats."""
    if d < 1 or n < 0:
        raise ValidationError("OUT_OF_RANGE", f"need d >= 1 and n >= 0, got {d}, {n}")
    return ceil((d - 1) * n / d) if n else 0


# -- projective planes -----------------------------------------------------------


def projective_plane(p: int) -> tuple[tuple[int, ...], ...]:
    """The classical plane over the p-element field, as its sorted tuple of
    lines, each a sorted tuple of points; _verify_plane checks the axioms.

    Points are normalized homogeneous triples over Z_p, numbered from the
    affine chart: (1, a, b) is a*p + b, the point at infinity (0, 1, s) of
    slope s is p^2 + s, and (0, 0, 1) is p^2 + p.  Each line's p+1 points are
    listed directly: b = s*a + t with its point at infinity p^2 + s, the
    vertical a = c with p^2 + p, and the line at infinity p^2..p^2+p.
    """
    if not _is_prime(p):
        raise ValidationError("NOT_PRIME", f"{p} is not prime (prime powers unsupported)")
    q = p * p
    lines = [tuple(a * p + (s * a + t) % p for a in range(p)) + (q + s,)
             for s in range(p) for t in range(p)]
    lines += [tuple(range(c * p, c * p + p)) + (q + p,) for c in range(p)]
    lines.append(tuple(range(q, q + p + 1)))
    lines.sort()
    return tuple(lines)


def _verify_plane(p: int, lines: Sequence[Sequence[int]]) -> None:
    """The line count, a prime order as `projective_plane` requires, then
    the plane axioms, by counting pairs.  N = p^2+p+1 lines of p+1 distinct
    points hold N * C(p+1, 2) = C(N, 2) point pairs, so no pair on two lines
    means every pair is on exactly one.  The dual axiom needs no pass of its
    own: two lines sharing points x != y put the pair {x, y} on two lines,
    and with every point on p+1 lines the N * C(p+1, 2) = C(N, 2) meetings
    then cover every pair of lines exactly once."""
    n_pts = p * p + p + 1
    if len(lines) != n_pts:
        raise VerificationError("line-count", f"expected {n_pts} lines")
    # after line-count, p is bounded by the size of the input, so trial
    # division cannot run long on a forged order
    if not _is_prime(p):
        raise VerificationError("prime", f"order {p} is not prime")
    degree = [0] * n_pts
    for ln in lines:
        if len(ln) != p + 1 or len(set(ln)) != p + 1 or not all(0 <= x < n_pts for x in ln):
            raise VerificationError("line-size", f"line {ln} is not {p + 1} points of the plane")
        for x in ln:
            degree[x] += 1
    if any(d != p + 1 for d in degree):
        raise VerificationError("point-degree", "some point is not on exactly p+1 lines")
    # each point's bitmask holds the points it already shares a line with
    seen = [0] * n_pts
    for ln in lines:
        mask = 0
        for x in ln:
            mask |= 1 << x
        for x in ln:
            others = mask ^ (1 << x)
            twice = seen[x] & others
            if twice:
                raise VerificationError(
                    "two-points", f"points {x},{twice.bit_length() - 1} lie on two lines")
            seen[x] |= others


def truncated_plane(p: int) -> PartiteHypergraph:
    """Delete point 0 from the order-p plane.  The p+1 lines through it,
    minus the point, become the parts; each of the p^2 other lines becomes
    the edge of its points' indices within their parts, in part order, and
    must meet every part exactly once.  _verify_truncated_plane checks that
    it is p-regular, simple, with pairwise-intersecting edges."""
    lines = projective_plane(p)
    # a line is sorted, so it passes through point 0 exactly when it starts there
    parts = [ln[1:] for ln in lines if ln[0] == 0]
    coord = {x: (i, idx) for i, part in enumerate(parts) for idx, x in enumerate(part)}
    edges = []
    for ln in lines:
        if ln[0] != 0:
            slots = sorted(coord[x] for x in ln)
            if [i for i, _ in slots] != list(range(p + 1)):
                raise VerificationError("transversal", "line does not meet every part once")
            edges.append(tuple(idx for _, idx in slots))
    return make_hypergraph([p] * (p + 1), edges)


def _verify_truncated_plane(h: PartiteHypergraph, p: int) -> None:
    if h.r != p + 1 or set(h.part_sizes) != {p}:
        raise VerificationError("parts", f"expected {p + 1} parts of size {p}")
    if h.m != p * p:
        raise VerificationError("edge-count", f"expected {p * p} edges")
    _verify_intersecting(h, p, [h.edges], h.r, "pairwise-intersect")


# -- stacked planes with a joining part ------------------------------------------


def claim51_hypergraph(p: int, m: int, uniformity: int | None = None) -> PartiteHypergraph:
    """m vertex-disjoint truncated order-p planes stacked part by part, plus a
    fresh joining part of size pm; every stacked line is extended by every
    joining vertex.  The result is (p+2)-partite and p^2 m-regular, and its
    maximum matching is exactly m, covering a 1/p fraction of the vertices.

    A matching takes at most one extended line per stacked copy (lines of one
    copy pairwise intersect), and m disjoint lines from distinct copies with
    distinct joining vertices exist, which _verify_claim51 checks exactly.

    uniformity, when given, must be at least p+2; the last part is then
    repeated uniformity-(p+2)+1 times, raising the edge size without changing
    which edge sets are matchings.
    """
    if not _is_prime(p):
        raise ValidationError("NOT_PRIME", f"{p} is not prime (prime powers unsupported)")
    if m < 1:
        raise ValidationError("BAD_M", f"need m >= 1, got {m}")
    base = truncated_plane(p)
    r0 = base.r
    join = p * m
    sizes = [p * m] * r0 + [join]
    edges = []
    for c in range(m):
        for e in base.edges:
            shifted = tuple(x + c * p for x in e)
            for v in range(join):
                edges.append(shifted + (v,))
    h = make_hypergraph(sizes, edges)
    return h if uniformity is None else _duplicate_last_part(h, uniformity - (r0 + 1) + 1)


def claim51_matching(p: int, m: int) -> list[int]:
    """Edge indices of copy c's first line joined to vertex c, for each c:
    m pairwise disjoint edges of claim51_hypergraph(p, m)."""
    per_copy = p * p * p * m
    return [c * per_copy + c for c in range(m)]


def _verify_claim51(h: PartiteHypergraph, p: int, m: int, uniformity: int | None,
                    matching: Sequence[int]) -> None:
    """Shape of the stacked construction: exactly uniformity parts, at least
    p+2, or p+2 when no uniformity is given, each of size pm; and a matching
    of size m, which is then the maximum."""
    join = p * m
    base_r = p + 1
    r = base_r + 1 if uniformity is None else uniformity
    # the part count first, so a forged uniformity builds nothing
    if h.r != r or r <= base_r or h.part_sizes != (join,) * r:
        raise VerificationError("parts", "part sizes do not match the construction")
    per_copy = p * p * join
    if h.m != m * per_copy:
        raise VerificationError("edge-count", "edge count differs from p^3 m^2")
    # every edge extends the line at the head of its block of join edges
    if any(e[:base_r] != h.edges[i - i % join][:base_r] for i, e in enumerate(h.edges)):
        raise VerificationError("copy-lines", "an edge does not extend its block's line")
    # within one copy the extended lines pairwise intersect in the first p+1
    # coordinates (inherited from the truncated plane), so a matching holds
    # at most one edge per copy
    copies = [h.edges[c * per_copy:(c + 1) * per_copy:join] for c in range(m)]
    _verify_intersecting(h, p * p * m, copies, base_r, "copy-intersect")
    if not is_matching(h, matching):
        raise VerificationError("matching-disjoint", "matching witness is not disjoint")
    if len(matching) != m:
        raise VerificationError("matching-exact",
                                "matching witness must have one edge per copy")


def _duplicate_last_part(h: PartiteHypergraph, copies: int) -> PartiteHypergraph:
    if copies < 1:
        raise ValidationError("OUT_OF_RANGE",
                              f"uniformity below the construction's {h.r} parts")
    sizes = list(h.part_sizes) + [h.part_sizes[-1]] * (copies - 1)
    edges = [e + (e[-1],) * (copies - 1) for e in h.edges]
    return make_hypergraph(sizes, edges)
