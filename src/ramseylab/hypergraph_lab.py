"""r-partite r-uniform multihypergraphs and the triangle-factor bijection.

Unions of r proper triangle factors on 3n vertices correspond exactly to
r-partite hypergraphs with n vertices per part, one hyperedge per graph
vertex, and every hypergraph vertex in exactly 3 hyperedges: part i's
vertices are factor i's triangles, and the hyperedge of a graph vertex lists
the triangle containing it in each factor.  Under this correspondence the
union graph is the line graph of the hypergraph, so graph chromatic number
and hypergraph chromatic index agree instance by instance.

Edges are stored as an occurrence list, not a set: degrees and matchings
count repeated hyperedges with their multiplicities.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, ParseError, ValidationError
from .graph_core import (
    MAX_VERTICES,
    Graph,
    NodeBudget,
    _bits,
    build_graph,
    connected_components,
)
from .factor_lab import PROPER, classify_factor

MAX_MATCHING_EDGES = 10_000


@dataclass(frozen=True)
class PartiteHypergraph:
    """Immutable r-partite r-uniform multihypergraph.

    edges[j][i] is the part-i vertex of hyperedge j, indexed within part i.
    """

    part_sizes: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.part_sizes)

    @property
    def m(self) -> int:
        return len(self.edges)


def make_hypergraph(part_sizes: Sequence[int],
                    edges: Sequence[Sequence[int]]) -> PartiteHypergraph:
    """Validated constructor; rejects out-of-range coordinates.  Repeated
    edges are kept."""
    sizes = tuple(part_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValidationError("OUT_OF_RANGE", "part sizes must be positive")
    r = len(sizes)
    canon = []
    for e in edges:
        tup = tuple(e)
        if len(tup) != r:
            raise ValidationError("OUT_OF_RANGE",
                                  f"edge {tup} does not have one vertex per part")
        for i, x in enumerate(tup):
            if not 0 <= x < sizes[i]:
                raise ValidationError("OUT_OF_RANGE",
                                      f"edge {tup}: coordinate {i} outside part of size {sizes[i]}")
        canon.append(tup)
    return PartiteHypergraph(sizes, tuple(canon))


def regularity(h: PartiteHypergraph) -> int | None:
    """The common vertex degree, or None if degrees differ.  Only vertices
    on some edge are counted, so a part may be as large as its text says."""
    counts = [Counter(part) for part in zip(*h.edges)]
    degs = {d for part in counts for d in part.values()}
    if sum(map(len, counts)) < sum(h.part_sizes):
        degs.add(0)  # a vertex on no edge
    return degs.pop() if len(degs) == 1 else None


# -- the factor bijection -------------------------------------------------------


def factors_to_hypergraph(factors: Sequence[Graph]) -> PartiteHypergraph:
    """From r proper factors on shared vertices to the hypergraph whose
    part-i vertices are factor i's triangles (ordered by least graph vertex)
    and whose j-th hyperedge names, per part, the triangle containing graph
    vertex j.  Always 3-regular; repeated hyperedges kept."""
    if not factors:
        raise ValidationError("OUT_OF_RANGE", "need at least one factor")
    n_vertices = factors[0].n
    triangle_of: list[list[int]] = []
    part_sizes = []
    for g in factors:
        if g.n != n_vertices:
            raise ValidationError("OUT_OF_RANGE", "factors on differing vertex counts")
        if classify_factor(g) != PROPER:
            raise ValidationError("NOT_PROPER", "factor has a non-triangle component")
        comps = connected_components(g)  # by lowest member
        label = [-1] * n_vertices
        for t, mask in enumerate(comps):
            for v in _bits(mask):
                label[v] = t
        triangle_of.append(label)
        part_sizes.append(len(comps))
    edges = [tuple(triangle_of[i][v] for i in range(len(factors)))
             for v in range(n_vertices)]
    return make_hypergraph(part_sizes, edges)


def hypergraph_to_factors(h: PartiteHypergraph) -> list[Graph]:
    """Inverse map: graph vertices are hyperedge indices; factor i joins the
    three hyperedges through each part-i vertex into a triangle."""
    sizes = set(h.part_sizes)
    if len(sizes) != 1:
        raise ValidationError("NOT_EQUIPARTITE",
                              f"part sizes {h.part_sizes} are not all equal")
    if regularity(h) != 3:
        raise ValidationError("NOT_3_REGULAR", "every vertex must lie in exactly 3 hyperedges")
    factors = []
    for i in range(h.r):
        incident: list[list[int]] = [[] for _ in range(h.part_sizes[i])]
        for j, e in enumerate(h.edges):
            incident[e[i]].append(j)
        edges = []
        for triple in incident:
            a, b, c = triple
            edges.extend([(a, b), (a, c), (b, c)])
        factors.append(build_graph(h.m, edges))
    return factors


def line_graph(h: PartiteHypergraph) -> Graph:
    """Intersection graph of hyperedge occurrences (repeats intersect): the
    matching search's conflict masks, each without its own edge's bit."""
    if h.m > MAX_VERTICES:
        raise ValidationError("OUT_OF_RANGE",
                              f"{h.m} hyperedges exceed the {MAX_VERTICES}-vertex graph cap")
    return _intersection_graph(*_vertex_ids(h))


# -- exact maximum matching -----------------------------------------------------


@dataclass(frozen=True)
class MatchingResult:
    size: int
    witness: tuple[int, ...]  # edge indices, pairwise disjoint
    nodes: int


def max_matching(h: PartiteHypergraph, budget: int | None = None) -> MatchingResult:
    """Exact maximum matching by branch and bound.

    Components are solved independently.  Within one, a greedy clique cover
    of the line graph with no more groups than the greedy matching has edges
    settles it at the root.  Otherwise branch on the vertex of minimum
    positive degree: try each incident edge, then exclusion; prune when the
    per-part count of distinct live vertices cannot beat the best.
    The search order is fixed, so the witness and node count are too.  A
    caller checks the witness with is_matching.
    """
    if h.m > MAX_MATCHING_EDGES:
        raise ValidationError("OUT_OF_RANGE",
                              f"{h.m} edges exceed the matching cap {MAX_MATCHING_EDGES}")
    bud = NodeBudget(budget)
    verts, starts = _vertex_ids(h)
    lg = _intersection_graph(verts, starts)
    picked: list[int] = []
    try:
        for comp in connected_components(lg):
            picked += _match_branch(verts, starts, comp, bud)
    except BudgetExceededError:
        # an unfinished search still proves what fits together greedily
        partial = _greedy_matching(lg.adj)
        raise BudgetExceededError(
            "matching budget exhausted",
            nodes=bud.spent, lower=len(partial),
            witness=tuple(partial), exact=False) from None
    return MatchingResult(len(picked), tuple(sorted(picked)), bud.spent)


def is_matching(h: PartiteHypergraph, picked: Sequence[int]) -> bool:
    """Whether picked indexes edges of h that are pairwise vertex-disjoint."""
    used: set[tuple[int, int]] = set()
    for j in picked:
        if not 0 <= j < h.m:
            return False
        for i, x in enumerate(h.edges[j]):
            if (i, x) in used:
                return False
            used.add((i, x))
    return True


def _vertex_ids(h: PartiteHypergraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """Edge j's vertices as ids, numbering only the vertices on some edge,
    part by part in index order, and each part's first id followed by the
    vertex count.  A vertex on no edge takes no slot, so a part may be as
    large as its text says."""
    starts = [0]
    ids = []
    for part in zip(*h.edges):
        used = sorted(set(part))
        index = dict(zip(used, range(starts[-1], starts[-1] + len(used))))
        ids.append([index[x] for x in part])
        starts.append(starts[-1] + len(used))
    return list(zip(*ids)), starts


def _intersection_graph(edge_verts: Sequence[Sequence[int]], starts: Sequence[int]) -> Graph:
    """The intersection graph of the edge occurrences, from _vertex_ids: the
    conflict masks of _masks, each without its own bit.  It is not held to
    MAX_VERTICES, so it may have up to MAX_MATCHING_EDGES vertices."""
    conflict = _masks(edge_verts, starts[-1])[1]
    return Graph(len(conflict), tuple(mask ^ (1 << j) for j, mask in enumerate(conflict)))


def _masks(edge_verts: Sequence[Sequence[int]], n: int) -> tuple[list[int], list[int]]:
    """For edges over vertices 0..n-1, bit t standing for the t-th edge: per
    vertex the mask of the edges through it, and per edge the mask of the
    edges meeting it, itself and its repeats included."""
    through = [0] * n
    for t, vs in enumerate(edge_verts):
        for v in vs:
            through[v] |= 1 << t
    conflict = []
    for vs in edge_verts:
        mask = 0
        for v in vs:
            mask |= through[v]
        conflict.append(mask)
    return through, conflict


def _greedy_matching(conflict: Sequence[int]) -> list[int]:
    blocked = 0
    picked = []
    for j in range(len(conflict)):
        if not (blocked >> j) & 1:
            picked.append(j)
            blocked |= conflict[j]
    return picked


def _clique_cover(conflict: Sequence[int], stop: int) -> list[int]:
    """Up to stop masks of edges that pairwise meet, covering the edges in
    order: each group starts at the lowest edge left and takes, in turn, the
    lowest edge left that meets every edge it holds.  A matching takes at
    most one edge of a group, so a full cover bounds every matching."""
    left = (1 << len(conflict)) - 1
    groups = []
    while left and len(groups) < stop:
        group = 0
        cand = left
        while cand:
            bit = cand & -cand
            group |= bit
            cand &= conflict[bit.bit_length() - 1] & ~bit
        left &= ~group
        groups.append(group)
    return groups


def _match_branch(verts: Sequence[Sequence[int]], starts: Sequence[int], comp: int,
                  bud: NodeBudget) -> list[int]:
    """A maximum matching of comp, one component of the line graph, by
    branch and bound, renumbered 0..m-1 by edge index and 0..n-1 by
    vertex id.  Live edges are one mask: taking edge t keeps
    live & ~conflict[t], excluding vertex v keeps live & ~through[v], and
    every degree is (through[v] & live).bit_count().  Nodes (live, size,
    chosen) go on an explicit stack, children in reverse, so the search is
    depth first: each edge through v in index order, then v unmatched.
    That order fixes the node count that certificates record.  When the
    greedy matching has as many edges as a clique cover of the line graph
    has groups, it is maximum, and the root is the only node."""
    edges = _bits(comp)
    ids = sorted({w for j in edges for w in verts[j]})
    index = {w: v for v, w in enumerate(ids)}
    through, conflict = _masks([[index[w] for w in verts[j]] for j in edges], len(ids))
    best = _greedy_matching(conflict)
    best_size = len(best)
    if len(_clique_cover(conflict, best_size + 1)) == best_size:
        bud.tick()
        return [edges[t] for t in best]
    cuts = [bisect_left(ids, s) for s in starts]
    parts = list(zip(cuts, cuts[1:]))
    stack: list[tuple[int, int, tuple | None]] = [((1 << len(edges)) - 1, 0, None)]
    while stack:
        live, size, chosen = stack.pop()
        bud.tick()
        if not live:
            if size > best_size:
                best_size, best = size, []
                while chosen:
                    t, chosen = chosen
                    best.append(t)
            continue
        degs = [(mask & live).bit_count() for mask in through]
        if size + min(hi - lo - degs[lo:hi].count(0) for lo, hi in parts) <= best_size:
            continue
        hit = through[degs.index(min(filter(None, degs)))] & live
        stack.append((live & ~hit, size, chosen))  # the vertex unmatched: visited last
        for t in reversed(_bits(hit)):
            stack.append((live & ~conflict[t], size + 1, (t, chosen)))
    return [edges[t] for t in best]


def disjoint_copies(h: PartiteHypergraph, t: int) -> PartiteHypergraph:
    """t vertex-disjoint copies, parts concatenated copy by copy."""
    if t < 1:
        raise ValidationError("OUT_OF_RANGE", f"need t >= 1, got {t}")
    sizes = tuple(s * t for s in h.part_sizes)
    edges = []
    for c in range(t):
        offset = [c * s for s in h.part_sizes]
        for e in h.edges:
            edges.append(tuple(x + offset[i] for i, x in enumerate(e)))
    return make_hypergraph(sizes, edges)


# -- text format ----------------------------------------------------------------


def hypergraph_to_text(h: PartiteHypergraph) -> str:
    """Line 1: r.  Line 2: part sizes.  Then one edge per line; multiplicity
    is expressed by repetition."""
    lines = [str(h.r), " ".join(map(str, h.part_sizes))]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> PartiteHypergraph:
    """Inverse of hypergraph_to_text."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 2:
        raise ParseError("expected a part-count line and a part-sizes line")
    try:
        r = int(lines[0])
        sizes = [int(tok) for tok in lines[1].split()]
        edges = [tuple(map(int, ln.split())) for ln in lines[2:]]
    except ValueError as exc:
        raise ParseError(f"non-integer token: {exc}") from None
    if r != len(sizes):
        raise ParseError(f"header says {r} parts but {len(sizes)} sizes follow")
    try:
        return make_hypergraph(sizes, edges)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
