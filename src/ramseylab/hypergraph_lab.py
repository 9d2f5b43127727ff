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

    def degree(self, part: int, vertex: int) -> int:
        return sum(1 for e in self.edges if e[part] == vertex)


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
    """The common vertex degree, or None if degrees differ."""
    degs = [[0] * s for s in h.part_sizes]
    for e in h.edges:
        for i, x in enumerate(e):
            degs[i][x] += 1
    flat = [d for part in degs for d in part]
    d = flat[0]
    return d if all(x == d for x in flat) else None


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
        comps = connected_components(g)
        comps.sort(key=lambda mask: (mask & -mask).bit_length())
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
    n_vertices = h.m
    if n_vertices > MAX_VERTICES:
        raise ValidationError("OUT_OF_RANGE",
                              f"{n_vertices} hyperedges exceed the {MAX_VERTICES}-vertex graph cap")
    factors = []
    for i in range(h.r):
        incident: list[list[int]] = [[] for _ in range(h.part_sizes[i])]
        for j, e in enumerate(h.edges):
            incident[e[i]].append(j)
        edges = []
        for triple in incident:
            a, b, c = triple
            edges.extend([(a, b), (a, c), (b, c)])
        factors.append(build_graph(n_vertices, edges))
    return factors


def line_graph(h: PartiteHypergraph) -> Graph:
    """Intersection graph of hyperedge occurrences (repeats intersect)."""
    if h.m > MAX_VERTICES:
        raise ValidationError("OUT_OF_RANGE",
                              f"{h.m} hyperedges exceed the {MAX_VERTICES}-vertex graph cap")
    edges = []
    for a in range(h.m):
        for b in range(a + 1, h.m):
            if any(h.edges[a][i] == h.edges[b][i] for i in range(h.r)):
                edges.append((a, b))
    return build_graph(h.m, edges)


# -- exact maximum matching -----------------------------------------------------


@dataclass(frozen=True)
class MatchingResult:
    size: int
    witness: tuple[int, ...]  # edge indices, pairwise disjoint
    nodes: int


def max_matching(h: PartiteHypergraph, budget: int | None = None,
                 deterministic: bool = False) -> MatchingResult:
    """Exact maximum matching by branch and bound.

    Components are solved independently.  Within one, branch on the vertex of
    minimum positive degree: try each incident edge, then exclusion; prune
    when the per-part count of distinct live vertices cannot beat the best.
    With deterministic=True the witness is recomputed to be the
    lexicographically least optimal matching.
    """
    if h.m > MAX_MATCHING_EDGES:
        raise ValidationError("OUT_OF_RANGE",
                              f"{h.m} edges exceed the matching cap {MAX_MATCHING_EDGES}")
    bud = NodeBudget(budget)
    live = list(range(h.m))
    witness: list[int] = []
    try:
        size, witness = _match_components(h, live, bud)
        if deterministic:
            witness = _lex_least_matching(h, size, bud)
    except BudgetExceededError:
        # salvage a valid partial: the optimum of the first pass if it
        # finished, else whatever fits together greedily
        partial = witness or _greedy_matching(h, live)
        raise BudgetExceededError(
            "matching budget exhausted",
            nodes=bud.spent, lower=len(partial),
            witness=tuple(sorted(partial)), exact=False) from None
    witness = tuple(sorted(witness))
    if not is_matching(h, witness):
        raise ValidationError("OUT_OF_RANGE", "matching witness reuses a vertex")
    return MatchingResult(size, witness, bud.spent)


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


def _match_components(h: PartiteHypergraph, live: list[int],
                      bud: NodeBudget) -> tuple[int, list[int]]:
    comps = _edge_components(h, live)
    total = 0
    picked: list[int] = []
    for comp in comps:
        s, w = _match_branch(h, comp, bud)
        total += s
        picked.extend(w)
    return total, picked


def _edge_components(h: PartiteHypergraph, live: list[int]) -> list[list[int]]:
    by_vertex: dict[tuple[int, int], list[int]] = {}
    for j in live:
        for i, x in enumerate(h.edges[j]):
            by_vertex.setdefault((i, x), []).append(j)
    seen: set[int] = set()
    comps = []
    for j in live:
        if j in seen:
            continue
        stack = [j]
        seen.add(j)
        comp = []
        while stack:
            a = stack.pop()
            comp.append(a)
            for i, x in enumerate(h.edges[a]):
                for b in by_vertex[(i, x)]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
        comps.append(sorted(comp))
    return comps


def _greedy_matching(h: PartiteHypergraph, live: Sequence[int]) -> list[int]:
    used: set[tuple[int, int]] = set()
    picked = []
    for j in live:
        coords = [(i, x) for i, x in enumerate(h.edges[j])]
        if all(c not in used for c in coords):
            picked.append(j)
            used.update(coords)
    return picked


def _match_branch(h: PartiteHypergraph, comp: list[int],
                  bud: NodeBudget) -> tuple[int, list[int]]:
    best = _greedy_matching(h, comp)
    best_size = len(best)

    def upper_bound(live: list[int]) -> int:
        per_part: list[set[int]] = [set() for _ in range(h.r)]
        for j in live:
            for i, x in enumerate(h.edges[j]):
                per_part[i].add(x)
        return min(len(s) for s in per_part) if live else 0

    def rec(live: list[int], cur: list[int]) -> None:
        nonlocal best, best_size
        bud.tick()
        if not live:
            if len(cur) > best_size:
                best_size, best = len(cur), cur.copy()
            return
        if len(cur) + upper_bound(live) <= best_size:
            return
        deg: dict[tuple[int, int], int] = {}
        for j in live:
            for i, x in enumerate(h.edges[j]):
                key = (i, x)
                deg[key] = deg.get(key, 0) + 1
        v = min(deg, key=lambda k: (deg[k], k))
        incident = [j for j in live if h.edges[j][v[0]] == v[1]]
        for j in incident:
            coords = set(enumerate(h.edges[j]))
            rest = [b for b in live
                    if b != j and not any((i, h.edges[b][i]) in coords for i, _ in coords)]
            cur.append(j)
            rec(rest, cur)
            cur.pop()
        # v unmatched: drop all its edges
        rec([b for b in live if b not in incident], cur)

    rec(comp, [])
    return best_size, best


def _lex_least_matching(h: PartiteHypergraph, size: int,
                        bud: NodeBudget) -> list[int]:
    """Smallest optimal matching in index order, by forcing one prefix edge
    at a time and checking the remainder still reaches the target size."""

    def achievable(live: list[int], need: int) -> bool:
        if need <= 0:
            return True
        got, _ = _match_components(h, live, bud)
        return got >= need

    chosen: list[int] = []
    live = list(range(h.m))
    while len(chosen) < size:
        for j in live:
            coords = set(enumerate(h.edges[j]))
            rest = [b for b in live if b > j
                    and not any((i, h.edges[b][i]) in coords for i, _ in coords)]
            if achievable(rest, size - len(chosen) - 1):
                chosen.append(j)
                live = rest
                break
        else:
            raise ValidationError("OUT_OF_RANGE", "optimal matching size unreachable")
    return chosen


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
        edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[2:]]
    except ValueError as exc:
        raise ParseError(f"non-integer token: {exc}") from None
    if r != len(sizes):
        raise ParseError(f"header says {r} parts but {len(sizes)} sizes follow")
    try:
        return make_hypergraph(sizes, edges)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
