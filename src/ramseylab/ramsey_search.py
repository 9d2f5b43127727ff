"""Monochromatic-pattern-free edge colorings of complete graphs.

A forbidden family is a set of small patterns; an edge k-coloring of K_n is
admissible when no color class contains a copy of any pattern as a subgraph.
c_k(family) is the largest n admitting such a coloring.  The search runs
over edges in lexicographic order with canonical color introduction (a new
color may appear only after all smaller ones) and with vertex 0's row
sorted, so exhaustion at a given n is a certified nonexistence and the
first witness found is deterministic.  The row opens each new color as soon
as it may, so balanced rows, which tight cases need, are tried first.
Before searching K_n, compute_c_k tries to refute it by counting edges (k
classes free of the family hold at most k * ex(n, F) edges) and, when every
class is a star forest, subset signatures, or when every class is one star
or one triangle, the edges that the star centers leave to the triangles
(counting_refutes).  Where counting
refutes K_N and K_{N-1} is the size of a known construction (Walecki's
Hamilton cycles, or the galaxy star forests), an admissible construction
settles c_k = N - 1 with no search at all.

Known closed forms for specific families are kept separate from the search
so the two routes can be cross-checked; formulas that hold only for large k
or only for infinitely many k are flagged and never silently extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import BudgetExceededError, ValidationError
from .graph_core import (
    MAX_VERTICES,
    Graph,
    NodeBudget,
    _bits,
    build_graph,
    color_classes,
    complete_edges,
    complete_graph,
    connected_components,
    graph_from_text,
    matching_graph,
    path_graph,
    star_graph,
)
from .factor_lab import (
    DEFAULT_DELTA0,
    chi_r_report,
    galaxy_colors,
    walecki_colors,
)

MAX_PATTERN_VERTICES = 8


@dataclass(frozen=True)
class Pattern:
    """One forbidden subgraph.

    kind is one of "triangle", "star", "path", "matching", "explicit".  For
    star/path/matching, size is the edge count.  A pattern given as a graph
    keeps it (at most 8 vertices, the generic matcher bound) and takes the
    kind explicit_pattern finds.  token is the spelling the pattern was
    parsed from (P4 is the 3-edge path, S3 the 3-edge star), which
    certificates write back; it takes no part in equality.
    """

    kind: str
    size: int = 0
    graph: Graph | None = None
    token: str = field(compare=False, kw_only=True)

    def realize(self) -> Graph:
        """The pattern as a concrete graph."""
        if self.graph is not None:
            return self.graph
        if self.kind == "triangle":
            return complete_graph(3)
        if self.kind == "star":
            return star_graph(self.size)
        if self.kind == "matching":
            return matching_graph(self.size)
        return path_graph(self.size + 1)

    def is_forest(self) -> bool:
        g = self.realize()
        # acyclic iff every component has one more vertex than edges
        return g.m == g.n - len(connected_components(g))


TRIANGLE = Pattern("triangle", token="K3")
P4 = Pattern("path", 3, token="P4")
S3 = Pattern("star", 3, token="S3")


def star_pattern(edges: int) -> Pattern:
    if edges < 1:
        raise ValidationError("OUT_OF_RANGE", "star needs at least one edge")
    return Pattern("star", edges, token=f"STAR:{edges - 1}")


def matching_pattern(edges: int) -> Pattern:
    if edges < 1:
        raise ValidationError("OUT_OF_RANGE", "matching needs at least one edge")
    return Pattern("matching", edges, token=f"MATCH:{edges}")


def path_pattern(edges: int) -> Pattern:
    if edges < 1:
        raise ValidationError("OUT_OF_RANGE", "path needs at least one edge")
    return Pattern("path", edges, token=f"PATH:{edges}")


def explicit_pattern(g: Graph) -> Pattern:
    """The pattern g, classified once: with no isolated vertex, a triangle,
    star, matching or path takes that kind, its edge count as size (0 for
    the triangle); any other graph is kind "explicit"."""
    if g.n > MAX_PATTERN_VERTICES:
        raise ValidationError("OUT_OF_RANGE",
                              f"explicit patterns are capped at {MAX_PATTERN_VERTICES} vertices")
    if g.m == 0:
        raise ValidationError("OUT_OF_RANGE", "explicit pattern has no edges")
    edges = ";".join(f"{u}-{v}" for u, v in g.edges())
    degs = sorted(g.degree(v) for v in range(g.n))
    tree = g.m == g.n - 1 and len(connected_components(g)) == 1
    kind, size = "explicit", 0
    if g.n == 3 and g.m == 3:
        kind = "triangle"
    elif degs[0] == degs[-1] == 1:
        kind, size = "matching", g.m
    elif tree and degs[-1] == g.n - 1:
        kind, size = "star", g.m
    elif tree and degs[-1] == 2:
        kind, size = "path", g.m
    return Pattern(kind, size, g, token=f"EXPLICIT[{edges}|{g.n}]")


@dataclass(frozen=True)
class ForbiddenFamily:
    patterns: tuple[Pattern, ...]
    name: str | None = None

    def spec(self) -> str:
        if self.name:
            return self.name
        return ",".join(p.token for p in self.patterns)

    @cached_property
    def kernel(self) -> tuple[Mapping[str, int], tuple[Pattern, ...]]:
        """The family's kinds with their sizes, read-only since presets are
        shared, and its explicit patterns; computed once per family, and
        read by the search, the bounds and the closed forms.

        Kinds are found when a pattern is built (explicit_pattern); only K2
        and P3 keep two spellings, folded here: a 1-edge path or matching is
        K2, the 1-edge star, and a 2-edge path is P3, the 2-edge star.  A
        pattern that contains a smaller pattern of its own kind is implied
        by it, so each of stars, paths and matchings keeps only its smallest
        size (a triangle has size 0).
        """
        sizes: dict[str, int] = {}
        explicit: list[Pattern] = []
        for p in self.patterns:
            kind = p.kind
            if (kind == "path" and p.size <= 2) or (kind == "matching" and p.size == 1):
                kind = "star"
            if kind == "explicit":
                explicit.append(p)
            else:
                sizes[kind] = min(p.size, sizes.get(kind, p.size))
        return MappingProxyType(sizes), tuple(explicit)


FAMILY_PRESETS: dict[str, ForbiddenFamily] = {
    "F1": ForbiddenFamily((TRIANGLE,), "F1"),
    "F2": ForbiddenFamily((P4,), "F2"),
    "F3": ForbiddenFamily((S3,), "F3"),
    "F4": ForbiddenFamily((TRIANGLE, P4), "F4"),
    "F5": ForbiddenFamily((TRIANGLE, S3), "F5"),
    "F6": ForbiddenFamily((P4, S3), "F6"),
    "F7": ForbiddenFamily((TRIANGLE, P4, S3), "F7"),
}


def parse_family(spec: str) -> ForbiddenFamily:
    """Parse a comma-separated family spec.

    Tokens: K3, P4, S3, STAR:r (the star with r+1 edges), MATCH:m, PATH:l,
    F1..F7 presets, @path-to-graph-file for an explicit pattern, and
    EXPLICIT[u-v;...|n], the spelling certificates write for one.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValidationError("OUT_OF_RANGE", "empty family spec")
    if len(tokens) == 1 and tokens[0].upper() in FAMILY_PRESETS:
        return FAMILY_PRESETS[tokens[0].upper()]
    patterns: list[Pattern] = []
    for tok in tokens:
        up = tok.upper()
        if up in FAMILY_PRESETS:
            patterns.extend(FAMILY_PRESETS[up].patterns)
        elif up == "K3":
            patterns.append(TRIANGLE)
        elif up == "P4":
            patterns.append(P4)
        elif up == "S3":
            patterns.append(S3)
        elif up.startswith("STAR:"):
            patterns.append(star_pattern(_int_param(tok, up[5:]) + 1))
        elif up.startswith("MATCH:"):
            patterns.append(matching_pattern(_int_param(tok, up[6:])))
        elif up.startswith("PATH:"):
            patterns.append(path_pattern(_int_param(tok, up[5:])))
        elif up.startswith("EXPLICIT[") and up.endswith("]"):
            patterns.append(explicit_pattern(_explicit_graph(tok, tok[9:-1])))
        elif tok.startswith("@"):
            try:
                with open(tok[1:], "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValidationError("BAD_FILE", f"cannot read {tok[1:]}: {exc}") from None
            patterns.append(explicit_pattern(graph_from_text(text)))
        else:
            raise ValidationError("OUT_OF_RANGE", f"unknown family token {tok!r}")
    return ForbiddenFamily(tuple(patterns))


def _explicit_graph(tok: str, body: str) -> Graph:
    """Graph of an EXPLICIT[u-v;...|n] token body."""
    edges, _, n = body.rpartition("|")
    try:
        size = int(n)
        pairs = [(int(u), int(v)) for u, v in (e.split("-") for e in edges.split(";") if e)]
    except ValueError:
        raise ValidationError("OUT_OF_RANGE", f"bad parameter in token {tok!r}") from None
    return build_graph(size, pairs)


def _int_param(tok: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError("OUT_OF_RANGE", f"bad parameter in token {tok!r}") from None


# -- copy detection -----------------------------------------------------------


def find_copy(g: Graph, p: Pattern) -> tuple[int, ...] | None:
    """Vertices of one copy of p in g (as a subgraph), or None.

    A pattern given as a graph, whatever its kind, is laid out as the image
    of pattern vertex i at position i.  Otherwise the layout depends on the
    kind: triangle (u, v, w); stars center first; paths in traversal order;
    matchings as 2m endpoints pairwise.
    """
    if p.graph is not None:
        return _embed(g, p.graph)
    if p.kind == "triangle":
        return _find_triangle(g)
    if p.kind == "star":
        return _find_star(g, p.size)
    if p.kind == "path":
        return _find_path(g, p.size)
    pairs: list[int] = []
    return tuple(reversed(pairs)) if _has_matching(g.adj, g.full_mask, p.size, pairs) else None


def _find_triangle(g: Graph) -> tuple[int, int, int] | None:
    for u in range(g.n):
        au = g.adj[u]
        rest = au >> (u + 1)
        while rest:
            low = rest & -rest
            v = u + 1 + low.bit_length() - 1
            rest ^= low
            common = au & g.adj[v]
            if common:
                return u, v, (common & -common).bit_length() - 1
    return None


def _find_star(g: Graph, s: int) -> tuple[int, ...] | None:
    for v in range(g.n):
        if g.adj[v].bit_count() >= s:
            return (v, *_bits(g.adj[v])[:s])
    return None


def _find_path(g: Graph, length: int) -> tuple[int, ...] | None:
    """First simple path with `length` >= 1 edges, scanning start vertices
    upward."""
    adj = g.adj
    comp_size = [0] * g.n
    for comp in connected_components(g):
        for v in _bits(comp):
            comp_size[v] = comp.bit_count()
    for start in range(g.n):
        if comp_size[start] < length + 1:
            continue
        path = [start]
        found = _extend_path(adj, path, 1 << start, length)
        if found is not None:
            return found
    return None


def _extend_path(adj: Sequence[int], path: list[int], visited: int,
                 length: int) -> tuple[int, ...] | None:
    if len(path) == length + 1:
        return tuple(path)
    rest = adj[path[-1]] & ~visited
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        path.append(u)
        out = _extend_path(adj, path, visited | low, length)
        if out is not None:
            return out
        path.pop()
    return None


def _has_matching(adj: Sequence[int], avail: int, need: int,
                  out: list[int] | None = None) -> bool:
    """Whether the vertices of avail span `need` pairwise disjoint edges.

    Branches on the lowest vertex v of avail with a neighbour in avail: v
    matched to each such neighbour in turn, then v left out.  On success,
    out (when given) receives the first matching in that order, each pair
    (neighbour, v) appended as the recursion returns, so the last pair
    first.  Without out it is a plain recursion over ints, with no closure
    or list, so the c_k search, which asks at every node for a matching
    family, leaves no garbage for the cycle collector to pause on.
    """
    if need <= 0:
        return True
    v = -1
    live = 0  # vertices of avail with a neighbour in avail
    rest = avail
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & avail:
            if v < 0:
                v = low.bit_length() - 1
            live += 1
    if live < 2 * need:
        return False
    vb = 1 << v
    nbrs = adj[v] & avail & ~vb
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        if _has_matching(adj, avail & ~vb & ~low, need - 1, out):
            if out is not None:
                out += (low.bit_length() - 1, v)
            return True
    return _has_matching(adj, avail & ~vb, need, out)


def _embed(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First copy of pattern in host, as the image of each pattern vertex.

    Pattern vertices go in a fixed order, next to placed ones first, then by
    degree; each takes the lowest host vertex that fits, or backtracks."""
    pn = pattern.n
    if pn > host.n or pattern.m > host.m:
        return None
    degs = [pattern.degree(v) for v in range(pn)]
    order: list[int] = []
    earlier: list[int] = []  # the neighbours of order[i] placed before it
    placed = 0
    for _ in range(pn):
        best, best_key = -1, (-1, -1)
        for v in range(pn):
            if (placed >> v) & 1:
                continue
            key = ((pattern.adj[v] & placed).bit_count(), degs[v])
            if key > best_key:
                best_key, best = key, v
        order.append(best)
        earlier.append(pattern.adj[best] & placed)
        placed |= 1 << best
    image = [-1] * pn
    used = i = start = 0  # order[i] tries the host vertices from start up
    while i < pn:
        pv = order[i]
        free = (host.full_mask & ~used) >> start << start
        for w in _bits(earlier[i]):
            free &= host.adj[image[w]]
        while free and host.degree((free & -free).bit_length() - 1) < degs[pv]:
            free &= free - 1
        if free:
            hv = (free & -free).bit_length() - 1
            image[pv] = hv
            used |= 1 << hv
            i, start = i + 1, 0
        else:
            i -= 1
            if i < 0:
                return None
            hv = image[order[i]]
            used ^= 1 << hv
            start = hv + 1
    return tuple(image)


# -- edge colorings -----------------------------------------------------------


def verify_mono_free(n: int, edges: Sequence[tuple[int, int]], colors: Sequence[int],
                     fam: ForbiddenFamily) -> tuple[int, Pattern, tuple[int, ...]] | None:
    """The first violation of the coloring that gives edges[i] colors[i], as
    (color, pattern, copy), or None when no class holds a pattern of the
    family.  color_classes builds every class in use in one pass over the
    edges; each is searched once, lowest color first, for the patterns in
    family order.  It is the one check of every witness, searched or built."""
    for c, cls in color_classes(n, edges, colors).items():
        for p in fam.patterns:
            w = find_copy(cls, p)
            if w is not None:
                return c, p, w
    return None


# -- the search ---------------------------------------------------------------


def _path_through(adj: Sequence[int], end: int, v: int, seen: int, left: int) -> bool:
    """Whether a simple walk ending at `end` (its vertices and v in `seen`)
    extends by `left` edges, split between its own end and one from v.

    Called with end = u, seen = {u, v} and left = l - 1, this decides whether
    adding uv to a graph with no l-edge path creates one: every new path
    uses uv, so the other l - 1 edges split between a walk from u and a
    disjoint one from v.
    """
    if len(adj) - seen.bit_count() < left:
        return False  # each edge still to find needs a vertex outside seen
    if _extend_path(adj, [v], seen, left) is not None:
        return True
    rest = adj[end] & ~seen
    while rest:
        low = rest & -rest
        rest ^= low
        if _path_through(adj, low.bit_length() - 1, v, seen | low, left - 1):
            return True
    return False


def _embeds_with_edge(adj: Sequence[int], u: int, v: int,
                      patterns: Sequence[Pattern]) -> bool:
    """Whether the class with uv added contains one of the explicit patterns."""
    host = list(adj)
    host[u] |= 1 << v
    host[v] |= 1 << u
    g = Graph(len(host), tuple(host))
    for p in patterns:
        if _embed(g, p.graph) is not None:
            return True
    return False


def _color_edges(n: int, k: int, edges: Sequence[tuple[int, int]],
                 fam: ForbiddenFamily, budget: NodeBudget, *, row: int = 0,
                 ) -> list[int] | None:
    """Depth-first search for colors of `edges`, in order, keeping every
    color class free of the family; returns the colors or None.

    A node is one (edge, color) attempt.  A new color may appear only after
    all smaller ones.  The first `row` edges must be one whole row of K_n,
    (u, v_1), ..., (u, v_{n-1}) for a single u: along them the color never
    decreases, and color c is taken only while u has fewer c-edges than
    (c - 1)-edges.  That is sound only on K_n, where any admissible coloring
    becomes one of this form by permuting v_1..v_{n-1} to sort the row and
    relabeling the row's colors largest block first; any other edge list
    must keep row = 0.  A row edge tries the next new color before the
    previous row edge's color, so balanced rows come first; other edges try
    colors upward.  The order moves the first witness and its node count,
    never a refutation's.  Each violation test is incremental: it relies on
    the invariant that the color class was pattern-free before uv was added,
    so every new copy uses uv.  Nodes are charged to budget, counted in a
    local that is written back on return, and at the limit, where
    budget.tick() raises.
    """
    # at most one test per kind of the kernel: star is a degree threshold
    # before the edge (0 for K2, which every edge makes; n when absent), path
    # and matching are edge counts (0 when absent)
    sizes, explicit = fam.kernel
    star = sizes.get("star", n + 1) - 1
    tri = "triangle" in sizes
    path = sizes.get("path", 0)
    match = sizes.get("matching", 0)
    p4 = path == 3
    full = (1 << n) - 1
    m = len(edges)
    # edge idx takes a color of at most idx, so m classes suffice for any k
    adjs = [[0] * n for _ in range(min(k, m))]
    degs = [[0] * n for _ in range(min(k, m))]
    chosen = [0] * m
    used = [0] * (m + 1)  # colors in use before edge idx
    spent, limit = budget.spent, budget.limit
    idx = c = 0
    while idx < m:
        u, v = edges[idx]
        bu, bv = 1 << u, 1 << v
        top = used[idx] + 1 if used[idx] < k else k
        # a row edge opens the next color first, then repeats the previous one
        lo, step = (chosen[idx - 1] if idx else 0, -1) if idx < row else (0, 1)
        while lo <= c < top:
            if spent >= limit:  # tick raises
                budget.spent = spent
                budget.tick()
            spent += 1
            adj, deg = adjs[c], degs[c]
            du, dv = deg[u], deg[v]
            if (du >= star or dv >= star or (tri and adj[u] & adj[v])
                    or (c and idx < row and du >= degs[c - 1][u])):
                c += step
                continue
            if p4:
                # a P4-free class is a union of stars and triangles; uv keeps
                # it so only between two isolated vertices, from an isolated
                # vertex to a star center, or closing a P3 into a triangle
                if du == 0:
                    low = adj[v] & -adj[v]
                    ok = dv == 0 or dv >= 3 or deg[low.bit_length() - 1] == 1
                elif dv == 0:
                    low = adj[u] & -adj[u]
                    ok = du >= 3 or deg[low.bit_length() - 1] == 1
                else:
                    common = adj[u] & adj[v]
                    ok = (du == 1 and dv == 1 and common != 0
                          and deg[common.bit_length() - 1] == 2)
                if not ok:
                    c += step
                    continue
            elif path and _path_through(adj, u, v, bu | bv, path - 1):
                c += step
                continue
            if match and _has_matching(adj, full ^ bu ^ bv, match - 1):
                c += step
                continue
            if explicit and _embeds_with_edge(adj, u, v, explicit):
                c += step
                continue
            adj[u] |= bv
            adj[v] |= bu
            deg[u] = du + 1
            deg[v] = dv + 1
            chosen[idx] = c
            used[idx + 1] = c + 1 if c == used[idx] else used[idx]
            idx += 1
            c = 0 if idx >= row else min(used[idx], k - 1)
            break
        else:
            idx -= 1
            if idx < 0:
                break
            u, v = edges[idx]
            c = chosen[idx]
            adj, deg = adjs[c], degs[c]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            deg[u] -= 1
            deg[v] -= 1
            c += 1 if idx >= row else -1
    budget.spent = spent
    return None if idx < 0 else chosen


def ex_bound(fam: ForbiddenFamily, n: int) -> int:
    """An upper bound on ex(n, fam), the most edges of a graph on n vertices
    with no pattern of the family.

    The minimum, over the patterns of the family's kernel, of the classical
    bounds: floor(n^2 / 4) for a triangle (Mantel); floor(n (s - 1) / 2) for
    the s-edge star, since every degree is below s; n if 3 | n, else n - 1,
    for P4, whose free graphs are unions of stars and triangles; with the
    triangle as well they are star forests, so n - 1, or n - ceil(n / s) when
    the s-edge star is forbidden too; n if 4 | n, else n - 1, for the triangle
    with P5, whose free graphs are unions of trees and 4-cycles;
    floor((l - 1) n / 2) for the l-edge path and, for n >= 2m - 1,
    max(C(2m - 1, 2), C(m - 1, 2) + (m - 1)(n - m + 1)) for the m-edge
    matching (both Erdos-Gallai 1959); for 2K2, whose free graphs are one
    star or one triangle, the larger of min(n, s) - 1 with the s-edge star
    (s = n without one) and 3 when a triangle fits.  Explicit patterns add
    no bound, so the result is at most C(n, 2).
    """
    sizes = fam.kernel[0]
    bounds = [n * (n - 1) // 2]
    if "triangle" in sizes:
        bounds.append(n * n // 4)
    if "star" in sizes:
        bounds.append(n * (sizes["star"] - 1) // 2)
    path = sizes.get("path", 0)
    if path == 4 and "triangle" in sizes:
        # each component is a tree or a C4: a shortest cycle of length 5 or
        # more holds a P5, and so does a C4 with one more edge at a vertex
        bounds.append(n if n % 4 == 0 else n - 1)
    elif path == 3 and "triangle" in sizes:
        # a star forest: at least one star, and at least ceil(n / s) of them
        # when each has fewer than s edges
        stars = -(-n // sizes["star"]) if "star" in sizes else min(n, 1)
        bounds.append(n - stars)
    elif path == 3:
        bounds.append(n if n % 3 == 0 else n - 1)
    elif path:
        bounds.append((path - 1) * n // 2)
    m = sizes.get("matching", 0)
    if m == 2:
        # a triangle fits on 3 vertices unless it or its 2-edge stars are forbidden
        s = sizes.get("star", n)
        triangle = n >= 3 and s >= 3 and "triangle" not in sizes
        bounds.append(max(min(n, s) - 1, 3 if triangle else 0))
    elif m and n >= 2 * m - 1:
        bounds.append(max(math.comb(2 * m - 1, 2),
                          math.comb(m - 1, 2) + (m - 1) * (n - m + 1)))
    return min(bounds)


def _least_subset_total(k: int, n: int) -> float:
    """The least total size of n distinct subsets of a k-set: C(k, s) subsets
    of each size s = 0, 1, 2, ... in turn; infinite when n > 2^k."""
    total = s = 0
    while n > 0 and s <= k:
        take = min(n, math.comb(k, s))
        total, n, s = total + s * take, n - take, s + 1
    return math.inf if n > 0 else total


def counting_refutes(fam: ForbiddenFamily, k: int, n: int) -> bool:
    """Whether counting shows that K_n has no admissible k-coloring.

    Edges: k classes of at most ex_bound(fam, n) edges each are too few for
    the C(n, 2) edges.  Signatures: when every free graph is a star forest
    (the kernel has the triangle and the 3-edge path, or a star of at most 2
    edges), orient each star away from its center and give each vertex the
    set of classes where its in-degree is 0.  A class with e edges is in
    n - e of the sets, so the n sets total kn - C(n, 2); and an edge uv
    oriented u -> v puts its class in u's set but not in v's, so the sets
    are distinct and total at least _least_subset_total(k, n).  Cover: when
    the kernel has 2K2, each class is one star or one triangle.  With j
    triangles, the centers of the k - j stars leave n - k + j vertices or
    more, and the triangles hold every edge among them, so some j needs
    C(n - k + j, 2) <= 3j, and only j = 0 when the triangle is forbidden too.
    No j qualifies at n = k + 3 (Cockayne-Lorimer), nor with the triangle at
    n = k + 2.
    """
    sizes = fam.kernel[0]
    edges = n * (n - 1) // 2
    star_forests = ("triangle" in sizes and sizes.get("path") == 3) or sizes.get("star", 3) <= 2
    if sizes.get("matching") == 2:
        triangles = 0 if "triangle" in sizes else k
        if all(math.comb(max(n - k + j, 0), 2) > 3 * j for j in range(triangles + 1)):
            return True
    return (k * ex_bound(fam, n) < edges
            or star_forests and _least_subset_total(k, n) > k * n - edges)


@dataclass(frozen=True)
class CkResult:
    """c_k value with the witness at n = value, as the colors of
    complete_edges(value), and the refutation stats at n = value + 1;
    counted means K_{value+1} was refuted by counting_refutes, in 0 nodes,
    and built names the construction that gave the witness ("walecki" or
    "galaxy"), in 0 nodes, or is None when the search found it."""

    value: int
    witness: tuple[int, ...]
    witness_nodes: int
    refutation_nodes: int
    counted: bool = False
    built: str | None = None


def _built_witness(fam: ForbiddenFamily, k: int, n: int
                   ) -> tuple[str, tuple[int, ...]] | None:
    """An admissible k-coloring of K_n from a known construction, or None.

    walecki_colors(k) colors K_{2k+1} by Walecki's k Hamilton cycles, and for
    k >= 3 galaxy_colors(k - 1) colors K_{2k-2} by k star forests; either is
    kept, as it is, only when verify_mono_free accepts it for the family.
    A Hamilton cycle of K_{2k+1} holds every path of at most 2k edges, so
    Walecki is not built when the family forbids one.
    """
    if n == 2 * k + 1:
        if 0 < fam.kernel[0].get("path", 0) <= 2 * k:
            return None
        name, colors = "walecki", walecki_colors(k)
    elif n == 2 * k - 2 and k >= 3:
        name, colors = "galaxy", galaxy_colors(k - 1)
    else:
        return None
    if verify_mono_free(n, complete_edges(n), colors, fam) is not None:
        return None
    return name, colors


def compute_c_k(fam: ForbiddenFamily, k: int, cap: int = 32,
                budget: int | None = None) -> CkResult:
    """Largest n with an admissible coloring, by scanning n upward.

    Existence is monotone (restricting a coloring of K_{n+1} to K_n stays
    admissible), so the first refuted n settles the value, and the largest
    coloring found, which the scan returns or attaches to a cut, proves every
    smaller size, unchecked: a caller runs verify_mono_free.  The smallest
    N up to cap + 1 (and MAX_VERTICES + 1) that counting_refutes refutes is
    found first.  When _built_witness colors K_{N-1}, the value is N - 1 in
    0 nodes; otherwise each n below N is searched, and the value is N - 1
    unless a smaller n is refuted.  One budget covers the whole scan: each
    size gets what the smaller ones left.  With no N, the search stops at
    top = min(cap, MAX_VERTICES); K_top colorable raises BudgetExceededError
    carrying top as the proven lower bound, its coloring and the cap; if the
    budget runs out, it carries the bound and coloring with the nodes of the
    whole scan.
    """
    if cap < 1:
        raise ValidationError("OUT_OF_RANGE", f"cap must be >= 1, got {cap}")
    if k < 1:
        raise ValidationError("BAD_K", f"need k >= 1, got {k}")
    top = min(cap, MAX_VERTICES)
    refuted = next((n for n in range(2, top + 2) if counting_refutes(fam, k, n)), 0)
    built = _built_witness(fam, k, refuted - 1)
    if built is not None:
        return CkResult(refuted - 1, built[1], 0, 0, True, built[0])
    bud = NodeBudget(budget)
    # K_1 has no edges, so prev holds a coloring before any size is refuted
    # or cut
    prev: tuple[int, ...] = ()
    prev_nodes = 0
    for n in range(1, refuted or top + 1):
        before = bud.spent
        try:
            chosen = _color_edges(n, k, complete_edges(n), fam, bud, row=n - 1)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{exc} at n = {n}; c_{k} >= {n - 1}", nodes=bud.spent,
                                      lower=n - 1, witness=prev) from None
        if chosen is None:
            return CkResult(n - 1, prev, prev_nodes, bud.spent - before)
        prev, prev_nodes = tuple(chosen), bud.spent - before
    if refuted:
        return CkResult(refuted - 1, prev, prev_nodes, 0, True)
    raise BudgetExceededError(f"K_{top} still admits a coloring; c_{k} >= {top}",
                              lower=top, cap=cap, witness=prev)


# -- closed forms -------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """A known value of c_k.  asymptotic means the formula is only claimed
    for large (or infinitely many) k and must not be compared against small
    exact searches; conditional means it relies on the delta0 threshold."""

    value: int
    asymptotic: bool = False
    conditional: bool = False
    note: str = ""


def _max_s_for_pairs(budget: int) -> int:
    """Largest s with s*(s-1)/2 <= budget: s(s - 1) <= 2 budget exactly
    when (2s - 1)^2 <= 8 budget + 1."""
    return (1 + math.isqrt(1 + 8 * budget)) // 2


def closed_form_c_k(fam: ForbiddenFamily, k: int,
                    delta0: int = DEFAULT_DELTA0) -> ClosedForm | None:
    """Known closed form of c_k(fam), or None when no formula applies.

    Exact formulas are returned unflagged.  Formulas valid only for large k
    (or infinitely many k) carry asymptotic=True; the one family whose value
    for k = 2 (mod 3) rests on the delta0 threshold is conditional=True for
    those k at or above the threshold and has no closed form below it; for
    that family, chi_r_report rejects a delta0 below 1.
    """
    if k < 1:
        raise ValidationError("BAD_K", f"need k >= 1, got {k}")
    sizes, explicit = fam.kernel
    keys = set(sizes.items()) | ({("explicit", 0)} if explicit else set())

    if ("star", 1) in keys:  # K2
        return ClosedForm(1)

    if keys == {("path", 3)}:  # P4
        if k == 3:
            return ClosedForm(5)
        if k % 3 == 1:
            return ClosedForm(2 * k + 1)
        return ClosedForm(2 * k)

    if keys == {("star", 3)}:  # S3
        return ClosedForm(2 * k + 1)

    if keys == {("triangle", 0), ("star", 3)}:
        return ClosedForm(2) if k == 1 else ClosedForm(2 * k + 1)

    if keys == {("triangle", 0), ("path", 3)}:
        if k == 1:
            return ClosedForm(2)
        if k == 2:
            return ClosedForm(3)
        return ClosedForm(2 * k - 2)

    if keys == {("path", 3), ("star", 3)}:
        # value equals the largest chromatic number of a union of k
        # generalized triangle factors, which chi_r_report knows
        rep = chi_r_report(k, delta0)
        if rep.status == "EXACT":
            return ClosedForm(rep.lower)
        if rep.status == "CONDITIONAL":
            return ClosedForm(rep.lower, conditional=True, note=f"for k >= delta0 = {delta0}")
        return None

    if keys == {("triangle", 0), ("path", 3), ("star", 3)}:
        if k % 9 == 6:
            return ClosedForm(4 * k // 3 + 1, asymptotic=True,
                              note="holds for all large k = 6 (mod 9)")
        return None

    if ("star", 2) in keys:  # P3
        if any(not any(a & (a - 1) for a in p.graph.adj) for p in explicit):
            # a P3-free explicit pattern, a matching plus isolated vertices,
            # fits in a class, which the formulas do not count
            return None
        if "matching" not in sizes:
            return ClosedForm(k + (k % 2))
        r = sizes["matching"] - 1
        return ClosedForm(_max_s_for_pairs(r * k), asymptotic=True,
                          note="holds for all large k")

    if ("matching", 2) in keys:  # 2K2
        if "star" not in sizes:
            # a 2K2-free class is one star or one triangle plus isolated
            # vertices; P4, longer paths and larger matchings contain 2K2
            rest = {key for key in keys if key[0] not in ("path", "matching")}
            if not rest:
                # Cockayne-Lorimer: R(2K2, ..., 2K2) with k colors is k + 3
                return ClosedForm(k + 2)
            if rest == {("triangle", 0)}:
                # each class is one star, and k star centers cover K_{k+1}
                return ClosedForm(k + 1)
            return None
        r = sizes["star"] - 1
        return ClosedForm(_max_s_for_pairs(r * k), asymptotic=True,
                          note="holds for all large k")

    if "star" in sizes and set(sizes) <= {"star", "triangle"} \
            and all(not p.is_forest() for p in explicit):
        # one star K_{1,r+1} with r >= 2 (K2 and P3 returned above), every
        # other member contains a cycle
        return ClosedForm(k * (sizes["star"] - 1) + 1, asymptotic=True,
                          note="holds for infinitely many k")
    return None
