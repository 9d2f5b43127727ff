"""Exact primitives for small simple graphs.

Vertices are 0-based indices and adjacency is one fixed-width bitmask per
vertex, which caps graphs at 64 vertices.  All values are immutable, and all
searches break ties toward the lowest vertex index, so every result, witness
and node count is reproducible run to run.

Chromatic number is computed exactly: a maximum-clique lower bound, raised
for a nested Mycielskian to chi of its peeled base plus the levels peeled
(``mycielski_peel``; chi(M(H)) = chi(H) + 1), a saturation-greedy upper
bound, then saturation-guided backtracking for each candidate palette size
in between.  Both branch-and-bound searches charge
nodes against a shared budget and abort with partial bounds instead of
returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, ParseError, ValidationError

MAX_VERTICES = 64
DEFAULT_NODE_BUDGET = 10**8


class NodeBudget:
    """Countdown of branch nodes shared by the exact searches."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None):
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.spent = 0

    def tick(self) -> None:
        if self.spent >= self.limit:
            raise BudgetExceededError("node budget exhausted", nodes=self.spent)
        self.spent += 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmasks."""

    n: int
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, u + 1 + low.bit_length() - 1))
                rest ^= low
        return out


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertex_count(n: int) -> int:
    """n, if a graph on n vertices fits the bitmasks; else OUT_OF_RANGE."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValidationError("OUT_OF_RANGE", f"vertex count {n} not in 0..{MAX_VERTICES}")
    return n


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a graph from an edge list.

    Raises ValidationError with code OUT_OF_RANGE for a bad vertex count or
    index, SELF_LOOP for u == u edges, DUPLICATE_EDGE for repeats.  The
    generators below pass their edges lazily, so a size out of range fails
    before any edge exists.
    """
    adj = [0] * _vertex_count(n)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("OUT_OF_RANGE", f"edge ({u}, {v}) off a {n}-vertex graph")
        if u == v:
            raise ValidationError("SELF_LOOP", f"self-loop at vertex {u}")
        if (adj[u] >> v) & 1:
            raise ValidationError("DUPLICATE_EDGE", f"edge ({u}, {v}) given twice")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complete_graph(n: int) -> Graph:
    full = (1 << _vertex_count(n)) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


@lru_cache(maxsize=None)
def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    """K_n's edges in lexicographic order, complete_graph(n).edges(), built
    once per n: the order every edge colouring of K_n and every edge mask
    of K_n follows."""
    _vertex_count(n)
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def complete_edge_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[u][v] = bits[v][u] = 1 << the position of edge uv in
    complete_edges(n), 0 when u == v: the bit of each edge of K_n in an
    edge mask, built once per n."""
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(complete_edges(n)):
        bits[u][v] = bits[v][u] = 1 << i
    return tuple(map(tuple, bits))


def color_classes(n: int, edges: Iterable[tuple[int, int]],
                  colors: Iterable[int]) -> dict[int, Graph]:
    """The class of each colour in use, edges[i] taking colors[i], as a graph
    on n vertices, by ascending colour; built in one pass over the edges (a
    palette may hold 2**70 colours, so only those in use get a class)."""
    classes: dict[int, list[int]] = {}
    for (u, v), c in zip(edges, colors):
        adj = classes.get(c)
        if adj is None:
            adj = classes[c] = [0] * n
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return {c: Graph(n, tuple(classes[c])) for c in sorted(classes)}


def path_graph(n: int) -> Graph:
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("OUT_OF_RANGE", "cycles need at least 3 vertices")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves, centered at vertex 0."""
    if leaves < 0:
        raise ValidationError("OUT_OF_RANGE", f"a star needs 0 or more leaves, got {leaves}")
    return build_graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def matching_graph(size: int) -> Graph:
    return build_graph(2 * size, ((2 * i, 2 * i + 1) for i in range(size)))


# the graph generators by the CLI option that names them
GENERATORS = {"complete": complete_graph, "cycle": cycle_graph, "path": path_graph,
              "star": star_graph}


def union_graphs(graphs: Sequence[Graph]) -> Graph:
    """Edge union of graphs sharing a vertex set."""
    if not graphs:
        raise ValidationError("OUT_OF_RANGE", "union of zero graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValidationError("OUT_OF_RANGE", "union over mismatched vertex counts")
    adj = [0] * n
    for g in graphs:
        for v in range(n):
            adj[v] |= g.adj[v]
    return Graph(n, tuple(adj))


def restrict(g: Graph, vertex_mask: int) -> Graph:
    """Same vertex set, keeping only edges inside vertex_mask."""
    return Graph(g.n, tuple((g.adj[v] & vertex_mask) if (vertex_mask >> v) & 1 else 0
                            for v in range(g.n)))


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, by lowest member."""
    comps = []
    rest = g.full_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= g.adj[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        rest ^= comp
    return comps


# -- text format ------------------------------------------------------------
#
# Line 1: "n m", then m lines "u v".  The parser is strict so certificates
# round-trip byte for byte.


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer edge line {ln!r}") from None
    return build_graph(n, edges)


# -- vertex colorings ---------------------------------------------------------


def is_proper_coloring(g: Graph, colors: Sequence[int]) -> bool:
    if len(colors) != g.n:
        return False
    classes: dict[int, int] = {}  # color -> vertex mask of its class
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(a & classes[c] for a, c in zip(g.adj, colors))


def is_bipartite(g: Graph) -> bool:
    """chi(g) <= 2, with no search: a component is bipartite exactly when it
    lifts to two components of the bipartite double cover of g, which joins
    each vertex v to the copy n + u of each neighbour u, and n + v to u."""
    cover = Graph(2 * g.n, tuple(a << g.n for a in g.adj) + g.adj)
    return len(connected_components(cover)) == 2 * len(connected_components(g))


# Saturation order: the uncolored vertex seeing the most distinct colors,
# then the most uncolored neighbors, ties to the lowest index.  One integer
# key per vertex packs the three fields, so one max() over the key list
# picks the next vertex; a colored vertex keys -1.
_IDX = (1 << MAX_VERTICES.bit_length()) - 1
_DEG = _IDX + 1
_SAT = _DEG << MAX_VERTICES.bit_length()


def _exact_k_coloring(g: Graph, k: int, budget: NodeBudget) -> list[int] | None:
    """Proper k-coloring via saturation-guided backtracking, or None.

    Color symmetry is broken canonically: a vertex may open color c only if
    colors 0..c-1 are already in use, and a vertex with no colored neighbor
    starts a new component, whose colors are all interchangeable, so it
    takes color 0 only.  The search looks only for Grundy colorings, where
    every vertex of color c has a neighbor of each color below c: a branch
    dies once a colored vertex lacks a lower color that no colored neighbor
    has and no uncolored neighbor can still take.  Some Grundy coloring is
    reached whenever any k-coloring exists (README, "How `chi` and `match`
    search").  With k >= n a color is always free, so the search never
    backtracks: that run is the saturation greedy, and first fit is Grundy.

    Coloring a vertex updates the keys and color sets of its neighbors
    only; ``pending`` holds the colored vertices still short of a lower
    color, which are re-checked only when a neighbor is colored or loses
    a free color.  One explicit stack holds, per colored vertex, its
    untried colors and the state from before, which backtracking puts back.
    """
    n = g.n
    if not n:
        return []
    adj = g.adj
    nbrs: list[list[int] | None] = [None] * n  # listed once colored: a short run lists few
    colors = [-1] * n
    seen = [0] * n  # colors on the colored neighbors, of every vertex
    key = [a.bit_count() * _DEG + _IDX - v for v, a in enumerate(adj)]
    stack: list[tuple[int, int, int, list[int], list[int], int]] = []
    used = 0
    pending = 0
    v = _IDX - (max(key) & _IDX)
    avail = int(k > 0)  # no color at all colors no vertex
    while True:
        if not avail:
            if not stack:
                return None
            v, avail, used, key, seen, pending = stack.pop()
            colors[v] = -1
            continue
        low = avail & -avail
        avail ^= low
        budget.tick()
        c = low.bit_length() - 1
        colors[v] = c
        if len(stack) == n - 1:
            return colors
        stack.append((v, avail, used, key, seen, pending))
        key, seen = key.copy(), seen.copy()
        key[v] = -1
        nbv = nbrs[v]
        if nbv is None:
            nbv = nbrs[v] = _bits(adj[v])
        check = pending & adj[v]  # v can no longer take a color they lack
        if ~seen[v] & (low - 1):
            check |= 1 << v
        for u in nbv:
            if key[u] >= 0:
                if seen[u] & low:
                    key[u] -= _DEG
                else:
                    seen[u] |= low
                    key[u] += _SAT - _DEG
                    check |= pending & adj[u]  # u can no longer take c
            else:
                seen[u] |= low
        pending |= check
        while check:
            bit = check & -check
            check ^= bit
            x = bit.bit_length() - 1
            lack = ~seen[x] & ((1 << colors[x]) - 1)
            if not lack:
                pending ^= bit
                continue
            for u in nbrs[x]:
                if key[u] >= 0:
                    lack &= seen[u]
                    if not lack:
                        break
            if lack:
                break
        else:
            if c == used:
                used += 1
            v = _IDX - (max(key) & _IDX)
            avail = ~seen[v] & ((1 << min(k, used + 1)) - 1) if seen[v] else 1
            continue
        # x can never see every lower color: try v's next color
        v, avail, used, key, seen, pending = stack.pop()
        colors[v] = -1


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    colors: tuple[int, ...]  # a proper coloring with value colors
    nodes: int  # of the clique search and every palette, as a budget cut counts them


def chromatic_number(g: Graph, budget: int | None = None) -> ChromaticResult:
    """Exact chromatic number with a proper coloring as witness.

    On budget exhaustion raises BudgetExceededError whose ``partial`` maps
    carry the proven interval (lower, upper) and the greedy coloring as witness.
    """
    bud = NodeBudget(budget)
    value, colors = _chromatic(g, bud)
    return ChromaticResult(value, colors, bud.spent)


def _chromatic(g: Graph, bud: NodeBudget) -> tuple[int, tuple[int, ...]]:
    """chromatic_number's search on ``bud``: the clique bound, raised to
    chi(base) + levels for g a nested Mycielskian of base, then each palette
    from there up to the greedy's."""
    if g.n == 0:
        return 0, ()
    greedy = _exact_k_coloring(g, g.n, NodeBudget())  # k = n: the saturation greedy
    upper = max(greedy) + 1
    lower = 1 if g.m == 0 else 2
    try:
        lower = max(lower, _max_clique_search(g, bud)[0])
        if lower < upper:
            levels, base = mycielski_peel(g)
            if levels:  # chi(M(H)) = chi(H) + 1 (README, "How `chi` and `match` search")
                try:
                    lower = _chromatic(base, bud)[0] + levels
                except BudgetExceededError as exc:
                    lower = max(lower, exc.partial["lower"] + levels)
                    raise
        for k in range(lower, upper):
            colors = _exact_k_coloring(g, k, bud)
            if colors is not None:
                return k, tuple(colors)
            lower = k + 1
        return upper, tuple(greedy)
    except BudgetExceededError:
        raise BudgetExceededError(
            "chromatic number undecided within node budget",
            lower=lower, upper=upper, nodes=bud.spent,
            witness=tuple(greedy),
        ) from None


def mycielski_peel(g: Graph) -> tuple[int, Graph]:
    """(levels, base) with g isomorphic to the Mycielskian of base taken
    ``levels`` times, peeling while some vertex w shows g = M(H).

    M(H) on n = 2h + 1 vertices is H on V, a copy u_v of each v in V adjacent
    to N_H(v), and w adjacent to every copy.  So g is M(g[V]) exactly when the
    neighbourhood U of w has (n - 1) / 2 vertices and the masks N(u) - w
    (u in U) equal, as a multiset, the masks N(v) & V over the rest V of g
    without w: each N(u) - w then lies in V, so U is independent.  The lowest
    such w is peeled and V renumbered in increasing order.
    """
    levels = 0
    while g.n >= 3 and g.n % 2:
        adj, half = g.adj, g.n // 2
        for w, cover in enumerate(adj):
            if cover.bit_count() != half:
                continue
            rest = g.full_mask ^ cover ^ 1 << w
            copies = sorted(adj[u] ^ 1 << w for u in _bits(cover))
            if copies == sorted(adj[v] & rest for v in _bits(rest)):
                break
        else:
            break
        old = _bits(rest)
        bit = [0] * g.n  # the new bit of each old vertex in V
        for i, v in enumerate(old):
            bit[v] = 1 << i
        g = Graph(half, tuple(sum(bit[u] for u in _bits(adj[v] & rest)) for v in old))
        levels += 1
    return levels, g


def _max_clique_search(g: Graph, budget: NodeBudget) -> tuple[int, int]:
    """Maximum clique (size, vertex mask) by coloring-bounded branch and bound.

    On budget exhaustion the partial holds the largest clique in hand: its
    size as lower, its vertex tuple as witness.
    """
    adj = g.adj
    best = 1
    best_mask = 1

    def expand(rmask: int, rsize: int, cand: int) -> None:
        nonlocal best, best_mask
        try:
            budget.tick()
        except BudgetExceededError as exc:
            mask = rmask if rsize > best else best_mask  # rmask is a clique
            exc.partial.update(lower=mask.bit_count(), witness=tuple(_bits(mask)))
            raise
        if cand == 0:
            if rsize > best:
                best, best_mask = rsize, rmask
            return
        # Greedy-color the candidates; color index bounds the clique growth.
        order: list[int] = []
        bounds: list[int] = []
        rest = cand
        color = 0
        while rest:
            color += 1
            layer = rest
            while layer:
                low = layer & -layer
                v = low.bit_length() - 1
                order.append(v)
                bounds.append(color)
                rest ^= low
                layer = layer & ~low & ~adj[v]
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= best:
                return
            v = order[i]
            vb = 1 << v
            expand(rmask | vb, rsize + 1, cand & adj[v])
            cand &= ~vb

    expand(0, 0, g.full_mask)
    return best, best_mask


def max_clique(g: Graph, budget: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Maximum clique size together with one realizing vertex tuple."""
    if g.n == 0:
        return 0, ()
    size, mask = _max_clique_search(g, NodeBudget(budget))
    return size, tuple(_bits(mask))


# -- cores and coloring extension --------------------------------------------


@dataclass(frozen=True)
class KCoreResult:
    """Maximal subgraph of minimum degree >= d, plus the peeling order."""

    vertices: tuple[int, ...]
    graph: Graph
    elimination_order: tuple[int, ...]


def k_core(g: Graph, d: int) -> KCoreResult:
    """Peel vertices of degree < d (lowest index first) until none remain."""
    alive = g.full_mask
    deg = [g.degree(v) for v in range(g.n)]
    order = []
    while True:
        victim = -1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if deg[v] < d:
                victim = v
                break
            rest ^= low
        if victim < 0:
            break
        alive ^= 1 << victim
        order.append(victim)
        for u in _bits(g.adj[victim] & alive):
            deg[u] -= 1
    return KCoreResult(tuple(_bits(alive)), restrict(g, alive), tuple(order))


def extend_coloring_from_core(g: Graph, d: int,
                              core_coloring: Mapping[int, int]) -> tuple[int, ...]:
    """Grow a proper d-coloring of the d-core into one of the whole graph.

    Re-inserting the peeled vertices in reverse order works because each had
    fewer than d colored neighbors at its removal time.  Raises
    ValidationError INVALID_CORE_COLORING if the given coloring does not
    exactly cover the core, uses a color outside 0..d-1, or is improper.
    """
    core = k_core(g, d)
    if set(core_coloring) != set(core.vertices):
        raise ValidationError("INVALID_CORE_COLORING",
                              "coloring domain is not the d-core vertex set")
    if any(not 0 <= c < d for c in core_coloring.values()):
        raise ValidationError("INVALID_CORE_COLORING",
                              f"color outside 0..{d - 1}")
    for u, v in core.graph.edges():
        if core_coloring[u] == core_coloring[v]:
            raise ValidationError("INVALID_CORE_COLORING",
                                  f"edge ({u}, {v}) is monochromatic in the core")
    colors = [-1] * g.n
    for v, c in core_coloring.items():
        colors[v] = c
    for v in reversed(core.elimination_order):
        used = 0
        for u in _bits(g.adj[v]):
            if colors[u] >= 0:
                used |= 1 << colors[u]
        c = 0
        while (used >> c) & 1:
            c += 1
        if c >= d:
            raise ValidationError("INVALID_CORE_COLORING",
                                  f"no free color for vertex {v}; core was not maximal")
        colors[v] = c
    return tuple(colors)
