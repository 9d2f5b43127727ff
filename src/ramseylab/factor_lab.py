"""Coverings and decompositions of complete graphs by triangle factors.

A generalized factor is a spanning subgraph whose components are each
contained in a triangle: triangles, 2-edge paths, single edges, isolated
vertices.  A proper factor has triangle components only.  This module
classifies factors, searches for covers/decompositions of K_n by r of them,
maximizes coverable edges, and colors K_n's edges by the three explicit
constructions used as chromatic lower bounds: Walecki's Hamilton cycles of
K_{2k+1}, the galaxy's star forests of K_{2k}, and six generalized factors
of K_11.

Every search starts from a maximal first factor, fixed up to isomorphism.
A spanning subgraph of a generalized factor is one, since its components
lie in the factor's.  So a cover's factors extend to maximal ones on the
same vertices; and if D_1, ..., D_r decompose K_n and D_1 extends to a
maximal F, then F, D_2 - E(F), ..., D_r - E(F) decompose K_n too, and a
relabelling makes F its shape's representative.  Proper factors are maximal
already.  Covers take the later factors maximal and sorted; decompositions
take their middle masks descending, as those factors are unordered, and the
last one forced.  Once only a full cover beats the one in hand, a branch is
dropped when some vertex has more uncovered edges than the factors left
can take: a factor has maximum degree 2.  So exhaustion is a certified
nonexistence, and the scheme identifier names exactly this reduction.

Covers, decompositions and the maximum cover run one search,
_factor_search, with the representatives in descending mask order.  They
differ only in the candidates of the later levels, the rule for the last
factor and the cover to beat: the maximum cover starts from a greedy one.
The search stops once no r factors can cover more.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, ValidationError, VerificationError
from .graph_core import (
    Graph,
    NodeBudget,
    _bits,
    build_graph,
    complete_edge_bits,
    complete_edges,
    connected_components,
    restrict,
)

PROPER = "PROPER"
GENERALIZED = "GENERALIZED"
NOT_A_FACTOR = "NOT_A_FACTOR"
COVER = "COVER"
DECOMPOSITION = "DECOMPOSITION"

COVER_SCHEME = "maximal-factors/first-factor-up-to-iso/sorted-middle-factors/degree-bound"
DECOMP_SCHEME = "maximal-first-factor-up-to-iso/descending-middle-masks/forced-last/degree-bound"
MAX_COVER_N = 16  # the largest K_n that cover_search takes
MAX_COVERABLE_N = 12  # the largest K_n that max_coverable_edges takes
MAX_FACTORS = 10_000  # the r cap of both searches; past C(16, 2) = 120 factors, more are redundant


def classify_factor(g: Graph) -> str:
    """PROPER, GENERALIZED, or NOT_A_FACTOR for a candidate spanning subgraph."""
    all_triangles = True
    for comp in connected_components(g):
        size = comp.bit_count()
        if size > 3:
            return NOT_A_FACTOR
        if size == 3:
            if restrict(g, comp).m == 2:
                all_triangles = False
        else:
            all_triangles = False
    return PROPER if all_triangles else GENERALIZED


def _verify_factor_shapes(classes: Iterable[Graph], proper: bool = False) -> None:
    """The one check of a factor: no component larger than a triangle, and
    if proper every component a triangle.  `k11` checks generalized factors,
    `cover` and `max-cover` factors of the properness they were asked for."""
    for g in classes:
        cls = classify_factor(g)
        if cls == NOT_A_FACTOR:
            raise VerificationError("factor-shape", "component larger than a triangle")
        if proper and cls != PROPER:
            raise VerificationError("factor-proper", "non-triangle component in proper mode")


def _verify_cover_payload(n: int, r: int, properness: str, mode: str,
                          factors: Sequence[Graph], require_cover: bool) -> int:
    """Check r factors of K_n as a certificate payload, edge-disjoint for a
    decomposition and covering K_n if require_cover; returns their union as
    an edge mask."""
    if len(factors) != r:
        raise VerificationError("factor-count", f"expected {r} factors, got {len(factors)}")
    if any(g.n != n for g in factors):
        raise VerificationError("factor-order", "factor on wrong vertex count")
    _verify_factor_shapes(factors, proper=properness == PROPER)
    seen = 0
    for g in factors:
        mask = _edge_mask(g)
        if mode == DECOMPOSITION and mask & seen:
            raise VerificationError("edge-disjoint", "two classes share an edge")
        seen |= mask
    if require_cover and seen != _full_edge_mask(n):
        raise VerificationError("union-complete", f"classes do not cover K_{n}")
    return seen


# -- edge-mask plumbing -------------------------------------------------------


def _edge_mask(g: Graph) -> int:
    bits = complete_edge_bits(g.n)
    mask = 0
    for u, v in g.edges():
        mask |= bits[u][v]
    return mask


def _mask_to_graph(mask: int, n: int) -> Graph:
    pairs = complete_edges(n)  # the vertex pair of each edge bit, in bit order
    adj = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask ^= low
    return Graph(n, tuple(adj))


def _full_edge_mask(n: int) -> int:
    return (1 << (n * (n - 1) // 2)) - 1


# -- factor enumeration -------------------------------------------------------


def _enumerate_maximal_factors(n: int, proper: bool = False) -> list[int]:
    """Sorted edge masks of all edge-maximal generalized factors on n
    vertices, or with proper of all proper ones.  The maximal ones have
    triangles, edges and at most one isolated vertex, but never an edge and
    an isolated vertex both, which would accept another edge.  The factors
    on a vertex set depend only on the set and on the blocks still allowed,
    so each such sub-pool is built once, from the blocks of its lowest
    vertex, and a block that leaves a set its rule cannot fill is skipped."""
    bits = complete_edge_bits(n)
    # sub-pools by unassigned << 2 | rule: 0 any block, 1 no isolated vertex
    # (an edge is in), 2 triangles only (an isolated vertex is in)
    memo: dict[int, list[int]] = {0: [0], 1: [0], 2: [0]}

    def pool(key: int) -> list[int]:
        unassigned, rule = key >> 2, key & 3
        size = unassigned.bit_count()
        low = unassigned & -unassigned
        row, rest = bits[low.bit_length() - 1], unassigned ^ low
        if size <= 3:  # a set this small that its rule can fill is one block
            u, w = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
            out = memo[key] = [row[u] | row[w] | bits[u][w]] if rest else [0]
            return out
        others, out = _bits(rest), []
        for i, u in enumerate(others if rule != 1 or size != 4 else ()):
            vu, row_u = row[u], bits[u]
            for w in others[i + 1:]:
                sub, tri = (rest ^ (1 << u) ^ (1 << w)) << 2 | rule, vu | row[w] | row_u[w]
                out += [tri | m for m in memo.get(sub) or pool(sub)]
        for u in others if rule != 2 else ():
            sub, vu = (rest ^ (1 << u)) << 2 | 1, row[u]
            out += [vu | m for m in memo.get(sub) or pool(sub)]
        if rule == 0 and size % 3 == 1:
            out += memo.get(rest << 2 | 2) or pool(rest << 2 | 2)
        memo[key] = out
        return out

    if proper and n % 3:
        return []
    top = ((1 << n) - 1) << 2 | (2 if proper else 0)
    # each once: the lowest free vertex's block fixes a branch
    return sorted(memo.get(top) or pool(top))


def _maximal_shape_reps(n: int, proper: bool) -> list[int]:
    """One representative per isomorphism class of maximal factor, triangles
    on the lowest vertices, then edges, in descending mask order: by number
    of triangles, most first, then the isolated-vertex shape."""
    shapes = [(t, (n - 3 * t) // 2) for t in range(n // 3, -1, -1) if (n - 3 * t) % 2 == 0]
    shapes += [((n - 1) // 3, 0)] if n % 3 == 1 else []
    if proper:  # triangles on every vertex
        shapes = [(t, e) for t, e in shapes if 3 * t == n]
    bits = complete_edge_bits(n)
    reps = []
    for triangles, edges in shapes:
        mask = 0
        for v in range(0, 3 * triangles, 3):
            mask |= bits[v][v + 1] | bits[v][v + 2] | bits[v + 1][v + 2]
        for v in range(3 * triangles, 3 * triangles + 2 * edges, 2):
            mask |= bits[v][v + 1]
        reps.append(mask)
    return reps


def _iter_factor_masks_within(n: int, allowed_adj: Sequence[int], proper: bool, left: int,
                              limit_mask: int | None = None) -> Iterator[int]:
    """All factor edge-masks drawn from the allowed adjacency, lowest vertex
    first, that leave no vertex more than 2 * left allowed edges for the
    left factors after this one; proper factors are triangle partitions
    only.  A block fixes its vertices' factor degrees, so it is skipped
    when one of them would keep too many.  Masks only grow along a branch,
    so any partial mask exceeding limit_mask is pruned."""
    bits = complete_edge_bits(n)
    excess = [a.bit_count() - 2 * left for a in allowed_adj]
    if max(excess, default=0) > 2:  # a factor has maximum degree 2
        return
    # vertices that must take two factor edges, and those that must take one
    two = sum(1 << v for v, x in enumerate(excess) if x == 2)
    one = sum(1 << v for v, x in enumerate(excess) if x >= 1)

    def rec(unassigned: int, mask: int) -> Iterator[int]:
        if limit_mask is not None and mask > limit_mask:
            return
        if unassigned == 0:
            yield mask
            return
        low = unassigned & -unassigned
        v = low.bit_length() - 1
        rest = unassigned ^ low
        row = bits[v]
        nb_list = _bits(allowed_adj[v] & rest)
        # triangle v,u,w
        for i, u in enumerate(nb_list):
            for w in nb_list[i + 1:]:
                if (allowed_adj[u] >> w) & 1:
                    yield from rec(rest ^ (1 << u) ^ (1 << w),
                                   mask | row[u] | row[w] | bits[u][w])
        if proper:
            return
        # 2-edge path centered at v, its ends of degree 1
        light = _bits(allowed_adj[v] & rest & ~two)
        for i, u in enumerate(light):
            for w in light[i + 1:]:
                yield from rec(rest ^ (1 << u) ^ (1 << w), mask | row[u] | row[w])
        if low & two:
            return
        # 2-edge path v-u-w
        for u in nb_list:
            for w in _bits(allowed_adj[u] & rest & ~two):
                yield from rec(rest ^ (1 << u) ^ (1 << w), mask | row[u] | bits[u][w])
        # single edge
        for u in light:
            yield from rec(rest ^ (1 << u), mask | row[u])
        # isolated vertex
        if not low & one:
            yield from rec(rest, mask)

    yield from rec((1 << n) - 1, 0)


# -- the factor search ----------------------------------------------------------


def _factor_search(n: int, r: int, reps: Sequence[int],
                   nxt: Callable[[int, int | None, int], Iterable[int]],
                   last: Callable[[int, int], tuple[int, int]],
                   best: int, witness: list[int], bud: NodeBudget) -> tuple[int, list[int]]:
    """The one search behind cover_search and max_coverable_edges.

    Chooses r factor edge-masks depth first, one level per factor.  Level 1
    takes the shape representatives reps.  Each later level below r takes
    nxt(covered, previous mask, factors after it), the previous mask None
    after level 1.  Level r takes last(uncovered, best - covered), which is
    (edges gained, mask), a gain of at most best - covered when no last
    factor beats best.  Each level spends one node and is pruned when
    r - level + 1 factors of at most maxf edges each cannot beat best.  Once
    only a full cover beats best (best + 1 >= C(n, 2)), a level is also
    pruned when some vertex has more than 2 * (r - level + 1) uncovered
    edges.  best starts as the count of witness, a cover already in
    hand, or as one below the count to reach with an empty witness.  A choice
    that beats best becomes the witness, and the search stops once best
    reaches min(C(n, 2), r * maxf), which no r factors exceed.  Returns
    (best, witness masks).  A budget cut with a witness in hand records best
    as the partial's lower and the witness, as graphs, as its witness.
    """
    full = _full_edge_mask(n)
    edges = full.bit_count()
    maxf, bound = _edge_bound(n, 1), _edge_bound(n, r)
    if witness and best >= bound:  # the cover in hand is optimal by counting
        return best, witness
    stars = [sum(row) for row in complete_edge_bits(n)]
    chosen: list[int] = []  # the masks of levels 1 .. len(chosen)
    frames: list[tuple[Iterator[int], int]] = []  # (candidates, covered before)
    covered = 0
    while True:
        level = len(chosen) + 1
        try:
            bud.tick()
        except BudgetExceededError as exc:
            if witness:  # a cover in hand: a proven lower bound
                exc.partial.update(lower=best, witness=[_mask_to_graph(m, n) for m in witness])
            raise
        cov = covered.bit_count()
        left = r - level + 1
        missing = full & ~covered
        if cov + left * maxf > best and not (
                best + 1 >= edges and any((missing & star).bit_count() > 2 * left
                                          for star in stars)):
            if level == r:
                gain, mask = last(missing, best - cov)
                if cov + gain > best:
                    best, witness = cov + gain, chosen + [mask]
                    if best >= bound:
                        return best, witness
            else:
                # the first factor, fixed only up to isomorphism, bounds no mask
                prev = chosen[-1] if level > 2 else None
                frames.append((iter(reps if level == 1 else nxt(covered, prev, left - 1)),
                               covered))
                chosen.append(0)  # replaced by the level's first candidate
        while frames:  # the next candidate of the deepest level that has one
            candidates, before = frames[-1]
            mask = next(candidates, None)
            if mask is not None:
                chosen[-1] = mask
                covered = before | mask
                break
            frames.pop()
            chosen.pop()
        else:
            return best, witness


def _edge_bound(n: int, r: int) -> int:
    """min(C(n, 2), r * maxf): no r generalized factors of K_n cover more
    edges, one having at most maxf = n edges if 3 | n, else n - 1."""
    return min(n * (n - 1) // 2, r * (n if n % 3 == 0 else n - 1))


def _sorted_tail(build: Callable[[], list[int]]
                 ) -> Callable[[int, int | None, int], list[int]]:
    """The later-level rule over a sorted pool without repeats: the pool from
    the previous mask on, so the later factors come in order.  The pool is
    built on first use, so a search ending before level 2 builds none."""
    pool = lru_cache(maxsize=None)(build)

    def nxt(covered: int, prev: int | None, left: int) -> list[int]:
        masks = pool()
        return masks if prev is None else masks[bisect_left(masks, prev):]

    return nxt


# -- cover and decomposition search -------------------------------------------


@dataclass(frozen=True)
class CoverSearchResult:
    """factors is None iff the exhaustive symmetry-broken search refuted
    existence; nodes counts examined branch points."""

    factors: tuple[Graph, ...] | None
    nodes: int
    scheme: str


def cover_search(n: int, r: int, properness: str = GENERALIZED,
                 mode: str = COVER, budget: int | None = None) -> CoverSearchResult:
    """Search for r factors of K_n whose union covers (or exactly partitions)
    its edges.  Exhaustion without a hit is a certified nonexistence.  A
    caller checks the factors with _verify_cover_payload(require_cover=True)."""
    if n < 1 or n > MAX_COVER_N:
        raise ValidationError("BAD_N", f"cover search supports 1 <= n <= {MAX_COVER_N}, got {n}")
    if not 1 <= r <= MAX_FACTORS:
        raise ValidationError("OUT_OF_RANGE", f"need 1 <= r <= {MAX_FACTORS}, got {r}")
    if properness not in (PROPER, GENERALIZED):
        raise ValidationError("OUT_OF_RANGE", f"unknown properness {properness!r}")
    if mode not in (COVER, DECOMPOSITION):
        raise ValidationError("OUT_OF_RANGE", f"unknown mode {mode!r}")
    bud = NodeBudget(budget)
    proper = properness == PROPER
    full = _full_edge_mask(n)
    scheme = COVER_SCHEME if mode == COVER else DECOMP_SCHEME

    def last(missing: int, beat: int) -> tuple[int, int]:
        """(edges gained, mask) of a last factor taking every missing edge,
        or (-1, 0) if there is none; a decomposition's is exactly missing.
        Only a full cover beats the cover to beat, so beat is not read."""
        mask = _last_cover_factor(n, missing, proper)
        if mask is None or (mode == DECOMPOSITION and mask != missing):
            return -1, 0
        return missing.bit_count(), mask

    if mode == COVER:
        nxt = _sorted_tail(lambda: _enumerate_maximal_factors(n, proper))
    else:
        def nxt(covered: int, prev: int | None, left: int) -> Iterator[int]:
            return _iter_factor_masks_within(n, _mask_to_graph(full & ~covered, n).adj,
                                             proper, left, limit_mask=prev)

    masks = _factor_search(n, r, _maximal_shape_reps(n, proper), nxt, last,
                           full.bit_count() - 1, [], bud)[1]
    if not masks:
        return CoverSearchResult(None, bud.spent, scheme)
    return CoverSearchResult(tuple(_mask_to_graph(m, n) for m in masks), bud.spent, scheme)


def _last_cover_factor(n: int, missing_mask: int, proper: bool) -> int | None:
    """The mask of a single factor containing all still-missing edges, if
    one exists.

    For generalized factors the missing graph must itself classify; for
    proper factors its components must pack into disjoint triangles, which a
    counting argument settles: close up 3-vertex components, pair each edge
    component with a spare vertex, group leftover vertices in threes.
    """
    g = _mask_to_graph(missing_mask, n)
    if not proper:
        return missing_mask if classify_factor(g) != NOT_A_FACTOR else None
    blocks: list[list[int]] = []
    twos: list[list[int]] = []
    ones: list[int] = []
    for comp in connected_components(g):
        size = comp.bit_count()
        if size > 3:
            return None
        members = _bits(comp)
        if size == 3:
            blocks.append(members)
        elif size == 2:
            twos.append(members)
        else:
            ones.append(members[0])
    if len(twos) > len(ones) or (len(ones) - len(twos)) % 3 != 0:
        return None
    for pair, extra in zip(twos, ones):
        blocks.append(pair + [extra])
    rest = ones[len(twos):]
    for i in range(0, len(rest), 3):
        blocks.append(rest[i:i + 3])
    bits = complete_edge_bits(n)
    mask = 0
    for a, b, c in blocks:
        mask |= bits[a][b] | bits[a][c] | bits[b][c]
    return mask


# -- maximum coverable edges ---------------------------------------------------


@dataclass(frozen=True)
class MaxCoverResult:
    value: int
    factors: tuple[Graph, ...]
    nodes: int


def max_coverable_edges(n: int, r: int, budget: int | None = None) -> MaxCoverResult:
    """Exact maximum number of K_n edges coverable by r generalized factors.

    The search of cover_search, with the same symmetry reduction; its last
    factor is chosen by a subset-memoized packing that maximizes the edges
    taken from the uncovered graph, so the result is an exact maximum, not a
    heuristic; the packing runs only when _packing_bound can beat the best
    cover in hand.  The search starts from the greedy cover, which it must beat,
    and stops once min(C(n, 2), r * maxf) edges are covered.  A caller
    checks the factors with _verify_cover_payload(require_cover=False).
    """
    if n < 1 or n > MAX_COVERABLE_N:
        raise ValidationError("BAD_N", f"max cover search supports 1 <= n <= {MAX_COVERABLE_N}, "
                                       f"got {n}")
    if not 1 <= r <= MAX_FACTORS:
        raise ValidationError("OUT_OF_RANGE", f"need 1 <= r <= {MAX_FACTORS}, got {r}")
    bud = NodeBudget(budget)
    for _ in range(r):  # the greedy cover's nodes, one per factor, as a search level's
        bud.tick()
    greedy, greedy_masks = _greedy_cover(n, r)

    def last(missing: int, beat: int) -> tuple[int, int]:
        return _max_partial_factor(n, missing) if _packing_bound(n, missing) > beat else (-1, 0)

    value, masks = _factor_search(
        n, r, _maximal_shape_reps(n, proper=False),
        _sorted_tail(lambda: _enumerate_maximal_factors(n)), last, greedy, greedy_masks, bud)
    return MaxCoverResult(value, tuple(_mask_to_graph(m, n) for m in masks), bud.spent)


def _greedy_cover(n: int, r: int) -> tuple[int, list[int]]:
    """(edges covered, masks) of r factors of K_n chosen greedily: a largest
    shape representative, then each factor the most edges of what is left.
    Once every edge is covered, the rest are empty and run no packing."""
    full = _full_edge_mask(n)
    masks: list[int] = []
    covered = 0
    for _ in range(r):
        if not masks:
            mask = max(_maximal_shape_reps(n, proper=False), key=int.bit_count)
        else:
            mask = _max_partial_factor(n, full & ~covered)[1] if covered != full else 0
        masks.append(mask)
        covered |= mask
    return covered.bit_count(), masks


def _max_partial_factor(n: int, allowed_mask: int) -> tuple[int, int]:
    """Maximum-edge subgraph of the allowed graph that is a generalized
    factor, by subset-memoized recursion on the lowest undecided vertex."""
    adj = _mask_to_graph(allowed_mask, n).adj
    bits = complete_edge_bits(n)
    memo: dict[int, tuple[int, int]] = {}

    def rec(unassigned: int) -> tuple[int, int]:
        if unassigned == 0:
            return 0, 0
        hit = memo.get(unassigned)
        if hit is not None:
            return hit
        low = unassigned & -unassigned
        v = low.bit_length() - 1
        rest = unassigned ^ low
        best, best_mask = rec(rest)  # v isolated
        nb_list = _bits(adj[v] & rest)
        row = bits[v]
        for u in nb_list:
            ub = 1 << u
            e_vu = row[u]
            sub, sub_mask = rec(rest ^ ub)
            if sub + 1 > best:
                best, best_mask = sub + 1, sub_mask | e_vu
            for w in _bits(adj[u] & rest):
                sub, sub_mask = rec(rest ^ ub ^ (1 << w))
                cand = sub_mask | e_vu | bits[u][w]
                if sub + 2 > best:
                    best, best_mask = sub + 2, cand
        for i, u in enumerate(nb_list):
            for w in nb_list[i + 1:]:
                sub, sub_mask = rec(rest ^ (1 << u) ^ (1 << w))
                path_mask = row[u] | row[w]
                if (adj[u] >> w) & 1:
                    tri = path_mask | bits[u][w]
                    if sub + 3 > best:
                        best, best_mask = sub + 3, sub_mask | tri
                if sub + 2 > best:
                    best, best_mask = sub + 2, sub_mask | path_mask
        memo[unassigned] = (best, best_mask)
        return best, best_mask

    return rec((1 << n) - 1)


def _packing_bound(n: int, allowed_mask: int) -> int:
    """At least _max_partial_factor(n, allowed_mask)[0]: a factor's
    components lie in the allowed graph's, and one of those on c vertices
    gives it at most all its edges, and at most c - ceil(c / 3) (paths of at
    most 2 edges) if it is triangle-free, else c - [3 does not divide c]."""
    g = _mask_to_graph(allowed_mask, n)
    adj, total = g.adj, 0
    for comp in connected_components(g):
        members = _bits(comp)
        c, e = len(members), sum(adj[v].bit_count() for v in members) // 2
        if any(adj[u] & adj[v] for u in members for v in _bits(adj[u] >> u << u)):
            total += min(e, c - (c % 3 != 0))
        else:
            total += min(e, c - (c + 2) // 3)
    return total


# -- explicit constructions -----------------------------------------------------


def walecki_colors(k: int) -> tuple[int, ...]:
    """Walecki's k Hamilton cycles of K_{2k+1}, one color per edge of
    complete_edges(2k + 1): hub edge {x, 2k} takes x mod k, rim edge {x, y}
    takes ((x + y) mod 2k) // 2.  Cycle i is the zigzag i, i + 1, i - 1,
    i + 2, ... on 0..2k-1 (mod 2k), whose consecutive sums alternate 2i + 1
    and 2i, with its two ends, i and i + k, joined to the hub."""
    if k < 1:
        raise ValidationError("BAD_K", f"need k >= 1, got {k}")
    hub = 2 * k
    return tuple(x % k if y == hub else (x + y) % hub // 2
                 for x, y in complete_edges(hub + 1))


def _verify_hamilton_cycles(classes: Iterable[Graph]) -> None:
    """Each class a Hamilton cycle of its K_n: 2-regular and connected."""
    for g in classes:
        if any(g.degree(v) != 2 for v in range(g.n)):
            raise VerificationError("hamilton-cycle", "class is not a 2-regular spanning cycle")
        if len(connected_components(g)) != 1:
            raise VerificationError("hamilton-cycle", "class is disconnected")


def galaxy_colors(k: int) -> tuple[int, ...]:
    """The galaxy cover of K_{2k}, one color per edge {x, y}, x < y, of
    complete_edges(2k): k (the perfect matching) if y - x = k, else x mod k
    if y - x < k and y mod k if y - x > k.  Class i < k is the stars at i
    and i + k, each toward its next k - 1 vertices mod 2k, so a shorter edge
    hangs from x and a longer one, wrapping round, from y."""
    if k < 2:
        raise ValidationError("BAD_K", f"need k >= 2, got {k}")
    return tuple(k if y - x == k else (x if y - x < k else y) % k
                 for x, y in complete_edges(2 * k))


def _verify_star_forests(classes: Iterable[Graph]) -> None:
    """Each class a star forest: every edge has a leaf end."""
    for g in classes:
        if any(g.degree(u) > 1 and g.degree(v) > 1 for u, v in g.edges()):
            raise VerificationError("star-forest", "class is not a star forest")


# Six generalized factors decomposing the 55 edges of K_11 (1-based vertex
# labels; a hand-checked transcription, which the `k11` certificate check
# verifies on every run).  Four rows are three triangles plus an edge, one is
# two triangles, a 2-edge path and an edge, one is three 2-edge paths.
_K11_FACTORS_1BASED: tuple[tuple[tuple[int, int], ...], ...] = (
    ((1, 4), (1, 7), (4, 7), (2, 5), (2, 8), (5, 8), (3, 6), (3, 9), (6, 9), (10, 11)),
    ((2, 6), (2, 10), (6, 10), (3, 4), (3, 11), (4, 11), (7, 8), (7, 9), (8, 9), (1, 5)),
    ((1, 9), (1, 11), (9, 11), (3, 8), (3, 10), (8, 10), (4, 5), (4, 6), (5, 6), (2, 7)),
    ((5, 9), (5, 10), (9, 10), (6, 7), (6, 11), (7, 11), (1, 2), (1, 3), (2, 3), (4, 8)),
    ((1, 6), (1, 8), (6, 8), (2, 4), (2, 9), (4, 9), (3, 5), (5, 11), (7, 10)),
    ((1, 10), (4, 10), (2, 11), (8, 11), (3, 7), (5, 7)),
)


def k11_colors() -> tuple[int, ...]:
    """The six generalized factors of K_11, one color per edge {u, v} of
    complete_edges(11): the row of _K11_FACTORS_1BASED that holds
    (u + 1, v + 1).  This certifies that eleven pairwise-adjacent vertices
    survive a union of six factors, the lower bound matching
    chi_r_report(6); _verify_factor_shapes checks each class."""
    row = {(u - 1, v - 1): c for c, fac in enumerate(_K11_FACTORS_1BASED) for u, v in fac}
    return tuple(row[e] for e in complete_edges(11))


# -- chi_r reporting ------------------------------------------------------------


DEFAULT_DELTA0 = (10**14 + 1) // 2
A0_EXCEPTIONS = frozenset({3, 6, 18, 21, 24, 30, 33, 39, 42, 51, 66})


@dataclass(frozen=True)
class ChiReport:
    """Best known bounds on the maximum chromatic number of a union of r
    generalized triangle factors."""

    r: int
    lower: int
    upper: int
    status: str  # EXACT | INTERVAL | CONDITIONAL
    delta0: int
    note: str = ""


def chi_r_report(r: int, delta0: int = DEFAULT_DELTA0) -> ChiReport:
    """Exact value or interval for the extremal chromatic number at r factors.

    r = 1 (mod 3): exactly 2r+1.  r = 0 (mod 3): exactly 2r except for the
    eleven exceptional r where only [2r-1, 2r] is known and the question is
    open.  r = 2 (mod 3): 3 at r=2; for r at or above the delta0 threshold
    the value 2r-1 holds conditionally on that threshold; in between, the
    interval [2r-1, 2r].
    """
    if r < 1:
        raise ValidationError("OUT_OF_RANGE", f"need r >= 1, got {r}")
    if delta0 < 1:
        raise ValidationError("OUT_OF_RANGE", "delta0 must be positive")
    if r % 3 == 1:
        return ChiReport(r, 2 * r + 1, 2 * r + 1, "EXACT", delta0)
    if r % 3 == 0:
        if r in A0_EXCEPTIONS:
            return ChiReport(r, 2 * r - 1, 2 * r, "INTERVAL", delta0,
                             note="open exceptional case")
        return ChiReport(r, 2 * r, 2 * r, "EXACT", delta0)
    if r == 2:
        return ChiReport(r, 3, 3, "EXACT", delta0)
    if r >= delta0:
        return ChiReport(r, 2 * r - 1, 2 * r - 1, "CONDITIONAL", delta0,
                         note="assumes the delta0 degree threshold")
    return ChiReport(r, 2 * r - 1, 2 * r, "INTERVAL", delta0,
                     note=f"exact value known only from r >= delta0 = {delta0}")


def random_factor(n: int, properness: str = GENERALIZED, seed: int = 0) -> Graph:
    """Seed-deterministic random factor on n vertices."""
    rng = random.Random(seed)
    if properness == PROPER:
        if n % 3 != 0:
            raise ValidationError("BAD_N", f"proper factors need 3 | n, got {n}")
        perm = list(range(n))
        rng.shuffle(perm)
        edges = []
        for i in range(0, n, 3):
            a, b, c = perm[i:i + 3]
            edges.extend([(a, b), (a, c), (b, c)])
        return build_graph(n, edges)
    if properness != GENERALIZED:
        raise ValidationError("OUT_OF_RANGE", f"unknown properness {properness!r}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    i = 0
    while i < n:
        size = rng.choice([s for s in (1, 2, 3) if s <= n - i])
        block = perm[i:i + size]
        if size == 2:
            edges.append((block[0], block[1]))
        elif size == 3:
            if rng.random() < 0.5:
                a, b, c = block
                edges.extend([(a, b), (a, c), (b, c)])
            else:
                center = rng.randrange(3)
                others = [block[t] for t in range(3) if t != center]
                edges.extend([(block[center], others[0]), (block[center], others[1])])
        i += size
    return build_graph(n, edges)
