"""The colouring and matching searches keep their nodes and witnesses.

The tables in ``tests/tables`` were measured on the recursive searches
that the explicit-stack kernels replaced; the refutation nodes of the six
Mycielski rows were measured again when the colouring search began to
keep only Grundy colourings:

- ``chromatic.json``: per graph, its adjacency masks, then for each k from 1
  to χ + 1 the ``_exact_k_coloring`` result (a colouring or None) and its
  node count, then the value and witness of ``chromatic_number``.  The
  graphs are seeded relabelings of M(C5), M(M(C9)) and M(M(C11)), 300
  seeded random graphs on at most 14 vertices, and the line graphs of the
  truncated planes of order 2, 3 and 5.
- ``matching.json``: per hypergraph, the size, witness and nodes of
  ``max_matching``, and at budgets 1, 10 and 100 the outcome, nodes, size
  or proven lower bound, and witness.  The
  hypergraphs are ``ach_counterexample(d)`` for d = 4, 5, 6, the claim51
  inputs of the benchmark and seeded random r-partite hypergraphs: 80
  with r = 1..4 and at most 16 edges, 20 with r = 2..4 and 20 to 40 edges.

Every row must match exactly.  A change to a search that moves its nodes
regenerates both tables with
``PYTHONPATH=src python tests/test_search_tables.py``, which prints each
moved row and whether only its node cells moved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from ramseylab.errors import BudgetExceededError
from ramseylab.extremal import ach_counterexample, truncated_plane
from ramseylab.graph_core import Graph, NodeBudget, _exact_k_coloring, chromatic_number
from ramseylab.hypergraph_lab import (
    PartiteHypergraph,
    hypergraph_from_text,
    line_graph,
    make_hypergraph,
    max_matching,
)

TABLES = Path(__file__).resolve().parent / "tables"
FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"
BUDGETS = (1, 10, 100)


def _table(name: str) -> list[list]:
    return json.loads((TABLES / name).read_text(encoding="utf-8"))


# -- inputs ---------------------------------------------------------------------


def _adjacency(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _mycielski(n: int, edges, times: int) -> tuple[int, list[tuple[int, int]]]:
    for _ in range(times):
        new = []
        for u, v in edges:
            new += [(u, v), (u, n + v), (v, n + u)]
        new += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, new
    return n, edges


def chromatic_inputs() -> list[tuple[str, int, tuple[int, ...]]]:
    """(label, n, adjacency masks) of every graph in ``chromatic.json``."""
    out = []
    for length, times, copies in ((5, 1, 2), (9, 2, 2), (11, 2, 2)):
        cycle = [(i, (i + 1) % length) for i in range(length)]
        n, edges = _mycielski(length, cycle, times)
        for copy in range(copies):
            perm = list(range(n))
            random.Random(f"mycielski/{length}/{times}/{copy}").shuffle(perm)
            out.append((f"M{times}(C{length})/{copy}", n,
                        _adjacency(n, [(perm[u], perm[v]) for u, v in edges])))
    rng = random.Random("chromatic/random")
    for i in range(300):
        n = rng.randint(1, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out.append((f"random/{i}", n, _adjacency(n, edges)))
    for p in (2, 3, 5):
        g = line_graph(truncated_plane(p))
        out.append((f"L(truncated-plane-{p})", g.n, g.adj))
    return out


def chromatic_row(n: int, adj: tuple[int, ...]) -> list:
    g = Graph(n, adj)
    res = chromatic_number(g)
    per_k = []
    for k in range(1, res.value + 2):
        bud = NodeBudget()
        found = _exact_k_coloring(g, k, bud)
        per_k.append([k, found, bud.spent])
    return [per_k, res.value, list(res.colors)]


def matching_inputs() -> list[tuple[str, PartiteHypergraph]]:
    """(label, hypergraph) of every row in ``matching.json``."""
    out = [(f"ach/{d}", ach_counterexample(d)[0]) for d in (4, 5, 6)]
    for stem in ("claim51-p2-m1", "claim51-p2-m3", "claim51-p3-m1", "claim51-p3-m2"):
        out.append((stem, hypergraph_from_text(
            (FIXTURES / f"{stem}.txt").read_text(encoding="utf-8"))))
    rng = random.Random("matching/random")
    for i in range(80):
        r = 1 + i % 4
        sizes = [rng.randint(1, 5) for _ in range(r)]
        m = rng.randint(0, 16)
        edges = [tuple(rng.randrange(s) for s in sizes) for _ in range(m)]
        out.append((f"random/{i}", make_hypergraph(sizes, edges)))
    for i in range(20):
        r = 2 + i % 3
        sizes = [rng.randint(4, 8) for _ in range(r)]
        edges = [tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(20, 40))]
        out.append((f"random-large/{i}", make_hypergraph(sizes, edges)))
    return out


def matching_row(h: PartiteHypergraph) -> list:
    res = max_matching(h)
    cuts = []
    for budget in BUDGETS:
        try:
            cut = max_matching(h, budget=budget)
            cuts.append([budget, "VALUE", cut.nodes, cut.size, list(cut.witness)])
        except BudgetExceededError as exc:
            part = exc.partial
            cuts.append([budget, "UNKNOWN", part["nodes"], part["lower"],
                         list(part["witness"])])
    return [res.size, list(res.witness), res.nodes, cuts]


# -- the tables -----------------------------------------------------------------


_CHROMATIC = {label: (n, adj) for label, n, adj in chromatic_inputs()}
_MATCHING = dict(matching_inputs())


def _results(name: str, row: list) -> list:
    """A table row with its node cells left out."""
    if name == "chromatic.json":
        label, n, adj, (per_k, value, witness) = row
        return [label, n, adj, [found for _, found, _ in per_k], value, witness]
    label, (size, witness, _, cuts) = row
    return [label, size, witness, [[budget, outcome, *rest] for budget, outcome, _, *rest in cuts]]


def regenerate() -> None:
    """Rewrite both tables from the searches as they stand; print the moved rows."""
    for name, rows in (
            ("chromatic.json", [[label, n, list(adj), chromatic_row(n, adj)]
                                for label, (n, adj) in _CHROMATIC.items()]),
            ("matching.json", [[label, matching_row(h)] for label, h in _MATCHING.items()])):
        old = {row[0]: row for row in _table(name)}
        for row in rows:
            before = old.get(row[0])
            if before != row:
                only_nodes = before is not None and _results(name, before) == _results(name, row)
                print(f"{name} {row[0]}: {'only node cells' if only_nodes else 'RESULTS'} moved")
        (TABLES / name).write_text(json.dumps(rows, separators=(",", ":")) + "\n",
                                   encoding="utf-8")


def test_tables_cover_every_input():
    assert [row[0] for row in _table("chromatic.json")] == list(_CHROMATIC)
    assert [row[0] for row in _table("matching.json")] == list(_MATCHING)


@pytest.mark.parametrize("row", _table("chromatic.json"), ids=lambda row: row[0])
def test_colouring_search_keeps_its_nodes_and_witnesses(row):
    label, n, adj, expected = row
    assert (n, tuple(adj)) == _CHROMATIC[label]
    assert chromatic_row(n, tuple(adj)) == expected


@pytest.mark.parametrize("row", _table("matching.json"), ids=lambda row: row[0])
def test_matching_search_keeps_its_nodes_and_witnesses(row):
    label, expected = row
    assert matching_row(_MATCHING[label]) == expected


if __name__ == "__main__":
    regenerate()
