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

A colouring search split across forked workers must give every row too, and
cut where the sequential search cuts; these tests claim two CPUs whatever the
machine has, so they split on one CPU as well.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
from pathlib import Path

import pytest

from ramseylab import graph_core
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


# -- a split colouring search ------------------------------------------------------


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Two CPUs and no threshold: every search long enough splits; the list
    grows by one per fork."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(graph_core, "_SPLIT_AFTER", 0)
    calls: list[int] = []
    fork = os.fork

    def counted() -> int:
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _rows(labels=None):
    return [row for row in _table("chromatic.json") if labels is None or row[0] in labels]


@pytest.mark.parametrize("after", [0, 50, 500])
def test_split_search_keeps_every_row(monkeypatch, forks, after):
    monkeypatch.setattr(graph_core, "_SPLIT_AFTER", after)
    for label, n, adj, (per_k, value, witness) in _rows():
        g = Graph(n, tuple(adj))
        for k, found, nodes in per_k:
            bud = NodeBudget()
            assert [_exact_k_coloring(g, k, bud), bud.spent] == [found, nodes], (label, k)
            _no_child_left()
        res = chromatic_number(g)
        assert [res.value, list(res.colors)] == [value, witness], label
        _no_child_left()
    assert forks


_MYCIELSKI = ["M1(C5)/0", "M2(C9)/0", "M2(C9)/1", "M2(C11)/0", "M2(C11)/1"]


def _outcome(g: Graph, k: int, limit: int, spent: int, split: bool) -> list:
    bud = NodeBudget(limit)
    bud.spent = spent
    try:
        found = _exact_k_coloring(g, k, bud, split=split)
    except BudgetExceededError as exc:
        return ["cut", exc.partial, bud.spent]
    return [found, bud.spent]


@pytest.mark.parametrize("row", _rows(_MYCIELSKI + ["random/251", "L(truncated-plane-5)"]),
                         ids=lambda row: row[0])
def test_split_search_cuts_where_the_sequential_one_does(forks, row):
    label, n, adj, (per_k, _, _) = row
    g = Graph(n, tuple(adj))
    for k, _, nodes in per_k:
        for limit in sorted({1, 10, 100, 1000, nodes - 1, nodes}):
            for spent in (0, 7):  # the call starts on a budget partly spent
                assert (_outcome(g, k, spent + limit, spent, True)
                        == _outcome(g, k, spent + limit, spent, False)), (k, limit, spent)
                _no_child_left()
    assert forks


@pytest.mark.parametrize("label, edge", [("M2(C9)/0", (4, 25)), ("M2(C11)/0", (0, 38))])
def test_split_search_finds_the_colouring_the_sequential_one_finds(forks, label, edge):
    # a 5-critical graph less one edge is 4-colourable, but most of its tree
    # still fails, so the colouring lies in a late piece
    n, adj = _CHROMATIC[label]
    u, v = edge
    masks = list(adj)
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    g = Graph(n, tuple(masks))
    found, nodes = _outcome(g, 4, 10**8, 0, False)
    assert found is not None and nodes > 5000
    for limit in (10**8, 1000, nodes - 1, nodes):
        assert _outcome(g, 4, limit, 0, True) == _outcome(g, 4, limit, 0, False), limit
        _no_child_left()
    assert forks


def test_more_workers_than_cpus_claim_every_piece_once(monkeypatch, forks):
    # a lost update of the shared counter leaves a piece unclaimed, which
    # reads as a cut, or searched twice, which the node count would not show
    # but a skipped number would; seven workers contend for each claim
    _cpus(monkeypatch, 8)

    def timeout(signum, frame):
        raise TimeoutError("a split search hung")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        for label, n, adj, (per_k, _, _) in _rows(_MYCIELSKI):
            for k, found, nodes in per_k:
                bud = NodeBudget()
                assert ([_exact_k_coloring(Graph(n, tuple(adj)), k, bud), bud.spent]
                        == [found, nodes]), (label, k)
                _no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) % 7 == 0 and forks


def _never(*args):
    raise AssertionError("forked")


@pytest.mark.parametrize("row", _rows(_MYCIELSKI), ids=lambda row: row[0])
def test_one_cpu_never_forks(monkeypatch, row):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(graph_core, "_SPLIT_AFTER", 0)
    monkeypatch.setattr(os, "fork", _never)
    label, n, adj, (per_k, _, _) = row
    for k, found, nodes in per_k:
        bud = NodeBudget()
        assert [_exact_k_coloring(Graph(n, tuple(adj)), k, bud), bud.spent] == [found, nodes]


def test_a_second_thread_means_no_fork(monkeypatch, forks):
    monkeypatch.setattr(os, "fork", _never)
    (label, n, adj, (per_k, _, _)), = _rows(["M2(C9)/0"])
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        for k, found, nodes in per_k:
            bud = NodeBudget()
            assert [_exact_k_coloring(Graph(n, tuple(adj)), k, bud), bud.spent] == [found, nodes]
    finally:
        done.set()
        thread.join()


def test_a_dead_worker_means_a_search_on_one_cpu(monkeypatch, forks):
    # a worker that finds its parent gone exits, so the parent sees it die
    monkeypatch.setattr(os, "getppid", lambda: -1)
    (label, n, adj, (per_k, _, _)), = _rows(["M2(C11)/0"])
    for k, found, nodes in per_k:
        bud = NodeBudget()
        assert [_exact_k_coloring(Graph(n, tuple(adj)), k, bud), bud.spent] == [found, nodes]
        _no_child_left()
    assert forks


def test_an_interrupted_parent_reaps_its_workers(monkeypatch, forks):
    finish = graph_core._Split.finish

    def interrupted(self, colors, whole):
        if os.getpid() == self.parent:
            raise KeyboardInterrupt
        return finish(self, colors, whole)

    monkeypatch.setattr(graph_core._Split, "finish", interrupted)
    (label, n, adj, _), = _rows(["M2(C11)/0"])
    with pytest.raises(KeyboardInterrupt):
        _exact_k_coloring(Graph(n, tuple(adj)), 4, NodeBudget())
    _no_child_left()
    assert forks


if __name__ == "__main__":
    regenerate()
