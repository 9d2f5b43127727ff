"""The degree and counting bounds change node counts, never answers.

The tables in ``tests/tables`` were measured before either bound existed:

- ``cover_search.json``: every ``cover_search`` over n <= 9, r <= 5, both
  modes and both properness values, at budget 100,000, as
  [n, r, properness, mode, outcome, nodes, witness masks].  The rows that
  moved were remeasured when every search began to take its first factor
  in descending mask order and to run r = 1 and 3 not dividing n through
  the search: one node at r = 1 and for proper factors with 3 not dividing
  n, other node counts and witnesses of generalized covers, and generalized
  covers (8, 5) and (9, 5) settled instead of UNKNOWN;
- ``max_cover.json``: ``max_coverable_edges`` over n <= 9, r <= 4, as
  [n, r, value, nodes, witness masks].  Its node and witness columns were
  remeasured when the search began from a greedy cover and stopped at the
  edge bound, and the (7, 4) row again with the descending first factor;
  the value column stayed byte-identical;
- ``compute_c_k.json``: ``compute_c_k`` over the pinned and the closed-form
  cases, as [family, k, value, witness assignment, witness nodes,
  refutation nodes].  Its witness and node columns were remeasured when the
  c_k search began sorting vertex 0's row; no value moved, and no
  refutation gained a node.  The witness columns were remeasured again when
  that row began opening a new colour before repeating one, and once more
  for the rows whose witness compute_c_k now builds from Walecki's
  Hamilton cycles in 0 nodes; both times the value and refutation columns
  stayed byte-identical;
- ``mono_free.json``: ``verify_mono_free`` over seeded random colourings of
  K_n and of random graphs on n <= 8 vertices, for families of every kind,
  with dense palettes and sparse ones such as {5, 9, 2**70}, as [family, n,
  base adjacency masks, palette size, assignment, ok, colour, pattern token,
  vertices].  It was measured before the re-check began to build every
  colour class in one sweep.

A bound may only remove nodes: each cover search keeps its outcome and
witness, and spends no more nodes than it did.  A change meant to move
rows regenerates the tables with ``PYTHONPATH=src python
tests/test_equivalence.py``: it rewrites ``mono_free.json`` whole, and in
``cover_search.json`` and ``max_cover.json`` only the rows that no longer
pass, printing each.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from ramseylab.errors import BudgetExceededError
from ramseylab.factor_lab import _edge_mask, cover_search, max_coverable_edges
from ramseylab.graph_core import Graph, build_graph, complete_graph
from ramseylab.ramsey_search import compute_c_k, parse_family, verify_mono_free

TABLES = Path(__file__).resolve().parent / "tables"


def _table(name: str) -> list[list]:
    return json.loads((TABLES / name).read_text(encoding="utf-8"))


def cover_row(n: int, r: int, properness: str, mode: str) -> list:
    """A ``cover_search.json`` row, from the search as it stands."""
    case = [n, r, properness, mode]
    try:
        res = cover_search(*case, budget=100_000)
    except BudgetExceededError as exc:
        return case + ["UNKNOWN", exc.partial["nodes"], None]
    if res.factors is None:
        return case + ["NOT_EXISTS", res.nodes, None]
    return case + ["EXISTS", res.nodes, [_edge_mask(g) for g in res.factors]]


def max_cover_row(n: int, r: int) -> list:
    """A ``max_cover.json`` row, from the search as it stands."""
    res = max_coverable_edges(n, r)
    return [n, r, res.value, res.nodes, [_edge_mask(g) for g in res.factors]]


# table -> (cells that name the case, the row as measured for that case)
FACTOR_TABLES = {"cover_search.json": (4, cover_row), "max_cover.json": (2, max_cover_row)}


def _passes(name: str, row: list, measured: list) -> bool:
    """A settled cover search may spend fewer nodes than its row; every other
    cell, and every cell of the other tables, must match."""
    if name == "cover_search.json" and measured[4] != "UNKNOWN":
        return row[:5] + row[6:] == measured[:5] + measured[6:] and measured[5] <= row[5]
    return row == measured


def _check(name: str) -> None:
    width, measure = FACTOR_TABLES[name]
    for row in _table(name):
        assert _passes(name, row, measure(*row[:width])), row[:width]


def test_cover_search_keeps_outcomes_and_witnesses():
    _check("cover_search.json")


def test_max_cover_keeps_its_nodes():
    _check("max_cover.json")


@pytest.mark.parametrize("row", _table("compute_c_k.json"), ids=lambda row: f"{row[0]}-{row[1]}")
def test_compute_c_k_keeps_values_and_witnesses(row):
    spec, k, value, assignment, witness_nodes, refutation_nodes = row
    res = compute_c_k(parse_family(spec), k)
    assert (res.value, "".join(map(str, res.witness)), res.witness_nodes) == (
        value, assignment, witness_nodes)
    assert res.refutation_nodes <= refutation_nodes


MONO_FREE_FAMILIES = (
    "K3", "S3", "STAR:1", "STAR:3", "P4", "PATH:2", "PATH:4", "MATCH:2", "MATCH:3",
    "EXPLICIT[0-1;1-2;2-3;0-3|4]", "EXPLICIT[0-1;0-2;1-2;2-3|4]", "EXPLICIT[0-1;2-3|5]",
    "EXPLICIT[0-1;1-2;2-3|4]", "F4", "F7", "P4,K3", "MATCH:2,S3",
    "K3,EXPLICIT[0-1;1-2;2-3;0-3|4],PATH:3",
)
MONO_FREE_PALETTES = ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (5, 9, 2 ** 70),
                      (0, 2 ** 70), (3, 11, 12, 40))


def _report_cells(bad: tuple | None) -> list:
    """verify_mono_free's verdict as the table writes it: whether the
    coloring passes, then the color, pattern token and copy it failed on."""
    if bad is None:
        return [True, None, None, None]
    color, pattern, copy = bad
    return [False, color, pattern.token, list(copy)]


def mono_free_rows() -> list[list]:
    """Every row of ``mono_free.json``, from the re-check as it stands."""
    rng = random.Random("mono-free")
    rows = []
    for spec in MONO_FREE_FAMILIES:
        fam = parse_family(spec)
        for n in range(2, 9):
            for base in (complete_graph(n), None):
                if base is None:
                    p = rng.random()
                    base = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < p])
                palette = rng.choice(MONO_FREE_PALETTES)
                k = palette[-1] + 1
                assignment = [rng.choice(palette) for _ in range(base.m)]
                bad = verify_mono_free(n, base.edges(), assignment, fam)
                rows.append([spec, n, list(base.adj), k, assignment, *_report_cells(bad)])
    return rows


def test_verify_mono_free_keeps_its_reports():
    verdicts = set()
    for spec, n, adj, k, assignment, *cells in _table("mono_free.json"):
        # one color per edge of the base, each below k, the palette size
        edges = Graph(n, tuple(adj)).edges()
        assert len(assignment) == len(edges) and all(0 <= c < k for c in assignment)
        bad = verify_mono_free(n, edges, assignment, parse_family(spec))
        assert _report_cells(bad) == cells, (spec, n, adj, assignment)
        verdicts.add(cells[0])
    assert verdicts == {True, False}


def _write(name: str, rows: list[list], **dumps) -> None:
    (TABLES / name).write_text(
        "[\n" + ",\n".join(json.dumps(row, **dumps) for row in rows) + "\n]\n",
        encoding="utf-8")


def regenerate() -> None:
    """Rewrite mono_free.json whole, and in the factor tables each row that
    no longer passes, printing it."""
    _write("mono_free.json", mono_free_rows(), separators=(",", ":"))
    for name, (width, measure) in sorted(FACTOR_TABLES.items()):
        rows = []
        for row in _table(name):
            measured = measure(*row[:width])
            if not _passes(name, row, measured):
                print(f"{name} {row[:width]}: {row[width:-1]} -> {measured[width:-1]}, "
                      f"witness {'kept' if row[-1] == measured[-1] else 'moved'}")
                row = measured
            rows.append(row)
        _write(name, rows)


if __name__ == "__main__":
    regenerate()
