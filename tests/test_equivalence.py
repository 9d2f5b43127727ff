"""The degree and counting bounds change node counts, never answers.

The tables in ``tests/tables`` were measured before either bound existed:

- ``cover_search.json``: every ``cover_search`` over n <= 9, r <= 5, both
  modes and both properness values, at budget 100,000, as
  [n, r, properness, mode, outcome, nodes, witness masks];
- ``max_cover.json``: ``max_coverable_edges`` over n <= 9, r <= 4, as
  [n, r, value, nodes, witness masks].  Its node and witness columns were
  remeasured when the search began from a greedy cover and stopped at the
  edge bound; the value column stayed byte-identical;
- ``compute_c_k.json``: ``compute_c_k`` over the pinned and the closed-form
  cases, as [family, k, value, witness assignment, witness nodes,
  refutation nodes].  Its witness and node columns were remeasured when the
  c_k search began sorting vertex 0's row; no value moved, and no
  refutation gained a node.  The witness columns were remeasured again when
  that row began opening a new colour before repeating one, and once more
  for the rows whose witness compute_c_k now builds from Walecki's
  Hamilton cycles in 0 nodes; both times the value and refutation columns
  stayed byte-identical.

A bound may only remove nodes: each cover search keeps its outcome and
witness, and spends no more nodes than it did.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ramseylab.errors import BudgetExceededError
from ramseylab.factor_lab import _edge_mask, cover_search, max_coverable_edges
from ramseylab.ramsey_search import compute_c_k, parse_family

TABLES = Path(__file__).resolve().parent / "tables"


def _table(name: str) -> list[list]:
    return json.loads((TABLES / name).read_text(encoding="utf-8"))


def test_cover_search_keeps_outcomes_and_witnesses():
    for n, r, properness, mode, outcome, nodes, masks in _table("cover_search.json"):
        case = (n, r, properness, mode)
        try:
            res = cover_search(*case, budget=100_000)
        except BudgetExceededError as exc:
            assert (outcome, exc.partial["nodes"]) == ("UNKNOWN", nodes), case
            continue
        found = None if res.factors is None else [_edge_mask(g) for g in res.factors]
        assert outcome == ("NOT_EXISTS" if found is None else "EXISTS"), case
        assert found == masks and res.nodes <= nodes, case


def test_max_cover_keeps_its_nodes():
    for n, r, value, nodes, masks in _table("max_cover.json"):
        res = max_coverable_edges(n, r)
        found = [_edge_mask(g) for g in res.factors]
        assert (res.value, res.nodes, found) == (value, nodes, masks), (n, r)


@pytest.mark.parametrize("row", _table("compute_c_k.json"), ids=lambda row: f"{row[0]}-{row[1]}")
def test_compute_c_k_keeps_values_and_witnesses(row):
    spec, k, value, assignment, witness_nodes, refutation_nodes = row
    res = compute_c_k(parse_family(spec), k)
    assert (res.value, "".join(map(str, res.witness.assignment)), res.witness_nodes) == (
        value, assignment, witness_nodes)
    assert res.refutation_nodes <= refutation_nodes
