"""Edited golden certificates that `verify` must reject with exit 1.

Each case takes a golden certificate, changes one claim or one witness
object, and runs `verify` on the result.  The verdicts pin the one check
per object that `verify` applies; a forgery that prints `true` is a false
claim accepted.
"""

from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path
from typing import Callable

import pytest

from ramseylab import certificates
from ramseylab.cli import COMMANDS, run
from ramseylab.factor_lab import COVER_SCHEME, DECOMP_SCHEME
from ramseylab.ramsey_search import ClosedForm

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _verify(tmp_path, capsys, cert: dict) -> tuple[int, str, str]:
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    code = run(["verify", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rejected(tmp_path, capsys, cert: dict) -> str:
    code, out, err = _verify(tmp_path, capsys, cert)
    assert (code, out) == (1, ""), err
    assert err.startswith("error [")
    return err


_VALUED = sorted(path.stem for path in GOLDEN.glob("*.json")
                 if isinstance(json.loads(path.read_text(encoding="utf-8"))["value"], int))


def test_every_valued_golden_is_counted():
    assert len(_VALUED) == 24


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("name", _VALUED)
def test_forged_value_is_rejected(tmp_path, capsys, name, delta):
    cert = _golden(name)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["value"] += delta
    _rejected(tmp_path, capsys, cert)


def test_edgeless_chromatic_index_forgery_is_rejected(tmp_path, capsys):
    hpath = tmp_path / "edgeless.txt"
    hpath.write_text("2\n1 1\n")
    assert run(["chromatic-index", "--hypergraph", str(hpath), "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["value"] == 0
    cert["value"] = 5
    assert "check color-count" in _rejected(tmp_path, capsys, cert)


def test_empty_chi_forgery_is_rejected(tmp_path, capsys):
    assert run(["chi", "--complete", "0", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    cert["value"] = 5
    assert "check color-count" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("text", ["6 3\n0 1\n1 2\n2 3\n", "6 3\n0 1\n0 2\n1 2\n"],
                         ids=["p4", "triangle"])
def test_galaxy_class_must_be_a_star_forest(tmp_path, capsys, text):
    cert = _golden("galaxy")
    cert["witness"]["classes"][0] = text
    assert "check star-forest" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("edit", ["short", "color"])
def test_ramsey_assignment_must_color_every_edge_in_the_palette(tmp_path, capsys, edit):
    cert = _golden("ramsey")
    assignment = cert["witness"]["assignment"]
    if edit == "short":
        assignment.pop()
    else:
        assignment[0] = cert["parameters"]["colors"]
    _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name, family, text", [
    ("ramsey-k3-explicit-p4", "K3, @{}", "4 3\n0 1\n1 2\n2 3\n"),
    ("closed-form", "@{}", "4 3\n0 1\n0 2\n0 3\n"),
], ids=["ramsey", "closed-form"])
def test_certificate_family_names_no_file(tmp_path, capsys, name, family, text):
    # with the pattern read from the file when verify runs, both printed true
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(text)
    cert = _golden(name)
    cert["parameters"]["family"] = family.format(pattern)
    assert "check family-inline" in _rejected(tmp_path, capsys, cert)


def test_bijection_factor_must_be_proper(tmp_path, capsys):
    cert = _golden("bijection")
    head, *edges = cert["witness"]["factors"][0].splitlines()
    n, m = head.split()
    # drop one triangle edge: the factor keeps its vertices but not its shape
    cert["witness"]["factors"][0] = "\n".join([f"{n} {int(m) - 1}"] + edges[1:]) + "\n"
    _rejected(tmp_path, capsys, cert)


def _edges(cert: dict) -> tuple[list[str], list[tuple[int, ...]]]:
    head0, head1, *lines = cert["witness"]["hypergraph"].splitlines()
    return [head0, head1], [tuple(map(int, ln.split())) for ln in lines]


def _with_edges(cert: dict, head: list[str], edges: list[tuple[int, ...]]) -> dict:
    bad = copy.deepcopy(cert)
    bad["witness"]["hypergraph"] = "\n".join(
        head + [" ".join(map(str, e)) for e in edges]) + "\n"
    return bad


@pytest.mark.parametrize("name", ["ach", "truncated-plane", "claim51"])
def test_construction_with_a_repeated_edge_is_rejected(tmp_path, capsys, name):
    cert = _golden(name)
    head, edges = _edges(cert)
    edges[1] = edges[0]
    _rejected(tmp_path, capsys, _with_edges(cert, head, edges))


@pytest.mark.parametrize("name", ["ach", "truncated-plane", "claim51"])
def test_construction_with_a_disjoint_pair_is_rejected(tmp_path, capsys, name):
    cert = _golden(name)
    head, edges = _edges(cert)
    sizes = list(map(int, head[1].split()))
    edges[1] = tuple((x + 1) % s for x, s in zip(edges[0], sizes))
    _rejected(tmp_path, capsys, _with_edges(cert, head, edges))


def test_ach_label_class_with_a_disjoint_pair_is_rejected(tmp_path, capsys):
    cert = _golden("ach")
    _, edges = _edges(cert)
    labels = cert["witness"]["labels"]
    a, b = next((a, b) for a in range(len(edges)) for b in range(len(edges))
                if labels[a] != labels[b] and all(x != y for x, y in zip(edges[a], edges[b])))
    labels[a] = labels[b]
    assert "check label-intersect" in _rejected(tmp_path, capsys, cert)


def _swap_across_lines(lines: list[list[int]]) -> None:
    # a point of line 0 and a point of line 1 trade places: every line keeps
    # p+1 points and every point p+1 lines, but two points now share two lines
    a = next(x for x in lines[0] if x not in lines[1])
    b = next(x for x in lines[1] if x not in lines[0])
    lines[0][lines[0].index(a)], lines[1][lines[1].index(b)] = b, a


@pytest.mark.parametrize("check, edit", [
    ("line-count", lambda lines: lines.pop()),
    ("line-size", lambda lines: lines[0].pop()),
    ("point-degree", lambda lines: lines.__setitem__(1, list(lines[0]))),
    ("two-points", _swap_across_lines),
])
def test_plane_forgery_fails_its_axiom(tmp_path, capsys, check, edit):
    cert = _golden("plane")
    edit(cert["witness"]["lines"])
    assert f"check {check}:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("p, lines", [(1, [[0, 1], [0, 2], [1, 2]]), (0, [[0]]), (-1, [[]])],
                         ids=["p1", "p0", "p-1"])
def test_plane_of_non_prime_order_is_rejected(tmp_path, capsys, p, lines):
    # each passes every axiom for its order, but no order-p plane over Z_p exists
    cert = _golden("plane")
    cert["parameters"]["p"] = p
    cert["witness"]["lines"] = lines
    assert "check prime:" in _rejected(tmp_path, capsys, cert)


def test_plane_of_huge_prime_order_is_rejected_by_its_line_count(tmp_path, capsys):
    # trial division of 2**61 - 1 would take minutes; the line count, checked
    # first, rejects the three lines at once
    cert = _golden("plane")
    cert["parameters"]["p"] = 2 ** 61 - 1
    cert["witness"]["lines"] = [[0, 1], [0, 2], [1, 2]]
    assert "check line-count:" in _rejected(tmp_path, capsys, cert)


def test_max_cover_below_the_greedy_cover_is_rejected(tmp_path, capsys):
    # the third factor dropped: the witness covers the 10 edges claimed, but
    # the greedy cover of K_6 by 3 factors takes 13
    cert = _golden("max-cover")
    cert["witness"]["factors"][2] = "6 0\n"
    cert["value"] = 10
    assert "check greedy-cover:" in _rejected(tmp_path, capsys, cert)


def test_max_cover_beyond_the_searched_range_is_rejected(tmp_path, capsys):
    # the greedy packing of K_40 would take far too long to rebuild
    cert = _golden("max-cover")
    cert["parameters"]["n"] = 40
    cert["witness"]["factors"] = ["40 0\n"] * 3
    cert["value"] = 0
    assert "check n-range:" in _rejected(tmp_path, capsys, cert)


def test_max_cover_lower_above_its_witness_is_rejected(tmp_path, capsys):
    # the budget cut proves that 5 factors cover 55 edges of K_12 with the
    # cover in hand, not 1000; a lower bound without its cover proves nothing
    assert run(["max-cover", "--n", "12", "--r", "5", "--budget", "100",
                "--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["stats"]["lower"] == 55 and len(cert["witness"]["factors"]) == 5
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    forged = copy.deepcopy(cert)
    forged["stats"]["lower"] = 1000
    assert "check covered-count:" in _rejected(tmp_path, capsys, forged)
    cert["witness"] = None
    assert "check bounds-witness:" in _rejected(tmp_path, capsys, cert)


def test_max_cover_cut_before_its_greedy_cover_claims_no_lower(tmp_path, capsys):
    # 3 nodes do not finish the 5-factor greedy cover: no cover, no bound
    assert run(["max-cover", "--n", "12", "--r", "5", "--budget", "3",
                "--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["witness"] is None and "lower" not in cert["stats"]
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["stats"]["lower"] = 1
    assert "check bounds-witness:" in _rejected(tmp_path, capsys, cert)


def test_ramsey_lower_above_its_witness_is_rejected(tmp_path, capsys):
    # the budget cut proves c_4(K3,PATH:4) >= 7 with K_7's coloring, not >= 1000
    assert run(["ramsey", "--family", "K3,PATH:4", "--colors", "4", "--budget", "1000",
                "--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert (cert["stats"]["lower"], cert["witness"]["n"]) == (7, 7)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["stats"]["lower"] = 1000
    assert "check lower-witness:" in _rejected(tmp_path, capsys, cert)


def test_ramsey_lower_above_the_cap_is_rejected(tmp_path, capsys):
    # a lower bound of 5 would say K_5 was colored, but the scan stopped at the cap 4
    cert = _golden("ramsey-cap")
    cert["stats"]["lower"] = 5
    assert "check lower-witness:" in _rejected(tmp_path, capsys, cert)
    cert["parameters"]["cap"] = 3
    cert["stats"]["lower"] = 4
    assert "check lower-witness:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("edit", [{"witness": "search"}, {"witness": "k11"},
                                  {"witness": 0}, {"witness_nodes": 17}])
def test_ramsey_witness_source_must_be_a_construction(tmp_path, capsys, edit):
    cert = _golden("ramsey-k3-star2")
    assert cert["stats"]["witness"] == "walecki"
    cert["stats"].update(edit)
    assert "check witness-source:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("edit", ["colors", "value"])
def test_counted_ramsey_value_needs_value_plus_one_refuted(tmp_path, capsys, edit):
    # counting subset signatures refutes K_7 with 4 colors, but neither count
    # refutes K_7 with 5 colors, nor K_6 with 4, which the galaxy colors
    assert run(["ramsey", "--family", "F4", "--colors", "4", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    stats = cert["stats"]
    assert (cert["value"], stats["refutation"], stats["witness"]) == (6, "counting", "galaxy")
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    if edit == "colors":
        cert["parameters"]["colors"] = 5
    else:
        witness = cert["witness"]
        kept = [c for (u, v), c in zip(itertools.combinations(range(6), 2),
                                       witness["assignment"]) if v < 5]
        cert["value"], witness["n"], witness["assignment"] = 5, 5, kept
        del stats["witness"]
    assert "check counting-refutation:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("family, value", [("K3,PATH:4", 5), ("MATCH:2,STAR:3", 3)])
def test_counted_ramsey_value_below_c_k_is_rejected(tmp_path, capsys, family, value):
    # with 3 colors, c_3 is 6 and 4; the C4-or-tree bound lets K_6 through,
    # the star-or-triangle cover count K_4, and MATCH:2,STAR:3 has no exact
    # closed form, so only the count catches the smaller value
    assert run(["ramsey", "--family", family, "--colors", "3", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    witness, stats = cert["witness"], cert["stats"]
    assert cert["value"] == value + 1
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    kept = [c for (u, v), c in zip(itertools.combinations(range(value + 1), 2),
                                   witness["assignment"]) if v < value]
    cert["value"], witness["n"], witness["assignment"] = value, value, kept
    stats.update(refutation="counting", refutation_nodes=0)
    assert "check counting-refutation:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("colors", [4, 10**6])
def test_ramsey_value_must_equal_an_exact_closed_form(tmp_path, capsys, colors):
    # the F4 golden's K_4 coloring and its K_5 refutation count are for 3
    # colors; with more, the value is still 4, but c_k(F4) = 2k - 2 for k >= 3
    cert = _golden("ramsey")
    cert["parameters"]["colors"] = colors
    assert "check closed-form:" in _rejected(tmp_path, capsys, cert)


def test_ramsey_lower_must_not_exceed_an_exact_closed_form(tmp_path, capsys, monkeypatch):
    # with its coloring re-checked, a lower bound beats a true formula
    # never; a wrong formula is caught by the same comparison
    cert = _golden("ramsey-cap")
    assert (cert["outcome"], cert["stats"]["lower"]) == ("UNKNOWN", 4)
    monkeypatch.setattr(certificates, "closed_form_c_k", lambda fam, k: ClosedForm(3))
    assert "check closed-form:" in _rejected(tmp_path, capsys, cert)
    monkeypatch.setattr(certificates, "closed_form_c_k", lambda fam, k: ClosedForm(3, True))
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")


@pytest.mark.parametrize("key, size", [("r", 0), ("n", 0), ("n", 17)])
def test_cover_refutation_outside_the_searched_range_is_rejected(tmp_path, capsys, key, size):
    # cover_search never runs there, so no search vouches for the refutation
    cert = _golden("cover-refuted")
    cert["parameters"][key] = size
    assert "check cover-range:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name", ["cover-refuted", "cover-decomposition-refuted"])
def test_generalized_cover_refutation_at_most_chi_r_is_rejected(tmp_path, capsys, name):
    # c_3(F6) = chi_3 >= 5: three generalized factors decompose K_5
    cert = _golden(name)
    cert["parameters"]["n"] = 5
    assert "check chi-r-lower:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("argv", [
    ["chi-r", "--r", "4"],
    ["chi", "--complete", "5"],
    ["closed-form", "--family", "F6", "--colors", "5", "--delta0", "5"],
], ids=["chi-r", "chi", "closed-form"])
def test_delta0_must_be_the_one_in_force(tmp_path, capsys, argv):
    # the parameters set delta0 (or leave the default); the top-level copy must agree
    assert run(argv + ["--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["delta0"] = 1
    assert "check delta0:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name, scheme", [
    ("cover-refuted", "anything"),
    ("cover-refuted", DECOMP_SCHEME),
    ("cover-decomposition-refuted", COVER_SCHEME),
], ids=["anything", "decomposition-scheme", "cover-scheme"])
def test_cover_refutation_must_name_its_modes_scheme(tmp_path, capsys, name, scheme):
    # a refutation is vouched for by the search it ran, so it must name that search
    cert = _golden(name)
    cert["stats"]["scheme"] = scheme
    assert "check scheme-recorded:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name, key, forged", [
    ("cover-refuted", "nodes", "lots"),
    ("cover-refuted", "nodes", -5),
    ("ramsey", "refutation_nodes", None),
    ("ramsey", "refutation_nodes", "many"),
    ("ramsey", "witness_nodes", -1),
    ("ramsey-k3-star2", "witness_nodes", False),
], ids=["cover-text", "cover-negative", "ramsey-missing", "ramsey-text", "ramsey-negative",
        "ramsey-boolean"])
def test_search_node_counts_must_be_non_negative_integers(tmp_path, capsys, name, key, forged):
    # a refutation by search is vouched for only by its node count; None deletes it,
    # and a JSON false would equal a built witness's 0 nodes
    cert = _golden(name)
    assert isinstance(cert["stats"][key], int)
    if forged is None:
        del cert["stats"][key]
    else:
        cert["stats"][key] = forged
    assert "check exhaustion-stats:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("source, value, colors", [
    (["--path", "6"], 3, [0, 1, 2, 0, 1, 2]),
    (None, 2, [0, 1, 0, 1, 0]),  # five vertices, no edge
], ids=["path", "edgeless"])
def test_chi_above_a_coloring_found_without_branching_is_rejected(tmp_path, capsys, source,
                                                                 value, colors):
    if source is None:
        (tmp_path / "edgeless.txt").write_text("5 0\n")
        source = ["--graph", str(tmp_path / "edgeless.txt")]
    assert run(["chi", *source, "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    cert["value"], cert["witness"]["colors"] = value, colors
    assert "check bipartite:" in _rejected(tmp_path, capsys, cert)


def test_chromatic_index_above_a_two_coloring_is_rejected(tmp_path, capsys):
    # four edges in a path: the line graph is the path P4, with index 2
    hpath = tmp_path / "path4.txt"
    hpath.write_text("2\n4 4\n0 0\n0 1\n1 1\n1 2\n")
    assert run(["chromatic-index", "--hypergraph", str(hpath), "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["value"] == 2
    cert["value"], cert["witness"]["colors"] = 3, [0, 1, 2, 0]
    assert "check bipartite:" in _rejected(tmp_path, capsys, cert)


def test_chi_lower_bound_above_the_empty_graph_is_rejected(tmp_path, capsys):
    assert run(["chi", "--complete", "0", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    cert["outcome"], cert["value"] = "UNKNOWN", None
    cert["stats"].update(lower=3, upper=3)
    assert "check bipartite:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("edit, check", [
    ({"lower": 99, "upper": 1}, "color-bounds"),
    ({"lower": 31, "upper": 30}, "color-bounds"),
    ({}, "bounds-witness"),
], ids=["upper", "crossed", "no-witness"])
def test_chi_budget_cut_bounds_are_checked(tmp_path, capsys, edit, check):
    # the greedy coloring is the witness of upper
    assert run(["chi", "--complete", "30", "--budget", "3", "--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["stats"].update(edit)
    if not edit:
        cert["witness"] = None
    assert f"check {check}:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("argv, key, held, check", [
    (["clique", "--complete", "30", "--budget", "3"], "vertices", [27, 28, 29], "clique-size"),
    # the 2-partite path with 5 edges (i, i) listed after 4 edges (i+1, i),
    # which the greedy matching takes
    (["match", "--hypergraph", "path5.txt", "--budget", "1"], "matching", [0, 1, 2, 3],
     "matching-size"),
    (["cover", "--n", "10", "--r", "5", "--budget", "3"], None, None, "bounds-witness"),
], ids=["clique", "match", "cover"])
def test_budget_cut_lower_beyond_its_witness_is_rejected(tmp_path, capsys, monkeypatch, argv,
                                                         key, held, check):
    # a cut proves the bound its witness reaches, and a cut without one no bound
    monkeypatch.chdir(GOLDEN)
    assert run(argv + ["--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    if key is None:
        assert cert["witness"] is None and "lower" not in cert["stats"]
    else:
        assert (cert["stats"]["lower"], cert["witness"][key]) == (len(held), held)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["stats"]["lower"] = 99
    assert f"check {check}:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("argv, edit", [
    (["clique", "--complete", "30", "--budget", "3"], {"upper": 2}),
    (["ramsey", "--family", "K3,PATH:4", "--colors", "4", "--budget", "1000"], {"upper": 3}),
    (["match", "--hypergraph", "path5.txt", "--budget", "1"], {"upper": 1}),
    (["max-cover", "--n", "12", "--r", "5", "--budget", "100"], {"upper": 1}),
    (["chi", "--complete", "5"], {"lower": 99}),
    (["walecki", "--k", "3"], {"upper": 1}),
    (["chi-r", "--r", "6"], {"lower": 99}),
], ids=["clique-upper", "ramsey-upper", "match-upper", "max-cover-upper", "chi-value",
        "walecki-exists", "chi-r-unknown"])
def test_bound_the_outcome_never_carries_is_rejected(tmp_path, capsys, monkeypatch, argv,
                                                     edit):
    # only an UNKNOWN carries bounds, and only those its command's row names
    monkeypatch.chdir(GOLDEN)
    assert run(argv + ["--deterministic"]) in (0, 2)
    cert = json.loads(capsys.readouterr().out)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["stats"].update(edit)
    assert "check bounds:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("command", ["chi", "clique"])
def test_witnessed_cut_without_its_lower_is_a_parse_error(tmp_path, capsys, command):
    assert run([command, "--complete", "30", "--budget", "3", "--deterministic"]) == 2
    cert = json.loads(capsys.readouterr().out)
    del cert["stats"]["lower"]
    assert _rejected(tmp_path, capsys, cert).startswith("error [PARSE_ERROR]: stats lacks 'lower'")


@pytest.mark.parametrize("name, edit", [
    # JSON true is 1 to Python's isinstance, and one vertex is a clique of 1
    ("clique-cut", lambda cert: (cert["stats"].update(lower=True),
                                 cert["witness"].update(vertices=[29]))),
    ("clique-cut", lambda cert: cert["witness"].update(vertices=[True, 28, 29])),
    ("chi", lambda cert: cert["witness"].update(
        colors=[bool(c) if c < 2 else c for c in cert["witness"]["colors"]])),
    ("plane", lambda cert: cert["witness"]["lines"][0].__setitem__(1, True)),
], ids=["lower", "vertex", "colors", "plane-point"])
def test_boolean_for_an_integer_is_a_parse_error(tmp_path, capsys, name, edit):
    cert = _golden(name)
    edit(cert)
    assert "must be" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("edit", [{"exact": True}, {"exact": None}, {}],
                         ids=["true", "null", "missing"])
def test_matching_cut_must_say_it_is_not_exact(tmp_path, capsys, edit):
    cert = _golden("match-cut")
    del cert["stats"]["exact"]
    cert["stats"].update(edit)
    assert "check cut-inexact:" in _rejected(tmp_path, capsys, cert)


def test_non_maximal_clique_is_rejected(tmp_path, capsys):
    assert run(["clique", "--complete", "5", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    cert["value"] = 3
    cert["witness"]["vertices"] = [0, 1, 2]
    assert "check clique-maximal:" in _rejected(tmp_path, capsys, cert)


def _swap_hyperedges(cert: dict) -> None:
    head0, head1, first, second, *rest = cert["witness"]["hypergraph"].splitlines()
    cert["witness"]["hypergraph"] = "\n".join([head0, head1, second, first, *rest]) + "\n"


def _swap_cycle_edges(cert: dict) -> None:
    # cycle 0's edge 0-1 and cycle 1's edge 0-2 trade places: the classes
    # still partition K_9, but vertex 1 has degree 1 in cycle 0
    cycles = cert["witness"]["cycles"]
    cycles[0] = cycles[0].replace("\n0 1\n", "\n0 2\n")
    cycles[1] = cycles[1].replace("\n0 2\n", "\n0 1\n")


def _drop_last_hyperedge(cert: dict) -> None:
    cert["witness"]["hypergraph"] = "".join(
        cert["witness"]["hypergraph"].splitlines(keepends=True)[:-1])


def _witness(key: str, value) -> Callable[[dict], None]:
    return lambda cert: cert["witness"].__setitem__(key, value)


def _witness_item(key: str, i: int, value) -> Callable[[dict], None]:
    return lambda cert: cert["witness"][key].__setitem__(i, value)


@pytest.mark.parametrize("name, check, edit", [
    ("ramsey", "mono-free:", _witness("assignment", [0] * 6)),
    ("clique", "clique-edges:", _witness("vertices", [0, 2])),
    ("bijection", "bijection-roundtrip:", _swap_hyperedges),
    ("walecki", "hamilton-cycle: class is not a 2-regular", _swap_cycle_edges),
    # C3 + C6
    ("walecki", "hamilton-cycle: class is disconnected",
     _witness_item("cycles", 0, "9 9\n0 1\n0 2\n1 2\n3 4\n3 8\n4 5\n5 6\n6 7\n7 8\n")),
    ("galaxy", "class-order:", _witness_item("classes", 3, "7 3\n0 3\n1 4\n2 5\n")),
    ("truncated-plane", "edge-count:", _drop_last_hyperedge),
    ("claim51", "edge-count:", _drop_last_hyperedge),
    ("match", "matching-disjoint:", _witness("matching", [0, 6, 7])),
], ids=["ramsey", "clique", "bijection", "walecki-path", "walecki-disconnected", "galaxy",
        "truncated-plane", "claim51", "match"])
def test_witness_forgery_fails_its_check(tmp_path, capsys, name, check, edit):
    # before these, no test made any of these checks fail
    cert = _golden(name)
    edit(cert)
    assert f"check {check}" in _rejected(tmp_path, capsys, cert)


# -- the command row: which outcomes a command prints, and which carry a value ------------

_GOLDENS = {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN.glob("*.json"))}
_RELABELS = [(name, outcome) for name, cert in _GOLDENS.items()
             for outcome in ("EXISTS", "NOT_EXISTS", "VALUE", "UNKNOWN")
             if outcome != cert["outcome"]]
_VALUE_EDITS = [(name, value) for name, cert in _GOLDENS.items()
                for value in (None, 0, 5, True, "x", 1.5)
                if json.dumps(value) != json.dumps(cert["value"])]


def test_every_golden_is_counted():
    assert len(_GOLDENS) == 48
    assert (len(_RELABELS), len(_VALUE_EDITS)) == (144, 260)


@pytest.mark.parametrize("name, outcome", _RELABELS)
def test_only_a_cover_downgraded_to_unknown_survives_a_relabel(tmp_path, capsys, name,
                                                               outcome):
    cert = _golden(name)
    listed = outcome in COMMANDS[cert["command"]].outcomes
    cert["outcome"] = outcome
    if cert["command"] == "cover" and outcome == "UNKNOWN":
        # UNKNOWN claims nothing, and `cover` prints it without a value
        assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    elif not listed:
        assert "check outcome:" in _rejected(tmp_path, capsys, cert)
    else:
        _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name, value", _VALUE_EDITS, ids=str)
def test_value_edit_is_rejected(tmp_path, capsys, name, value):
    cert = _golden(name)
    valued = COMMANDS[cert["command"]].outcomes[cert["outcome"]]
    cert["value"] = value
    err = _rejected(tmp_path, capsys, cert)
    if not valued or type(value) is not int:
        assert "check value:" in err


@pytest.mark.parametrize("name", ["cover", "cover-decomposition", "cover-one-factor",
                                  "cover-proper", "cover-proper-decomposition"])
def test_cover_relabelled_not_exists_keeps_no_witness(tmp_path, capsys, name):
    cert = _golden(name)
    assert cert["outcome"] == "EXISTS"
    cert["outcome"] = "NOT_EXISTS"
    assert "check witness-absent:" in _rejected(tmp_path, capsys, cert)


@pytest.mark.parametrize("name", ["cover-refuted", "cover-decomposition-refuted",
                                  "cover-proper-refuted"])
def test_cover_relabelled_exists_needs_a_witness(tmp_path, capsys, name):
    cert = _golden(name)
    cert["outcome"] = "EXISTS"
    assert "check witness-present:" in _rejected(tmp_path, capsys, cert)


# -- generated graphs are bound to their parameters -------------------------------------


@pytest.mark.parametrize("name, key, size", [
    ("chi-cycle", "cycle", 8),         # would claim chi(C_8) = 3
    ("chi-cycle", "cycle", 6),
    ("chi-cycle", "path", 7),          # same vertex count, other graph
    ("core-star", "star", 5),
    ("core-star", "star", 3),
    ("chi-cycle", "cycle", 2 ** 70),   # a forged size builds nothing
    ("core-star", "complete", 10 ** 9),
])
def test_generated_graph_must_match_its_parameter(tmp_path, capsys, name, key, size):
    cert = _golden(name)
    cert["parameters"] = {k: v for k, v in cert["parameters"].items() if k == "d"}
    cert["parameters"][key] = size
    assert "check source-graph:" in _rejected(tmp_path, capsys, cert)


def test_clique_graph_is_bound_to_its_parameter(tmp_path, capsys):
    assert run(["clique", "--complete", "5", "--deterministic"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
    cert["parameters"]["complete"] = 6
    assert "check source-graph:" in _rejected(tmp_path, capsys, cert)


def test_graph_file_stays_unbound(tmp_path, capsys):
    # the file may be gone when `verify` runs, so its path binds nothing
    cert = _golden("chi")
    cert["parameters"]["graph"] = str(tmp_path / "absent.txt")
    assert _verify(tmp_path, capsys, cert)[:2] == (0, "true\n")
