"""End-to-end command line runs, in process, certificate round-trips included."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ramseylab import cli
from ramseylab.cli import COMMANDS, run
from ramseylab.errors import VerificationError
from ramseylab.factor_lab import PROPER, random_factor
from ramseylab.graph_core import build_graph, graph_to_text, path_graph
from ramseylab.hypergraph_lab import (
    _clique_cover,
    _greedy_matching,
    _masks,
    _vertex_ids,
    factors_to_hypergraph,
    hypergraph_from_text,
    hypergraph_to_text,
    make_hypergraph,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


def _invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _invoke_cert(capsys, argv):
    code, out, err = _invoke(capsys, argv)
    assert code == 0, f"{argv} failed: {err}"
    return json.loads(out)


def _verifies(tmp_path, capsys, cert) -> bool:
    """Whether `verify` prints true for the certificate, saved as printed."""
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    return _invoke(capsys, ["verify", str(path)])[:2] == (0, "true\n")


def _hypergraph_file(tmp_path, r: int = 2, n: int = 9, name: str = "h.txt"):
    factors = [random_factor(n, PROPER, seed=7 * r + i) for i in range(r)]
    h = factors_to_hypergraph(factors)
    path = tmp_path / name
    path.write_text(hypergraph_to_text(h))
    return str(path)


# -- certified round trips across every subcommand -----------------------------------


def test_certificate_round_trips(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(graph_to_text(path_graph(6)))
    hpath = _hypergraph_file(tmp_path)
    batteries = [
        ["chi", "--complete", "5"],
        ["chi", "--graph", str(gpath)],
        ["clique", "--cycle", "7"],
        ["core", "--complete", "6", "--d", "3"],
        ["ramsey", "--family", "F5", "--colors", "2", "--cap", "8"],
        ["closed-form", "--family", "F3", "--colors", "6"],
        ["cover", "--n", "5", "--r", "3"],
        ["cover", "--n", "9", "--r", "4", "--proper", "--decomposition"],
        ["max-cover", "--n", "6", "--r", "3"],
        ["walecki", "--k", "4"],
        ["galaxy", "--k", "3"],
        ["k11"],
        ["chi-r", "--r", "4"],
        ["bijection", "--random", "2", "3", "--seed", "11"],
        ["bijection", "--hypergraph", hpath],
        ["match", "--hypergraph", hpath],
        ["chromatic-index", "--hypergraph", hpath],
        ["ach", "--d", "4"],
        ["plane", "--p", "3"],
        ["truncated-plane", "--p", "2"],
        ["claim51", "--p", "2", "--m", "2"],
        ["claim51", "--p", "2", "--m", "1", "--uniformity", "5"],
    ]
    for i, argv in enumerate(batteries):
        cert = _invoke_cert(capsys, argv)
        assert cert["command"] == argv[0]
        assert cert["outcome"] in ("EXISTS", "NOT_EXISTS", "VALUE")
        saved = tmp_path / f"cert{i}.json"
        saved.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
        code, out, err = _invoke(capsys, ["verify", str(saved)])
        assert code == 0 and out.strip() == "true", f"{argv}: {err}"


def test_ramsey_family_example(capsys):
    cert = _invoke_cert(capsys, ["ramsey", "--family", "F4", "--colors", "3",
                                 "--cap", "8"])
    assert cert["outcome"] == "VALUE" and cert["value"] == 4
    assert cert["parameters"]["family"] == "F4"
    assert cert["stats"]["refutation_nodes"] > 0


def test_presets_in_a_family_list_certify_as_their_patterns(capsys):
    def certificate(spec):
        code, out, err = _invoke(capsys, ["ramsey", "--family", spec, "--colors", "3",
                                          "--deterministic"])
        assert code == 0, err
        return out

    expected = certificate("K3,P4")
    for spec in ("F1,F2", "F1,P4", "K3,F2"):
        assert certificate(spec) == expected, spec


def test_cover_refutation_records_scheme(capsys):
    cert = _invoke_cert(capsys, ["cover", "--n", "6", "--r", "3"])
    assert cert["outcome"] == "NOT_EXISTS" and cert["witness"] is None
    assert cert["stats"]["nodes"] > 0
    assert "maximal-factors" in cert["stats"]["scheme"]


def test_max_cover_value(capsys):
    cert = _invoke_cert(capsys, ["max-cover", "--n", "6", "--r", "3"])
    assert cert["value"] == 13


# (n, r) -> (exit code, outcome, stats.nodes) under each --budget 0..r + 2: the
# greedy cover spends one node per factor before the search, so a budget under
# r cuts it with no cover in hand
_MAX_COVER_CUTS = {
    (6, 3): [(2, "UNKNOWN", 0), (2, "UNKNOWN", 1), (2, "UNKNOWN", 2), (2, "UNKNOWN", 3),
             (2, "UNKNOWN", 4), (2, "UNKNOWN", 5)],
    (8, 4): [(2, "UNKNOWN", 0), (2, "UNKNOWN", 1), (2, "UNKNOWN", 2), (2, "UNKNOWN", 3),
             (0, "VALUE", 4), (0, "VALUE", 4), (0, "VALUE", 4)],
}


@pytest.mark.parametrize("n, r", sorted(_MAX_COVER_CUTS))
def test_max_cover_charges_the_greedy_cover_one_node_per_factor(capsys, n, r):
    for budget, expected in enumerate(_MAX_COVER_CUTS[n, r]):
        code, out, err = _invoke(capsys, ["max-cover", "--n", str(n), "--r", str(r),
                                          "--budget", str(budget), "--deterministic"])
        cert = json.loads(out)
        assert (code, cert["outcome"], cert["stats"]["nodes"]) == expected, budget
        assert (cert["witness"] is None) == (budget < r), budget


# -- UNKNOWN outcomes exit 2 -----------------------------------------------------------


def test_chi_r_interval_is_unknown(capsys):
    code, out, _ = _invoke(capsys, ["chi-r", "--r", "6"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    report = cert["witness"]["report"]
    assert (report["lower"], report["upper"]) == (11, 12)


def test_closed_form_unknown(capsys):
    code, out, _ = _invoke(capsys, ["closed-form", "--family", "F6", "--colors", "3"])
    assert code == 2
    assert json.loads(out)["outcome"] == "UNKNOWN"


def test_ramsey_cap_is_unknown(capsys):
    code, out, _ = _invoke(capsys, ["ramsey", "--family", "F3", "--colors", "2",
                                    "--cap", "4"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    assert cert["stats"]["lower"] == 4 and cert["stats"]["cap"] == 4
    assert cert["witness"]["n"] == 4 and len(cert["witness"]["assignment"]) == 6


def test_ramsey_builds_no_witness_beyond_64_vertices(capsys):
    # counting first refutes K_82 for 40 colors, past the largest graph, so
    # nothing is built and the budget stops the scan at K_14
    code, out, _ = _invoke(capsys, ["ramsey", "--family", "F3", "--colors", "40",
                                    "--cap", "100", "--budget", "1000"])
    assert code == 2
    cert = json.loads(out)
    assert (cert["outcome"], cert["stats"]["lower"], cert["witness"]["n"]) == ("UNKNOWN", 13, 13)


def test_ramsey_scan_stops_at_64_vertices_past_the_cap(tmp_path, capsys):
    # one colour class free of MATCH:40 holds K_64, and counting refutes
    # nothing up to it, so a cap past 64 stops the scan at K_64
    code, out, _ = _invoke(capsys, ["ramsey", "--family", "MATCH:40", "--colors", "1",
                                    "--cap", "65"])
    assert code == 2
    cert = json.loads(out)
    assert (cert["outcome"], cert["stats"]["lower"], cert["stats"]["cap"]) == ("UNKNOWN", 64, 65)
    assert cert["witness"]["n"] == 64
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert _invoke(capsys, ["verify", str(path)])[:2] == (0, "true\n")


def test_ramsey_built_witness_certificate(tmp_path, capsys):
    cert = _invoke_cert(capsys, ["ramsey", "--family", "F3", "--colors", "20", "--cap", "64",
                                 "--deterministic"])
    assert cert["value"] == 41
    assert cert["stats"] == {"elapsed_ms": 0, "refutation": "counting", "refutation_nodes": 0,
                             "witness": "walecki", "witness_nodes": 0}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert _invoke(capsys, ["verify", str(path)])[:2] == (0, "true\n")


def test_ramsey_with_a_p3_free_explicit_pattern_verifies(tmp_path, capsys):
    # every class of K_3 holds K2+K1, so c_3 is 2; P3's closed form 4 does
    # not apply and must not fail the certificate
    cert = _invoke_cert(capsys, ["ramsey", "--family", "STAR:1,EXPLICIT[0-1|3]",
                                 "--colors", "3"])
    assert (cert["outcome"], cert["value"]) == ("VALUE", 2)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert _invoke(capsys, ["verify", str(path)])[:2] == (0, "true\n")


def _long_path_file(tmp_path, n: int) -> str:
    """The 2-partite path with edges (i+1, i) listed before edges (i, i): the
    greedy start takes the first n-1 and misses the perfect matching, so the
    search runs n levels deep."""
    edges = [(i + 1, i) for i in range(n - 1)] + [(i, i) for i in range(n)]
    path = tmp_path / f"path{n}.txt"
    path.write_text(f"2\n{n} {n}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    return str(path)


def _cover_and_greedy(path: str) -> tuple[int, int]:
    """The groups of the full clique cover of the line graph, and the edges of
    the greedy matching."""
    h = hypergraph_from_text(Path(path).read_text(encoding="utf-8"))
    verts, starts = _vertex_ids(h)
    conflict = _masks(verts, starts[-1])[1]
    return len(_clique_cover(conflict, h.m)), len(_greedy_matching(conflict))


@pytest.mark.parametrize("name, value", [("claim51-p2-m3", 3), ("claim51-p3-m2", 2)])
@pytest.mark.parametrize("budget", [[], ["--budget", "1"]], ids=["default", "budget-1"])
def test_match_on_claim51_settles_at_the_root(capsys, name, value, budget):
    # each copy's edges pairwise meet, so the clique cover has as many groups
    # as the greedy matching has edges, and one node proves it maximum
    hpath = str(FIXTURES / f"{name}.txt")
    assert _cover_and_greedy(hpath) == (value, value)
    cert = _invoke_cert(capsys, ["match", "--hypergraph", hpath, "--deterministic", *budget])
    assert (cert["outcome"], cert["value"], cert["stats"]["nodes"]) == ("VALUE", value, 1)


def test_match_budget_exhaustion_is_unknown(tmp_path, capsys):
    hpath = _hypergraph_file(tmp_path, r=3, n=12)
    code, out, _ = _invoke(capsys, ["match", "--hypergraph", hpath, "--budget", "1"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    assert cert["stats"]["exact"] is False and cert["stats"]["lower"] >= 0


def test_match_budget_exhaustion_keeps_the_proven_bound(tmp_path, capsys):
    # the search needs more than one node here, and greedy had 4 in hand
    code, out, _ = _invoke(capsys, ["match", "--hypergraph", _long_path_file(tmp_path, 5),
                                    "--budget", "1", "--deterministic"])
    assert code == 2
    assert json.loads(out)["stats"] == {"elapsed_ms": 0, "exact": False, "lower": 4,
                                        "nodes": 1}


def test_match_on_a_long_path_needs_no_recursion(tmp_path, capsys):
    hpath = _long_path_file(tmp_path, 1500)
    # the cover's 1,500 groups beat the greedy 1,499 edges, so the search runs
    assert _cover_and_greedy(hpath) == (1500, 1499)
    cert = _invoke_cert(capsys, ["match", "--hypergraph", hpath])
    assert cert["value"] == 1500
    assert cert["stats"]["nodes"] == 3001
    assert _verifies(tmp_path, capsys, cert)


def test_match_on_a_path_searches_once_under_deterministic(tmp_path, capsys):
    hpath = _long_path_file(tmp_path, 500)
    assert _cover_and_greedy(hpath) == (500, 499)  # not tight: the search runs
    cert = _invoke_cert(capsys, ["match", "--hypergraph", hpath, "--deterministic"])
    assert (cert["value"], cert["stats"]["nodes"]) == (500, 1001)
    assert cert["witness"]["matching"] == list(range(499, 999))


def test_search_budget_exhaustion_is_unknown(tmp_path, capsys):
    code, out, _ = _invoke(capsys, ["chi", "--complete", "13", "--budget", "5"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    assert cert["stats"]["lower"] <= cert["stats"]["upper"]
    assert _verifies(tmp_path, capsys, cert)


# -- validation and usage failures exit 1 ------------------------------------------------


def test_validation_errors(capsys):
    for argv, code_text in ((["plane", "--p", "4"], "NOT_PRIME"),
                            (["walecki", "--k", "0"], "BAD_K"),
                            (["cover", "--n", "40", "--r", "2"], "BAD_N"),
                            (["ramsey", "--family", "QUUX", "--colors", "2"],
                             "OUT_OF_RANGE"),
                            (["ramsey", "--family", "F1", "--colors", "2", "--cap", "0"],
                             "OUT_OF_RANGE"),
                            (["ramsey", "--family", "F1", "--colors", "0"], "BAD_K"),
                            (["ramsey", "--family", "F1", "--colors", "-1"], "BAD_K"),
                            (["ramsey", "--family", "STAR:-1", "--colors", "2"],
                             "OUT_OF_RANGE"),
                            (["ramsey", "--family", "MATCH:0", "--colors", "2"],
                             "OUT_OF_RANGE"),
                            (["ramsey", "--family", "EXPLICIT[0-1|9]", "--colors", "2"],
                             "OUT_OF_RANGE"),
                            (["chi", "--cycle", "2"], "OUT_OF_RANGE"),
                            (["bijection", "--random", "0", "2"], "OUT_OF_RANGE")):
        code, out, err = _invoke(capsys, argv)
        assert code == 1 and out == ""
        assert code_text in err


@pytest.mark.parametrize("command, k, code_text", [
    ("walecki", "0", "BAD_K"), ("walecki", "-1", "BAD_K"), ("walecki", "32", "OUT_OF_RANGE"),
    ("galaxy", "1", "BAD_K"), ("galaxy", "-1", "BAD_K"), ("galaxy", "33", "OUT_OF_RANGE"),
])
def test_construction_checks_k_before_the_vertex_count(capsys, command, k, code_text):
    # a k below the construction's least is BAD_K, even where 2k + 1 or 2k
    # is no vertex count; past the 64-vertex cap it is OUT_OF_RANGE
    code, out, err = _invoke(capsys, [command, "--k", k])
    assert (code, out) == (1, "") and err.startswith(f"error [{code_text}]")


def test_closed_form_and_chi_r_share_the_delta0_rule(capsys):
    # the P4, S3 closed form reads chi_r_report, so it rejects delta0 < 1 as chi-r does
    for argv in (["closed-form", "--family", "F6", "--colors", "5", "--delta0", "0"],
                 ["chi-r", "--r", "5", "--delta0", "0"]):
        code, out, err = _invoke(capsys, argv)
        assert (code, out) == (1, "") and "error [OUT_OF_RANGE]" in err


def test_bad_inputs_exit_with_coded_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    # 65 hyperedges make a line graph above the 64-vertex cap
    wide = tmp_path / "wide.txt"
    wide.write_text("2\n9 9\n" + "".join(f"{e // 9} {e % 9}\n" for e in range(65)))
    bijection = json.loads((GOLDEN / "bijection.json").read_text(encoding="utf-8"))
    forged = []
    for factors in ([], ["6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"]
                    + bijection["witness"]["factors"][1:]):
        bijection["witness"]["factors"] = factors
        forged.append(tmp_path / f"bijection-{len(factors)}.json")
        forged[-1].write_text(json.dumps(bijection))
    hpath = _hypergraph_file(tmp_path)
    for argv, code_text in ((["ramsey", "--family", "@" + missing, "--colors", "2"],
                             "BAD_FILE"),
                            (["chi", "--complete", "65"], "OUT_OF_RANGE"),
                            (["clique", "--complete", "80"], "OUT_OF_RANGE"),
                            (["ach", "--d", "2"], "BAD_D"),
                            (["ach", "--d", "3"], "BAD_D"),
                            (["ach", "--d", "82"], "OUT_OF_RANGE"),
                            # a star has 0 or more leaves, in every graph command
                            (["chi", "--star", "-1"], "OUT_OF_RANGE"),
                            (["clique", "--star", "-1"], "OUT_OF_RANGE"),
                            (["core", "--star", "-1", "--d", "1"], "OUT_OF_RANGE"),
                            (["chromatic-index", "--hypergraph", str(wide)], "OUT_OF_RANGE"),
                            # no factor, and one factor on 6 of the 9 vertices
                            (["verify", str(forged[0])], "OUT_OF_RANGE"),
                            (["verify", str(forged[1])], "OUT_OF_RANGE"),
                            # a negative budget, in every command that takes one
                            (["chi", "--complete", "5", "--budget", "-1"], "OUT_OF_RANGE"),
                            (["clique", "--complete", "5", "--budget", "-1"], "OUT_OF_RANGE"),
                            (["ramsey", "--family", "F1", "--colors", "2", "--budget", "-1"],
                             "OUT_OF_RANGE"),
                            (["cover", "--n", "6", "--r", "3", "--budget", "-1"],
                             "OUT_OF_RANGE"),
                            (["max-cover", "--n", "6", "--r", "2", "--budget", "-1"],
                             "OUT_OF_RANGE"),
                            (["match", "--hypergraph", hpath, "--budget", "-1"],
                             "OUT_OF_RANGE"),
                            (["chromatic-index", "--hypergraph", hpath, "--budget", "-1"],
                             "OUT_OF_RANGE")):
        code, out, err = _invoke(capsys, argv)
        assert code == 1 and out == ""
        assert f"error [{code_text}]" in err


def test_a_huge_part_takes_no_slot_per_vertex(tmp_path, capsys):
    # parts of 10**15 vertices, all but one on no edge: the matching search,
    # the line graph and the degree count number only the vertices on edges
    one = tmp_path / "one.txt"
    one.write_text("2\n1000000000000000 1\n0 0\n")
    for command in ("match", "chromatic-index"):
        cert = _invoke_cert(capsys, [command, "--hypergraph", str(one)])
        assert cert["value"] == 1 and _verifies(tmp_path, capsys, cert), command
    two = tmp_path / "two.txt"
    two.write_text("2\n1000000000000000 1000000000000000\n0 0\n")
    code, out, err = _invoke(capsys, ["bijection", "--hypergraph", str(two)])
    assert (code, out) == (1, "") and err.startswith("error [NOT_3_REGULAR]")
    cert = json.loads((GOLDEN / "chromatic-index.json").read_text(encoding="utf-8"))
    head, sizes, *edges = cert["witness"]["hypergraph"].split("\n")
    sizes = " ".join(["1000000000000000", *sizes.split()[1:]])
    cert["witness"]["hypergraph"] = "\n".join([head, sizes, *edges])
    assert _verifies(tmp_path, capsys, cert)


def test_verify_reports_invalid_parameters(tmp_path, capsys):
    # an unknown family token, and a witness on more than 64 vertices
    for family, n in (("QUUX", 5), ("F1", 100)):
        cert = _invoke_cert(capsys, ["ramsey", "--family", "F1", "--colors", "2"])
        cert["parameters"]["family"] = family
        cert["value"] = cert["witness"]["n"] = n
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
        code, out, err = _invoke(capsys, ["verify", str(bad)])
        assert code == 1 and out == "" and "error [OUT_OF_RANGE]" in err


def test_verify_rejects_unknown_cover_mode_or_properness(tmp_path, capsys):
    cert = _invoke_cert(capsys, ["cover", "--n", "9", "--r", "4", "--proper",
                                 "--decomposition"])
    for key, value in (("mode", "x"), ("properness", "x"), ("mode", [1]),
                       ("properness", [1]), ("mode", None)):
        bad = json.loads(json.dumps(cert))
        if value is None:
            del bad["parameters"][key]
        else:
            bad["parameters"][key] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(bad, sort_keys=True, indent=2) + "\n")
        code, out, err = _invoke(capsys, ["verify", str(path)])
        assert code == 1 and out == "" and err.startswith("error ["), (key, value)


def test_verify_rechecks_a_counting_refutation(tmp_path, capsys):
    # c_2(K3, S3) = 5: 2 classes hold at most 2 * 6 = 12 of K_6's 15 edges
    cert = json.loads((GOLDEN / "ramsey-k3-star2.json").read_text(encoding="utf-8"))
    assert cert["stats"]["refutation"] == "counting"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert _invoke(capsys, ["verify", str(path)])[:2] == (0, "true\n")
    # c_3(P4) = 5, but 3 P4-free classes hold up to 3 * 6 = 18 >= 15 edges
    # of K_6, so counting cannot have refuted K_6
    cert = json.loads((GOLDEN / "ramsey-path3.json").read_text(encoding="utf-8"))
    cert["stats"].update(refutation="counting", refutation_nodes=0)
    for refutation in ("counting", "x", 0):
        cert["stats"]["refutation"] = refutation
        path.write_text(json.dumps(cert))
        code, out, err = _invoke(capsys, ["verify", str(path)])
        assert code == 1 and out == "" and "counting-refutation" in err, refutation


def test_proper_decomposition_refutation(tmp_path, capsys):
    cert = _invoke_cert(capsys, ["cover", "--n", "9", "--r", "5", "--proper",
                                 "--decomposition", "--deterministic"])
    assert cert["outcome"] == "NOT_EXISTS"
    assert cert["stats"]["nodes"] == 86
    assert _verifies(tmp_path, capsys, cert)


def test_usage_errors(capsys):
    assert _invoke(capsys, [])[0] == 1
    assert _invoke(capsys, ["no-such-command"])[0] == 1
    assert _invoke(capsys, ["chi"])[0] == 1  # a graph source is required
    assert _invoke(capsys, ["--help"])[0] == 0


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    cert = _invoke_cert(capsys, ["chi", "--complete", "5"])
    cert["value"] = 4
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    code, out, err = _invoke(capsys, ["verify", str(bad)])
    assert code == 1 and "VERIFY_FAILED" in err


def test_verify_rejects_truncated_certificate(tmp_path, capsys):
    cert = _invoke_cert(capsys, ["plane", "--p", "2"])
    text = json.dumps(cert, sort_keys=True, indent=2)
    broken = tmp_path / "broken.json"
    broken.write_text(text[: len(text) // 2])
    code, _, err = _invoke(capsys, ["verify", str(broken)])
    assert code == 1 and "PARSE_ERROR" in err


def test_failed_self_check_is_a_coded_error(capsys, monkeypatch):
    def refuse(*args):
        raise VerificationError("line-count", "refused")

    monkeypatch.setitem(COMMANDS, "plane", COMMANDS["plane"]._replace(check=refuse))
    code, out, err = _invoke(capsys, ["plane", "--p", "2"])
    assert (code, out) == (1, "")
    assert err == "error [VERIFY_FAILED] check line-count: refused\n"


def _last_emptied(graphs):
    return graphs[:-1] + (build_graph(graphs[-1].n, []),)


def _first_recolored(color: int):
    """The edge coloring with edge (0, 1) of K_n, its first, recolored."""
    return lambda colors: (color,) + colors[1:]


def _last_edge_dropped(h):
    return make_hypergraph(h.part_sizes, h.edges[:-1])


# the producer as cli calls it, a request, a corruption of the producer's
# answer and the certificate check that rejects it
@pytest.mark.parametrize("producer, argv, corrupt, check", [
    ("cover_search", ["cover", "--n", "5", "--r", "3"],
     lambda res: replace(res, factors=_last_emptied(res.factors)), "union-complete"),
    ("max_coverable_edges", ["max-cover", "--n", "6", "--r", "3"],
     lambda res: replace(res, factors=_last_emptied(res.factors)), "covered-count"),
    # class 0 loses its edge (0, 1): vertices 0 and 1 have degree 1 there
    ("walecki_colors", ["walecki", "--k", "4"], _first_recolored(1), "hamilton-cycle"),
    # the star at 1 in class 1 gains the edge to 0, a leaf of the star at 4
    ("galaxy_colors", ["galaxy", "--k", "3"], _first_recolored(1), "star-forest"),
    # triangles 1, 4, 7 and 2, 5, 8 of row 0 (1-based) join into one component
    ("k11_colors", ["k11"], _first_recolored(0), "factor-shape"),
    ("max_matching", ["match", "--hypergraph", "h.txt"],
     lambda res: replace(res, size=res.size + 1, witness=res.witness + res.witness[:1]),
     "matching-disjoint"),
    ("ach_counterexample", ["ach", "--d", "4"], lambda res: (res[0], (0,) * len(res[1])),
     "label-range"),
    ("projective_plane", ["plane", "--p", "3"], lambda lines: lines[:-1], "line-count"),
    ("truncated_plane", ["truncated-plane", "--p", "3"], _last_edge_dropped, "edge-count"),
    ("claim51_hypergraph", ["claim51", "--p", "2", "--m", "2"], _last_edge_dropped,
     "edge-count"),
])
def test_a_broken_producer_never_prints(capsys, monkeypatch, producer, argv, corrupt, check):
    # no producer checks its own answer: run() checks it once, with the
    # certificate's check, before anything is printed
    monkeypatch.chdir(GOLDEN)
    real = getattr(cli, producer)
    monkeypatch.setattr(cli, producer, lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
    code, out, err = _invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error [VERIFY_FAILED] check {check}:"), err


def test_verify_missing_file(capsys):
    code, _, err = _invoke(capsys, ["verify", "/nonexistent/cert.json"])
    assert code == 1 and "PARSE_ERROR" in err


# -- determinism ---------------------------------------------------------------------------


def test_deterministic_output_is_byte_stable(capsys):
    first = _invoke(capsys, ["ach", "--d", "4", "--deterministic"])
    second = _invoke(capsys, ["ach", "--d", "4", "--deterministic"])
    assert first == second
    cert = json.loads(first[1])
    assert cert["stats"]["elapsed_ms"] == 0
    assert cert["witness"]["matching"] == sorted(cert["witness"]["matching"])


@pytest.mark.parametrize("d", [9, 20, 40])
def test_ach_is_certified_without_a_search(tmp_path, capsys, d):
    cert = _invoke_cert(capsys, ["ach", "--d", str(d), "--deterministic"])
    assert (cert["outcome"], cert["value"]) == ("EXISTS", d)
    assert cert["stats"] == {"elapsed_ms": 0}
    assert len(cert["witness"]["matching"]) == d
    assert _verifies(tmp_path, capsys, cert)


def test_deterministic_bijection_seeded(capsys):
    a = _invoke(capsys, ["bijection", "--random", "2", "2", "--seed", "3",
                         "--deterministic"])
    b = _invoke(capsys, ["bijection", "--random", "2", "2", "--seed", "3",
                         "--deterministic"])
    c = _invoke(capsys, ["bijection", "--random", "2", "2", "--seed", "4",
                         "--deterministic"])
    assert a == b
    assert a[1] != c[1]


# -- the command table ----------------------------------------------------------------------


def test_help_for_every_command(capsys):
    assert _invoke(capsys, ["--help"])[0] == 0
    for name in COMMANDS:
        assert _invoke(capsys, [name, "--help"])[0] == 0, name


def _parsed(capsys, parse, argv):
    """What `parse` makes of argv: the Namespace's fields, or the exit code
    and what it printed before it exited."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_one_parser_per_process(capsys):
    cli._build_parser.cache_clear()
    _invoke_cert(capsys, ["plane", "--p", "2"])
    _invoke_cert(capsys, ["chi", "--complete", "4"])
    assert _invoke(capsys, ["plane", "--p", "4"])[0] == 1
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_shared_parser_carries_no_options_between_calls(capsys):
    parser = cli._build_parser()
    first = parser.parse_args(["cover", "--n", "5", "--r", "3", "--proper",
                               "--decomposition", "--budget", "7", "--deterministic"])
    second = parser.parse_args(["cover", "--n", "5", "--r", "3"])
    assert (first.proper, first.budget, first.deterministic) == (True, 7, True)
    assert (second.proper, second.decomposition, second.budget, second.deterministic) \
        == (False, False, None, False)
    # the same through run(): each call answers as if it were the first
    assert _invoke(capsys, ["clique", "--complete", "40", "--budget", "5",
                            "--deterministic"])[0] == 2
    cert = _invoke_cert(capsys, ["clique", "--complete", "40"])
    assert cert["value"] == 40
    assert _invoke_cert(capsys, ["cover", "--n", "5", "--r", "3", "--proper"])[
        "outcome"] == "NOT_EXISTS"
    cert = _invoke_cert(capsys, ["cover", "--n", "5", "--r", "3"])
    assert cert["outcome"] == "EXISTS"
    assert cert["parameters"]["properness"] == "GENERALIZED"


# a sample argv of every command, each option its row lists given once
_SAMPLE_ARGV = {
    "chi": ["chi", "--graph", "g.txt", "--budget", "9", "--deterministic"],
    "clique": ["clique", "--star", "4"],
    "core": ["core", "--cycle", "6", "--d", "2"],
    "ramsey": ["ramsey", "--family", "K3,P4", "--colors", "3", "--cap", "9", "--budget", "5"],
    "closed-form": ["closed-form", "--family", "F6", "--colors", "5", "--delta0", "5"],
    "cover": ["cover", "--n", "9", "--r", "4", "--proper", "--decomposition", "--budget", "7"],
    "max-cover": ["max-cover", "--n", "6", "--r", "3", "--budget", "3"],
    "walecki": ["walecki", "--k", "4"],
    "galaxy": ["galaxy", "--k", "3", "--deterministic"],
    "k11": ["k11"],
    "chi-r": ["chi-r", "--r", "5", "--delta0", "5"],
    "bijection": ["bijection", "--random", "2", "3", "--seed", "5"],
    "match": ["match", "--hypergraph", "h.txt", "--budget", "1"],
    "chromatic-index": ["chromatic-index", "--hypergraph", "h.txt"],
    "ach": ["ach", "--d", "4"],
    "plane": ["plane", "--p", "3"],
    "truncated-plane": ["truncated-plane", "--p", "3"],
    "claim51": ["claim51", "--p", "2", "--m", "2", "--uniformity", "5"],
    "verify": ["verify", "cert.json"],
}


def test_each_command_parses_as_the_top_level_parses():
    assert set(_SAMPLE_ARGV) == set(COMMANDS) | {"verify"}
    top = cli._build_parser()
    for name, argv in _SAMPLE_ARGV.items():
        args = vars(cli._parse(argv))
        assert args == vars(top.parse_args(argv)) and args["command"] == name, argv


# usage errors, help, and parses that take the top-level path or a subparser's
_PARSER_ARGV = (
    ["chi"], ["chi", "--complete"], ["chi", "--complete", "x"], ["chi", "--complete=4"],
    ["chi", "--comp", "4"], ["chi", "--complete", "4", "--bogus"],
    ["chi", "--complete", "4", "extra"], ["verify", "a", "b"], ["bijection", "--random", "2"],
    ["cover", "-h"], ["cover", "--help"], [], ["--help"], ["no-such-command"],
)


def test_shared_parser_prints_what_a_fresh_one_prints(capsys):
    _invoke_cert(capsys, ["plane", "--p", "2", "--deterministic"])
    for argv in _PARSER_ARGV:
        fresh = _parsed(capsys, cli._build_parser.__wrapped__().parse_args, argv)
        assert _parsed(capsys, cli._parse, argv) == fresh, argv
        if isinstance(fresh, tuple):  # help exits 0, a usage error 1
            code, out, err = fresh
            assert _invoke(capsys, argv) == (0 if code == 0 else 1, out, err), argv


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ramseylab from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "ramseylab", "plane", "--p", "3", "--deterministic")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "plane.json").read_bytes()


def test_python_dash_m_verifies_and_exits_with_the_run_code():
    # __main__ hands run()'s code to sys.exit through console_main
    proc = _python("-m", "ramseylab", "verify", str(GOLDEN / "ramsey.json"))
    assert (proc.returncode, proc.stdout) == (0, b"true\n"), proc.stderr
    proc = _python("-m", "ramseylab")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert b"required: command" in proc.stderr


def test_verify_rejects_a_schema_1_certificate(tmp_path):
    # schema 1 also wrote a top-level delta0 and verified; a coded error, no traceback
    cert = json.loads((GOLDEN / "ramsey.json").read_text(encoding="utf-8"))
    cert.update(schema=1, delta0=50_000_000_000_000, verified=True)
    path = tmp_path / "schema1.json"
    path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    proc = _python("-m", "ramseylab", "verify", str(path))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error [PARSE_ERROR]: unsupported schema 1\n"


@pytest.mark.parametrize("module", ["errors", "graph_core", "ramsey_search", "factor_lab",
                                    "hypergraph_lab", "extremal", "certificates", "cli"])
def test_each_module_imports_alone(module):
    # the package root imports nothing, so no import order hides a cycle
    proc = _python("-c", f"import ramseylab.{module}")
    assert proc.returncode == 0, proc.stderr


def test_package_root_loads_no_submodule():
    proc = _python("-c", "import sys, ramseylab\n"
                         "print(sorted(m for m in sys.modules if m.startswith('ramseylab.')))")
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


def test_each_command_takes_only_the_options_it_reads(capsys):
    def taking(flag):
        return {name for name, cmd in COMMANDS.items()
                if any(flag in getattr(opt, "flags", ()) for opt in cmd.options)}

    assert taking("--budget") == {"chi", "clique", "ramsey", "cover", "max-cover",
                                  "match", "chromatic-index"}
    assert taking("--delta0") == {"closed-form", "chi-r"}
    assert taking("--seed") == {"bijection"}
    assert _invoke(capsys, ["plane", "--p", "3", "--threads", "2"])[0] == 1
    assert _invoke(capsys, ["walecki", "--k", "3", "--budget", "5"])[0] == 1
    assert _invoke(capsys, ["ach", "--d", "5", "--budget", "1"])[0] == 1


# -- budget-exhausted searches certify what they proved --------------------------------------


@pytest.mark.parametrize("argv, parameters, proven", [
    (["ramsey", "--family", "K3,PATH:4", "--colors", "4", "--budget", "1000"],
     {"family": "K3,PATH:4", "colors": 4, "cap": 32}, {"lower": 7, "nodes": 1000}),
    (["ramsey", "--family", "F2", "--colors", "5", "--budget", "200000"],
     {"family": "F2", "colors": 5, "cap": 32}, {"lower": 9, "nodes": 200000}),
    (["chi", "--complete", "13", "--budget", "5"], {"complete": 13},
     {"lower": 2, "upper": 13, "nodes": 5}),
    # the best cover found and the clique in hand when the budget ran out
    (["max-cover", "--n", "12", "--r", "5", "--budget", "100"], {"n": 12, "r": 5},
     {"lower": 55, "nodes": 100}),
    (["clique", "--complete", "40", "--budget", "5"], {"complete": 40},
     {"lower": 5, "nodes": 5}),
    # a one-factor cover runs the search too, whose first level is one node
    (["cover", "--n", "3", "--r", "1", "--budget", "0"],
     {"mode": "COVER", "n": 3, "properness": "GENERALIZED", "r": 1}, {"nodes": 0}),
])
def test_budget_exhausted_certificate(tmp_path, capsys, argv, parameters, proven):
    code, out, _ = _invoke(capsys, argv + ["--deterministic"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    assert cert["parameters"] == parameters
    assert cert["stats"]["elapsed_ms"] == 0
    assert proven.items() <= cert["stats"].items()
    if argv[0] == "clique":  # the clique in hand is the witness of lower
        assert cert["witness"]["vertices"] == [35, 36, 37, 38, 39]
    saved = tmp_path / "unknown.json"
    saved.write_text(out)
    assert _invoke(capsys, ["verify", str(saved)])[:2] == (0, "true\n")


def test_colouring_budget_cut_certifies_its_greedy_colouring(tmp_path, capsys):
    hpath = _hypergraph_file(tmp_path, r=3, n=12)
    code, out, _ = _invoke(capsys, ["chromatic-index", "--hypergraph", hpath,
                                    "--budget", "1", "--deterministic"])
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "UNKNOWN"
    assert len(set(cert["witness"]["colors"])) == cert["stats"]["upper"]
    saved = tmp_path / "unknown.json"
    saved.write_text(out)
    assert _invoke(capsys, ["verify", str(saved)])[:2] == (0, "true\n")


def test_budget_exhausted_certificate_keeps_elapsed_time(capsys):
    code, out, _ = _invoke(capsys, ["ramsey", "--family", "F2", "--colors", "5",
                                    "--budget", "200000"])
    assert code == 2 and json.loads(out)["stats"]["elapsed_ms"] > 0
