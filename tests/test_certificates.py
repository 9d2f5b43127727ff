"""Certificate documents: construction, parsing, strict re-verification."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab import certificates, factor_lab, graph_core, hypergraph_lab, ramsey_search
from ramseylab.cli import verify_certificate
from ramseylab.certificates import (
    OUTCOMES,
    SCHEMA,
    TOOL,
    VERSION,
    certificate_to_json,
    make_certificate,
    parse_certificate,
)
from ramseylab.errors import ParseError, ValidationError, VerificationError
from ramseylab.graph_core import complete_graph, cycle_graph, graph_to_text
from ramseylab.factor_lab import COVER_SCHEME, DEFAULT_DELTA0

GOLDEN = Path(__file__).resolve().parent / "golden"


def _chi_cert(value=3, colors=(0, 1, 2, 0, 1)):
    witness = {"graph": graph_to_text(cycle_graph(5)), "colors": list(colors)}
    return make_certificate("chi", {"cycle": 5}, "VALUE",
                            value=value, witness=witness, stats={"elapsed_ms": 1})


def test_make_certificate_shape():
    cert = _chi_cert()
    assert cert["schema"] == SCHEMA and cert["tool"] == TOOL
    assert cert["version"] == VERSION
    assert cert["outcome"] in OUTCOMES
    with pytest.raises(ValidationError):
        make_certificate("chi", {}, "MAYBE")


def test_json_round_trip_and_stability():
    cert = _chi_cert()
    text = certificate_to_json(cert)
    assert text.endswith("\n")
    assert parse_certificate(text) == cert
    assert certificate_to_json(parse_certificate(text)) == text
    keys = [ln.split('"')[1] for ln in text.splitlines()
            if ln.startswith('  "')]
    assert keys == sorted(keys)


def test_every_golden_re_encodes_to_its_bytes():
    paths = sorted(GOLDEN.glob("*.json"))
    assert len(paths) == 49
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert certificate_to_json(json.loads(text)) == text, path.name


# quotes, backslashes, control characters and non-ASCII text, among any others
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001d11e'),
                          st.characters()), max_size=6)
_INTS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
_SCALARS = st.one_of(_INTS, st.booleans(), st.none(), _TEXT)
_VALUES = st.recursive(
    st.one_of(_SCALARS, st.lists(_INTS, max_size=5), st.lists(st.one_of(_INTS, st.booleans()))),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=6))
def test_certificate_to_json_writes_what_json_dumps_writes(cert):
    assert certificate_to_json(cert) == json.dumps(cert, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("cert", [{"a": 1.5}, {"a": [1, 2.0]}, {"a": {"b": [0.5]}},
                                  {1: "x"}, {"a": {2: 1}}, {"a": [{3: None}]}])
def test_certificate_to_json_rejects_floats_and_non_string_keys(cert):
    with pytest.raises(TypeError):
        certificate_to_json(cert)


def test_parse_certificate_errors():
    good = certificate_to_json(_chi_cert())
    with pytest.raises(ParseError):
        parse_certificate(good[: len(good) // 2])
    with pytest.raises(ParseError):
        parse_certificate("[1, 2]")
    for mutate in (
        lambda c: c.pop("schema"),
        lambda c: c.pop("outcome"),
        lambda c: c.update(schema=SCHEMA + 1),
        lambda c: c.update(schema=1),
        lambda c: c.update(outcome="MAYBE"),
        lambda c: c.update(parameters=[1]),
    ):
        cert = json.loads(good)
        mutate(cert)
        with pytest.raises(ParseError):
            parse_certificate(json.dumps(cert))


def test_verify_requires_witness_for_positive_outcomes():
    cert = make_certificate("chi", {}, "VALUE", value=2)
    with pytest.raises(VerificationError) as exc:
        verify_certificate(cert)
    assert exc.value.check == "witness-present"
    # UNKNOWN may be witness-free
    assert verify_certificate(make_certificate("chi", {}, "UNKNOWN"))


def test_verify_unknown_command():
    cert = make_certificate("chi", {}, "UNKNOWN")
    cert["command"] = "frobnicate"
    with pytest.raises(ParseError):
        verify_certificate(cert)


def test_verify_command_must_be_a_name():
    cert = make_certificate("chi", {}, "UNKNOWN")
    for command in ([1], {"chi": 1}, None):
        cert["command"] = command
        with pytest.raises(ParseError):
            verify_certificate(cert)


def test_verify_chi_accepts_and_rejects():
    assert verify_certificate(_chi_cert())
    with pytest.raises(VerificationError) as exc:
        verify_certificate(_chi_cert(value=4))
    assert exc.value.check == "color-count"
    with pytest.raises(VerificationError) as exc:
        verify_certificate(_chi_cert(colors=(0, 1, 0, 1, 0)))  # improper on C5
    assert exc.value.check == "proper-coloring"


def test_verify_clique_tamper():
    witness = {"graph": graph_to_text(complete_graph(4)), "vertices": [0, 1, 2, 3]}
    cert = make_certificate("clique", {}, "VALUE", value=4, witness=witness)
    assert verify_certificate(cert)
    cert["witness"]["vertices"] = [0, 1, 2, 2]
    with pytest.raises(VerificationError):
        verify_certificate(cert)


def test_verify_cover_refutation_needs_scheme_and_nodes():
    params = {"n": 6, "r": 3, "properness": "GENERALIZED", "mode": "COVER"}
    good = make_certificate("cover", params, "NOT_EXISTS",
                            stats={"scheme": COVER_SCHEME, "nodes": 53})
    assert verify_certificate(good)
    for stats in ({"nodes": 53}, {"scheme": COVER_SCHEME}, {}):
        cert = make_certificate("cover", params, "NOT_EXISTS", stats=stats)
        with pytest.raises(VerificationError):
            verify_certificate(cert)


def test_verify_chi_r_report():
    report = {"r": 4, "lower": 9, "upper": 9, "status": "EXACT",
              "delta0": 7, "note": ""}
    cert = make_certificate("chi-r", {"r": 4, "delta0": 7}, "VALUE",
                            value=9, witness={"report": report})
    assert verify_certificate(cert)
    bad = json.loads(certificate_to_json(cert))
    bad["witness"]["report"]["upper"] = 10
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "report-fields"
    # a VALUE outcome cannot ride on a non-exact report
    interval = {"r": 6, "lower": 11, "upper": 12, "status": "INTERVAL",
                "delta0": 7, "note": "open exceptional case"}
    cert = make_certificate("chi-r", {"r": 6, "delta0": 7}, "VALUE",
                            value=11, witness={"report": interval})
    with pytest.raises(VerificationError) as exc:
        verify_certificate(cert)
    assert exc.value.check == "report-exact"


def test_verify_closed_form_consistency():
    params = {"family": "F3", "colors": 4, "delta0": DEFAULT_DELTA0}
    witness = {"value": 9, "asymptotic": False, "conditional": False, "note": ""}
    cert = make_certificate("closed-form", params, "VALUE", value=9, witness=witness)
    assert verify_certificate(cert)
    wrong = make_certificate("closed-form", params, "VALUE", value=8,
                             witness=dict(witness, value=8))
    with pytest.raises(VerificationError):
        verify_certificate(wrong)
    # claiming no formula when one exists is also a verification failure
    sneaky = make_certificate("closed-form", params, "UNKNOWN")
    with pytest.raises(VerificationError) as exc:
        verify_certificate(sneaky)
    assert exc.value.check == "formula-none"
    f1 = {"family": "F1", "colors": 3, "delta0": DEFAULT_DELTA0}
    assert verify_certificate(make_certificate("closed-form", f1, "UNKNOWN"))
    # the command always records delta0, so a certificate without it has no default
    f1.pop("delta0")
    with pytest.raises(ParseError):
        verify_certificate(make_certificate("closed-form", f1, "UNKNOWN"))


# -- the checker runs no search --------------------------------------------------------

# the search kernels and entry points, with the budget they charge
_SEARCHES = {
    graph_core: ("NodeBudget", "_exact_k_coloring", "chromatic_number", "max_clique"),
    ramsey_search: ("compute_c_k", "_color_edges"),
    factor_lab: ("cover_search", "max_coverable_edges", "_factor_search"),
    hypergraph_lab: ("max_matching", "_match_branch"),
}


def test_certificates_imports_no_search():
    tree = ast.parse(Path(certificates.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {name for names in _SEARCHES.values() for name in names}


def test_verify_builds_no_budget_and_runs_no_search():
    # NodeBudget.__init__ marks a budget built; the rest mark a search run
    watched = {graph_core.NodeBudget.__init__.__code__} | {
        getattr(module, name).__code__ for module, names in _SEARCHES.items()
        for name in names if name != "NodeBudget"}
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            ran.add(frame.f_code.co_name)

    paths = sorted(GOLDEN.glob("*.json"))
    assert len(paths) == 49
    sys.setprofile(profile)
    try:
        for path in paths:
            assert verify_certificate(parse_certificate(path.read_text(encoding="utf-8")))
    finally:
        sys.setprofile(None)
    assert not ran
