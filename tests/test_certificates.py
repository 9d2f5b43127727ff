"""Certificate documents: construction, parsing, strict re-verification."""

from __future__ import annotations

import json

import pytest

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
