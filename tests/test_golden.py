"""Golden `--deterministic` certificates, compared byte for byte.

Every case runs from inside ``tests/golden`` and names its input files by
relative path, so that it reads the same files wherever the suite runs; no
path is written into a certificate.  Regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` only when a change of output
is intended.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ramseylab import certificates, cli, extremal, factor_lab, hypergraph_lab, ramsey_search
from ramseylab.errors import ParseError, ValidationError, VerificationError

GOLDEN = Path(__file__).resolve().parent / "golden"

# certificate file stem -> argv (without --deterministic)
CASES: dict[str, list[str]] = {
    "chi": ["chi", "--graph", "g.txt"],
    "chi-cycle": ["chi", "--cycle", "7"],
    # a relabelled M(M(C5)): chi = chi(C5) + 2 by Mycielski's theorem
    "chi-mycielski": ["chi", "--graph", "mycielski.txt"],
    "clique": ["clique", "--graph", "g.txt"],
    "core": ["core", "--graph", "g.txt", "--d", "3"],
    "core-star": ["core", "--star", "4", "--d", "2"],
    "ramsey": ["ramsey", "--family", "F4", "--colors", "3", "--cap", "8"],
    "ramsey-k3-star2": ["ramsey", "--family", "K3,STAR:2", "--colors", "2"],
    "ramsey-galaxy": ["ramsey", "--family", "F4", "--colors", "4"],
    "ramsey-cap": ["ramsey", "--family", "F3", "--colors", "2", "--cap", "4"],
    "closed-form": ["closed-form", "--family", "F3", "--colors", "6"],
    "closed-form-unknown": ["closed-form", "--family", "F6", "--colors", "3"],
    "closed-form-delta0": ["closed-form", "--family", "F6", "--colors", "5",
                           "--delta0", "5"],
    "cover": ["cover", "--n", "5", "--r", "3"],
    "cover-refuted": ["cover", "--n", "6", "--r", "3"],
    "cover-proper-decomposition": ["cover", "--n", "9", "--r", "4", "--proper",
                                   "--decomposition"],
    "cover-decomposition": ["cover", "--n", "5", "--r", "3", "--decomposition"],
    "cover-decomposition-refuted": ["cover", "--n", "6", "--r", "3", "--decomposition"],
    "cover-proper": ["cover", "--n", "9", "--r", "4", "--proper"],
    "cover-proper-refuted": ["cover", "--n", "6", "--r", "2", "--proper"],
    "cover-one-factor": ["cover", "--n", "3", "--r", "1"],
    "cover-decomposition-cap": ["cover", "--n", "12", "--r", "6", "--decomposition",
                                "--budget", "2000"],
    "max-cover": ["max-cover", "--n", "6", "--r", "3"],
    # budget cuts: each proves the bounds its witness reaches
    "chi-cut": ["chi", "--complete", "30", "--budget", "3"],
    "clique-cut": ["clique", "--complete", "30", "--budget", "3"],
    "match-cut": ["match", "--hypergraph", "path5.txt", "--budget", "1"],
    "max-cover-cut": ["max-cover", "--n", "12", "--r", "5", "--budget", "100"],
    "walecki": ["walecki", "--k", "4"],
    "galaxy": ["galaxy", "--k", "3"],
    "k11": ["k11"],
    "chi-r": ["chi-r", "--r", "4"],
    "chi-r-interval": ["chi-r", "--r", "6"],
    "chi-r-delta0": ["chi-r", "--r", "5", "--delta0", "5"],
    "bijection": ["bijection", "--hypergraph", "h.txt"],
    "bijection-random": ["bijection", "--random", "2", "3", "--seed", "5"],
    "match": ["match", "--hypergraph", "h.txt"],
    "chromatic-index": ["chromatic-index", "--hypergraph", "h.txt"],
    "ach": ["ach", "--d", "4"],
    "plane": ["plane", "--p", "3"],
    "truncated-plane": ["truncated-plane", "--p", "3"],
    "claim51": ["claim51", "--p", "2", "--m", "2"],
    "claim51-uniformity": ["claim51", "--p", "2", "--m", "2", "--uniformity", "5"],
    # P4 is PATH:3 and S3 is STAR:2; each certificate keeps the given spelling
    "ramsey-k3-p4": ["ramsey", "--family", "K3,P4", "--colors", "3"],
    "ramsey-p4-s3": ["ramsey", "--family", "P4,S3", "--colors", "2"],
    "ramsey-path3": ["ramsey", "--family", "PATH:3", "--colors", "3"],
    "ramsey-k3-explicit-p4": ["ramsey", "--family", "K3,@p4.txt", "--colors", "2"],
    "closed-form-path2": ["closed-form", "--family", "PATH:2", "--colors", "5"],
    "closed-form-match2-s3": ["closed-form", "--family", "MATCH:2,S3", "--colors", "6"],
    # the star-or-triangle cover count refutes K_7 in 0 nodes
    "ramsey-match2-counted": ["ramsey", "--family", "MATCH:2", "--colors", "4"],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = _run(CASES[name] + ["--deterministic"])
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == expected, err
    assert code == (2 if json.loads(expected)["outcome"] == "UNKNOWN" else 0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_deterministic_changes_only_elapsed_ms(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = _run(CASES[name])
    cert = json.loads(out)
    cert["stats"]["elapsed_ms"] = 0
    assert certificates.certificate_to_json(cert) == (
        GOLDEN / f"{name}.json").read_text(encoding="utf-8"), err


def test_golden_top_level_fields_are_schema_2():
    # the field-edit test below edits only parameters and witness, so the
    # top level is pinned here to the nine fields of schema 2
    fields = {"schema", "tool", "version", "command", "parameters", "outcome", "value",
              "witness", "stats"}
    for name in sorted(CASES):
        cert = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert set(cert) == fields and cert["schema"] == certificates.SCHEMA == 2, name


def test_one_command_table():
    assert len(cli.COMMANDS) == 18
    assert {argv[0] for argv in CASES.values()} == set(cli.COMMANDS)
    for name in sorted(CASES):
        cert = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        outcomes = cli.COMMANDS[cert["command"]].outcomes
        assert cert["outcome"] in outcomes, name
        valued = outcomes[cert["outcome"]]
        assert type(cert["value"]) is int if valued else cert["value"] is None, name


# the check of each producer's answer, by the command that prints it
_CHECK_OF = {
    "ramsey": "verify_mono_free", "cover": "_verify_cover_payload",
    "max-cover": "_verify_cover_payload", "walecki": "_verify_hamilton_cycles",
    "galaxy": "_verify_star_forests", "k11": "_verify_factor_shapes", "match": "is_matching",
    "ach": "_verify_ach", "plane": "_verify_plane",
    "truncated-plane": "_verify_truncated_plane", "claim51": "_verify_claim51",
}


def test_each_answer_is_checked_once(monkeypatch):
    """Every call of an answer's check runs inside verify_certificate, where
    run() checks the certificate it prints, and each certificate's check runs
    there once.  The one call elsewhere is verify_mono_free deciding whether
    _built_witness may use a construction."""
    within: list[str] = []  # the callers running now: "verify" or "built"
    calls: list[tuple[str, str | None]] = []

    def entered(where, fn):
        def wrapped(*args, **kwargs):
            within.append(where)
            try:
                return fn(*args, **kwargs)
            finally:
                within.pop()
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, within[-1] if within else None))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "verify_certificate", entered("verify", cli.verify_certificate))
    monkeypatch.setattr(ramsey_search, "_built_witness",
                        entered("built", ramsey_search._built_witness))
    for mod in (certificates, extremal, factor_lab, hypergraph_lab, ramsey_search):
        for name in set(_CHECK_OF.values()) & set(vars(mod)):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.chdir(GOLDEN)
    checked = set()
    for case, argv in sorted(CASES.items()):
        calls.clear()
        code, out, err = _run(argv + ["--deterministic"])
        cert = json.loads(out)
        outside = [c for c in calls if c[1] != "verify" and c != ("verify_mono_free", "built")]
        assert not outside, (case, outside)
        check = _CHECK_OF.get(argv[0])
        if check is not None and cert["witness"] is not None:
            assert calls.count((check, "verify")) == 1, (case, calls)
            checked.add(check)
    assert checked == set(_CHECK_OF.values())


_DELETE = object()  # the mutation that removes a field
_ODD = ("x", -1, None, 1.5)


def _edited(cert: dict, where: tuple, value) -> dict:
    bad = copy.deepcopy(cert)
    *head, last = where
    node = bad
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return bad


def _nested(where: tuple, field):
    """One level below a field: the first and last list element and each
    object field set to odd values (an object field also deleted), and
    integers moved by one."""
    if isinstance(field, list):
        for i in sorted({0, len(field) - 1} if field else ()):
            for value in _ODD:
                yield where + (i,), value
    elif isinstance(field, dict):
        for key in sorted(field):
            for value in (_DELETE,) + _ODD:
                yield where + (key,), value
            if type(field[key]) is int:
                yield where + (key,), field[key] - 1
                yield where + (key,), field[key] + 1
    elif type(field) is int:
        yield where, field - 1
        yield where, field + 1


def _mutations(cert: dict):
    """The outcome relabelled and the value replaced; each key of parameters,
    witness and stats deleted, set to "x", or set to [1]; and one level below each."""
    for outcome in ("EXISTS", "NOT_EXISTS", "VALUE", "UNKNOWN"):
        if outcome != cert["outcome"]:
            yield ("outcome",), outcome
    for value in (None, "x", [1], True, 0, 1.5):
        yield ("value",), value
    if type(cert["value"]) is int:
        yield ("value",), cert["value"] + 1
    for section in ("parameters", "witness", "stats"):
        for key in sorted(cert[section] or {}):
            for value in (_DELETE, "x", [1]):
                yield (section, key), value
            yield from _nested((section, key), cert[section][key])


def test_verify_never_raises_on_mutated_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in sorted(CASES):
        cert = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for where, value in _mutations(cert):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(_edited(cert, where, value), sort_keys=True, indent=2))
            code, out, err = _run(["verify", str(path)])
            assert (code, out) == (0, "true\n") or (
                code == 1 and out == "" and err.startswith("error [")), (name, where, value, err)


_CAP = "a search limit, not part of the claim"
_TRUE = "the edited claim is true as well"
_TRUSTED = "a refutation by search, taken on trust (ROADMAP item 2)"
_NO_CLAIM = "an UNKNOWN with no witness claims nothing"
# (golden, part, key) -> why one edit of the field leaves a certificate that
# still verifies
_UNBOUND: dict[tuple[str, str, str], str] = {
    # a higher cap still lies above the witness, which check lower-witness compares it with
    ("ramsey-cap", "parameters", "cap"): _CAP,
    ("closed-form-match2-s3", "parameters", "colors"): _TRUE,
    ("closed-form-path2", "parameters", "colors"): _TRUE,
    ("core-star", "parameters", "d"): _TRUE,
    ("ramsey-cap", "parameters", "colors"): _TRUE,
    # delta0 moves only F6's form, and F6's at k = 3 not at all
    **{(name, "parameters", "delta0"): _TRUE for name in (
        "closed-form", "closed-form-match2-s3", "closed-form-path2", "closed-form-unknown")},
    ("cover-decomposition-cap", "parameters", "n"): _NO_CLAIM,
    ("cover-decomposition-cap", "parameters", "r"): _NO_CLAIM,
    ("cover-refuted", "parameters", "n"): _TRUSTED,
    ("cover-decomposition-refuted", "parameters", "n"): _TRUSTED,
    ("cover-proper-refuted", "parameters", "n"): _TRUSTED,
    ("cover-proper-refuted", "parameters", "r"): _TRUSTED,
    # the edit claims c_3(F6) = 3, which is false: chi-r --r 3 proves c_3(F6) >= 5
    ("ramsey-p4-s3", "parameters", "colors"): _TRUSTED,
}


def _field_edits(cert: dict):
    """One type-preserving edit of each int, list or string field of
    parameters and witness: the int plus one, the list without its last
    item, the string plus "x".  An empty list has no edit."""
    for part in ("parameters", "witness"):
        for key, value in sorted((cert[part] or {}).items()):
            if type(value) is int:
                yield part, key, value + 1
            elif type(value) is list and value:
                yield part, key, value[:-1]
            elif type(value) is str:
                yield part, key, value + "x"


def test_every_certificate_field_is_bound(monkeypatch):
    # a field that verify ignores lets a certificate claim what it never showed
    monkeypatch.chdir(GOLDEN)
    still_true = set()
    for name in sorted(CASES):
        cert = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for part, key, value in _field_edits(cert):
            try:
                cli.verify_certificate(_edited(cert, (part, key), value))
            except (ParseError, ValidationError, VerificationError):
                continue
            still_true.add((name, part, key))
    assert sorted(still_true) == sorted(_UNBOUND)


@pytest.mark.parametrize("name", sorted(CASES))
def test_parameter_key_the_command_never_writes_is_rejected(name):
    cert = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    cert["parameters"]["seed"] = 9
    with pytest.raises(VerificationError) as exc:
        cli.verify_certificate(cert)
    assert exc.value.check == "parameters"


def _regenerate() -> None:
    os.chdir(GOLDEN)
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv + ["--deterministic"])
        if code not in (0, 2):
            sys.exit(f"{name}: exit {code}: {err}")
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
