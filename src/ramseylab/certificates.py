"""Certificate documents: one JSON object per command run, re-checkable later.

A certificate records the schema, the tool and its version, the command,
its parameter map, the outcome (EXISTS, NOT_EXISTS, VALUE, UNKNOWN), the
value, a witness payload in the text formats, and search statistics; a file
is recorded as the witness text read from it, never as its path.  The
per-command checks re-check a certificate strictly from its payload:
witnesses are re-validated, deterministic formulas are recomputed, but
searches are never re-run, so refutations are vouched for by their exhaustion
statistics and symmetry-scheme identifier.  A refutation by counting edges
costs nothing to redo, so it is re-checked, and so is the greedy cover that a
maximum cover must reach; `cli` holds the command table.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Mapping

from . import __version__ as VERSION
from .errors import ParseError, ValidationError, VerificationError
from .graph_core import (
    GENERATORS,
    Graph,
    color_classes,
    complete_edges,
    graph_from_text,
    is_bipartite,
    is_proper_coloring,
    mycielski_peel,
)
from .ramsey_search import (
    ForbiddenFamily,
    closed_form_c_k,
    counting_refutes,
    parse_family,
    verify_mono_free,
)
from .factor_lab import (
    COVER,
    COVER_SCHEME,
    DECOMP_SCHEME,
    DECOMPOSITION,
    GENERALIZED,
    MAX_COVER_N,
    MAX_COVERABLE_N,
    MAX_FACTORS,
    PROPER,
    _edge_bound,
    _greedy_cover,
    _verify_cover_payload,
    _verify_factor_shapes,
    _verify_hamilton_cycles,
    _verify_star_forests,
    chi_r_report,
)
from .hypergraph_lab import (
    PartiteHypergraph,
    _verify_matching,
    factors_to_hypergraph,
    hypergraph_from_text,
    line_graph,
)
from .extremal import (
    _verify_ach,
    _verify_claim51,
    _verify_plane,
    _verify_truncated_plane,
    ach_bound,
)

SCHEMA = 2
TOOL = "ramseylab"
OUTCOMES = ("EXISTS", "NOT_EXISTS", "VALUE", "UNKNOWN")


def make_certificate(command: str, parameters: Mapping[str, Any], outcome: str, *,
                     value: int | None = None, witness: Mapping[str, Any] | None = None,
                     stats: Mapping[str, Any] | None = None) -> dict:
    if outcome not in OUTCOMES:
        raise ValidationError("OUT_OF_RANGE", f"unknown outcome {outcome!r}")
    return {
        "schema": SCHEMA,
        "tool": TOOL,
        "version": VERSION,
        "command": command,
        "parameters": dict(parameters),
        "outcome": outcome,
        "value": value,
        "witness": dict(witness) if witness is not None else None,
        "stats": dict(stats) if stats is not None else {},
    }


_escape = json.encoder.encode_basestring_ascii


def _encode(val: Any, indent: str) -> str:
    """`val` as `json.dumps(val, sort_keys=True, indent=2)` writes it, where
    `indent` is a newline and the indentation of the line `val` starts on."""
    if isinstance(val, str):
        return _escape(val)
    if val is None:
        return "null"
    if val is True:
        return "true"
    if val is False:
        return "false"
    if isinstance(val, int):
        return int.__repr__(val)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(val, (list, tuple)):
        if not val:
            return "[]"
        # a list of plain ints is one join; a bool among them is written true or false
        items = (map(str, val) if {*map(type, val)} == {int}
                 else [_encode(item, inner) for item in val])
        return "[" + inner + sep.join(items) + indent + "]"
    if isinstance(val, dict):
        if not val:
            return "{}"
        return "{" + inner + sep.join([_escape(key) + ": " + _encode(item, inner)
                                       for key, item in sorted(val.items())]) + indent + "}"
    raise TypeError(f"Object of type {type(val).__name__} is not JSON serializable")


def certificate_to_json(cert: Mapping[str, Any]) -> str:
    """The bytes of `json.dumps(cert, sort_keys=True, indent=2)` and a newline,
    written without the pure-Python encoder that `indent` selects: keys
    sorted, two-space indent, strings escaped to ASCII.  A float or a key
    that is not a string raises TypeError."""
    return _encode(cert, "\n") + "\n"


_FIELDS = ("schema", "tool", "version", "command", "parameters", "outcome", "value",
           "witness", "stats")


def parse_certificate(text: str) -> dict:
    """A certificate with exactly the nine top-level fields of its schema."""
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(cert, dict):
        raise ParseError("certificate must be a JSON object")
    for key in _FIELDS:
        if key not in cert:
            raise ParseError(f"missing certificate field {key!r}")
    if cert["schema"] != SCHEMA:
        raise ParseError(f"unsupported schema {cert['schema']!r}")
    if len(cert) != len(_FIELDS):
        raise ParseError(f"unknown certificate field {min(cert.keys() - set(_FIELDS))!r}")
    if cert["outcome"] not in OUTCOMES:
        raise ParseError(f"unknown outcome {cert['outcome']!r}")
    if not isinstance(cert["parameters"], dict) or not isinstance(cert["stats"], dict):
        raise ParseError("parameters and stats must be objects")
    return cert


# -- payload plumbing -----------------------------------------------------------
#
# Every read of a parameter or witness field goes through these accessors, so
# a field that is missing or of the wrong type is a ParseError, never a
# KeyError, TypeError or ValueError.

_PARAMS = "parameter map"


def _need(payload: Mapping[str, Any] | None, key: str, where: str = "witness payload"):
    if not isinstance(payload, Mapping) or key not in payload:
        raise ParseError(f"{where} lacks {key!r}")
    return payload[key]


def _int(payload: Mapping[str, Any] | None, key: str, where: str = "witness payload") -> int:
    val = _need(payload, key, where)
    if type(val) is not int:  # a JSON true is no integer
        raise ParseError(f"{key!r} must be an integer")
    return val


def _node_count(stats: Mapping[str, Any], key: str) -> None:
    """A search's node count, the one record of a refutation by search, is a
    non-negative integer."""
    val = stats.get(key)
    if type(val) is not int or val < 0:
        raise VerificationError("exhaustion-stats", f"{key!r} must be a non-negative integer")


def _text(payload: Mapping[str, Any] | None, key: str, where: str = "witness payload") -> str:
    val = _need(payload, key, where)
    if not isinstance(val, str):
        raise ParseError(f"{key!r} must be a string")
    return val


def _family(params: Mapping[str, Any]) -> ForbiddenFamily:
    """The family, whose explicit patterns certificates spell inline: a
    token naming a file (@path) is rejected before anything is opened."""
    spec = _text(params, "family", _PARAMS)
    if any(tok.strip().startswith("@") for tok in spec.split(",")):
        raise VerificationError("family-inline", "a certificate's family names no file")
    return parse_family(spec)


def _graphs_payload(payload: Mapping[str, Any] | None, key: str) -> list[Graph]:
    texts = _need(payload, key)
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ParseError(f"{key!r} must be a list of graph texts")
    return [graph_from_text(t) for t in texts]


def _hypergraph_payload(payload: Mapping[str, Any] | None,
                        key: str = "hypergraph") -> PartiteHypergraph:
    return hypergraph_from_text(_text(payload, key))


def _int_list(payload: Mapping[str, Any] | None, key: str) -> list[int]:
    val = _need(payload, key)
    if not isinstance(val, list) or not set(map(type, val)) <= {int}:  # no JSON true
        raise ParseError(f"{key!r} must be a list of integers")
    return val


def _assignment(witness: Mapping[str, Any] | None, n: int, k: int
                ) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """The edges of K_n and the witness's `assignment`, one color in
    0..k - 1 for each: the one input check of an edge coloring of K_n.  It
    colors each edge once, so its classes decompose K_n, and a construction's
    check is one test of every class in use."""
    edges = complete_edges(n)
    colors = _int_list(witness, "assignment")
    if k < 1:
        raise ValidationError("OUT_OF_RANGE", "palette must have at least one color")
    if len(colors) != len(edges):
        raise ValidationError("OUT_OF_RANGE",
                              f"expected {len(edges)} edge colors, got {len(colors)}")
    if any(not 0 <= c < k for c in colors):
        raise ValidationError("OUT_OF_RANGE", f"edge color outside 0..{k - 1}")
    return edges, colors


# -- per-command verifiers --------------------------------------------------------


def _verify_coloring(g: Graph, witness, value, stats, outcome) -> None:
    """The one check of a vertex coloring: proper on g, with value colors; or,
    for a search cut by its budget, with at most upper colors, and value <= upper.
    A claim of chi >= 2 or 3 is re-checked with no search: chi <= 1 means no
    edge, and chi <= 2 is is_bipartite.
    A higher claim peels g to its Mycielski base (chi(M(H)) = chi(H) + 1) and
    re-checks the base's share of it the same way."""
    colors = _int_list(witness, "colors")
    if not is_proper_coloring(g, colors):
        raise VerificationError("proper-coloring", "witness coloring is not proper")
    if outcome == "UNKNOWN":
        upper = _int(stats, "upper", "stats")
        if value > upper or len(set(colors)) > upper:
            raise VerificationError("color-bounds", f"witness uses {len(set(colors))} colors, "
                                    f"claimed lower {value} and upper {upper}")
    elif len(set(colors)) != value:
        raise VerificationError("color-count",
                                f"witness uses {len(set(colors))} colors, claimed {value}")
    levels, base = mycielski_peel(g) if value >= 4 else (0, g)
    k = min(value - 1 - levels, 2)
    if (k == 1 and not base.m) or (k == 2 and is_bipartite(base)):
        raise VerificationError("bipartite",
                                f"the graph is {k + levels}-colorable, claimed {value}")


def _source_graph(params, witness) -> Graph:
    """The witness graph, which must be the generated graph its parameters
    name; a graph read from a file is the witness alone, and no path is kept."""
    g = graph_from_text(_text(witness, "graph"))
    for key, generate in GENERATORS.items():
        if key in params:
            size = _int(params, key, _PARAMS)
            # count first (a star has size + 1 vertices): a forged size builds nothing
            if g.n != size + (key == "star") or generate(size) != g:
                raise VerificationError("source-graph", f"witness graph is not --{key} {size}")
    return g


def _vf_chi(params, value, witness, stats, outcome):
    _verify_coloring(_source_graph(params, witness), witness, value, stats, outcome)


def _vf_clique(params, value, witness, stats, outcome):
    g = _source_graph(params, witness)
    verts = _int_list(witness, "vertices")
    if (len(verts) != value or len(set(verts)) != value
            or not all(0 <= v < g.n for v in verts)):
        raise VerificationError("clique-size", "witness vertex count differs from value")
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if not g.has_edge(u, v):
                raise VerificationError("clique-edges", f"{u} and {v} are not adjacent")
    common = g.full_mask
    for v in verts:
        common &= g.adj[v]
    if outcome == "VALUE" and common:
        raise VerificationError("clique-maximal",
                                f"vertex {common.bit_length() - 1} is adjacent to the whole witness")


def _vf_core(params, value, witness, stats, outcome):
    g = _source_graph(params, witness)
    d = _int(params, "d", _PARAMS)
    core = _int_list(witness, "vertices")
    order = _int_list(witness, "elimination_order")
    if sorted(core + order) != list(range(g.n)):
        raise VerificationError("core-partition",
                                "core plus elimination order must partition the vertices")
    core_mask = 0
    for v in core:
        core_mask |= 1 << v
    for v in core:
        if (g.adj[v] & core_mask).bit_count() < d:
            raise VerificationError("core-degree", f"vertex {v} has core degree < {d}")
    alive = g.full_mask
    for v in order:
        if (g.adj[v] & alive).bit_count() >= d:
            raise VerificationError("elimination-order",
                                    f"vertex {v} still had degree >= {d} when peeled")
        alive &= ~(1 << v)
    if value != len(core):
        raise VerificationError("core-size", "value differs from core size")


def _vf_ramsey(params, value, witness, stats, outcome):
    fam = _family(params)
    k = _int(params, "colors", _PARAMS)
    n = _int(witness, "n")
    if outcome == "UNKNOWN":
        if n != value or n > _int(params, "cap", _PARAMS):
            raise VerificationError("lower-witness",
                                    "witness size differs from the lower bound or exceeds the cap")
    else:
        if value != n:
            raise VerificationError("value-witness", "claimed value differs from witness size")
        for key in ("witness_nodes", "refutation_nodes"):
            _node_count(stats, key)
        if "witness" in stats and (stats["witness"] not in ("walecki", "galaxy")
                                   or stats["witness_nodes"] != 0):
            raise VerificationError("witness-source",
                                    "a built witness is walecki or galaxy, found in 0 nodes")
    bad = verify_mono_free(n, *_assignment(witness, n, k), fam)
    if bad is not None:
        raise VerificationError("mono-free", f"color {bad[0]} contains {bad[1].token}")
    if "refutation" in stats and (stats["refutation"] != "counting"
                                  or not counting_refutes(fam, k, n + 1)):
        raise VerificationError("counting-refutation",
                                f"counting does not refute K_{n + 1} with {k} colors")
    # an exact closed form is the value itself, and bounds every lower bound
    form = closed_form_c_k(fam, k)
    if (form is not None and not (form.asymptotic or form.conditional)
            and (n > form.value if outcome == "UNKNOWN" else n != form.value)):
        raise VerificationError("closed-form", f"c_{k} is {form.value} by its closed form")


def _vf_closed_form(params, value, witness, stats, outcome):
    fam = _family(params)
    k = _int(params, "colors", _PARAMS)
    form = closed_form_c_k(fam, k, delta0=_int(params, "delta0", _PARAMS))
    if outcome == "UNKNOWN":
        if form is not None:
            raise VerificationError("formula-none",
                                    "a closed form exists but the certificate says none")
        return
    if form is None:
        raise VerificationError("formula-missing", "no closed form for these parameters")
    if value != form.value or witness != asdict(form):
        raise VerificationError("formula-value", "closed form fields do not match")


def _vf_cover(params, value, witness, stats, outcome):
    n, r = _int(params, "n", _PARAMS), _int(params, "r", _PARAMS)
    properness = _text(params, "properness", _PARAMS)
    mode = _text(params, "mode", _PARAMS)
    if properness not in (PROPER, GENERALIZED) or mode not in (COVER, DECOMPOSITION):
        raise ParseError(f"unknown cover properness {properness!r} or mode {mode!r}")
    if outcome == "EXISTS":
        factors = _graphs_payload(witness, "factors")
        _verify_cover_payload(n, r, properness, mode, factors, require_cover=True)
    elif outcome == "NOT_EXISTS":
        if not (1 <= n <= MAX_COVER_N and 1 <= r <= MAX_FACTORS):
            raise VerificationError("cover-range", f"cover search runs on 1 <= n <= "
                                    f"{MAX_COVER_N} and 1 <= r <= {MAX_FACTORS}, got {n}, {r}")
        if stats.get("scheme") != (COVER_SCHEME if mode == COVER else DECOMP_SCHEME):
            raise VerificationError("scheme-recorded",
                                    f"refutation does not name the {mode} symmetry scheme")
        _node_count(stats, "nodes")
        # c_r(F6) is chi_r: an F6-free class lies in a generalized factor, so
        # r of them decompose, and so cover, K_n for n up to chi_r's lower bound
        if properness == GENERALIZED and n <= chi_r_report(r).lower:
            raise VerificationError("chi-r-lower", f"{r} generalized factors decompose K_{n}")


def _vf_max_cover(params, value, witness, stats, outcome):
    n, r = _int(params, "n", _PARAMS), _int(params, "r", _PARAMS)
    factors = _graphs_payload(witness, "factors")
    covered = _verify_cover_payload(n, r, GENERALIZED, COVER, factors, require_cover=False)
    if covered.bit_count() != value:
        raise VerificationError("covered-count",
                                f"witness covers {covered.bit_count()} edges, claimed {value}")
    # a value below the edge bound is not optimal by counting: it must reach the greedy cover
    if outcome == "VALUE" and value < _edge_bound(n, r):
        if n > MAX_COVERABLE_N:
            raise VerificationError("n-range", f"max cover takes n <= {MAX_COVERABLE_N}, got {n}")
        greedy = _greedy_cover(n, r)[0]
        if value < greedy:
            raise VerificationError("greedy-cover",
                                    f"the greedy cover takes {greedy} edges, claimed {value}")


def _vf_walecki(params, value, witness, stats, outcome):
    # k classes of 2k + 1 edges each: every color in 0..k - 1 is a Hamilton cycle
    k = _int(params, "k", _PARAMS)
    n = 2 * k + 1
    _verify_hamilton_cycles(color_classes(n, *_assignment(witness, n, k)).values())


def _vf_galaxy(params, value, witness, stats, outcome):
    k = _int(params, "k", _PARAMS)
    n = 2 * k
    _verify_star_forests(color_classes(n, *_assignment(witness, n, k + 1)).values())


def _vf_k11(params, value, witness, stats, outcome):
    _verify_factor_shapes(color_classes(11, *_assignment(witness, 11, 6)).values())


def _vf_chi_r(params, value, witness, stats, outcome):
    r = _int(params, "r", _PARAMS)
    rep = chi_r_report(r, delta0=_int(params, "delta0", _PARAMS))
    claimed = _need(witness, "report")
    if claimed != asdict(rep):
        raise VerificationError("report-fields", "recomputed report differs")
    if outcome == "VALUE" and (rep.status != "EXACT" or value != rep.lower):
        raise VerificationError("report-exact", "VALUE outcome requires an exact report")


def _vf_bijection(params, value, witness, stats, outcome):
    h = _hypergraph_payload(witness)
    factors = _graphs_payload(witness, "factors")
    h2 = factors_to_hypergraph(factors)  # rejects a factor that is not proper
    if h2.part_sizes != h.part_sizes or h2.edges != h.edges:
        raise VerificationError("bijection-roundtrip",
                                "factors do not map back to the hypergraph")


def _vf_match(params, value, witness, stats, outcome):
    if outcome == "UNKNOWN" and stats.get("exact") is not False:
        raise VerificationError("cut-inexact", "a matching cut by its budget is not exact")
    _verify_matching(_hypergraph_payload(witness), _int_list(witness, "matching"), value)


def _vf_line_chi(params, value, witness, stats, outcome):
    # the chromatic index is the chromatic number of the line graph
    _verify_coloring(line_graph(_hypergraph_payload(witness)), witness, value, stats, outcome)


def _vf_ach(params, value, witness, stats, outcome):
    d = _int(params, "d", _PARAMS)
    h = _hypergraph_payload(witness)
    labels = _int_list(witness, "labels")
    m = 3 * d // 2
    if h.part_sizes != (m, m, m):
        raise VerificationError("parts", f"expected three parts of size {m}")
    if len(labels) != h.m:
        raise VerificationError("label-length", "one label per edge required")
    _verify_ach(h, labels, d)
    if value != d:
        raise VerificationError("matching-exact", "matching witness must have size d")
    _verify_matching(h, _int_list(witness, "matching"), d)
    if _int(witness, "bound") != ach_bound(d, m) or not value < ach_bound(d, m):
        raise VerificationError("bound-refuted", "claimed bound is wrong or not beaten")


def _vf_plane(params, value, witness, stats, outcome):
    p = _int(params, "p", _PARAMS)
    lines = _need(witness, "lines")
    if not isinstance(lines, list) or not all(
            isinstance(ln, list) and set(map(type, ln)) <= {int} for ln in lines):
        raise ParseError("'lines' must be a list of integer lists")
    _verify_plane(p, lines)
    if _int(witness, "p") != p:
        raise VerificationError("plane-order", "the witness's order differs from p")


def _vf_truncated_plane(params, value, witness, stats, outcome):
    p = _int(params, "p", _PARAMS)
    h = _hypergraph_payload(witness)
    _verify_truncated_plane(h, p)


def _vf_claim51(params, value, witness, stats, outcome):
    p, m = _int(params, "p", _PARAMS), _int(params, "m", _PARAMS)
    uniformity = _int(params, "uniformity", _PARAMS) if "uniformity" in params else None
    h = _hypergraph_payload(witness)
    _verify_claim51(h, p, m, uniformity)
    if value != m:
        raise VerificationError("matching-exact",
                                "matching witness must have one edge per copy")
    _verify_matching(h, _int_list(witness, "matching"), m)
