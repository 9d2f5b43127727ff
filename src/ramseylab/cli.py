"""Command line front end.

Every subcommand runs one computation and prints one JSON certificate to
standard output.  Exit code 0 means a definitive outcome (EXISTS,
NOT_EXISTS, VALUE), 2 means UNKNOWN (budget or cap exhausted, or no closed
form known), 1 means a usage or validation error.  The certificate is
self-verified before printing; `verify` re-checks a saved one from its
payload alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

from .errors import (
    BudgetExceededError,
    CapReachedError,
    ParseError,
    RamseyLabError,
    ValidationError,
    VerificationError,
)
from .graph_core import (
    Graph,
    chromatic_number,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    k_core,
    max_clique,
    path_graph,
    star_graph,
    union_graphs,
)
from .ramsey_search import (
    DEFAULT_DELTA0,
    closed_form_c_k,
    compute_c_k,
    parse_family,
)
from .factor_lab import (
    COVER,
    DECOMPOSITION,
    GENERALIZED,
    PROPER,
    chi_r_report,
    cover_search,
    galaxy_cover,
    k11_cover,
    max_coverable_edges,
    walecki_decomposition,
)
from .hypergraph_lab import (
    chromatic_index,
    factors_to_hypergraph,
    hypergraph_from_text,
    hypergraph_to_factors,
    hypergraph_to_text,
    line_graph,
    max_matching,
)
from .extremal import (
    ach_bound,
    ach_counterexample,
    claim51_hypergraph,
    projective_plane,
    truncated_plane,
)
from .factor_lab import random_factor
from .certificates import (
    certificate_to_json,
    make_certificate,
    parse_certificate,
    verify_certificate,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help="branch-node budget for searches")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (accepted for compatibility; "
                          "searches currently run sequentially)")
    sub.add_argument("--delta0", type=int, default=DEFAULT_DELTA0,
                     help="degree threshold governing the conditional chi_r value")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized inputs")
    sub.add_argument("--deterministic", action="store_true",
                     help="byte-stable output: canonical witnesses, elapsed_ms zeroed")


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", metavar="PATH", help="graph file in the text format")
    grp.add_argument("--complete", type=int, metavar="N")
    grp.add_argument("--cycle", type=int, metavar="N")
    grp.add_argument("--path", type=int, metavar="N")
    grp.add_argument("--star", type=int, metavar="LEAVES")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ramseylab",
                                  description="searches, constructions, and "
                                              "certificates for small Ramsey-type"
                                              " and factor-covering questions")
    subs = top.add_subparsers(dest="command", required=True)

    for name, doc in (("chi", "exact chromatic number"),
                      ("clique", "maximum clique"),
                      ("core", "d-core and peeling order")):
        sp = subs.add_parser(name, help=doc)
        _add_graph_source(sp)
        if name == "core":
            sp.add_argument("--d", type=int, required=True)
        _add_common(sp)

    sp = subs.add_parser("ramsey", help="largest n admitting a pattern-free coloring")
    sp.add_argument("--family", required=True,
                    help="comma-separated patterns (K3, P4, S3, STAR:r, MATCH:m, "
                         "PATH:l, F1..F7, @file)")
    sp.add_argument("--colors", type=int, required=True)
    sp.add_argument("--cap", type=int, default=32)
    _add_common(sp)

    sp = subs.add_parser("closed-form", help="known formula value for a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--colors", type=int, required=True)
    _add_common(sp)

    sp = subs.add_parser("cover", help="cover or decompose K_n by r factors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--proper", action="store_true",
                    help="require every factor component to be a triangle")
    sp.add_argument("--decomposition", action="store_true",
                    help="require factors to be pairwise edge-disjoint")
    _add_common(sp)

    sp = subs.add_parser("max-cover", help="max K_n edges coverable by r factors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    _add_common(sp)

    for name, doc in (("walecki", "Hamilton cycle decomposition of K_{2k+1}"),
                      ("galaxy", "star-forest covering of K_{2k}")):
        sp = subs.add_parser(name, help=doc)
        sp.add_argument("--k", type=int, required=True)
        _add_common(sp)

    sp = subs.add_parser("k11", help="six generalized factors covering K_11")
    _add_common(sp)

    sp = subs.add_parser("chi-r", help="extremal chromatic number of r-factor unions")
    sp.add_argument("--r", type=int, required=True)
    _add_common(sp)

    sp = subs.add_parser("bijection",
                         help="translate between factor unions and hypergraphs")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--hypergraph", metavar="PATH")
    grp.add_argument("--random", nargs=2, type=int, metavar=("R", "N"),
                     help="generate r random proper factors on 3n vertices")
    _add_common(sp)

    for name, doc in (("match", "exact maximum matching"),
                      ("chromatic-index", "exact proper edge-coloring number")):
        sp = subs.add_parser(name, help=doc)
        sp.add_argument("--hypergraph", metavar="PATH", required=True)
        _add_common(sp)

    sp = subs.add_parser("ach", help="matching-bound counterexample hypergraph")
    sp.add_argument("--d", type=int, required=True)
    _add_common(sp)

    for name, doc in (("plane", "projective plane of prime order"),
                      ("truncated-plane", "plane minus a point, as a hypergraph")):
        sp = subs.add_parser(name, help=doc)
        sp.add_argument("--p", type=int, required=True)
        _add_common(sp)

    sp = subs.add_parser("claim51", help="stacked truncated planes with joining part")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--uniformity", type=int, default=None)
    _add_common(sp)

    sp = subs.add_parser("verify", help="re-check a saved certificate")
    sp.add_argument("certificate", metavar="PATH")
    return top


def _load_graph(args) -> tuple[Graph, dict[str, Any]]:
    if args.graph is not None:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.graph}: {exc}") from None
        return graph_from_text(text), {"graph": args.graph}
    if args.complete is not None:
        return complete_graph(args.complete), {"complete": args.complete}
    if args.cycle is not None:
        return cycle_graph(args.cycle), {"cycle": args.cycle}
    if args.path is not None:
        return path_graph(args.path), {"path": args.path}
    return star_graph(args.star), {"star": args.star}


def _load_hypergraph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return hypergraph_from_text(text)


# Each handler returns (parameters, outcome, value, witness, stats).


def _run_chi(args):
    g, src = _load_graph(args)
    res = chromatic_number(g, budget=args.budget)
    witness = {"graph": graph_to_text(g), "colors": list(res.witness.colors)}
    return src, "VALUE", res.value, witness, {}


def _run_clique(args):
    g, src = _load_graph(args)
    size, verts = max_clique(g, budget=args.budget)
    witness = {"graph": graph_to_text(g), "vertices": list(verts)}
    return src, "VALUE", size, witness, {}


def _run_core(args):
    g, src = _load_graph(args)
    res = k_core(g, args.d)
    params = dict(src, d=args.d)
    witness = {"graph": graph_to_text(g), "vertices": list(res.vertices),
               "elimination_order": list(res.elimination_order)}
    return params, "VALUE", len(res.vertices), witness, {}


def _run_ramsey(args):
    fam = parse_family(args.family)
    params = {"family": fam.spec(), "colors": args.colors, "cap": args.cap}
    try:
        res = compute_c_k(fam, args.colors, cap=args.cap, budget=args.budget)
    except CapReachedError as exc:
        stats = {"lower": exc.partial["lower"], "cap": args.cap}
        return params, "UNKNOWN", None, None, stats
    witness = {"n": res.value, "assignment": list(res.witness.assignment)}
    stats = {"witness_nodes": res.witness_nodes,
             "refutation_nodes": res.refutation_nodes}
    return params, "VALUE", res.value, witness, stats


def _run_closed_form(args):
    fam = parse_family(args.family)
    params = {"family": fam.spec(), "colors": args.colors, "delta0": args.delta0}
    form = closed_form_c_k(fam, args.colors, delta0=args.delta0)
    if form is None:
        return params, "UNKNOWN", None, None, {}
    witness = {"value": form.value, "asymptotic": form.asymptotic,
               "conditional": form.conditional, "note": form.note}
    return params, "VALUE", form.value, witness, {}


def _run_cover(args):
    properness = PROPER if args.proper else GENERALIZED
    mode = DECOMPOSITION if args.decomposition else COVER
    params = {"n": args.n, "r": args.r, "properness": properness, "mode": mode}
    res = cover_search(args.n, args.r, properness, mode, budget=args.budget)
    stats = {"nodes": res.nodes, "scheme": res.scheme}
    if res.cover is None:
        return params, "NOT_EXISTS", None, None, stats
    witness = {"factors": [graph_to_text(g) for g in res.cover.factors]}
    return params, "EXISTS", None, witness, stats


def _run_max_cover(args):
    params = {"n": args.n, "r": args.r}
    res = max_coverable_edges(args.n, args.r, budget=args.budget)
    witness = {"factors": [graph_to_text(g) for g in res.cover.factors]}
    return params, "VALUE", res.value, witness, {"nodes": res.nodes}


def _run_walecki(args):
    cycles = walecki_decomposition(args.k)
    witness = {"cycles": [graph_to_text(g) for g in cycles]}
    return {"k": args.k}, "EXISTS", None, witness, {}


def _run_galaxy(args):
    classes = galaxy_cover(args.k)
    witness = {"classes": [graph_to_text(g) for g in classes]}
    return {"k": args.k}, "EXISTS", None, witness, {}


def _run_k11(args):
    fc = k11_cover()
    witness = {"factors": [graph_to_text(g) for g in fc.factors]}
    return {}, "EXISTS", None, witness, {}


def _run_chi_r(args):
    rep = chi_r_report(args.r, delta0=args.delta0)
    params = {"r": args.r, "delta0": args.delta0}
    witness = {"report": {"r": rep.r, "lower": rep.lower, "upper": rep.upper,
                          "status": rep.status, "delta0": rep.delta0,
                          "note": rep.note}}
    if rep.status == "EXACT":
        return params, "VALUE", rep.lower, witness, {}
    return params, "UNKNOWN", None, witness, {}


def _run_bijection(args):
    if args.hypergraph is not None:
        h_in = _load_hypergraph(args.hypergraph)
        factors = hypergraph_to_factors(h_in)
        params = {"hypergraph": args.hypergraph}
    else:
        r, n = args.random
        if r < 1 or n < 1:
            raise ValidationError("OUT_OF_RANGE", "need r >= 1 and n >= 1")
        factors = [random_factor(3 * n, PROPER, seed=args.seed + i) for i in range(r)]
        params = {"random": [r, n], "seed": args.seed}
    # canonical hypergraph of these factors; the identity is exact by labeling
    h = factors_to_hypergraph(factors)
    if line_graph(h) != union_graphs(factors):
        raise VerificationError("line-graph-identity",
                                "bijection produced inconsistent translations")
    witness = {"hypergraph": hypergraph_to_text(h),
               "factors": [graph_to_text(g) for g in factors]}
    return params, "EXISTS", None, witness, {}


def _run_match(args):
    h = _load_hypergraph(args.hypergraph)
    params = {"hypergraph": args.hypergraph}
    try:
        res = max_matching(h, budget=args.budget, deterministic=args.deterministic)
    except BudgetExceededError as exc:
        stats = {"nodes": exc.partial.get("nodes", 0),
                 "lower": exc.partial.get("lower_bound", 0), "exact": False}
        return params, "UNKNOWN", None, None, stats
    witness = {"hypergraph": hypergraph_to_text(h), "matching": list(res.witness)}
    return params, "VALUE", res.size, witness, {"nodes": res.nodes}


def _run_chromatic_index(args):
    h = _load_hypergraph(args.hypergraph)
    params = {"hypergraph": args.hypergraph}
    value = chromatic_index(h, budget=args.budget)
    if h.m:
        colors = list(chromatic_number(line_graph(h), budget=args.budget).witness.colors)
    else:
        colors = []
    witness = {"hypergraph": hypergraph_to_text(h), "colors": colors}
    return params, "VALUE", value, witness, {}


def _run_ach(args):
    h, labeling = ach_counterexample(args.d)
    res = max_matching(h, budget=args.budget, deterministic=args.deterministic)
    if res.size != args.d:
        raise VerificationError("matching-exact",
                                f"solver found {res.size}, construction promises {args.d}")
    witness = {"hypergraph": hypergraph_to_text(h), "labels": list(labeling.labels),
               "matching": list(res.witness), "bound": ach_bound(args.d, labeling.m)}
    return ({"d": args.d}, "EXISTS", res.size, witness, {"nodes": res.nodes})


def _run_plane(args):
    plane = projective_plane(args.p)
    witness = {"p": plane.p, "lines": [list(ln) for ln in plane.lines]}
    return {"p": args.p}, "EXISTS", None, witness, {}


def _run_truncated_plane(args):
    h = truncated_plane(args.p)
    witness = {"hypergraph": hypergraph_to_text(h)}
    return {"p": args.p}, "EXISTS", None, witness, {}


def _run_claim51(args):
    h = claim51_hypergraph(args.p, args.m, uniformity=args.uniformity)
    per_copy = args.p * args.p * args.p * args.m
    matching = [c * per_copy + c for c in range(args.m)]
    params = {"p": args.p, "m": args.m}
    if args.uniformity is not None:
        params["uniformity"] = args.uniformity
    witness = {"hypergraph": hypergraph_to_text(h), "matching": matching}
    return params, "EXISTS", args.m, witness, {}


_HANDLERS = {
    "chi": _run_chi,
    "clique": _run_clique,
    "core": _run_core,
    "ramsey": _run_ramsey,
    "closed-form": _run_closed_form,
    "cover": _run_cover,
    "max-cover": _run_max_cover,
    "walecki": _run_walecki,
    "galaxy": _run_galaxy,
    "k11": _run_k11,
    "chi-r": _run_chi_r,
    "bijection": _run_bijection,
    "match": _run_match,
    "chromatic-index": _run_chromatic_index,
    "ach": _run_ach,
    "plane": _run_plane,
    "truncated-plane": _run_truncated_plane,
    "claim51": _run_claim51,
}


def _run_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error [PARSE_ERROR]: cannot read {args.certificate}: {exc}",
              file=sys.stderr)
        return 1
    try:
        cert = parse_certificate(text)
        verify_certificate(cert)
    except (ParseError, ValidationError) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"error [VERIFY_FAILED] check {exc.check}: {exc}", file=sys.stderr)
        return 1
    print("true")
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "verify":
        return _run_verify(args)
    handler = _HANDLERS[args.command]
    started = time.perf_counter()
    try:
        params, outcome, value, witness, stats = handler(args)
    except BudgetExceededError as exc:
        safe = {k: v for k, v in exc.partial.items() if isinstance(v, (int, bool, str))}
        params = {k: v for k, v in vars(args).items()
                  if k != "command" and isinstance(v, (int, bool, str))}
        cert = make_certificate(args.command, params, "UNKNOWN",
                                stats=dict(safe, elapsed_ms=0), delta0=args.delta0)
        sys.stdout.write(certificate_to_json(cert))
        return 2
    except (ValidationError, ParseError) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = 0 if args.deterministic else int((time.perf_counter() - started) * 1000)
    stats = dict(stats, elapsed_ms=elapsed_ms)
    cert = make_certificate(args.command, params, outcome, value=value,
                            witness=witness, stats=stats, delta0=args.delta0)
    verify_certificate(cert)
    cert["verified"] = True
    sys.stdout.write(certificate_to_json(cert))
    return 0 if outcome != "UNKNOWN" else 2


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
