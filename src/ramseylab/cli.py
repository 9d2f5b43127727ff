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
import functools
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, Mapping, NamedTuple

from .errors import (
    BudgetExceededError, ParseError, RamseyLabError, ValidationError, VerificationError,
)
from .graph_core import (
    GENERATORS,
    Graph,
    chromatic_number,
    graph_from_text,
    graph_to_text,
    k_core,
    max_clique,
)
from .ramsey_search import (
    closed_form_c_k,
    compute_c_k,
    parse_family,
)
from .factor_lab import (
    COVER,
    DECOMPOSITION,
    DEFAULT_DELTA0,
    GENERALIZED,
    PROPER,
    chi_r_report,
    cover_search,
    galaxy_colors,
    k11_colors,
    max_coverable_edges,
    walecki_colors,
)
from .hypergraph_lab import (
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
    ach_matching,
    claim51_hypergraph,
    claim51_matching,
    projective_plane,
    truncated_plane,
)
from .factor_lab import random_factor
from .certificates import (
    _vf_ach, _vf_bijection, _vf_chi, _vf_chi_r, _vf_claim51, _vf_clique, _vf_closed_form,
    _vf_core, _vf_cover, _vf_galaxy, _vf_k11, _vf_line_chi, _vf_match, _vf_max_cover,
    _vf_plane, _vf_ramsey, _vf_truncated_plane, _vf_walecki, _int,
    certificate_to_json, make_certificate, parse_certificate,
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_graph(args, params: dict[str, Any]) -> Graph:
    if args.graph is not None:
        return graph_from_text(_read_text(args.graph))
    key = next(key for key in GENERATORS if getattr(args, key) is not None)
    params[key] = getattr(args, key)
    return GENERATORS[key](params[key])


# Each handler fills `params` before it starts a search, so that a search cut
# short by its budget certifies the same parameters as a finished one (a
# `ramsey` cut adds its cap), and returns (outcome, value, witness, stats).
# No file path is recorded: the witness carries what was read from the file.


def _cut(exc: BudgetExceededError, witness: dict, **proof):
    """UNKNOWN for a search cut by its budget that proved a bound: its partial
    but the witness as stats, and `proof`, the bound's witness, in the payload."""
    stats = {key: val for key, val in exc.partial.items() if key != "witness"}
    return "UNKNOWN", None, dict(witness, **proof), stats


def _colored(g: Graph, budget: int | None, witness: dict):
    """VALUE with the coloring of `chromatic_number`; a search cut by its
    budget still certifies `upper` by the greedy coloring, as the witness."""
    try:
        res = chromatic_number(g, budget=budget)
    except BudgetExceededError as exc:
        return _cut(exc, witness, colors=list(exc.partial["witness"]))
    return "VALUE", res.value, dict(witness, colors=list(res.colors)), {"nodes": res.nodes}


def _run_chi(args, params):
    g = _load_graph(args, params)
    return _colored(g, args.budget, {"graph": graph_to_text(g)})


def _run_clique(args, params):
    g = _load_graph(args, params)
    witness = {"graph": graph_to_text(g)}
    try:
        size, verts = max_clique(g, budget=args.budget)
    except BudgetExceededError as exc:
        return _cut(exc, witness, vertices=list(exc.partial["witness"]))
    return "VALUE", size, dict(witness, vertices=list(verts)), {}


def _run_core(args, params):
    g = _load_graph(args, params)
    params["d"] = args.d
    res = k_core(g, args.d)
    witness = {"graph": graph_to_text(g), "vertices": list(res.vertices),
               "elimination_order": list(res.elimination_order)}
    return "VALUE", len(res.vertices), witness, {}


def _run_ramsey(args, params):
    fam = parse_family(args.family)
    params.update(family=fam.spec(), colors=args.colors)
    try:
        res = compute_c_k(fam, args.colors, cap=args.cap, budget=args.budget)
    except BudgetExceededError as exc:
        # a scan stopped by its cap or budget still certifies K_lower's
        # coloring, below the cap that check lower-witness compares it with
        params["cap"] = args.cap
        return _cut(exc, {}, n=exc.partial["lower"],
                    assignment=list(exc.partial["witness"]))
    witness = {"n": res.value, "assignment": list(res.witness)}
    stats = {"witness_nodes": res.witness_nodes,
             "refutation_nodes": res.refutation_nodes}
    if res.counted:
        stats["refutation"] = "counting"
    if res.built:
        stats["witness"] = res.built
    return "VALUE", res.value, witness, stats


def _run_closed_form(args, params):
    fam = parse_family(args.family)
    params.update(family=fam.spec(), colors=args.colors, delta0=args.delta0)
    form = closed_form_c_k(fam, args.colors, delta0=args.delta0)
    if form is None:
        return "UNKNOWN", None, None, {}
    return "VALUE", form.value, asdict(form), {}


def _run_cover(args, params):
    properness = PROPER if args.proper else GENERALIZED
    mode = DECOMPOSITION if args.decomposition else COVER
    params.update(n=args.n, r=args.r, properness=properness, mode=mode)
    res = cover_search(args.n, args.r, properness, mode, budget=args.budget)
    stats = {"nodes": res.nodes, "scheme": res.scheme}
    if res.factors is None:
        return "NOT_EXISTS", None, None, stats
    witness = {"factors": [graph_to_text(g) for g in res.factors]}
    return "EXISTS", None, witness, stats


def _run_max_cover(args, params):
    params.update(n=args.n, r=args.r)
    try:
        res = max_coverable_edges(args.n, args.r, budget=args.budget)
    except BudgetExceededError as exc:
        if "witness" not in exc.partial:
            raise
        # a search cut by its budget still certifies the cover in hand
        return _cut(exc, {}, factors=[graph_to_text(g) for g in exc.partial["witness"]])
    witness = {"factors": [graph_to_text(g) for g in res.factors]}
    return "VALUE", res.value, witness, {"nodes": res.nodes}


def _run_walecki(args, params):
    params["k"] = args.k
    return "EXISTS", None, {"assignment": list(walecki_colors(args.k))}, {}


def _run_galaxy(args, params):
    params["k"] = args.k
    return "EXISTS", None, {"assignment": list(galaxy_colors(args.k))}, {}


def _run_k11(args, params):
    return "EXISTS", None, {"assignment": list(k11_colors())}, {}


def _run_chi_r(args, params):
    params.update(r=args.r, delta0=args.delta0)
    rep = chi_r_report(args.r, delta0=args.delta0)
    witness = {"report": asdict(rep)}
    if rep.status == "EXACT":
        return "VALUE", rep.lower, witness, {}
    return "UNKNOWN", None, witness, {}


def _run_bijection(args, params):
    if args.hypergraph is not None:
        factors = hypergraph_to_factors(hypergraph_from_text(_read_text(args.hypergraph)))
    else:
        r, n = args.random
        if r < 1 or n < 1:
            raise ValidationError("OUT_OF_RANGE", "need r >= 1 and n >= 1")
        factors = [random_factor(3 * n, PROPER, seed=args.seed + i) for i in range(r)]
    # the factors and their canonical hypergraph are the claim, which the
    # certificate check re-derives; how the factors were drawn is not recorded
    h = factors_to_hypergraph(factors)
    witness = {"hypergraph": hypergraph_to_text(h),
               "factors": [graph_to_text(g) for g in factors]}
    return "EXISTS", None, witness, {}


def _run_match(args, params):
    h = hypergraph_from_text(_read_text(args.hypergraph))
    witness = {"hypergraph": hypergraph_to_text(h)}
    try:
        res = max_matching(h, budget=args.budget)
    except BudgetExceededError as exc:
        return _cut(exc, witness, matching=list(exc.partial["witness"]))
    return "VALUE", res.size, dict(witness, matching=list(res.witness)), {"nodes": res.nodes}


def _run_line_chi(args, params):
    h = hypergraph_from_text(_read_text(args.hypergraph))
    return _colored(line_graph(h), args.budget, {"hypergraph": hypergraph_to_text(h)})


def _run_ach(args, params):
    params["d"] = args.d
    h, labels = ach_counterexample(args.d)
    witness = {"hypergraph": hypergraph_to_text(h), "labels": list(labels),
               "matching": ach_matching(args.d), "bound": ach_bound(args.d, h.part_sizes[0])}
    return "EXISTS", args.d, witness, {}


def _run_plane(args, params):
    params["p"] = args.p
    witness = {"p": args.p, "lines": [list(ln) for ln in projective_plane(args.p)]}
    return "EXISTS", None, witness, {}


def _run_truncated_plane(args, params):
    params["p"] = args.p
    h = truncated_plane(args.p)
    witness = {"hypergraph": hypergraph_to_text(h)}
    return "EXISTS", None, witness, {}


def _run_claim51(args, params):
    params.update(p=args.p, m=args.m)
    if args.uniformity is not None:
        params["uniformity"] = args.uniformity
    h = claim51_hypergraph(args.p, args.m, uniformity=args.uniformity)
    witness = {"hypergraph": hypergraph_to_text(h),
               "matching": claim51_matching(args.p, args.m)}
    return "EXISTS", args.m, witness, {}


# -- the command table -------------------------------------------------------------


class _Arg:
    """One ``add_argument`` call."""

    def __init__(self, *flags: str, **kwargs: Any):
        self.flags, self.kwargs = flags, kwargs


class _OneOf(NamedTuple):
    """A required group of mutually exclusive options."""

    options: tuple[_Arg, ...]


class Command(NamedTuple):
    """One subcommand: help line, the options its handler reads, handler, the
    check of its certificate, whether each outcome it prints has a value, the
    bounds its UNKNOWN may carry (no other outcome carries any), and the
    parameter keys its handler may write."""

    help: str
    options: tuple[_Arg | _OneOf, ...]
    handler: Callable
    check: Callable
    outcomes: Mapping[str, bool]
    bounds: frozenset[str] = frozenset()
    parameters: frozenset[str] = frozenset()


_BUDGET = _Arg("--budget", type=int, default=None, help="branch-node budget for searches")
_DELTA0 = _Arg("--delta0", type=int, default=DEFAULT_DELTA0,
                help="degree threshold governing the conditional chi_r value")
_DETERMINISTIC = _Arg("--deterministic", action="store_true",
                       help="byte-stable output: elapsed_ms zeroed")
_GRAPH_SOURCE = _OneOf((
    _Arg("--graph", metavar="PATH", help="graph file in the text format"),
    *(_Arg(f"--{key}", type=int, metavar="LEAVES" if key == "star" else "N")
      for key in GENERATORS),
))
_HYPERGRAPH = _Arg("--hypergraph", metavar="PATH", required=True)
_FAMILY = _Arg("--family", required=True,
                help="comma-separated patterns (K3, P4, S3, STAR:r, MATCH:m, "
                     "PATH:l, F1..F7, @file)")
_COLORS = _Arg("--colors", type=int, required=True)
_N = _Arg("--n", type=int, required=True)
_R = _Arg("--r", type=int, required=True)
_K = _Arg("--k", type=int, required=True)
_D = _Arg("--d", type=int, required=True)
_P = _Arg("--p", type=int, required=True)

# outcome -> whether its certificate carries an integer value, for a search
# or formula that may not settle, a construction, and one with its matching size
_SEARCH = {"VALUE": True, "UNKNOWN": False}
_BUILT = {"EXISTS": False}
_MATCHED = {"EXISTS": True}
# the bounds a budget cut proves: lower by the witness in hand; a greedy coloring is upper
_LOWER = frozenset({"lower"})
_INTERVAL = frozenset({"lower", "upper"})
# the parameter key of the generator that built a graph; a graph file writes none
_GENERATED = frozenset(GENERATORS)

# Every command also takes --deterministic; each row lists only the other
# options its handler reads.
COMMANDS: dict[str, Command] = {
    "chi": Command("exact chromatic number", (_GRAPH_SOURCE, _BUDGET), _run_chi, _vf_chi, _SEARCH,
                   _INTERVAL, parameters=_GENERATED),
    "clique": Command("maximum clique", (_GRAPH_SOURCE, _BUDGET), _run_clique, _vf_clique, _SEARCH,
                      _LOWER, parameters=_GENERATED),
    "core": Command("d-core and peeling order", (_GRAPH_SOURCE, _D), _run_core, _vf_core,
                    {"VALUE": True}, parameters=_GENERATED | {"d"}),
    "ramsey": Command("largest n admitting a pattern-free coloring",
                      (_FAMILY, _COLORS, _Arg("--cap", type=int, default=32), _BUDGET),
                      _run_ramsey, _vf_ramsey, _SEARCH, _LOWER,
                      parameters=frozenset({"family", "colors", "cap"})),
    "closed-form": Command("known formula value for a family", (_FAMILY, _COLORS, _DELTA0),
                           _run_closed_form, _vf_closed_form, _SEARCH,
                           parameters=frozenset({"family", "colors", "delta0"})),
    "cover": Command("cover or decompose K_n by r factors", (
        _N, _R,
        _Arg("--proper", action="store_true",
              help="require every factor component to be a triangle"),
        _Arg("--decomposition", action="store_true",
              help="require factors to be pairwise edge-disjoint"),
        _BUDGET), _run_cover, _vf_cover, {"EXISTS": False, "NOT_EXISTS": False, "UNKNOWN": False},
        parameters=frozenset({"n", "r", "properness", "mode"})),
    "max-cover": Command("max K_n edges coverable by r factors", (_N, _R, _BUDGET),
                         _run_max_cover, _vf_max_cover, _SEARCH, _LOWER,
                         parameters=frozenset({"n", "r"})),
    "walecki": Command("Hamilton cycle decomposition of K_{2k+1}", (_K,), _run_walecki, _vf_walecki,
                       _BUILT, parameters=frozenset({"k"})),
    "galaxy": Command("star-forest decomposition of K_{2k}", (_K,), _run_galaxy, _vf_galaxy, _BUILT,
                      parameters=frozenset({"k"})),
    "k11": Command("six generalized factors decomposing K_11", (), _run_k11, _vf_k11, _BUILT),
    "chi-r": Command("extremal chromatic number of r-factor unions", (_R, _DELTA0),
                     _run_chi_r, _vf_chi_r, _SEARCH, parameters=frozenset({"r", "delta0"})),
    "bijection": Command("translate between factor unions and hypergraphs", (
        _OneOf((_Arg("--hypergraph", metavar="PATH"),
                _Arg("--random", nargs=2, type=int, metavar=("R", "N"),
                     help="generate r random proper factors on 3n vertices"))),
        _Arg("--seed", type=int, default=0, help="seed for randomized inputs")),
        _run_bijection, _vf_bijection, _BUILT),
    "match": Command("exact maximum matching", (_HYPERGRAPH, _BUDGET), _run_match, _vf_match,
                     _SEARCH, _LOWER),
    "chromatic-index": Command("exact proper edge-coloring number", (_HYPERGRAPH, _BUDGET),
                               _run_line_chi, _vf_line_chi, _SEARCH, _INTERVAL),
    "ach": Command("matching-bound counterexample hypergraph", (_D,), _run_ach, _vf_ach, _MATCHED,
                   parameters=frozenset({"d"})),
    "plane": Command("projective plane of prime order", (_P,), _run_plane, _vf_plane, _BUILT,
                     parameters=frozenset({"p"})),
    "truncated-plane": Command("plane minus a point, as a hypergraph", (_P,),
                               _run_truncated_plane, _vf_truncated_plane, _BUILT,
                               parameters=frozenset({"p"})),
    "claim51": Command("stacked truncated planes with joining part", (
        _P, _Arg("--m", type=int, required=True),
        _Arg("--uniformity", type=int, default=None)), _run_claim51, _vf_claim51, _MATCHED,
        parameters=frozenset({"p", "m", "uniformity"})),
}


def _add_options(parser, options) -> None:
    for opt in options:
        if isinstance(opt, _OneOf):
            _add_options(parser.add_mutually_exclusive_group(required=True), opt.options)
        else:
            parser.add_argument(*opt.flags, **opt.kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first `run()` and shared
    by the later ones: each parse makes a fresh Namespace, and argparse looks
    up sys.stdout and sys.stderr only when it prints.  Its `commands` maps
    each command name, `verify` included, to the command's own subparser."""
    top = argparse.ArgumentParser(prog="ramseylab",
                                  description="searches, constructions, and "
                                              "certificates for small Ramsey-type"
                                              " and factor-covering questions")
    subs = top.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        _add_options(subs.add_parser(name, help=cmd.help), cmd.options + (_DETERMINISTIC,))
    sp = subs.add_parser("verify", help="re-check a saved certificate")
    sp.add_argument("certificate", metavar="PATH")
    top.commands = subs.choices
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """The Namespace the top-level parser makes of argv, or its SystemExit.
    A command's arguments go straight to the command's subparser, which is
    what the top level runs on them too; an argv without a command name first,
    and any argument that subparser leaves over, go to the top level, so that
    help and every usage error print what they always print."""
    top = _build_parser()
    sub = top.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return top.parse_args(argv)


# the errors a run reports as a coded message and exit 1
_CODED = (ParseError, ValidationError, VerificationError)


def _error(exc: RamseyLabError) -> int:
    """Print the coded error of a failed run; its exit code is 1."""
    check = f" check {exc.check}" if isinstance(exc, VerificationError) else ""
    print(f"error [{exc.code}]{check}: {exc}", file=sys.stderr)
    return 1


def verify_certificate(cert: Mapping[str, Any]) -> bool:
    """Re-check a parsed certificate from its payload alone: only parameter
    keys its row writes, an outcome its row lists, an integer value exactly
    where the row says so, a witness for EXISTS, VALUE and an UNKNOWN whose
    stats claim a lower or upper bound and none for NOT_EXISTS, only the
    bounds the row lets its UNKNOWN carry, then the row's check.  A cut with
    a witness is checked as the VALUE of its lower bound.  Returns True;
    raises VerificationError naming the first violated check, or ParseError
    for structurally unusable payloads."""
    command, outcome = cert["command"], cert["outcome"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    row, value, witness = COMMANDS[command], cert["value"], cert["witness"]
    unknown = cert["parameters"].keys() - row.parameters
    if unknown:
        raise VerificationError("parameters", f"{command} writes no parameter {min(unknown)!r}")
    if outcome not in row.outcomes:
        raise VerificationError("outcome", f"{command} never prints {outcome}")
    valued = row.outcomes[outcome]
    if (type(value) is not int) if valued else (value is not None):
        raise VerificationError("value", f"{outcome} of {command} must carry "
                                f"{'an integer' if valued else 'no'} value")
    if outcome in ("EXISTS", "VALUE") and witness is None:
        raise VerificationError("witness-present", f"{outcome} certificate lacks a witness")
    if outcome == "NOT_EXISTS" and witness is not None:
        raise VerificationError("witness-absent", "NOT_EXISTS certificate has a witness")
    bounds = {"lower", "upper"} & cert["stats"].keys()
    if outcome == "UNKNOWN" and witness is None and bounds:
        raise VerificationError("bounds-witness", "a proven bound lacks its witness")
    extra = bounds - row.bounds if outcome == "UNKNOWN" else bounds
    if extra:
        raise VerificationError("bounds", f"{outcome} of {command} carries no {min(extra)}")
    if outcome == "UNKNOWN" and witness is not None and row.bounds:
        value = _int(cert["stats"], "lower", "stats")
    row.check(cert["parameters"], value, witness, cert["stats"], outcome)
    return True


def _run_verify(path: str) -> int:
    try:
        verify_certificate(parse_certificate(_read_text(path)))
    except _CODED as exc:
        return _error(exc)
    print("true")
    return 0


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code: 0 for a definitive
    certificate (or help, or `verify` printing true), 2 for UNKNOWN, 1 for a
    usage or coded error.  The certificate is self-verified, then written as
    `certificate_to_json` writes it."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "verify":
        return _run_verify(args.certificate)
    params: dict[str, Any] = {}
    started = time.perf_counter()
    try:
        if (getattr(args, "budget", None) or 0) < 0:
            raise ValidationError("OUT_OF_RANGE", f"--budget {args.budget} is negative")
        outcome, value, witness, stats = COMMANDS[args.command].handler(args, params)
    except BudgetExceededError as exc:
        # a cut that proved no bound (the handlers `_cut` every one that did)
        outcome, value, witness, stats = "UNKNOWN", None, None, {"nodes": exc.partial["nodes"]}
    except _CODED as exc:
        return _error(exc)
    elapsed_ms = 0 if args.deterministic else int((time.perf_counter() - started) * 1000)
    stats = dict(stats, elapsed_ms=elapsed_ms)
    cert = make_certificate(args.command, params, outcome, value=value, witness=witness,
                            stats=stats)
    try:
        verify_certificate(cert)
    except _CODED as exc:
        return _error(exc)
    sys.stdout.write(certificate_to_json(cert))
    return 0 if outcome != "UNKNOWN" else 2


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
