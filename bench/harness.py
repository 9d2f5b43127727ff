"""Runs a workload's batches in process and checks every answer.

A batch issues each request through ``ramseylab.cli.run`` with
``--deterministic``, saves every certificate and re-checks it with the
``verify`` subcommand.  Each request is compared with its reference exit
code, outcome and value.  Every batch of a run repeats the same requests, so
the node counts of the certificates must repeat exactly from batch to batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import ramseylab.cli as cli
from ramseylab.ramsey_search import closed_form_c_k, parse_family

import oracle
import speed
import workloads
from tracing import LAYERS, SPANS, Tracer

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NODE_KEYS = ("witness_nodes", "refutation_nodes", "nodes")


def closed_form(family: str, k: int):
    return closed_form_c_k(parse_family(family), k)


def reference(family: str, k: int) -> int:
    value = oracle.reference_ck(family, k, closed_form)
    if value is None:
        raise ValueError(f"no reference c_{k}({family})")
    return value


def call(argv: list[str]) -> tuple[int | None, str, str, str, float]:
    """One in-process CLI call: (exit code or None, stdout, stderr,
    exception text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as e:  # a traceback is a failed request, not a failed run
        exc = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue(), exc, time.perf_counter() - start


@dataclass
class Outcome:
    """What one request did in one batch."""

    index: int
    kind: str  # issue | verify | malformed
    seconds: float  # scaled to the reference speed (speed.py)
    exit: int | None
    failure: str = ""
    wrong: bool = False  # a contradicted answer, or a traceback not a known defect
    nodes: tuple = ()
    bytes: int = 0


@dataclass
class Batch:
    wall: float  # scaled to the reference speed
    raw_wall: float
    speed: float
    outcomes: list[Outcome] = field(default_factory=list)


def _check_issue(req: workloads.Request, code, out: str) -> tuple[str, tuple]:
    accepted = [(req.exit, req.outcome, req.value),
                *((0, outcome, value) for outcome, value in req.if_finished)]
    if code not in {a[0] for a in accepted}:
        return f"exit {code}, expected {req.exit}", ()
    try:
        cert = json.loads(out)
    except json.JSONDecodeError:
        return "no certificate on stdout", ()
    nodes = tuple(cert["stats"].get(k) for k in NODE_KEYS)
    if (code, cert["outcome"], cert["value"]) not in accepted:
        return (f"exit {code}, {cert['outcome']} {cert['value']}; expected one of "
                f"{accepted}"), nodes
    return "", nodes


def run_batch(wl: workloads.Workload, workdir: Path, tracer: Tracer | None) -> Batch:
    outcomes: list[Outcome] = []
    probe_of: list[int] = []
    clock = speed.Clock()
    for i, req in enumerate(wl.requests):
        probe_of.append(clock.maybe_probe())
        if tracer is not None:
            tracer.request = 2 * i
        argv = req.argv + ["--deterministic"]
        code, out, err, exc, secs = call(argv)
        kind = "malformed" if req.malformed else "issue"
        res = Outcome(i, kind, secs, code, bytes=len(out))
        if exc:  # a traceback is wrong unless it is a known defect
            res.failure, res.wrong = exc, not req.known_defect
        elif req.malformed:
            if code != 1 or not err.startswith("error ["):
                res.failure, res.wrong = f"exit {code} without a coded error", True
        else:
            res.failure, res.nodes = _check_issue(req, code, out)
            res.wrong = bool(res.failure)
        outcomes.append(res)
        if kind != "issue" or not out:
            continue
        path = workdir / f"cert-{i}.json"
        path.write_text(out, encoding="utf-8")
        if tracer is not None:
            tracer.request = 2 * i + 1
        code, vout, _, exc, secs = call(["verify", str(path)])
        ver = Outcome(i, "verify", secs, code)
        if exc:
            ver.failure, ver.wrong = exc, True
        elif code != 0 or vout.strip() != "true":
            ver.failure, ver.wrong = f"verify exit {code}", True
        if ver.failure and not res.failure:
            res.failure, res.wrong = "certificate rejected by verify", True
        outcomes.append(ver)
        probe_of.append(probe_of[-1])
    clock.probe()
    for o, p in zip(outcomes, probe_of):
        o.seconds *= clock.factor(p)
    raw, scaled = clock.work()
    return Batch(scaled, raw, clock.speed(), outcomes)


# -- statistics -------------------------------------------------------------------


def nearest_rank(sorted_xs: list[float], pct: float) -> float:
    return sorted_xs[max(0, math.ceil(pct / 100 * len(sorted_xs)) - 1)]


def latency(xs: list[float]) -> dict:
    """Median and the highest ladder percentile with at least ten samples
    beyond it, in milliseconds, with the sample count."""
    xs = sorted(x * 1000 for x in xs)
    n = len(xs)
    tail_pct = 50.0
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            tail_pct = pct
            break
    return {"p50": nearest_rank(xs, 50.0), "tail": nearest_rank(xs, tail_pct),
            "tail_pct": tail_pct, "n": n,
            "beyond": n - math.ceil(tail_pct / 100 * n)}


def median(xs: list[float]) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def end_to_end(wl: workloads.Workload, batches: list[Batch]) -> dict:
    outs = [o for b in batches for o in b.outcomes]
    issue = latency([o.seconds for o in outs if o.kind == "issue"])
    verify = latency([o.seconds for o in outs if o.kind == "verify"])
    valid = [o for o in outs if o.kind == "issue"]
    failed = [o for o in outs if o.failure]
    return {
        "issue": issue,
        "verify": verify,
        "definitive_ratio": sum(1 for o in valid if o.exit == 0) / len(valid),
        "attempted": len(outs),
        "failed": len(failed),
        "wrong": sum(1 for o in outs if o.wrong),
        "known_defect_tracebacks": sum(1 for o in failed if o.kind == "malformed"
                                       and wl.requests[o.index].known_defect
                                       and o.exit is None),
    }


def node_drift(batches: list[Batch]) -> list[int]:
    """Request indices whose node counts differ between batches."""
    first = {o.index: o.nodes for o in batches[0].outcomes if o.kind == "issue"}
    return sorted({o.index for b in batches[1:] for o in b.outcomes
                   if o.kind == "issue" and o.nodes != first[o.index]})


def failures(wl: workloads.Workload, batch: Batch) -> list[str]:
    return [f"{o.kind} {' '.join(wl.requests[o.index].argv)}: {o.failure}"
            for o in batch.outcomes if o.failure]


# -- per-layer metrics from a traced batch --------------------------------------------


def _span_metric(tracer: Tracer, name: str, rid: int,
                 wl: workloads.Workload) -> str | None:
    """Metric a span adds to; verify_certificate and cover_search split by request."""
    layer, metric = tracer.layer_of(name)
    if metric is None:
        return None
    if metric == "check":
        metric = "verify_s" if rid % 2 else "selfcheck_s"
    elif metric == "cover":
        req = wl.requests[rid // 2]
        metric = "decomp_s" if req.tags.get("decomposition") else "cover_s"
    return f"{layer}.{metric}"


def per_layer(wl: workloads.Workload, tracer: Tracer, batch: Batch,
              names) -> dict[str, float]:
    """Per-layer values of one traced batch: counts per batch, and seconds
    scaled like the end-to-end times by the batch's mean speed factor."""
    m = {name: 0.0 for name in names if not name.startswith("trace.")}
    own = tracer.self_times()
    kind_time: dict[str, float] = {}
    for rec, self_s in zip(tracer.spans, own):
        name, start, end, parent, rid = rec
        layer, _ = tracer.layer_of(name)
        m[f"{layer}.self_s"] += self_s
        if layer == "extremal":
            m["extremal.calls"] += 1
        if parent < 0:
            m["harness.self_s"] -= end - start
        key = _span_metric(tracer, name, rid, wl)
        if key is not None:
            m[key] += end - start
        if key == "ramsey_search.search_s":
            kind = wl.requests[rid // 2].tags.get("kind", "other")
            kind_time[kind] = kind_time.get(kind, 0.0) + end - start
    m["harness.self_s"] += batch.raw_wall
    kind_nodes: dict[str, float] = {}
    for o in batch.outcomes:
        req = wl.requests[o.index]
        m["cli.calls"] += 1
        if o.exit is None:
            m["cli.exceptions"] += 1
        elif o.exit in (0, 1, 2):
            m[f"cli.exit{o.exit}"] += 1
        if o.kind != "issue":
            continue
        m["certificates.bytes"] += o.bytes
        witness, refutation, nodes = (x or 0 for x in o.nodes) if o.nodes else (0, 0, 0)
        command = req.argv[0]
        if command == "ramsey":
            total = witness + refutation + nodes
            m["ramsey_search.witness_nodes"] += witness
            m["ramsey_search.refutation_nodes"] += refutation
            m["ramsey_search.nodes"] += total
            kind = req.tags.get("kind", "other")
            kind_nodes[kind] = kind_nodes.get(kind, 0) + total
        elif command == "cover":
            key = "decomp_nodes" if req.tags.get("decomposition") else "cover_nodes"
            m[f"factor_lab.{key}"] += nodes
        elif command == "max-cover":
            m["factor_lab.max_cover_nodes"] += nodes
        elif command in ("match", "ach"):
            m["hypergraph_lab.match_nodes"] += nodes
            if req.tags.get("r") == 2:
                m["hypergraph_lab.match_nodes.r2"] += nodes
    scale = batch.wall / batch.raw_wall
    for key in m:
        if key.endswith("_s"):
            m[key] *= scale
    m["ramsey_search.nodes_per_s"] = _rate(m["ramsey_search.nodes"], m["ramsey_search.search_s"])
    for kind in ("p4", "star", "path", "matching"):
        m[f"ramsey_search.nodes_per_s.{kind}"] = _rate(kind_nodes.get(kind, 0),
                                                       kind_time.get(kind, 0.0) * scale)
    m["hypergraph_lab.match_nodes_per_s"] = _rate(m["hypergraph_lab.match_nodes"],
                                                  m["hypergraph_lab.match_s"])
    m["trace.wall_s"] = batch.wall
    return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def missing_metrics(tracer: Tracer) -> list[str]:
    """Per-layer metrics none of whose wrapped names exist any more."""
    present: dict[str, bool] = {}
    for modname, attr, layer, metric in SPANS:
        if metric is None:
            continue
        names = {"check": ("selfcheck_s", "verify_s"),
                 "cover": ("cover_s", "decomp_s")}.get(metric, (metric,))
        for n in names:
            key = f"{layer}.{n}"
            present[key] = present.get(key, False) or f"{modname}.{attr}" not in tracer.missing
    return sorted(k for k, ok in present.items() if not ok)


def layer_sum(m: dict[str, float]) -> float:
    return sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["harness.self_s"]
