"""ramseylab benchmark: closed-loop CLI workloads with checked answers.

    python3 bench/run.py --workload ck_search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client sends one request at a time, each an in-process call to
``ramseylab.cli.run(argv)`` with ``--deterministic``; every certificate is then
re-checked through ``verify`` and every answer is compared with the
reference in ``oracle.py``.  A run repeats the workload's batch of requests
as many whole times as its nominal batch time fits into ``--seconds``, and
at least twice, so node counts can be compared between batches.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics.  The last
line of standard output is one JSON object; a results file with a machine
note goes to ``bench/results/``.  See ``bench/LAYERS.md`` for what each
workload exercises and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("ck_search", "factor_match", "cli_certify")
SETUP_PROBES = 15


PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "import ramseylab, ramseylab.cli; print(time.monotonic())")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def setup_seconds() -> list[float]:
    """Interpreter start until ``import ramseylab`` returns, in fresh
    processes, each scaled to the reference speed by the kernel runs around
    it; one unmeasured probe first writes the bytecode caches."""
    import speed
    subprocess.run([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                   capture_output=True, timeout=60, check=True)
    clock = speed.Clock()
    times = []
    for i in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
        clock.probe()
    return [t * clock.factor(i) for i, t in enumerate(times)]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "load1_start": os.getloadavg()[0],
            "seed": seed, "commit": _commit()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import harness
    import workloads
    from tracing import Tracer

    note = machine_note(seed)
    setup = setup_seconds()
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = workloads.Inputs(workdir)
        wl = workloads.build(name, seed, inputs, harness.reference)
        count = max(2, int(seconds // wl.nominal_batch_s))
        plain, traced, tracers = [], [], []
        for b in range(count):
            if trace and b % 2:
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(harness.run_batch(wl, workdir, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            else:
                plain.append(harness.run_batch(wl, workdir, None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    batches = plain + traced
    e2e = harness.end_to_end(wl, plain)
    counts = harness.end_to_end(wl, batches)
    drift = harness.node_drift(batches)
    note["load1_end"] = os.getloadavg()[0]
    metrics = {
        "setup_s": harness.median(setup),
        "wall_s": harness.median([b.wall for b in plain]),
        "issue_p50_ms": e2e["issue"]["p50"],
        "issue_tail_ms": e2e["issue"]["tail"],
        "verify_p50_ms": e2e["verify"]["p50"],
        "verify_tail_ms": e2e["verify"]["tail"],
        "definitive_ratio": e2e["definitive_ratio"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": note, "setup_samples_s": setup, "end_to_end": metrics,
              "samples": {"issue": e2e["issue"], "verify": e2e["verify"],
                          "batches": len(plain)},
              "raw_wall_s": harness.median([b.raw_wall for b in plain]),
              "speed": harness.median([b.speed for b in plain]),
              "attempted": counts["attempted"], "failed": counts["failed"],
              "wrong": counts["wrong"], "correct": counts["wrong"] == 0 and not drift,
              "error_rate": counts["failed"] / counts["attempted"],
              "known_defect_tracebacks": counts["known_defect_tracebacks"],
              "node_drift": [wl.requests[i].argv for i in drift],
              "failures": harness.failures(wl, batches[0]),
              "oracle_conflicts": harness.oracle.closed_form_conflicts(harness.closed_form),
              "nodes": {_key(wl, o.index, workdir): o.nodes
                        for o in batches[0].outcomes if o.kind == "issue"},
              "latency_ms": [[_key(wl, o.index, workdir), o.kind, o.seconds * 1000]
                             for o in batches[0].outcomes]}
    if trace:
        names = metric_units("per_layer")
        layers = [harness.per_layer(wl, t, b, names) for t, b in zip(tracers, traced)]
        per = {k: sum(m[k] for m in layers) / len(layers) for k in layers[0]}
        per["trace.overhead_ratio"] = (harness.median([b.wall for b in traced])
                                       / metrics["wall_s"])
        result["per_layer"] = per
        result["per_layer_missing"] = harness.missing_metrics(tracers[0])
        result["layer_sum_s"] = harness.layer_sum(per)
        tracers[0].dump(RESULTS / f"{name}-seed{seed}-spans.jsonl")
    result["behaviour_change"] = _compare_previous(result)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _key(wl, index: int, workdir: Path) -> str:
    return " ".join(wl.requests[index].argv).replace(str(workdir), "<work>")


def _compare_previous(result: dict) -> list[str]:
    """Node counts that differ from an earlier results file of the same
    workload and seed: a behaviour change, not an error."""
    changed = []
    for t in (0, 1):
        path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{t}.json"
        if not path.exists():
            continue
        try:
            old = json.loads(path.read_text(encoding="utf-8")).get("nodes", {})
        except (OSError, ValueError):
            continue
        for argv, nodes in result["nodes"].items():
            if argv in old and list(old[argv]) != list(nodes):
                changed.append(f"{argv}: {old[argv]} -> {list(nodes)}")
    return sorted(set(changed))


def report(result: dict) -> dict:
    """Print the human-readable report; return the contract's JSON object."""
    m, note = result["end_to_end"], result["machine"]
    print(f"ramseylab benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"machine: python {note['python']}, nproc {note['nproc']}, {note['cpu']}, "
          f"load1 {note['load1_start']:.2f} -> {note['load1_end']:.2f}, "
          f"commit {note['commit']}")
    print(f"times are scaled to the reference speed of bench/speed.py; "
          f"median speed during the batches {result['speed']:.3f}")
    s = result["samples"]
    extra = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "wall_s": f"median of {s['batches']} untraced batches, raw {result['raw_wall_s']:.4f} s",
        "issue_p50_ms": f"n={s['issue']['n']}",
        "issue_tail_ms": f"p{s['issue']['tail_pct']:g}, n={s['issue']['n']}, "
                         f"{s['issue']['beyond']} beyond",
        "verify_p50_ms": f"n={s['verify']['n']}",
        "verify_tail_ms": f"p{s['verify']['tail_pct']:g}, n={s['verify']['n']}, "
                          f"{s['verify']['beyond']} beyond",
        "definitive_ratio": "exit 0 among valid issue requests",
        "peak_rss_mb": "this process",
    }
    e2e_units = metric_units("end_to_end")
    for key, unit in e2e_units.items():
        print(f"  {key:<18} {m[key]:>12.4f} {unit:<5} ({extra[key]})")
    print(f"  {'error_rate':<18} {result['error_rate']:>12.4f} ratio "
          f"({result['failed']} failed of {result['attempted']}; "
          f"{result['known_defect_tracebacks']} are known traceback defects)")
    for line in result["failures"]:
        print(f"  failed: {line}")
    for line in result["node_drift"]:
        print(f"  NODE COUNTS DIFFER BETWEEN BATCHES: {line}")
    for line in result["behaviour_change"]:
        print(f"  behaviour change against the previous run of this seed: {line}")
    for line in result["oracle_conflicts"]:
        print(f"  oracle conflict (not a request): {line}")
    if result["trace"]:
        per, missing = result["per_layer"], set(result["per_layer_missing"])
        for key, value in per.items():
            flag = "  MISSING" if key in missing else ""
            print(f"  {key:<38} {value:>16.6f}{flag}")
        print(f"  layers' self time + harness = {result['layer_sum_s']:.6f} s, "
              f"traced wall_s = {per['trace.wall_s']:.6f} s")
        metrics = {k: {"value": per[k], "unit": u}
                   for k, u in metric_units("per_layer").items()}
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in e2e_units.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, so no memory or lazy set-up leaks."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ramseylab" / "__init__.py").is_file():
        print(f"bench: no ramseylab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ramseylab
    if Path(ramseylab.__file__).resolve().parent != SRC / "ramseylab":
        print(f"bench: imported ramseylab from {ramseylab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
