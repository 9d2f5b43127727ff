"""Spans around the calls into each ramseylab module, recorded from outside.

The tracer replaces module attributes at the names through which
``ramseylab.cli`` and ``ramseylab.certificates`` reach the other modules
(for example ``ramseylab.cli.compute_c_k``), and restores them afterwards;
no file under ``src/`` changes.  A span is ``[name, start, end, parent,
request id]``; spans stay in memory until the run ends.  A name that a later
refactor removes is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

CLI = "ramseylab.cli"
CERT = "ramseylab.certificates"

# (module, attribute, layer, metric the span's duration adds to or None)
SPANS: list[tuple[str, str, str, str | None]] = [
    (CLI, "run", "cli", None),
    (CLI, "make_certificate", "certificates", "make_s"),
    (CLI, "certificate_to_json", "certificates", "serialize_s"),
    (CLI, "verify_certificate", "certificates", "check"),
    (CLI, "parse_certificate", "certificates", "parse_s"),
    (CLI, "compute_c_k", "ramsey_search", "search_s"),
    (CLI, "parse_family", "ramsey_search", None),
    (CLI, "closed_form_c_k", "ramsey_search", None),
    (CERT, "verify_mono_free", "ramsey_search", None),
    (CERT, "parse_family", "ramsey_search", None),
    (CERT, "closed_form_c_k", "ramsey_search", None),
    (CERT, "has_copy", "ramsey_search", None),
    (CLI, "cover_search", "factor_lab", "cover"),
    (CLI, "max_coverable_edges", "factor_lab", "max_cover_s"),
    (CLI, "walecki_decomposition", "factor_lab", "construct_s"),
    (CLI, "galaxy_cover", "factor_lab", "construct_s"),
    (CLI, "k11_cover", "factor_lab", "construct_s"),
    (CLI, "chi_r_report", "factor_lab", "construct_s"),
    (CLI, "random_factor", "factor_lab", "construct_s"),
    (CERT, "chi_r_report", "factor_lab", "construct_s"),
    (CERT, "classify_factor", "factor_lab", None),
    (CLI, "max_matching", "hypergraph_lab", "match_s"),
    (CLI, "chromatic_index", "hypergraph_lab", "chromatic_index_s"),
    (CLI, "line_graph", "hypergraph_lab", "line_graph_s"),
    (CERT, "line_graph", "hypergraph_lab", "line_graph_s"),
    (CLI, "factors_to_hypergraph", "hypergraph_lab", "bijection_s"),
    (CLI, "hypergraph_to_factors", "hypergraph_lab", "bijection_s"),
    (CERT, "factors_to_hypergraph", "hypergraph_lab", "bijection_s"),
    (CLI, "hypergraph_from_text", "hypergraph_lab", None),
    (CLI, "hypergraph_to_text", "hypergraph_lab", None),
    (CERT, "hypergraph_from_text", "hypergraph_lab", None),
    (CERT, "regularity", "hypergraph_lab", None),
    (CLI, "chromatic_number", "graph_core", "chromatic_s"),
    (CLI, "max_clique", "graph_core", "clique_s"),
    (CLI, "k_core", "graph_core", "core_s"),
    (CLI, "graph_from_text", "graph_core", "text_io_s"),
    (CLI, "graph_to_text", "graph_core", "text_io_s"),
    (CERT, "graph_from_text", "graph_core", "text_io_s"),
    (CERT, "graph_to_text", "graph_core", "text_io_s"),
    (CLI, "complete_graph", "graph_core", None),
    (CLI, "cycle_graph", "graph_core", None),
    (CLI, "path_graph", "graph_core", None),
    (CLI, "star_graph", "graph_core", None),
    (CLI, "union_graphs", "graph_core", None),
    (CERT, "union_graphs", "graph_core", None),
    (CERT, "is_proper_coloring", "graph_core", None),
    (CLI, "ach_counterexample", "extremal", "build_s"),
    (CLI, "claim51_hypergraph", "extremal", "build_s"),
    (CLI, "projective_plane", "extremal", "build_s"),
    (CLI, "truncated_plane", "extremal", "build_s"),
    (CLI, "ach_bound", "extremal", None),
    (CERT, "ach_bound", "extremal", None),
]

LAYERS = ("cli", "certificates", "ramsey_search", "factor_lab",
          "hypergraph_lab", "graph_core", "extremal")


class Tracer:
    """Install with ``install()``; every wrapped call appends one span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._layer: dict[str, tuple[str, str | None]] = {}

    def install(self) -> None:
        self.missing = []
        for modname, attr, layer, metric in SPANS:
            name = f"{modname}.{attr}"
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            self._layer[name] = (layer, metric)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def layer_of(self, name: str) -> tuple[str, str | None]:
        return self._layer[name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
