"""Exact small-scale search and construction tools for Ramsey-type numbers
of forbidden-pattern families, triangle-factor coverings of complete graphs,
their hypergraph correspondence, and extremal matching constructions.

Each name is imported from its module (`ramseylab.cli`, `ramseylab.graph_core`,
...); the package root holds only the version."""

__version__ = "0.1.0"
