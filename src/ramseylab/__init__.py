"""Exact small-scale search and construction tools for Ramsey-type numbers
of forbidden-pattern families, triangle-factor coverings of complete graphs,
their hypergraph correspondence, and extremal matching constructions."""

from .errors import (
    BudgetExceededError,
    ParseError,
    RamseyLabError,
    ValidationError,
    VerificationError,
)
from .graph_core import (
    Graph,
    ChromaticResult,
    KCoreResult,
    NodeBudget,
    build_graph,
    chromatic_number,
    complete_graph,
    connected_components,
    cycle_graph,
    extend_coloring_from_core,
    graph_from_text,
    graph_to_text,
    is_proper_coloring,
    k_core,
    matching_graph,
    max_clique,
    path_graph,
    star_graph,
    union_graphs,
)
from .ramsey_search import (
    FAMILY_PRESETS,
    CkResult,
    ClosedForm,
    EdgeColoring,
    ForbiddenFamily,
    MonoFreeReport,
    Pattern,
    closed_form_c_k,
    compute_c_k,
    explicit_pattern,
    find_copy,
    make_edge_coloring,
    matching_pattern,
    mono_free_search,
    parse_family,
    path_pattern,
    star_pattern,
    verify_mono_free,
)
from .factor_lab import (
    A0_EXCEPTIONS,
    COVER,
    DECOMPOSITION,
    DEFAULT_DELTA0,
    GENERALIZED,
    NOT_A_FACTOR,
    PROPER,
    ChiReport,
    CoverSearchResult,
    MaxCoverResult,
    chi_r_report,
    classify_factor,
    cover_search,
    galaxy_cover,
    k11_cover,
    max_coverable_edges,
    random_factor,
    walecki_decomposition,
)
from .hypergraph_lab import (
    MatchingResult,
    PartiteHypergraph,
    disjoint_copies,
    factors_to_hypergraph,
    hypergraph_from_text,
    hypergraph_to_factors,
    hypergraph_to_text,
    line_graph,
    make_hypergraph,
    max_matching,
    regularity,
)
from .extremal import (
    ProjectivePlane,
    ach_bound,
    ach_counterexample,
    claim51_hypergraph,
    projective_plane,
    truncated_plane,
)
from .certificates import (
    certificate_to_json,
    make_certificate,
    parse_certificate,
)
from .cli import verify_certificate

__version__ = "0.1.0"
