"""De Bruijn graphs, sequences and greedy minimal walks for languages with
forbidden substrings."""

from .counting import (
    count_converging_spanning_trees,
    count_eulerian_cycles,
    integer_determinant,
    lower_bound_report,
)
from .errors import (
    AmbiguousComponentError,
    DeBruijnError,
    EmptyGraphError,
    NotEulerianError,
    NotIrreducibleError,
    TheoremViolationError,
    TooLargeError,
)
from .graph import (
    Arc,
    DeBruijnGraph,
    IrreducibilityReport,
    arc_to_word,
    build_graph,
    check_irreducible,
    export_dot,
    graph_from_arcs,
    graph_from_json,
    graph_to_json,
    walk_label_target,
    word_to_arc,
)
from .language import (
    Alphabet,
    Language,
    Word,
    enumerate_words,
    estimate_growth_rate,
    is_circular_word,
    parse_language_text,
)
from .oracle import (
    DEFAULT_MAX_ARCS,
    EnumerationResult,
    GlobalMinimum,
    Verdict,
    certify_minimal_walk,
    enumerate_eulerian_cycles,
    global_minimal_label,
    minimal_eulerian_label,
    verdict_to_json,
)
from .structure import (
    Decision,
    MaxArcAnalysis,
    Obstruction,
    VerificationReport,
    VertexClass,
    analysis_to_json,
    analyze_max_arcs,
    check_cycle_label_blocks,
    classify_vertex,
    decide_minimal_is_eulerian,
    enumerate_obstructions,
    verify_cycle_structure,
    verify_exhaustion_order,
    verify_floor_paths,
    verify_greedy_decision,
    verify_label_monotonicity,
    verify_overlap_bounds,
)
from .walks import (
    AvoidSet,
    Walk,
    check_avoid_set,
    eulerian_cycle,
    exhaustion_order,
    minimal_walk,
    walk_avoiding,
    walk_to_json,
)

__version__ = "0.1.0"
