"""Finite-scale combinatorics of FIN_k block sequences.

Core algebra (spans, condensations, decompositions), monochromatic searches,
combinatorial forcing with the two-alternative dichotomy, canonical
equivalence relations, coideal constructions, and the exact bridge to the
delta-net of the positive sphere of c0.
"""

from .canonical import (
    CanonicalizationResult,
    EquivRelSpec,
    LevelStats,
    SosResult,
    canonicalize_search,
    candidate_relations,
    level_stats,
    parse_relation,
    restriction_equals,
    sos_check,
    t_count,
)
from .coideals import (
    CoidealPresentation,
    DiagonalizationReport,
    RefineResult,
    common_condensation,
    diagonal_build,
    diagonalizes_check,
    first_common_condensation,
    mu,
    partition_refine,
)
from .core import (
    BlockSeq,
    BudgetExceeded,
    Decomposition,
    FinkElement,
    FinkError,
    IncompatibleStem,
    InvalidElement,
    InvalidSequence,
    ParseError,
    Window,
    WindowExhausted,
    block_sum,
    decompose,
    format_element,
    format_seq,
    generators,
    initial_segments,
    leq,
    neighborhood,
    parse_element,
    parse_seq,
    recompose,
    sequences_over,
    span_enumerate,
    tetris,
    validate_element,
    window_elements,
)
from .forcing import (
    AcceptsResult,
    DichotomyResult,
    FamilySpec,
    ForcingVerdict,
    OpenSetResult,
    RejectsResult,
    accepts,
    decides,
    galvin_dichotomy,
    open_set_ramsey,
    parse_family,
    rejects,
)
from .gowers import (
    ColoringSpec,
    SearchReport,
    VerifyReport,
    gowers_search,
    parse_coloring,
    ramsey2_search,
    verify_finite_gowers,
)
from .net import (
    NetFunction,
    format_net_function,
    k_for_epsilon,
    parse_net_function,
    theta,
    theta_inv,
)

__version__ = "0.1.0"
