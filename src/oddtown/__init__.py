"""Workbench for parity (mod-2) oddtown-style set systems: verification of
the intersection rules, the explicit extremal constructions, conversions
between covers and set tuples, inclusion-matrix ranks, and exact
minimum-cover search at small parameters.
"""

from .gf2 import (
    Gf2Matrix,
    GfpMatrix,
    InternalCheckError,
    is_linearly_independent,
    rank_gf2,
    rank_gfp,
)
from .setsystems import (
    SetFamily,
    SubsetBits,
    TupleSystem,
    VerifyReport,
    Violation,
    add_shared_element,
    intersection_parity,
    oddtown_certificate,
    reduce_33_oddtown,
    verify_bollobas_tuple,
    verify_kt_oddtown,
    verify_oddtown,
    verify_skew_oddtown,
)
from .covers import (
    GpCover,
    KPartiteProduct,
    Mod2Cover,
    OkBicliqueCover,
    cover_to_ok_biclique_cover,
    cover_to_tuple,
    coverage_parity,
    distinct_index_count,
    is_target_edge,
    link_cover,
    permute_gp_cover,
    restrict_cover,
    tuple_to_cover,
    verify_exact_gp_cover,
    verify_mod2_cover,
    verify_ok_biclique_cover,
)
from .constructions import (
    PatternPartition,
    admissible_n,
    build_b22_pair,
    build_cover_22,
    build_cover_33,
    build_cover_43,
    build_cover_t2,
    build_kt_oddtown_family,
    build_partition_cover,
    falling_factorial,
    reduce_triple_b33,
    reduce_tuple_to_pair,
    set_partitions,
    stirling2,
    trivial_gp_cover,
)
from .ranks import (
    InclusionMatrix,
    OrderedKneserView,
    binomial_mod_p,
    build_inclusion_matrix,
    cover_size_lower_bound,
    kneser_adjacency,
    kneser_rank_lower_bound,
    wilson_rank,
)
from .search import (
    ExactBResult,
    SearchInstance,
    SearchOutcome,
    TableRow,
    bounds_table,
    build_search_instance,
    exact_b,
    flattening_rank_bound,
    min_mod2_cover,
)

__version__ = "0.1.0"
