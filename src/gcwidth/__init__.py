"""Width parameters of generalized convex bipartite graphs.

Recognition of host-graph supports (path / cycle / star / degree-bounded
tree), width-bounded branch decomposition constructions, thinness and
proper thinness machinery, exact small-instance oracles, and seeded
instance families, all behind a batch CLI.
"""

from .graphs import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    parse_graph,
    serialize_graph,
)
from .supports import (
    SupportWitness,
    recognize_circular,
    recognize_convex,
    recognize_star,
    recognize_tdelta,
    tree_support_degree_bounded,
    verify_support,
    witness_from_json,
    witness_to_json,
)
from .decomp import (
    BranchDecomposition,
    CutReport,
    SizeGuardError,
    caterpillar_from_ordering,
    decompose_circular,
    decompose_convex,
    decompose_spider,
    decompose_tdelta,
    decomposition_from_json,
    decomposition_to_json,
    max_induced_matching_cut,
    mimw_oracle,
    simw_oracle,
    spider_bound,
    tdelta_bound,
    validate_decomposition,
    width_of,
)
from .thinness import (
    PathDecomposition,
    ThinRepresentation,
    linear_bd_from_thin,
    parse_pathdecomp,
    pathdecomp_to_pthin,
    pthin_oracle,
    representation_from_json,
    representation_to_json,
    serialize_pathdecomp,
    thin_from_tree_support,
    thin_oracle,
    verify_consistent,
    verify_pathdecomp,
    verify_strongly_consistent,
)
from .families import (
    GenSpec,
    augment_comb,
    augment_star,
    comb_witness_for_augmented,
    gen_crown,
    gen_gk,
    gen_grid,
    gen_random_hconvex,
    parse_genspec,
    run_genspec,
    star_witness_for_augmented,
)

__version__ = "0.1.0"
