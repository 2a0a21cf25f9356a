"""loopfloer: a symbolic calculus for loop-type bordered invariants of
manifolds with torus boundary."""

from .algebra import (
    ChainComplexF2,
    DecoratedGraph,
    GraphError,
    HomologyResult,
    homology,
    is_lspace_complex,
    multiply,
    reduce_graph,
)
from .detection import (
    SlopeSet,
    is_lspace_slope,
    is_simple,
    is_strict_lspace_slope,
    lspace_interval,
    normalize_simple,
    stern_brocot_slopes,
)
from .gluing import glue_is_lspace, lspace_aligned
from .loops import (
    Letter,
    Loop,
    LoopWord,
    WordError,
    canonicalize,
    euler_chars,
    format_loops,
    graph_to_words,
    mirror,
    parse_loops,
    parse_word,
    rational_longitude,
    word_to_graph,
)
from .oracle import (
    TypeAStructure,
    box_tensor,
    fill_oracle,
    make_bounded,
    pair_is_lspace,
    to_type_a,
)
from .plumbing import (
    PipelineError,
    PlumbingTree,
    TreeError,
    cfd,
    classify_vertices,
    hf_dim_closed,
    merge_loops,
    n_t_tree,
    parse_tree,
    seifert_tree,
    staircase_loop,
)
from .twists import (
    INFINITY,
    FillingResult,
    Slope,
    TwistWord,
    ex,
    fill,
    reparametrize,
    twist,
)

__version__ = "0.1.0"
