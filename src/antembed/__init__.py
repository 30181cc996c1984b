"""Antidirected trees in dense digraphs: embedders, selectors, oracles, generators."""

from .antitree import (
    AntiTree,
    DegreeStats,
    DoubleBroom,
    RootedAntiTree,
    SpineDecomposition,
    caterpillar_decompose,
    degree_stats,
    double_broom,
    enumerate_antitrees,
    is_caterpillar,
    reverse_antitree,
    rooted_view,
    validate_antitree,
)
from .convex import (
    ConvexDigraph,
    GoodArcTable,
    embed_caterpillar,
    embed_caterpillar_mindeg,
    good_arcs,
    good_arcs_mindeg,
)
from .digraph import (
    DegreeProfile,
    Digraph,
    degree_profile,
    parse_arclist,
    reverse,
    to_arclist,
)
from .embedding import Embedding, validate_embedding
from .errors import (
    AntembedError,
    HypothesisViolated,
    InternalAssertion,
    NotACaterpillar,
    NotAntidirected,
    NotATree,
)
from .freeness import ForbiddenWitness, common_neighborhood, is_k2s_free
from .oracle_gen import (
    SearchStats,
    audit_projective,
    brute_good_arcs,
    enumerate_digraphs,
    gen_burr,
    gen_incidence,
    gen_random_dense,
    oracle_embed,
    sample_antitree,
)
from .subdigraph import (
    SelectionResult,
    prune_pseudo,
    select_subdigraph,
)
from .tree_embedder import (
    CaseTag,
    EmbedOutcome,
    embed_antitree,
    oracle_fallback,
)
