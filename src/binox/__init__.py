"""Exploration and mapping of anonymous port-numbered graphs by a mobile
agent whose only sensing is the radius-1 ball around its location."""

from .explorer import (
    ClusterExplorer,
    ClusterStack,
    ExplorationMap,
    PhaseLedger,
    ExplorerInvariantError,
    MapUpdateError,
    PortCollisionError,
    explore,
)
from .families import (
    ConditionReport,
    GeneratorSpec,
    check_interval_condition,
    check_triangle_condition,
    generate,
    is_chordal,
    is_weetman,
    parse_spec,
)
from .graph import (
    Ball,
    ClusterDecomposition,
    GraphFormatError,
    Layering,
    NotATreeError,
    PortNumberedGraph,
    ancestor_cluster,
    ball,
    ball_signature,
    cluster_decomposition,
    component,
    horizontal_count,
    layering,
    load_graph,
    save_graph,
    validate,
)
from .homotopy import (
    ContractibilityAnswer,
    InstanceTooLargeError,
    elementary_moves,
    is_contractible,
    is_simply_connected,
    unfold_tree_cover,
    verify_simplicial_covering,
)
from .runtime import (
    BudgetExhaustedError,
    Environment,
    ExplorationError,
    NoSuchPortError,
    Observation,
    RunOutcome,
    RunTrace,
    TraceFormatError,
    run_agent,
)
from .suite import ExperimentConfig, RunReport, run_one, run_suite
from .verify import (
    CheckResult,
    reconstruct_final_phi,
    rooted_embedding,
    verify_coverage,
    verify_phase_invariants,
    verify_rooted_isomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
