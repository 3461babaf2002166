"""Exploration and mapping of anonymous port-numbered graphs by a mobile
agent whose only sensing is the radius-1 ball around its location."""

from .explorer import (
    ClusterExplorer,
    ExplorationMap,
    PhaseLedger,
    ExplorerInvariantError,
    MapUpdateError,
    explore,
)
from .families import (
    GeneratorSpec,
    condition_failure,
    generate,
    parse_spec,
)
from .graph import (
    Ball,
    GraphFormatError,
    PortCollisionError,
    PortNumberedGraph,
    ball,
    cluster_decomposition,
    component,
    layering,
    load_graph,
    save_graph,
    validate,
)
from .homotopy import verify_simplicial_covering
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
from .verify import verify_rooted_isomorphism

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
