"""Task-graph model: specifications, explicit graphs, validation, analytics.

A *task graph* is a DAG whose vertices are tasks and whose edges point from
a producer task to each consumer that uses one of its outputs.  Following
the paper (Section III), a graph is described to the scheduler through a
:class:`~repro.graph.taskspec.TaskGraphSpec`: a unique *key* per task, a
distinguished *sink* task that transitively depends on everything, ordered
``predecessors``/``successors`` functions, and a ``compute`` callback.

The graph is *dynamic*: the scheduler discovers vertices lazily by walking
predecessor lists backward from the sink, so a spec never needs to
materialize the full vertex set up front.  The helpers in
:mod:`repro.graph.analysis` do materialize it (breadth-first from the sink)
for structure analytics such as Table I of the paper.
"""

from repro.graph.taskspec import BlockRef, ComputeContext, TaskGraphSpec, TaskSpecBase
from repro.graph.plan import PlanTable, TaskPlan, plans_of
from repro.graph.explicit import ExplicitTaskGraph
from repro.graph.validate import GraphValidationError, validate_spec
from repro.graph.analysis import (
    GraphStats,
    collect_tasks,
    critical_path_length,
    graph_stats,
    topological_order,
    work_and_span,
)
from repro.graph.io import load_graph, save_graph, spec_from_dict, spec_to_dict
from repro.graph.builders import (
    chain_graph,
    diamond_graph,
    fork_join_graph,
    grid_graph,
    random_dag,
)

__all__ = [
    "BlockRef",
    "ComputeContext",
    "TaskGraphSpec",
    "TaskSpecBase",
    "PlanTable",
    "TaskPlan",
    "plans_of",
    "ExplicitTaskGraph",
    "GraphValidationError",
    "validate_spec",
    "GraphStats",
    "collect_tasks",
    "critical_path_length",
    "graph_stats",
    "topological_order",
    "work_and_span",
    "load_graph",
    "save_graph",
    "spec_from_dict",
    "spec_to_dict",
    "chain_graph",
    "diamond_graph",
    "fork_join_graph",
    "grid_graph",
    "random_dag",
]
