"""Seeded random benchmark generator for probabilistic relational models.

Pipeline: :func:`generate_schema` lays out classes and foreign keys over a
connected DAG, :func:`generate_dependency_structure` plus
:func:`assign_slot_chains` build the attribute-level dependency DAG with
slot-chain annotations, :func:`generate_cpds` fills in the probability
tables, :func:`generate_skeleton` grows a scale-free object graph,
:func:`ground` instantiates the model per object, and
:func:`forward_sample` draws a complete relational dataset. Everything is
deterministic given a seeded ``numpy.random.Generator``.
"""

from .dag import (
    CyclicGraphError,
    Dag,
    DagPolicy,
    RejectionBudgetError,
    generate_connected_dag,
    generate_random_dag,
    is_acyclic,
    is_weakly_connected,
    sample_connected_dags,
    topological_order,
)
from .deps import (
    AGGREGATORS,
    AttributeNode,
    Cpd,
    Dependency,
    DependencyStructure,
    GenerationError,
    Prm,
    Slot,
    SlotChain,
    assign_slot_chains,
    canonical_parent_order,
    draw_slot_chain,
    enumerate_slot_chains,
    generate_cpds,
    generate_dependency_structure,
    simplify_slot_chain,
    slot_chain_weights,
)
from .export import (
    ModelFormatError,
    emit_csv,
    emit_sql,
    parse_prm,
    read_csv_dataset,
    serialize_prm,
)
from .gbn import (
    AggregateParent,
    ClassTable,
    Dataset,
    GbnNode,
    GroundBayesianNetwork,
    aggregate_mode,
    chain_matrices,
    forward_sample,
    ground,
    resolve_slot_chain,
    skeleton_from_dataset,
)
from .metrics import (
    ContingencyCounts,
    DirichletPrior,
    count_contingencies,
    marginal_report,
    rbd_family_scores,
    rbd_score,
    render_report,
)
from .schema import (
    AttributeDef,
    ClassDef,
    GenerationPolicy,
    ReferenceSlot,
    RelationalSchema,
    ValidationReport,
    generate_schema,
    poisson_inverse,
    validate_schema,
)
from .skeleton import (
    NEW_OBJECT,
    CrpConfig,
    ObjectRef,
    RelationalSkeleton,
    crp_choose,
    generate_skeleton,
    validate_skeleton,
)

__version__ = "0.1.0"
