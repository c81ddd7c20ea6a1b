"""Grounding a PRM over a skeleton and forward-sampling a dataset.

The ground network has one node per (object, descriptive attribute), but it
is kept implicit: an attribute topological order plus one resolved matrix
per distinct slot chain. Row i of a chain matrix holds the objects the
chain reaches from object i of its source class. The matrix is the product
of the chain's slot incidence matrices (GraphBLAS-style joins, Kepner et
al., HPEC 2016): a forward slot has exactly one nonzero per owner row, at
the target id; an inverse slot is its transpose. Single-valued chains
therefore contribute one parent per object; multi-valued ones an aggregate
over however many objects the row holds (possibly none; an empty aggregate
reads as state 0).

Because the attribute DAG is acyclic, its topological order is a valid order
for every ground node (the PRM acyclicity condition of Friedman, Getoor,
Koller and Pfeffer, IJCAI 1999). Sampling thus draws one attribute column
at a time over every object of its class, so the dataset realizes both the
referential structure and the probabilistic one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .dag import topological_order
from .deps import AttributeNode, Cpd, Prm, Slot, SlotChain
from .schema import RelationalSchema, ReferenceSlot
from .skeleton import ObjectRef, RelationalSkeleton, check_targets

__all__ = [
    "AggregateParent",
    "Dataset",
    "ClassTable",
    "GbnNode",
    "GroundBayesianNetwork",
    "aggregate_mode",
    "chain_matrices",
    "forward_sample",
    "ground",
    "mode_rows",
    "parent_configurations",
    "parent_sizes",
    "resolve_slot_chain",
    "skeleton_from_dataset",
]


def resolve_slot_chain(
    sk: RelationalSkeleton, start: ObjectRef, chain: SlotChain
) -> frozenset[ObjectRef]:
    """Objects reached from ``start`` by walking the chain; set semantics.

    This walks one object at a time. The pipeline resolves every object of a
    class at once with :func:`chain_matrices`; this walk is its reference.
    """
    if start.class_index != chain.source_class:
        raise ValueError(
            f"start object of class {start.class_index} does not match "
            f"chain source {chain.source_class}"
        )
    current = {start}
    for slot in chain.slots:
        if slot.inverted:
            cls = slot.base.owner_class
            current = {
                ObjectRef(cls, owner_id)
                for obj in current
                for owner_id in sk.referrers(slot.base, obj.object_id)
            }
        else:
            current = {sk.target_of(obj, slot.base) for obj in current}
    return frozenset(current)


def aggregate_mode(values, domain_size: int) -> int:
    """Most frequent state; ties break to the lowest index, empty input to 0."""
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    counts = [0] * domain_size
    for v in values:
        counts[v] += 1
    best = 0
    for i in range(1, domain_size):
        if counts[i] > counts[best]:
            best = i
    return best


def mode_rows(
    members: sparse.csr_array, column: np.ndarray, domain_size: int
) -> np.ndarray:
    """:func:`aggregate_mode` of ``column[members[i]]`` for every row i at once.

    ``argmax`` takes the first maximum and gives 0 for an all-zero row, which
    are exactly aggregate_mode's rules for ties and empty sets.
    """
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    # int32, not the matrix's bool: one row can count ~1e5 members.
    onehot = np.zeros((len(column), domain_size), dtype=np.int32)
    onehot[np.arange(len(column)), column] = 1
    return (members @ onehot).argmax(axis=1)


_AGGREGATE_ROWS = {"MODE": mode_rows}


def _functional(targets: np.ndarray, n_targets: int) -> sparse.csr_array:
    """Boolean CSR matrix with one nonzero per row i, at column targets[i]."""
    indptr = np.arange(len(targets) + 1, dtype=targets.dtype)
    return sparse.csr_array(
        (np.ones(len(targets), dtype=bool), targets, indptr),
        shape=(len(targets), n_targets),
    )


def chain_matrices(chains, links) -> dict[SlotChain, sparse.csr_array]:
    """Resolve each distinct chain for every object of its source class.

    ``links`` is a :class:`RelationalSkeleton` or a :class:`Dataset`: anything
    with ``object_counts`` and a range-checked ``fk_column(slot)``. Row i of a
    chain's boolean CSR matrix lists, in ascending order, the ids of the
    objects the chain reaches from object i: the set
    :func:`resolve_slot_chain` returns.

    The slot matrices multiply left to right, so each intermediate product
    holds exactly the deduplicated per-step object sets of the one-object
    walk, and time and memory follow their total size. Multiplying right to
    left can build far larger intermediates (hub class x target class).
    Boolean products add by OR, so every stored entry stays True.
    """
    counts = links.object_counts
    incidence: dict[Slot, sparse.csr_array] = {}
    out: dict[SlotChain, sparse.csr_array] = {}
    for chain in chains:
        if chain in out:
            continue
        resolved = None
        for slot in chain.slots:
            step = incidence.get(slot)
            if step is None:
                base = slot.base
                # The column's ids become raw CSR indices, which scipy does
                # not bound-check; fk_column guarantees 0 <= id < count.
                step = _functional(
                    links.fk_column(base), counts[base.referenced_class]
                )
                if slot.inverted:
                    step = step.T.tocsr()
                incidence[slot] = step
            resolved = step if resolved is None else resolved @ step
        if resolved is None:  # the empty chain reaches its start object
            n = counts[chain.source_class]
            resolved = _functional(np.arange(n, dtype=np.int32), n)
        resolved.sort_indices()
        out[chain] = resolved
    return out


def parent_sizes(schema: RelationalSchema, parents) -> list[int]:
    """Domain size of each parent attribute, in the given parent order."""
    return [
        len(schema.attribute(d.parent.class_index, d.parent.attribute_index).domain)
        for d in parents
    ]


def _cpd_rows(schema: RelationalSchema, cpd: Cpd) -> np.ndarray:
    """The CPD as a dense array, one row per parent configuration.

    Rows are in row-major order over the parent domains, so the row of a
    configuration is its :func:`parent_configurations` index.
    """
    sizes = parent_sizes(schema, cpd.parent_order)
    return np.array(
        [cpd.table[c] for c in itertools.product(*(range(s) for s in sizes))]
    )


def parent_configurations(
    schema: RelationalSchema, parents, chains, columns, n: int
) -> np.ndarray:
    """Row-major index of every object's parent configuration.

    ``parents`` is a CPD's parent order for a class of ``n`` objects,
    ``chains`` holds the matrices of the parents' slot chains (see
    :func:`chain_matrices`) and ``columns`` maps each parent attribute to
    its state per object.
    """
    index = np.zeros(n, dtype=np.int64)
    for dep, size in zip(parents, parent_sizes(schema, parents)):
        members = chains[dep.slot_chain]
        column = columns[dep.parent]
        if dep.slot_chain.is_multi_valued:
            values = _AGGREGATE_ROWS[dep.aggregator](members, column, size)
        else:
            values = column[members.indices]  # exactly one member per row
        index = index * size + values
    return index


@dataclass(frozen=True)
class AggregateParent:
    aggregator: str
    contributing: tuple[int, ...]  # node ids, possibly empty
    domain_size: int


@dataclass(frozen=True)
class GbnNode:
    object: ObjectRef
    attribute_index: int
    # One entry per CPD parent slot, aligned with the CPD's parent order:
    # either a plain node id or an aggregate over several node ids.
    parents: tuple[int | AggregateParent, ...]


@dataclass(frozen=True, eq=False)
class GroundBayesianNetwork:
    """The ground network, kept implicit.

    ``order`` is a topological order of the attributes, valid for every
    ground node; ``chains`` maps each distinct slot chain of the PRM to its
    resolved matrix (see :func:`chain_matrices`).
    """

    prm: Prm
    skeleton: RelationalSkeleton
    order: tuple[AttributeNode, ...]
    chains: dict[SlotChain, sparse.csr_array]

    def node_id(self, obj: ObjectRef, attribute_index: int) -> int:
        return self._offsets[obj.class_index] + obj.object_id * self._attr_counts[
            obj.class_index
        ] + attribute_index

    @cached_property
    def _attr_counts(self) -> tuple[int, ...]:
        return tuple(len(c.attributes) for c in self.prm.schema.classes)

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for ci, count in enumerate(self.skeleton.object_counts):
            offsets.append(offsets[-1] + count * self._attr_counts[ci])
        return tuple(offsets)

    @cached_property
    def nodes(self) -> tuple[GbnNode, ...]:
        """One node per (object, attribute), indexed by :meth:`node_id`.

        A view derived from ``chains`` on first access, for inspecting the
        network; sampling never builds it. It holds a Python object per node
        and per aggregate, so it is meant for small networks.
        """
        schema = self.prm.schema
        nodes: list[GbnNode] = []
        for ci, n in enumerate(self.skeleton.object_counts):
            per_attr = []
            for ai in range(self._attr_counts[ci]):
                entries = []
                for dep in self.prm.cpd_for(AttributeNode(ci, ai)).parent_order:
                    members = self.chains[dep.slot_chain]
                    pa, pi = dep.parent.class_index, dep.parent.attribute_index
                    ids = (
                        self._offsets[pa]
                        + pi
                        + self._attr_counts[pa] * members.indices.astype(np.int64)
                    ).tolist()
                    if dep.slot_chain.is_multi_valued:
                        domain = len(schema.attribute(pa, pi).domain)
                        bounds = members.indptr.tolist()
                        ids = [
                            AggregateParent(dep.aggregator, tuple(ids[a:b]), domain)
                            for a, b in zip(bounds, bounds[1:])
                        ]
                    entries.append(ids)
                per_attr.append(list(zip(*entries)) if entries else [()] * n)
            for oid in range(n):
                obj = ObjectRef(ci, oid)
                nodes.extend(
                    GbnNode(obj, ai, parents[oid]) for ai, parents in enumerate(per_attr)
                )
        return tuple(nodes)


def ground(prm: Prm, sk: RelationalSkeleton) -> GroundBayesianNetwork:
    """Resolve every slot chain of the PRM over the skeleton.

    Raises :class:`~prmbench.dag.CyclicGraphError` if the attribute DAG has a
    cycle, in which case no order of the ground nodes exists.
    """
    structure = prm.structure
    flat = [
        AttributeNode(ci, ai)
        for ci, count in enumerate(structure.attr_counts)
        for ai in range(count)
    ]
    order = tuple(flat[i] for i in topological_order(structure.attribute_dag()))
    chains = chain_matrices((d.slot_chain for d in structure.dependencies), sk)
    return GroundBayesianNetwork(prm=prm, skeleton=sk, order=order, chains=chains)


@dataclass(frozen=True)
class ClassTable:
    """Sampled tuples of one class: ids, foreign keys, attribute states."""

    class_index: int
    row_count: int
    fk_values: dict[str, tuple[int, ...]]  # slot name -> target id per row
    attr_values: tuple[tuple[int, ...], ...]  # per attribute, state per row


@dataclass(frozen=True)
class Dataset:
    schema: RelationalSchema
    tables: tuple[ClassTable, ...]

    @property
    def total_rows(self) -> int:
        return sum(t.row_count for t in self.tables)

    @property
    def object_counts(self) -> tuple[int, ...]:
        return tuple(t.row_count for t in self.tables)

    def fk_column(self, slot: ReferenceSlot) -> np.ndarray:
        """Target id of every row of the slot's owner table.

        Raises ValueError if an id is not a row of the referenced table.
        """
        column = np.asarray(
            self.tables[slot.owner_class].fk_values[slot.name], dtype=np.int64
        )
        check_targets(column, slot, self.object_counts[slot.referenced_class])
        return column.astype(np.int32)

    def attribute_columns(self) -> dict[AttributeNode, np.ndarray]:
        """State column of every attribute."""
        return {
            AttributeNode(t.class_index, ai): np.asarray(values, dtype=np.int64)
            for t in self.tables
            for ai, values in enumerate(t.attr_values)
        }


def forward_sample(
    gbn: GroundBayesianNetwork, rng: np.random.Generator | None = None
) -> Dataset:
    """Sample one attribute column at a time, in attribute topological order.

    A column takes one uniform ``u`` per object of its class, in object
    order, and picks the first state whose cumulative CPD-row probability
    exceeds ``u``, or the last state if none does.
    """
    rng = rng if rng is not None else np.random.default_rng()
    prm = gbn.prm
    schema = prm.schema
    sk = gbn.skeleton
    columns: dict[AttributeNode, np.ndarray] = {}
    for node in gbn.order:
        cpd = prm.cpd_for(node)
        n = sk.object_counts[node.class_index]
        index = parent_configurations(schema, cpd.parent_order, gbn.chains, columns, n)
        cumulative = np.cumsum(_cpd_rows(schema, cpd), axis=1)
        u = rng.random(n)
        states = (u[:, None] >= cumulative[index]).sum(axis=1)
        columns[node] = np.minimum(states, cumulative.shape[1] - 1)

    tables = tuple(
        ClassTable(
            class_index=ci,
            row_count=sk.object_counts[ci],
            fk_values={
                slot.name: tuple(sk.fk_column(slot).tolist())
                for slot in cls.reference_slots
            },
            attr_values=tuple(
                tuple(columns[AttributeNode(ci, ai)].tolist())
                for ai in range(len(cls.attributes))
            ),
        )
        for ci, cls in enumerate(schema.classes)
    )
    return Dataset(schema=schema, tables=tables)


def skeleton_from_dataset(dataset: Dataset) -> RelationalSkeleton:
    """Rebuild the link structure carried by a dataset's foreign keys."""
    schema = dataset.schema
    links: dict[tuple[ObjectRef, ReferenceSlot], ObjectRef] = {}
    for table in dataset.tables:
        cls = schema.classes[table.class_index]
        for slot in cls.reference_slots:
            targets = table.fk_values[slot.name]
            for oid, tid in enumerate(targets):
                links[(ObjectRef(table.class_index, oid), slot)] = ObjectRef(
                    slot.referenced_class, tid
                )
    return RelationalSkeleton(object_counts=dataset.object_counts, links=links)
