"""Grounding a PRM over a skeleton and forward-sampling a dataset.

The ground network has one node per (object, descriptive attribute), but it
is kept implicit: an attribute topological order plus the resolved rows of
each distinct slot chain. Row i of a chain holds the objects the chain
reaches from object i of its source class, found by numpy gathers over the
foreign-key columns (see :func:`chain_matrices`). Single-valued chains
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

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .dag import topological_order
from .deps import AttributeNode, Prm, SlotChain, parent_sizes
from .schema import RelationalSchema, ReferenceSlot
from .skeleton import ObjectRef, RelationalSkeleton, check_targets, int32_column

__all__ = [
    "AggregateParent",
    "Dataset",
    "ClassTable",
    "Column",
    "GbnNode",
    "GroundBayesianNetwork",
    "Members",
    "aggregate_mode",
    "chain_matrices",
    "forward_sample",
    "ground",
    "mode_rows",
    "parent_configurations",
    "resolve_slot_chain",
    "skeleton_from_dataset",
]


class Members(NamedTuple):
    """Compressed rows: row i is ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray  # int64, one more entry than there are rows
    indices: np.ndarray  # int32 object ids, ascending within each row


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


def mode_rows(members: Members, column: np.ndarray, domain_size: int) -> np.ndarray:
    """:func:`aggregate_mode` of ``column[members[i]]`` for every row i at once.

    ``argmax`` takes the first maximum and gives 0 for an all-zero row, which
    are exactly aggregate_mode's rules for ties and empty sets.
    """
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    n = len(members.indptr) - 1
    cells = np.repeat(np.arange(n) * domain_size, np.diff(members.indptr))
    tally = np.bincount(cells + column[members.indices], minlength=n * domain_size)
    return tally.reshape(n, domain_size).argmax(axis=1)


_AGGREGATE_ROWS = {"MODE": mode_rows}


def _take_rows(members: Members, rows: np.ndarray) -> Members:
    """The given rows of ``members``, in the given order."""
    starts = members.indptr[rows]
    lengths = members.indptr[rows + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    at = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - starts, lengths)
    return Members(indptr, members.indices[at])


def _distinct_pairs(rows: np.ndarray, ids: np.ndarray, width: int):
    """The distinct (row, id) pairs in ascending order, for ids below ``width``."""
    keys = rows.astype(np.int64) * width + ids
    keys.sort()  # np.unique is far slower here
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return (keys // width).astype(np.int32), (keys % width).astype(np.int32)


def chain_matrices(chains, links) -> dict[SlotChain, Members]:
    """Resolve each distinct chain for every object of its source class.

    ``links`` is a :class:`RelationalSkeleton` or a :class:`Dataset`: anything
    with ``object_counts`` and a range-checked ``fk_column(slot)``. Row i of
    a chain's :class:`Members` lists, in ascending order, the ids of the
    objects the chain reaches from object i: the set
    :func:`resolve_slot_chain` returns.

    The leading forward slots map each object to its peak object, which
    reaches the same set (aggregate pushdown through a to-one join, Yan and
    Larson, VLDB 1995). The rest is walked once per peak-class object as
    (row, id) pairs, deduplicated after each forward step; an inverse step
    repeats no pair, since each owner has one target per slot.
    """
    counts = links.object_counts
    column = cache(links.fk_column)

    @cache
    def owners(slot: ReferenceSlot) -> Members:  # row t: owners linking to t
        targets = column(slot)
        sizes = np.bincount(targets, minlength=counts[slot.referenced_class])
        order = np.argsort(targets, kind="stable").astype(np.int32)
        return Members(np.concatenate(([0], np.cumsum(sizes))), order)

    out: dict[SlotChain, Members] = {}
    for chain in chains:
        if chain in out:
            continue
        slots = chain.slots
        head = next((i for i, s in enumerate(slots) if s.inverted), len(slots))
        # Ids index the fk columns, which fk_column has range-checked:
        # numpy would wrap a negative id instead of failing.
        peak = np.arange(counts[chain.source_class], dtype=np.int32)
        for slot in slots[:head]:
            peak = column(slot.base)[peak]
        if head == len(slots):
            out[chain] = Members(np.arange(len(peak) + 1), peak)
            continue
        m = counts[slots[head].start_class]
        rows = ids = np.arange(m, dtype=np.int32)
        for slot in slots[head:]:
            if slot.inverted:
                step = _take_rows(owners(slot.base), ids)
                rows, ids = np.repeat(rows, np.diff(step.indptr)), step.indices
            else:
                targets = column(slot.base)[ids]
                rows, ids = _distinct_pairs(rows, targets, counts[slot.end_class])
        if slots[-1].inverted:  # distinct already; order the ids within rows
            rows, ids = _distinct_pairs(rows, ids, counts[chain.end_class])
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        out[chain] = _take_rows(Members(indptr, ids), peak)
    return out


def parent_configurations(
    schema: RelationalSchema, parents, chains, columns, n: int
) -> np.ndarray:
    """Row-major index of every object's parent configuration.

    The index is the object's row in ``cpd.rows.reshape(-1, states)`` (see
    :class:`~prmbench.deps.Cpd`). ``parents`` is a CPD's parent order for a
    class of ``n`` objects, ``chains`` holds the resolved rows of the parents'
    slot chains (see :func:`chain_matrices`) and ``columns`` maps each
    parent attribute to its state per object.
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
    resolved rows (see :func:`chain_matrices`).
    """

    prm: Prm
    skeleton: RelationalSkeleton
    order: tuple[AttributeNode, ...]
    chains: dict[SlotChain, Members]

    def node_id(self, obj: ObjectRef, attribute_index: int) -> int:
        count = self.prm.structure.attr_counts[obj.class_index]
        return self._offsets[obj.class_index] + obj.object_id * count + attribute_index

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for n, count in zip(self.skeleton.object_counts, self.prm.structure.attr_counts):
            offsets.append(offsets[-1] + n * count)
        return tuple(offsets)

    @cached_property
    def nodes(self) -> tuple[GbnNode, ...]:
        """One node per (object, attribute), indexed by :meth:`node_id`.

        A view derived from ``chains`` on first access, for inspecting the
        network; sampling never builds it. It holds a Python object per node
        and per aggregate, so it is meant for small networks.
        """
        schema = self.prm.schema
        attr_counts = self.prm.structure.attr_counts
        nodes: list[GbnNode] = []
        for ci, n in enumerate(self.skeleton.object_counts):
            per_attr = []
            for ai in range(attr_counts[ci]):
                entries = []
                for dep in self.prm.cpd_for(AttributeNode(ci, ai)).parent_order:
                    members = self.chains[dep.slot_chain]
                    pa, pi = dep.parent.class_index, dep.parent.attribute_index
                    ids = (
                        self._offsets[pa]
                        + pi
                        + attr_counts[pa] * members.indices.astype(np.int64)
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


class Column(np.ndarray):
    """A read-only int32 column of a :class:`ClassTable`.

    A plain ndarray plus the sequence method ``count``.
    """

    def count(self, value) -> int:
        return int(np.count_nonzero(self == value))


def _column(values) -> Column:
    return int32_column(values).view(Column)


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Sampled rows of one class: ids, foreign keys, attribute states.

    Row i is object i. Every column is a read-only int32 array (a
    :class:`Column`) with one entry per row; sequences given here are
    converted.
    """

    class_index: int
    row_count: int
    fk_values: dict[str, Column]  # slot name -> target id per row
    attr_values: tuple[Column, ...]  # per attribute, state per row

    def __post_init__(self):
        fks = {name: _column(ids) for name, ids in self.fk_values.items()}
        object.__setattr__(self, "fk_values", fks)
        object.__setattr__(self, "attr_values", tuple(map(_column, self.attr_values)))

    def __eq__(self, other):
        if not isinstance(other, ClassTable):
            return NotImplemented
        return (
            self.class_index == other.class_index
            and self.row_count == other.row_count
            and self.fk_values.keys() == other.fk_values.keys()
            and all(
                np.array_equal(ids, other.fk_values[name])
                for name, ids in self.fk_values.items()
            )
            and len(self.attr_values) == len(other.attr_values)
            and all(map(np.array_equal, self.attr_values, other.attr_values))
        )


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
        column = self.tables[slot.owner_class].fk_values[slot.name].view(np.ndarray)
        check_targets(column, slot, self.object_counts[slot.referenced_class])
        return column

    def attribute_columns(self) -> dict[AttributeNode, np.ndarray]:
        """State column of every attribute."""
        return {
            AttributeNode(t.class_index, ai): values.view(np.ndarray)
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
        cumulative = np.cumsum(cpd.rows.reshape(-1, cpd.rows.shape[-1]), axis=1)
        u = rng.random(n)
        states = (u[:, None] >= cumulative[index]).sum(axis=1)
        columns[node] = np.minimum(states, cumulative.shape[1] - 1).astype(np.int32)

    tables = tuple(
        ClassTable(
            class_index=ci,
            row_count=sk.object_counts[ci],
            fk_values={slot.name: sk.fk_column(slot) for slot in cls.reference_slots},
            attr_values=tuple(
                columns[AttributeNode(ci, ai)] for ai in range(len(cls.attributes))
            ),
        )
        for ci, cls in enumerate(schema.classes)
    )
    return Dataset(schema=schema, tables=tables)


def skeleton_from_dataset(dataset: Dataset) -> RelationalSkeleton:
    """The link structure carried by a dataset's foreign keys.

    The skeleton shares the dataset's foreign-key columns; nothing is copied.
    """
    columns = {
        slot: dataset.tables[ci].fk_values[slot.name]
        for ci, cls in enumerate(dataset.schema.classes)
        for slot in cls.reference_slots
    }
    return RelationalSkeleton(object_counts=dataset.object_counts, columns=columns)
