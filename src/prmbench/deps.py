"""Probabilistic dependency structure over a relational schema.

The structure is built in two phases. First a DAG is laid over the
attributes: one independent sub-DAG per class, then inter-class edges drawn
between attributes of different classes, each accepted only if the combined
graph stays acyclic and enough are kept to tie every class component into
one weakly connected whole. Second, each inter-class dependency is annotated
with a slot chain drawn from all schema paths between the two classes, with
weights that decay in chain length, plus an aggregator when the chain is
multi-valued.

Slot chains compose reference slots (owner to referenced class) and inverse
slots (referenced back to owners, one-to-many). A chain is multi-valued as
soon as it crosses one inverse slot. Chains are simplified by repeatedly
dropping a trailing (inverse(s), s) pair, so the candidates between two
classes are exactly the walks whose last two steps are not such a pair.
:class:`SlotChainCounts` counts those walks by length with a dynamic
program and unranks the drawn one, so no candidate list is ever built;
:func:`enumerate_slot_chains` materializes the same list and is kept as the
reference enumerator.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dag import Dag, _reaches, generate_random_dag
from .schema import GenerationPolicy, ReferenceSlot, RelationalSchema, poisson_inverse

__all__ = [
    "AGGREGATORS",
    "AttributeNode",
    "Cpd",
    "Dependency",
    "DependencyStructure",
    "GenerationError",
    "Prm",
    "Slot",
    "SlotChain",
    "SlotChainCounts",
    "assign_slot_chains",
    "canonical_parent_order",
    "draw_slot_chain",
    "enumerate_slot_chains",
    "generate_cpds",
    "generate_dependency_structure",
    "parent_sizes",
    "simplify_slot_chain",
    "slot_chain_weights",
]

log = logging.getLogger(__name__)

AGGREGATORS: tuple[str, ...] = ("MODE",)


class GenerationError(RuntimeError):
    """Structure generation could not satisfy its postconditions."""


@dataclass(frozen=True)
class Slot:
    """One traversal step: a reference slot taken forward or inverted."""

    base: ReferenceSlot
    inverted: bool = False

    @property
    def start_class(self) -> int:
        return self.base.referenced_class if self.inverted else self.base.owner_class

    @property
    def end_class(self) -> int:
        return self.base.owner_class if self.inverted else self.base.referenced_class

    @property
    def token(self) -> str:
        return ("~" + self.base.name) if self.inverted else self.base.name


@dataclass(frozen=True)
class SlotChain:
    """A composable sequence of slots; empty chains stay within one class."""

    source_class: int
    slots: tuple[Slot, ...] = ()

    def __post_init__(self):
        at = self.source_class
        for slot in self.slots:
            if slot.start_class != at:
                raise ValueError(
                    f"slot {slot.token} starts at class {slot.start_class}, "
                    f"expected {at}"
                )
            at = slot.end_class

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def end_class(self) -> int:
        return self.slots[-1].end_class if self.slots else self.source_class

    @property
    def is_multi_valued(self) -> bool:
        # Forward slots are to-one; any inverse step fans out.
        return any(s.inverted for s in self.slots)

    @property
    def text(self) -> str:
        return "/".join(s.token for s in self.slots)


@dataclass(frozen=True)
class AttributeNode:
    class_index: int
    attribute_index: int


@dataclass(frozen=True)
class Dependency:
    """child depends on parent, reached through slot_chain from child's class."""

    child: AttributeNode
    parent: AttributeNode
    slot_chain: SlotChain | None = None
    aggregator: str | None = None


@dataclass(frozen=True)
class DependencyStructure:
    dependencies: tuple[Dependency, ...]
    attr_counts: tuple[int, ...]
    k_max: int | None = None

    def attribute_dag(self) -> Dag:
        """Flat attribute-level DAG (edges parent -> child)."""
        offsets = _flat_offsets(self.attr_counts)

        def flat(node: AttributeNode) -> int:
            return offsets[node.class_index] + node.attribute_index

        edges = frozenset(
            (flat(d.parent), flat(d.child)) for d in self.dependencies
        )
        return Dag(max(offsets[-1], 1), edges)

    def parents_of(self, node: AttributeNode) -> tuple[Dependency, ...]:
        return canonical_parent_order(
            d for d in self.dependencies if d.child == node
        )


def canonical_parent_order(deps) -> tuple[Dependency, ...]:
    """Stable parent ordering shared by CPDs, grounding, and scoring."""

    def key(d: Dependency):
        chain = d.slot_chain
        return (
            d.parent.class_index,
            d.parent.attribute_index,
            chain.length if chain is not None else -1,
            chain.text if chain is not None else "",
        )

    return tuple(sorted(deps, key=key))


def parent_sizes(schema: RelationalSchema, parents) -> tuple[int, ...]:
    """Domain size of each parent attribute, in the given parent order."""
    return tuple(
        len(schema.attribute(d.parent.class_index, d.parent.attribute_index).domain)
        for d in parents
    )


@dataclass(frozen=True, eq=False)
class Cpd:
    """Categorical CPD: one child distribution per parent configuration.

    ``rows`` is a read-only float64 array of shape ``(*parent domain sizes,
    child states)``, parents in ``parent_order``. ``rows.reshape(-1, states)``
    lists the configurations in row-major order, as the model document and
    :func:`~prmbench.gbn.parent_configurations` do. A complete ``{config:
    row}`` dict given for ``rows`` is converted.
    """

    child: AttributeNode
    parent_order: tuple[Dependency, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = _dense_rows(self.rows) if isinstance(self.rows, dict) else self.rows
        rows = np.asarray(rows, dtype=np.float64).view()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def table(self) -> dict[tuple[int, ...], tuple[float, ...]]:
        """The rows as ``{config: distribution}``, in row-major order."""
        rows = self.rows.reshape(-1, self.rows.shape[-1]).tolist()
        return dict(zip(np.ndindex(*self.rows.shape[:-1]), map(tuple, rows)))

    def __eq__(self, other):
        if not isinstance(other, Cpd):
            return NotImplemented
        same = (self.child, self.parent_order) == (other.child, other.parent_order)
        return same and np.array_equal(self.rows, other.rows)


def _dense_rows(table: dict) -> np.ndarray:
    """A complete ``{config: row}`` table as an array over its configurations."""
    sizes = tuple(max(axis) + 1 for axis in zip(*table))
    configs = list(np.ndindex(*sizes))
    if sorted(table) != configs:
        raise ValueError(f"CPD table does not hold one row per configuration of {sizes}")
    return np.array([table[c] for c in configs], dtype=np.float64).reshape(*sizes, -1)


@dataclass(frozen=True)
class Prm:
    schema: RelationalSchema
    structure: DependencyStructure
    cpds: tuple[Cpd, ...]
    k_max: int

    def __post_init__(self):
        schema = self.schema
        expected = [
            AttributeNode(ci, ai)
            for ci, cls in enumerate(schema.classes)
            for ai in range(len(cls.attributes))
        ]
        got = [c.child for c in self.cpds]
        if got != expected:
            raise ValueError("exactly one CPD per descriptive attribute required")
        if self.structure.attr_counts != tuple(len(c.attributes) for c in schema.classes):
            raise ValueError("dependency structure attribute counts do not match the schema")
        for cpd in self.cpds:
            if cpd.parent_order != self.structure.parents_of(cpd.child):
                raise ValueError(f"CPD parent order out of sync for {cpd.child}")
            child = schema.attribute(cpd.child.class_index, cpd.child.attribute_index)
            shape = parent_sizes(schema, cpd.parent_order) + (len(child.domain),)
            if cpd.rows.shape != shape:
                raise ValueError(f"CPD for {cpd.child} has shape {cpd.rows.shape}, not {shape}")

    def cpd_for(self, node: AttributeNode) -> Cpd:
        return self._cpd_index[node]

    @cached_property
    def _cpd_index(self) -> dict[AttributeNode, Cpd]:
        return {c.child: c for c in self.cpds}


# --- structure generation ---------------------------------------------------

_MAX_CONNECT_RETRIES = 500
_MAX_PAIR_TRIES = 100


def _flat_offsets(attr_counts):
    offsets = [0]
    for c in attr_counts:
        offsets.append(offsets[-1] + c)
    return offsets


def generate_dependency_structure(
    schema: RelationalSchema,
    policy: GenerationPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> DependencyStructure:
    """Build the attribute DAG: per-class sub-DAGs plus inter-class edges.

    Chains are left unassigned (``slot_chain is None``); call
    :func:`assign_slot_chains` next. The inter-class edge count is drawn
    from ``1 + Poisson(N-1)``; the whole inter-class phase is redrawn until
    the class components end up weakly connected.
    """
    policy = policy or GenerationPolicy()
    rng = policy.resolve_rng(rng)
    n_classes = len(schema.classes)
    attr_counts = tuple(len(c.attributes) for c in schema.classes)
    offsets = _flat_offsets(attr_counts)
    total = offsets[-1]

    intra: list[Dependency] = []
    adj_intra = [0] * total  # flat children bitmasks, edge parent -> child
    for ci, count in enumerate(attr_counts):
        sub = generate_random_dag(count, policy.dag_policy, rng)
        for a, b in sub.sorted_edges:
            intra.append(
                Dependency(
                    child=AttributeNode(ci, b),
                    parent=AttributeNode(ci, a),
                )
            )
            adj_intra[offsets[ci] + a] |= 1 << (offsets[ci] + b)

    inter: list[Dependency] = []
    if n_classes > 1:
        class_of = [ci for ci, c in enumerate(attr_counts) for _ in range(c)]
        for _retry in range(_MAX_CONNECT_RETRIES):
            adj = adj_intra.copy()
            candidates: list[tuple[int, int]] = []
            target = 1 + poisson_inverse(n_classes - 1, rng)
            for _ in range(target):
                for _try in range(_MAX_PAIR_TRIES):
                    child = int(rng.integers(total))
                    parent = int(rng.integers(total))
                    if class_of[child] == class_of[parent]:
                        continue
                    if adj[parent] >> child & 1:
                        continue
                    if _reaches(adj, child, parent):
                        continue  # parent -> child would close a cycle
                    adj[parent] |= 1 << child
                    candidates.append((parent, child))
                    break
            linked: dict[int, int] = {i: i for i in range(n_classes)}

            def find(x: int) -> int:
                while linked[x] != x:
                    linked[x] = linked[linked[x]]
                    x = linked[x]
                return x

            for p, c in candidates:
                linked[find(class_of[p])] = find(class_of[c])
            if len({find(i) for i in range(n_classes)}) == 1:
                break
        else:
            raise GenerationError(
                "could not connect class components with inter-class "
                f"dependencies after {_MAX_CONNECT_RETRIES} attempts"
            )
        for p, c in candidates:
            pc, pa = class_of[p], p - offsets[class_of[p]]
            cc, ca = class_of[c], c - offsets[class_of[c]]
            inter.append(
                Dependency(child=AttributeNode(cc, ca), parent=AttributeNode(pc, pa))
            )

    return DependencyStructure(
        dependencies=tuple(intra + inter), attr_counts=attr_counts
    )


# --- slot chains -------------------------------------------------------------


def simplify_slot_chain(chain: SlotChain) -> SlotChain:
    """Drop trailing (inverse(s), s) pairs until none remains.

    A trailing pair that leaves a class through an inverse slot and comes
    straight back through the same slot resolves to the same object set, so
    the shorter chain is the canonical representative.
    """
    slots = list(chain.slots)
    while (
        len(slots) >= 2
        and slots[-2].inverted
        and not slots[-1].inverted
        and slots[-2].base == slots[-1].base
    ):
        del slots[-2:]
    return SlotChain(chain.source_class, tuple(slots))


def _slot_steps(schema: RelationalSchema) -> list[tuple[Slot, ...]]:
    """Per class, the outgoing traversal steps in a deterministic order."""
    steps: list[list[Slot]] = [[] for _ in schema.classes]
    for cls in schema.classes:
        for slot in cls.reference_slots:
            steps[slot.owner_class].append(Slot(slot, inverted=False))
            steps[slot.referenced_class].append(Slot(slot, inverted=True))
    return [tuple(s) for s in steps]


def enumerate_slot_chains(
    schema: RelationalSchema, from_class: int, to_class: int, k_max: int
) -> tuple[SlotChain, ...]:
    """All chains of length 0..k_max from one class to another.

    The reference enumerator: breadth-first over every walk of the slot
    graph, deduplicated by simplified form (keeping the shorter
    representative) and ordered by (length, text). Its cost grows with the
    number of walks, exponential in the horizon, so the pipeline counts
    candidates with :class:`SlotChainCounts` instead and never calls it.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = len(schema.classes)
    if not (0 <= from_class < n and 0 <= to_class < n):
        raise ValueError("class index out of range")

    steps = _slot_steps(schema)
    found: dict[str, SlotChain] = {}
    frontier: list[tuple[int, tuple[Slot, ...]]] = [(from_class, ())]
    for length in range(k_max + 1):
        for at, path in frontier:
            if at == to_class:
                chain = simplify_slot_chain(SlotChain(from_class, path))
                found.setdefault(chain.text, chain)
        if length == k_max:
            break
        frontier = [
            (slot.end_class, path + (slot,))
            for at, path in frontier
            for slot in steps[at]
        ]
    return tuple(sorted(found.values(), key=lambda c: (c.length, c.text)))


def slot_chain_weights(chains) -> np.ndarray:
    """Normalized weights exp(-l / occ(l)) over candidate chains of length l."""
    chains = list(chains)
    if not chains:
        raise ValueError("no candidate slot chains")
    occ = Counter(c.length for c in chains)
    raw = np.array([np.exp(-c.length / occ[c.length]) for c in chains])
    return raw / raw.sum()


def draw_slot_chain(chains, rng: np.random.Generator) -> SlotChain:
    chains = list(chains)
    weights = slot_chain_weights(chains)
    idx = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
    return chains[min(idx, len(chains) - 1)]


class SlotChainCounts:
    """Candidate slot chains into one class, counted instead of listed.

    ``occ(c)[l]`` equals ``Counter(x.length for x in
    enumerate_slot_chains(schema, c, to_class, k_max))[l]`` and
    ``unrank(c, l, i)`` returns the ``i``-th chain of length ``l`` in that
    list's ``(length, text)`` order. A candidate is a walk whose last two
    steps are not ``(~s, s)``, so one table of completion counts per
    (remaining steps, current class) suffices: only a final step that
    undoes the step before it is barred. Building the table costs
    O(k_max * steps) Python-int additions, and counts stay exact at any
    size. The schema must be valid (:func:`validate_schema`) and its slot
    names free of ``/``, as the chain text requires.
    """

    def __init__(self, schema: RelationalSchema, to_class: int, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be >= 0")
        n = len(schema.classes)
        if not 0 <= to_class < n:
            raise ValueError("class index out of range")
        self.to_class = to_class
        self.k_max = k_max
        steps = _slot_steps(schema)
        # Chain text puts "/" after every token but the last, so steps sort
        # by token + "/". The last step needs no order of its own: with one
        # slot per class edge and no cycle, one step at most enters to_class.
        self._steps = [tuple(sorted(s, key=lambda x: x.token + "/")) for s in steps]
        self._counts = [[int(c == to_class) for c in range(n)]]
        for r in range(1, k_max + 1):
            self._counts.append(
                [sum(self._completions(r - 1, s) for s in steps[c]) for c in range(n)]
            )

    def _completions(self, r: int, step: Slot) -> int:
        """Candidates that take ``step`` and then exactly ``r`` more steps."""
        n = self._counts[r][step.end_class]
        if r == 1 and step.inverted and step.base.referenced_class == self.to_class:
            n -= 1  # the last step may not be the forward slot of ``step``
        return n

    def occ(self, from_class: int) -> tuple[int, ...]:
        """Candidate count per length 0..k_max from ``from_class``."""
        if not 0 <= from_class < len(self._steps):
            raise ValueError("class index out of range")
        return tuple(row[from_class] for row in self._counts)

    def unrank(self, from_class: int, length: int, rank: int) -> SlotChain:
        if not (0 <= length <= self.k_max and 0 <= rank < self.occ(from_class)[length]):
            raise IndexError(f"no chain of length {length} with rank {rank}")
        at, slots = from_class, []
        for r in range(length - 1, -1, -1):
            blocked = slots[-1].base if slots and slots[-1].inverted else None
            for step in self._steps[at]:
                if r == 0 and not step.inverted and step.base == blocked:
                    continue
                n = self._completions(r, step)
                if rank < n:
                    break
                rank -= n
            slots.append(step)
            at = step.end_class
        return SlotChain(from_class, tuple(slots))

    def draw(self, from_class: int, rng: np.random.Generator) -> SlotChain:
        """Draw the chain ``draw_slot_chain`` would draw from the full list.

        Consumes one ``rng.random()`` value ``u``, picks the length whose
        mass ``occ(l) * exp(-l / occ(l))`` covers ``u`` times the total,
        then the rank within it. The masses are summed per length rather
        than per chain, so a ``u`` within float rounding of a boundary
        between two neighbouring chains may pick the other one. Above
        2**53 candidates one double cannot address every chain: ranks
        are exact integers, but only as fine as ``u``.
        """
        occ = {l: n for l, n in enumerate(self.occ(from_class)) if n}
        if not occ:
            raise ValueError("no candidate slot chains")
        weight = {l: float(np.exp(-l / n)) for l, n in occ.items()}
        target = rng.random() * sum(n * weight[l] for l, n in occ.items())
        prefix = 0.0
        last = max(occ)
        for length, n in occ.items():
            mass = n * weight[length]
            if target < prefix + mass or length == last:
                break
            prefix += mass
        rank = min(int((target - prefix) // weight[length]), n - 1)
        return self.unrank(from_class, length, rank)


def assign_slot_chains(
    schema: RelationalSchema,
    structure: DependencyStructure,
    k_max: int,
    rng: np.random.Generator | None = None,
    aggregators: tuple[str, ...] = AGGREGATORS,
) -> DependencyStructure:
    """Annotate every dependency with a slot chain and, if needed, an aggregator.

    The effective horizon is ``max(k_max, N - 1)`` so classes joined only by
    a long referential path are still reachable. Intra-class dependencies
    bind the empty chain directly; inter-class ones draw from the weighted
    candidates, counted by :class:`SlotChainCounts` (one table per parent
    class) rather than enumerated. A dependency whose classes admit no
    chain within the horizon is dropped with a logged diagnostic
    (unreachable for connected schemas at the default horizon) and draws
    nothing from ``rng``.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if not aggregators:
        raise ValueError("aggregator list must not be empty")
    rng = rng if rng is not None else np.random.default_rng()
    k_eff = max(k_max, len(schema.classes) - 1)

    tables: dict[int, SlotChainCounts] = {}
    assigned: list[Dependency] = []
    for dep in structure.dependencies:
        source, target = dep.child.class_index, dep.parent.class_index
        if source == target:
            assigned.append(
                replace(dep, slot_chain=SlotChain(source), aggregator=None)
            )
            continue
        table = tables.get(target)
        if table is None:
            table = tables[target] = SlotChainCounts(schema, target, k_eff)
        if not any(table.occ(source)):
            log.warning(
                "dropping dependency %s <- %s: no slot chain within k_max=%d",
                dep.child, dep.parent, k_eff,
            )
            continue
        chain = table.draw(source, rng)
        aggregator = None
        if chain.is_multi_valued:
            aggregator = aggregators[int(rng.integers(len(aggregators)))]
        assigned.append(replace(dep, slot_chain=chain, aggregator=aggregator))
    return replace(structure, dependencies=tuple(assigned), k_max=k_eff)


# --- CPDs --------------------------------------------------------------------


def generate_cpds(
    schema: RelationalSchema,
    structure: DependencyStructure,
    dirichlet_alpha: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Prm:
    """Draw one symmetric-Dirichlet row per parent configuration, in row-major order."""
    if dirichlet_alpha <= 0:
        raise ValueError("dirichlet_alpha must be positive")
    if structure.k_max is None or any(
        d.slot_chain is None for d in structure.dependencies
    ):
        raise ValueError("assign slot chains before generating CPDs")
    rng = rng if rng is not None else np.random.default_rng()

    cpds: list[Cpd] = []
    for ci, cls in enumerate(schema.classes):
        for ai, attr in enumerate(cls.attributes):
            node = AttributeNode(ci, ai)
            parents = structure.parents_of(node)
            sizes = parent_sizes(schema, parents)
            alphas = np.full(len(attr.domain), dirichlet_alpha)
            rows = rng.dirichlet(alphas, size=math.prod(sizes))
            cpds.append(Cpd(node, parents, rows.reshape(*sizes, -1)))
    return Prm(
        schema=schema, structure=structure, cpds=tuple(cpds), k_max=structure.k_max
    )
