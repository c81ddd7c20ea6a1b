"""Random relational schema generation.

A schema is a set of classes (tables) whose reference slots (foreign keys)
form a weakly connected DAG: edge ``i -> j`` means class ``i`` carries a
foreign key into class ``j``'s primary key, one key per edge. Attribute and
domain counts follow shifted Poisson laws so no class is ever empty and no
domain ever degenerate: ``1 + Poisson(attr_lambda)`` descriptive attributes,
each with ``2 + Poisson(state_lambda)`` states.

Naming convention: class ``clazz{i}`` with primary key ``clazz{i}id``,
attributes ``att0..att{k-1}`` numbered per class, and the foreign key for
edge ``i -> j`` named ``clazz{j}fkatt{j}{i}`` (it lives in ``clazz{i}``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dag import Dag, DagPolicy, generate_connected_dag, is_weakly_connected, topological_order, CyclicGraphError

__all__ = [
    "AttributeDef",
    "ClassDef",
    "GenerationPolicy",
    "ReferenceSlot",
    "RelationalSchema",
    "ValidationReport",
    "generate_schema",
    "poisson_inverse",
    "validate_schema",
]


@dataclass(frozen=True)
class AttributeDef:
    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class ReferenceSlot:
    name: str
    owner_class: int
    referenced_class: int


@dataclass(frozen=True)
class ClassDef:
    name: str
    primary_key: str
    attributes: tuple[AttributeDef, ...]
    reference_slots: tuple[ReferenceSlot, ...] = ()


@dataclass(frozen=True)
class RelationalSchema:
    classes: tuple[ClassDef, ...]
    class_dag: Dag

    def __post_init__(self):
        if len(self.classes) != self.class_dag.node_count:
            raise ValueError(
                f"{len(self.classes)} classes but class_dag has "
                f"{self.class_dag.node_count} nodes"
            )

    @cached_property
    def slot_by_name(self) -> dict[str, ReferenceSlot]:
        out: dict[str, ReferenceSlot] = {}
        for cls in self.classes:
            for slot in cls.reference_slots:
                out[slot.name] = slot
        return out

    def attribute(self, class_index: int, attribute_index: int) -> AttributeDef:
        return self.classes[class_index].attributes[attribute_index]


@dataclass(frozen=True)
class GenerationPolicy:
    """Size policy for schema generation plus the DAG sampler knobs.

    ``seed`` is only consulted when an operation is called without an
    explicit random stream; passing ``rng`` always wins.
    """

    attr_lambda: float = 1.0
    state_lambda: float = 1.0
    dag_policy: DagPolicy = DagPolicy()
    seed: int | None = None

    def __post_init__(self):
        if self.attr_lambda <= 0 or self.state_lambda <= 0:
            raise ValueError("Poisson rates must be positive")

    def resolve_rng(self, rng: np.random.Generator | None) -> np.random.Generator:
        if rng is not None:
            return rng
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class ValidationReport:
    """List of invariant violations; empty means valid."""

    findings: tuple[str, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.findings


def poisson_inverse(lam: float, rng: np.random.Generator) -> int:
    """Poisson draw by CDF inversion from a single uniform.

    Platform-stable given the stream: the only float consumed is one
    ``rng.random()`` call, so generated schemas do not depend on how a numpy
    version implements its own Poisson sampler.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    u = rng.random()
    p = math.exp(-lam)
    cdf = p
    k = 0
    while u >= cdf:
        k += 1
        p *= lam / k
        cdf += p
    return k


def generate_schema(
    n: int,
    policy: GenerationPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> RelationalSchema:
    """Generate a random schema with ``n`` classes over a connected class DAG."""
    if n < 1:
        raise ValueError(f"class count must be >= 1, got {n}")
    policy = policy or GenerationPolicy()
    rng = policy.resolve_rng(rng)

    dag = generate_connected_dag(n, policy.dag_policy, rng)

    attributes_per_class: list[tuple[AttributeDef, ...]] = []
    for i in range(n):
        n_attrs = 1 + poisson_inverse(policy.attr_lambda, rng)
        attrs = []
        for k in range(n_attrs):
            n_states = 2 + poisson_inverse(policy.state_lambda, rng)
            domain = tuple(f"v{s}" for s in range(n_states))
            attrs.append(AttributeDef(name=f"att{k}", domain=domain))
        attributes_per_class.append(tuple(attrs))

    slots_per_class: list[list[ReferenceSlot]] = [[] for _ in range(n)]
    for i, j in dag.sorted_edges:
        slots_per_class[i].append(
            ReferenceSlot(name=f"clazz{j}fkatt{j}{i}", owner_class=i, referenced_class=j)
        )

    classes = tuple(
        ClassDef(
            name=f"clazz{i}",
            primary_key=f"clazz{i}id",
            attributes=attributes_per_class[i],
            reference_slots=tuple(slots_per_class[i]),
        )
        for i in range(n)
    )
    return RelationalSchema(classes=classes, class_dag=dag)


def validate_schema(s: RelationalSchema) -> ValidationReport:
    """Check every schema invariant and report all violations found."""
    findings: list[str] = []
    n = len(s.classes)

    try:
        topological_order(s.class_dag)
    except CyclicGraphError:
        findings.append("cycle: class graph contains a referential cycle")
    if not is_weakly_connected(s.class_dag):
        findings.append("disconnected: class graph is not weakly connected")

    names = [cls.name for cls in s.classes]
    if len(set(names)) != n:
        findings.append("name collision: duplicate class names")

    slot_edges: list[tuple[int, int]] = []
    for i, cls in enumerate(s.classes):
        if not cls.attributes:
            findings.append(f"empty class: {cls.name} has no descriptive attribute")
        seen = {cls.primary_key}
        for attr in cls.attributes:
            if attr.name in seen:
                findings.append(f"name collision: {cls.name}.{attr.name}")
            seen.add(attr.name)
            if len(attr.domain) < 2:
                findings.append(f"domain: {cls.name}.{attr.name} has fewer than 2 states")
            if len(set(attr.domain)) != len(attr.domain):
                findings.append(f"domain: {cls.name}.{attr.name} has duplicate state labels")
        for slot in cls.reference_slots:
            if slot.name in seen:
                findings.append(f"name collision: {cls.name}.{slot.name}")
            seen.add(slot.name)
            if slot.owner_class != i:
                findings.append(f"dangling slot: {slot.name} owned by wrong class")
            if not (0 <= slot.referenced_class < n) or slot.referenced_class == i:
                findings.append(f"dangling slot: {slot.name} references invalid class")
            else:
                slot_edges.append((slot.owner_class, slot.referenced_class))

    if len(set(slot_edges)) != len(slot_edges):
        findings.append("dangling slot: multiple slots for one class-graph edge")
    if set(slot_edges) != set(s.class_dag.edges):
        findings.append("dangling slot: slots and class-graph edges not in bijection")

    all_slot_names = [sl.name for cls in s.classes for sl in cls.reference_slots]
    if len(set(all_slot_names)) != len(all_slot_names):
        # Slot names address chains globally, so they must not repeat anywhere.
        findings.append("name collision: reference slot names not globally unique")

    return ValidationReport(tuple(findings))
