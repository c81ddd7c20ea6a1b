"""Scale-free relational skeleton generation.

Objects and links are grown by repeated depth-first passes over the class
graph. Each pass creates one object of a root class (a class no other class
references) and then walks the reference slots: every slot of a freshly
created object is bound either to a brand-new object of the referenced class
or, by preferential attachment, to an existing one picked proportionally to
its indegree. The new-object probability follows the Chinese Restaurant
Process, alpha / (n_p - 1 + alpha), where n_p counts objects of the owning
class including the one being linked. Linking to an existing object ends
that branch of the walk (its own slots were bound when it was created), so
every object always carries exactly one target per slot.

Passes repeat until the requested object total is reached; once the total is
hit mid-pass, the remaining choices of that pass are forced onto existing
objects so the overshoot stays below one object per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dag import CyclicGraphError, Dag, topological_order
from .schema import ReferenceSlot, RelationalSchema, ValidationReport

__all__ = [
    "NEW_OBJECT",
    "CrpConfig",
    "NewObject",
    "ObjectRef",
    "RelationalSkeleton",
    "check_targets",
    "crp_choose",
    "generate_skeleton",
    "validate_skeleton",
]


@dataclass(frozen=True)
class ObjectRef:
    class_index: int
    object_id: int


class NewObject:
    """Sentinel returned by :func:`crp_choose` when a fresh object is called for."""

    def __repr__(self):
        return "NEW_OBJECT"


NEW_OBJECT = NewObject()


@dataclass(frozen=True)
class CrpConfig:
    alpha: float = 1.0
    n_total: int = 1000

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")


@dataclass(frozen=True)
class RelationalSkeleton:
    """Objects per class plus one link per (object, reference slot).

    ``iteration_counts`` records how many objects each generation pass
    created (empty for hand-built skeletons).
    """

    object_counts: tuple[int, ...]
    links: dict[tuple[ObjectRef, ReferenceSlot], ObjectRef]
    iteration_counts: tuple[int, ...] = ()

    @property
    def total_objects(self) -> int:
        return sum(self.object_counts)

    def target_of(self, obj: ObjectRef, slot: ReferenceSlot) -> ObjectRef:
        return self.links[(obj, slot)]

    @cached_property
    def _referrers(self) -> dict[tuple[ReferenceSlot, int], tuple[int, ...]]:
        acc: dict[tuple[ReferenceSlot, int], list[int]] = {}
        for (owner, slot), target in self.links.items():
            acc.setdefault((slot, target.object_id), []).append(owner.object_id)
        return {k: tuple(sorted(v)) for k, v in acc.items()}

    def referrers(self, slot: ReferenceSlot, target_id: int) -> tuple[int, ...]:
        """Owner ids linking to ``target_id`` through ``slot`` (may be empty)."""
        return self._referrers.get((slot, target_id), ())

    @cached_property
    def _fk_columns(self) -> dict[ReferenceSlot, np.ndarray]:
        owners: dict[ReferenceSlot, list[int]] = {}
        targets: dict[ReferenceSlot, list[int]] = {}
        for (owner, slot), target in self.links.items():
            owners.setdefault(slot, []).append(owner.object_id)
            targets.setdefault(slot, []).append(target.object_id)
        columns = {}
        for slot, ids in owners.items():
            column = np.full(self.object_counts[slot.owner_class], _UNASSIGNED)
            column[ids] = targets[slot]
            columns[slot] = column
        return columns

    def fk_column(self, slot: ReferenceSlot) -> np.ndarray:
        """Target id of every object of the slot's owner class, by object id.

        This is the columnar form of ``links`` that grounding and sampling
        read; it is built once, from one pass over ``links``. Raises
        ValueError if an object has no target or a target is not an object
        of the referenced class.
        """
        column = self._fk_columns.get(slot)
        if column is None:
            column = np.full(self.object_counts[slot.owner_class], _UNASSIGNED)
        missing = np.flatnonzero(column == _UNASSIGNED)
        if len(missing):
            raise ValueError(
                f"skeleton leaves slot {slot.name} of object {missing[0]} unassigned"
            )
        check_targets(column, slot, self.object_counts[slot.referenced_class])
        return column.astype(np.int32)


_UNASSIGNED = np.iinfo(np.int64).min


def check_targets(column: np.ndarray, slot: ReferenceSlot, n_targets: int) -> None:
    """Raise ValueError unless every id in ``column`` is in ``range(n_targets)``.

    ``column`` holds the slot's target id per owner object, as int64.
    """
    bad = np.flatnonzero((column < 0) | (column >= n_targets))
    if len(bad):
        oid = int(bad[0])
        raise ValueError(
            f"slot {slot.name} of object {oid} links to {column[oid]}, but the "
            f"referenced class has {n_targets} objects"
        )


def crp_choose(
    existing,
    n_p: int,
    alpha: float,
    rng: np.random.Generator,
):
    """One CRP attachment decision.

    ``existing`` is a sequence of (ObjectRef, indegree) candidates. Returns
    ``NEW_OBJECT`` with probability alpha / (n_p - 1 + alpha); otherwise an
    existing candidate drawn proportionally to indegree. An empty candidate
    pool forces NEW_OBJECT, and an all-zero indegree pool falls back to a
    uniform pick.
    """
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    p_new = alpha / (n_p - 1 + alpha)
    if rng.random() < p_new:
        return NEW_OBJECT
    candidates = list(existing)
    if not candidates:
        return NEW_OBJECT
    weights = [deg for _, deg in candidates]
    total = sum(weights)
    if total == 0:
        idx = int(rng.integers(len(candidates)))
        return candidates[idx][0]
    u = rng.random() * total
    acc = 0
    for obj, deg in candidates:
        acc += deg
        if u < acc:
            return obj
    return candidates[-1][0]


def generate_skeleton(
    schema: RelationalSchema,
    cfg: CrpConfig | None = None,
    rng: np.random.Generator | None = None,
) -> RelationalSkeleton:
    cfg = cfg or CrpConfig()
    rng = rng if rng is not None else np.random.default_rng()
    n_classes = len(schema.classes)

    referenced = {s.referenced_class for c in schema.classes for s in c.reference_slots}
    roots = [i for i in range(n_classes) if i not in referenced]
    if not roots:
        raise ValueError("schema has a referential cycle: no root class")

    counts = [0] * n_classes
    indegrees: list[list[int]] = [[] for _ in range(n_classes)]
    # One entry per unit of indegree; a uniform pick over this list is a
    # pick proportional to indegree, which keeps attachment O(1).
    balls: list[list[int]] = [[] for _ in range(n_classes)]
    links: dict[tuple[ObjectRef, ReferenceSlot], ObjectRef] = {}
    total = 0
    iteration_counts: list[int] = []

    def make_object(ci: int) -> int:
        nonlocal total
        oid = counts[ci]
        counts[ci] += 1
        indegrees[ci].append(0)
        total += 1
        return oid

    def grow(obj: ObjectRef) -> None:
        # Depth first: a freshly created target has all of its own slots
        # bound before the owner moves on to its next slot.
        for slot in schema.classes[obj.class_index].reference_slots:
            ci = slot.referenced_class
            n_p = counts[obj.class_index]  # includes the owner itself
            if total >= cfg.n_total:
                # Budget reached: stop growing unless the class is still empty.
                make_new = counts[ci] == 0
            elif rng.random() < cfg.alpha / (n_p - 1 + cfg.alpha):
                make_new = True
            else:
                make_new = counts[ci] == 0  # empty pool falls back to a new object
            if make_new:
                target_id = make_object(ci)
            else:
                target_id = balls[ci][int(rng.integers(len(balls[ci])))]
            links[(obj, slot)] = ObjectRef(ci, target_id)
            indegrees[ci][target_id] += 1
            balls[ci].append(target_id)
            if make_new:
                grow(ObjectRef(ci, target_id))

    while total < cfg.n_total:
        before = total
        root = roots[int(rng.integers(len(roots)))] if len(roots) > 1 else roots[0]
        grow(ObjectRef(root, make_object(root)))
        iteration_counts.append(total - before)

    return RelationalSkeleton(
        object_counts=tuple(counts),
        links=links,
        iteration_counts=tuple(iteration_counts),
    )


def validate_skeleton(
    sk: RelationalSkeleton, schema: RelationalSchema
) -> ValidationReport:
    """Check the k-partite object-graph properties plus slot totality."""
    findings: list[str] = []
    n_classes = len(schema.classes)
    if len(sk.object_counts) != n_classes:
        return ValidationReport((f"class count mismatch: {len(sk.object_counts)} != {n_classes}",))

    for (owner, slot), target in sk.links.items():
        if not (0 <= owner.class_index < n_classes) or not (
            0 <= owner.object_id < sk.object_counts[owner.class_index]
        ):
            findings.append(f"unknown owner object {owner}")
            continue
        if slot.owner_class != owner.class_index:
            findings.append(
                f"orientation: {slot.name} link recorded on class "
                f"{owner.class_index}, slot belongs to {slot.owner_class}"
            )
        if slot not in schema.classes[owner.class_index].reference_slots:
            findings.append(f"unknown slot {slot.name} on class {owner.class_index}")
        if target.class_index != slot.referenced_class:
            findings.append(
                f"orientation: {slot.name} points into class {target.class_index}, "
                f"expected {slot.referenced_class}"
            )
        elif not (0 <= target.object_id < sk.object_counts[target.class_index]):
            findings.append(f"unknown target object {target}")

    for ci, cls in enumerate(schema.classes):
        for oid in range(sk.object_counts[ci]):
            for slot in cls.reference_slots:
                if (ObjectRef(ci, oid), slot) not in sk.links:
                    findings.append(
                        f"totality: {cls.name} object {oid} slot {slot.name} unassigned"
                    )

    # Acyclicity of the object graph, via a flat topological sort.
    offsets = [0]
    for c in sk.object_counts:
        offsets.append(offsets[-1] + c)
    flat_edges = set()
    for (owner, slot), target in sk.links.items():
        if (
            owner.class_index < n_classes
            and target.class_index < n_classes
            and owner.object_id < sk.object_counts[owner.class_index]
            and target.object_id < sk.object_counts[target.class_index]
        ):
            u = offsets[owner.class_index] + owner.object_id
            v = offsets[target.class_index] + target.object_id
            if u != v:
                flat_edges.add((u, v))
    if offsets[-1] >= 1:
        try:
            topological_order(Dag(offsets[-1], frozenset(flat_edges)))
        except CyclicGraphError:
            findings.append("acyclicity: object graph contains a directed cycle")

    return ValidationReport(tuple(findings))
