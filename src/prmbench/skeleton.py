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

The result is columnar: one int32 array per reference slot holding, for
each object of the owning class, the id of the object it links to.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import length_hint

import numpy as np

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
    "int32_column",
    "validate_skeleton",
]

# Raw words are fetched in blocks that double from the first size to the
# last, so that a small skeleton fetches little more than it uses.
_FIRST_BLOCK = 512
_LAST_BLOCK = 65_536
_DOUBLE_UNIT = 2.0**-53


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


@dataclass(frozen=True, eq=False)
class RelationalSkeleton:
    """Objects per class plus one foreign-key column per reference slot.

    ``columns[slot][i]`` is the id, within the slot's referenced class, of
    the object that object i of the slot's owner class links to. Columns are
    read-only int32 arrays; -1 marks a missing link, which only a hand-built
    skeleton can have. ``iteration_counts`` records how many objects each
    generation pass created (empty for hand-built skeletons).
    """

    object_counts: tuple[int, ...]
    columns: Mapping[ReferenceSlot, np.ndarray]
    iteration_counts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "columns",
            {slot: int32_column(ids) for slot, ids in self.columns.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, RelationalSkeleton):
            return NotImplemented
        return (
            self.object_counts == other.object_counts
            and self.iteration_counts == other.iteration_counts
            and self.columns.keys() == other.columns.keys()
            and all(
                np.array_equal(column, other.columns[slot])
                for slot, column in self.columns.items()
            )
        )

    @property
    def total_objects(self) -> int:
        return sum(self.object_counts)

    @property
    def links(self) -> Mapping[tuple[ObjectRef, ReferenceSlot], ObjectRef]:
        """The columns as an ``(owner, slot) -> target`` mapping.

        A read-only view for tracing and tests; the pipeline never reads
        it. Its length is cached, and it builds ``ObjectRef`` pairs only
        when iterated or indexed.
        """
        return _LinkView(self)

    @cached_property
    def _link_count(self) -> int:
        return sum(int(np.count_nonzero(c != -1)) for c in self.columns.values())

    def target_of(self, obj: ObjectRef, slot: ReferenceSlot) -> ObjectRef:
        """The object ``obj`` links to through ``slot``; KeyError if none."""
        column = self.columns.get(slot)
        oid = obj.object_id
        if (
            column is None
            or obj.class_index != slot.owner_class
            or not 0 <= oid < len(column)
            or column[oid] == -1
        ):
            raise KeyError((obj, slot))
        return ObjectRef(slot.referenced_class, int(column[oid]))

    def referrers(self, slot: ReferenceSlot, target_id: int) -> tuple[int, ...]:
        """Owner ids linking to ``target_id`` through ``slot``, ascending.

        One scan of the slot's column per call: this serves the per-object
        reference walk :func:`~prmbench.gbn.resolve_slot_chain`, not the
        pipeline.
        """
        if target_id < 0 or slot not in self.columns:
            return ()
        return tuple(np.flatnonzero(self.columns[slot] == target_id).tolist())

    def fk_column(self, slot: ReferenceSlot) -> np.ndarray:
        """Target id of every object of the slot's owner class, by object id.

        This is the stored column that grounding and sampling read. Raises
        ValueError if the column is absent or has the wrong length, or if an
        id is not an object of the referenced class (a missing link reads
        as -1).
        """
        column = self.columns.get(slot)
        n = self.object_counts[slot.owner_class]
        if column is None or len(column) != n:
            size = "no" if column is None else len(column)
            raise ValueError(
                f"skeleton has {size} entries in slot {slot.name} for {n} objects"
            )
        check_targets(column, slot, self.object_counts[slot.referenced_class])
        return column


class _LinkView(Mapping):
    """``(owner, slot) -> target`` over a skeleton's columns; see ``links``."""

    def __init__(self, skeleton: RelationalSkeleton):
        self._skeleton = skeleton

    def __len__(self) -> int:
        return self._skeleton._link_count

    def __getitem__(self, key):
        return self._skeleton.target_of(*key)

    def __iter__(self):
        for slot, column in self._skeleton.columns.items():
            for oid in np.flatnonzero(column != -1).tolist():
                yield ObjectRef(slot.owner_class, oid), slot


def int32_column(ids) -> np.ndarray:
    """``ids`` as a read-only int32 array, without a copy if already int32.

    Raises ValueError if an id does not fit in int32, so that no id can wrap
    into range.
    """
    column = np.asarray(ids)
    if column.dtype != np.int32:
        wide = column.astype(np.int64)
        column = wide.astype(np.int32)
        if not np.array_equal(column, wide):
            raise ValueError(f"id {wide[column != wide][0]} does not fit in int32")
    column = column.view()
    column.flags.writeable = False
    return column


def check_targets(column: np.ndarray, slot: ReferenceSlot, n_targets: int) -> None:
    """Raise ValueError unless every id in ``column`` is in ``range(n_targets)``.

    ``column`` holds the slot's target id per owner object.
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


def _replay_stream(bit_generator):
    """``Generator.random()`` and ``Generator.integers(n)`` replayed from raw words.

    Returns ``(random, integers, rewind)``. ``random()`` and ``integers(n)``
    return what the same calls on a ``Generator`` over ``bit_generator``
    would, in the same order, but read 64-bit words fetched in blocks with
    ``random_raw`` instead of making one scalar call each:

    * ``random()`` is NumPy's 53-bit double, ``(word >> 11) * 2**-53``;
    * ``integers(n)``, for 1 <= n <= 2**32, is NumPy's 32-bit Lemire draw
      (Lemire, "Fast Random Integer Generation in an Interval", 2019): it
      takes the next 32 bits (the high half buffered from the previous word
      if there is one, else the low half of a new word, whose high half is
      then buffered), multiplies by ``n`` and rejects while the low 32 bits
      of the product are below ``(2**32 - n) % n``. ``n == 1`` draws
      nothing.

    ``rewind()`` leaves ``bit_generator`` exactly where the scalar calls
    would have: it restores the state saved here, advances it by the words
    used and writes back the 32-bit buffer.

    These are the algorithms of PCG64, PCG64DXSM, SFC64 and Philox. A bit
    generator whose state has no 32-bit buffer (MT19937, whose doubles take
    two 32-bit draws) raises TypeError before any draw.
    """
    saved = bit_generator.state
    if "has_uint32" not in saved:
        raise TypeError(
            f"cannot replay {saved['bit_generator']}: its state has no 32-bit buffer"
        )
    has_uint32, uinteger = bool(saved["has_uint32"]), saved["uinteger"]
    fetched = 0
    block = iter(())

    def blocks():
        nonlocal fetched, block
        size = _FIRST_BLOCK
        while True:
            block = iter(bit_generator.random_raw(size).tolist())
            fetched += size
            yield block
            size = min(2 * size, _LAST_BLOCK)

    next_word = chain.from_iterable(blocks()).__next__

    def random() -> float:
        return (next_word() >> 11) * _DOUBLE_UNIT

    def integers(n: int) -> int:
        nonlocal has_uint32, uinteger
        if n == 1:
            return 0
        threshold = None
        while True:
            if has_uint32:
                has_uint32 = False
                m = uinteger * n
            else:
                word = next_word()
                has_uint32, uinteger = True, word >> 32
                m = (word & 0xFFFFFFFF) * n
            low = m & 0xFFFFFFFF
            if low >= n:  # n bounds the threshold, so no rejection
                return m >> 32
            if threshold is None:
                threshold = (0x100000000 - n) % n
            if low >= threshold:
                return m >> 32

    def rewind() -> None:
        used = fetched - length_hint(block)
        bit_generator.state = saved
        bit_generator.random_raw(used, output=False)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(has_uint32), uinteger
        bit_generator.state = state

    return random, integers, rewind


def generate_skeleton(
    schema: RelationalSchema,
    cfg: CrpConfig | None = None,
    rng: np.random.Generator | None = None,
) -> RelationalSkeleton:
    """Grow a skeleton of about ``cfg.n_total`` objects; see the module docstring.

    Reads only ``rng.bit_generator``: every draw is a ``rng.random()`` or
    ``rng.integers(n)`` replayed from raw words by :func:`_replay_stream`,
    and ``rng`` ends in the state those scalar calls would have left. The
    bytes this writes therefore depend on NumPy's algorithms for those two
    calls; ``tests/test_skeleton.py`` compares the result with the scalar
    oracle generator, so that a NumPy release that changes them fails there
    instead of changing the output unnoticed. Raises TypeError for a bit
    generator the replay does not cover (MT19937).
    """
    cfg = cfg or CrpConfig()
    rng = rng if rng is not None else np.random.default_rng()
    n_classes = len(schema.classes)

    referenced = {s.referenced_class for c in schema.classes for s in c.reference_slots}
    roots = [i for i in range(n_classes) if i not in referenced]
    if not roots:
        raise ValueError("schema has a referential cycle: no root class")

    counts = [0] * n_classes
    # One entry per unit of indegree; a uniform pick over this list is a
    # pick proportional to indegree, which keeps attachment O(1).
    balls: list[list[int]] = [[] for _ in range(n_classes)]
    # Target ids per slot. An object's slots are all bound before the next
    # object of its class is created (no class reaches itself), so appending
    # keeps each column in owner id order.
    columns = {s: array("i") for c in schema.classes for s in c.reference_slots}
    # Per class, per slot: (referenced class, append to the slot's column).
    slots_of = [
        [(s.referenced_class, columns[s].append) for s in c.reference_slots]
        for c in schema.classes
    ]
    alpha, n_total = cfg.alpha, cfg.n_total
    random, integers, rewind = _replay_stream(rng.bit_generator)
    total = 0
    iteration_counts: list[int] = []

    while total < n_total:
        before = total
        root = roots[integers(len(roots))] if len(roots) > 1 else roots[0]
        counts[root] += 1
        total += 1
        # Depth first, on an explicit stack of (class, next slot index): a
        # freshly created target has all of its own slots bound before its
        # owner moves on to its next slot.
        stack = [(root, 0)]
        while stack:
            owner, si = stack.pop()
            slots = slots_of[owner]
            while si < len(slots):
                ci, append = slots[si]
                si += 1
                n_p = counts[owner]  # includes the owner itself
                if total >= n_total:
                    # Budget reached: stop growing unless the class is still empty.
                    make_new = counts[ci] == 0
                elif random() < alpha / (n_p - 1 + alpha):
                    make_new = True
                else:
                    make_new = counts[ci] == 0  # empty pool falls back to a new object
                pool = balls[ci]
                if make_new:
                    target_id = counts[ci]
                    counts[ci] += 1
                    total += 1
                else:
                    target_id = pool[integers(len(pool))]
                append(target_id)
                pool.append(target_id)
                if make_new and slots_of[ci]:
                    stack.append((owner, si))
                    stack.append((ci, 0))
                    break
        iteration_counts.append(total - before)
    rewind()

    return RelationalSkeleton(
        object_counts=tuple(counts),
        columns={s: np.frombuffer(ids, dtype=np.intc) for s, ids in columns.items()},
        iteration_counts=tuple(iteration_counts),
    )


def validate_skeleton(
    sk: RelationalSkeleton, schema: RelationalSchema
) -> ValidationReport:
    """Check the k-partite object-graph properties plus slot totality.

    Columns cannot hold a link whose owner or target lies in the wrong class,
    so orientation holds by construction; what remains is that every slot
    of the schema has a full column of in-range ids (no -1) and that the
    object graph has no directed cycle.
    """
    findings: list[str] = []
    n_classes = len(schema.classes)
    counts = sk.object_counts
    if len(counts) != n_classes:
        return ValidationReport((f"class count mismatch: {len(counts)} != {n_classes}",))

    known = {s for c in schema.classes for s in c.reference_slots}
    findings += [
        f"unknown slot {slot.name} on class {slot.owner_class}"
        for slot in sk.columns
        if slot not in known
    ]

    offsets = np.cumsum((0,) + counts)
    sources, targets = [], []
    for ci, cls in enumerate(schema.classes):
        for slot in cls.reference_slots:
            column = sk.columns.get(slot, np.full(counts[ci], -1, dtype=np.int32))
            if len(column) != counts[ci]:
                findings.append(
                    f"totality: slot {slot.name} has {len(column)} entries for "
                    f"{counts[ci]} {cls.name} objects"
                )
                continue
            findings += [
                f"totality: {cls.name} object {oid} slot {slot.name} unassigned"
                for oid in np.flatnonzero(column == -1).tolist()
            ]
            n_targets = counts[slot.referenced_class]
            valid = (column >= 0) & (column < n_targets)
            findings += [
                f"unknown target object {slot.referenced_class}:{column[oid]} "
                f"of {cls.name} object {oid} slot {slot.name}"
                for oid in np.flatnonzero(~valid & (column != -1)).tolist()
            ]
            owners = np.flatnonzero(valid)
            sources.append(offsets[ci] + owners)
            targets.append(offsets[slot.referenced_class] + column[owners])

    if sources and _has_cycle(
        int(offsets[-1]), np.concatenate(sources), np.concatenate(targets)
    ):
        findings.append("acyclicity: object graph contains a directed cycle")
    return ValidationReport(tuple(findings))


def _has_cycle(n: int, sources: np.ndarray, targets: np.ndarray) -> bool:
    """Whether the flat edge arrays close a directed cycle; self-loops aside.

    Kahn's algorithm a layer at a time: each round drops every node that no
    remaining node links to, so there are as many rounds as the longest
    path has nodes, at most the class count when the class graph is acyclic.
    """
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    alive = np.ones(n, dtype=bool)
    while True:
        linked = np.zeros(n, dtype=bool)
        linked[targets[alive[sources]]] = True
        if not (alive & ~linked).any():
            return bool(alive.any())
        alive &= linked
