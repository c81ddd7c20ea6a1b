"""Structure scoring and dataset diagnostics.

The score is a relational Bayesian-Dirichlet marginal likelihood with a
slot-chain-length penalty: per attribute family and parent configuration,
log DM({C[v,u]}, {alpha[v,u]}) summed, minus the total chain length of the
family's parents once per configuration. DM is the Dirichlet-multinomial
ratio Gamma(sum a) / Gamma(sum a+C) * prod Gamma(a+C) / Gamma(a), evaluated
in log space throughout. The per-configuration penalty follows the score
definition literally; ``penalty_per_config=False`` switches to charging each
family's chains once, the convention elsewhere in the literature.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .deps import AttributeNode, DependencyStructure, Prm, SlotChain
from .gbn import Dataset, chain_matrices, parent_configurations, parent_sizes
from .skeleton import RelationalSkeleton

# Not called here since chains resolve set-at-a-time; bench/spans.py counts
# calls to these names in this module's namespace, so they stay importable.
from .gbn import resolve_slot_chain, skeleton_from_dataset  # noqa: F401

__all__ = [
    "ContingencyCounts",
    "DirichletPrior",
    "count_contingencies",
    "marginal_report",
    "rbd_family_scores",
    "rbd_score",
    "render_report",
]


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric pseudo-count per cell."""

    alpha: float = 1.0


@dataclass(frozen=True)
class ContingencyCounts:
    """Per attribute family: parent configuration -> per-state counts."""

    families: dict[AttributeNode, dict[tuple[int, ...], list[int]]]

    def family(self, node: AttributeNode) -> dict[tuple[int, ...], list[int]]:
        return self.families[node]


def _check_same_links(dataset: Dataset, skeleton: RelationalSkeleton) -> None:
    """Raise ValueError unless the skeleton carries the dataset's foreign keys."""
    if skeleton.object_counts != dataset.object_counts:
        raise ValueError(
            f"skeleton object counts {skeleton.object_counts} do not match "
            f"dataset row counts {dataset.object_counts}"
        )
    slots = [s for c in dataset.schema.classes for s in c.reference_slots]
    expected = sum(dataset.object_counts[s.owner_class] for s in slots)
    if len(skeleton.links) != expected:
        raise ValueError(
            f"skeleton has {len(skeleton.links)} links, the dataset's foreign "
            f"keys {expected}"
        )
    for slot in slots:
        ours, theirs = skeleton.fk_column(slot), dataset.fk_column(slot)
        if not np.array_equal(ours, theirs):
            oid = int(np.flatnonzero(ours != theirs)[0])
            raise ValueError(
                f"skeleton and dataset disagree on {slot.name} of object {oid}: "
                f"{ours[oid]} != {theirs[oid]}"
            )


def count_contingencies(
    dataset: Dataset,
    skeleton: RelationalSkeleton,
    structure: DependencyStructure,
) -> ContingencyCounts:
    """Tally child states against evaluated parent configurations.

    Every configuration in the full parent product appears, so zero rows are
    explicit and the score's configuration sums are well defined. The
    skeleton must carry exactly the dataset's foreign keys (ValueError
    otherwise).
    """
    schema = dataset.schema
    if tuple(len(c.attributes) for c in schema.classes) != structure.attr_counts:
        raise ValueError("dataset schema does not match the dependency structure")
    _check_same_links(dataset, skeleton)
    chains = chain_matrices((d.slot_chain for d in structure.dependencies), dataset)
    columns = dataset.attribute_columns()
    families: dict[AttributeNode, dict[tuple[int, ...], list[int]]] = {}
    for ci, cls in enumerate(schema.classes):
        for ai, attr in enumerate(cls.attributes):
            node = AttributeNode(ci, ai)
            parents = structure.parents_of(node)
            k = len(attr.domain)
            configs = list(
                itertools.product(*(range(s) for s in parent_sizes(schema, parents)))
            )
            index = parent_configurations(
                schema, parents, chains, columns, dataset.tables[ci].row_count
            )
            tally = np.bincount(index * k + columns[node], minlength=len(configs) * k)
            families[node] = dict(zip(configs, tally.reshape(-1, k).tolist()))
    return ContingencyCounts(families)


def rbd_family_scores(
    structure: DependencyStructure,
    counts: ContingencyCounts,
    prior: DirichletPrior | None = None,
    penalty_per_config: bool = True,
) -> dict[AttributeNode, float]:
    """Per-family score terms; the total score is their sum."""
    prior = prior or DirichletPrior()
    if prior.alpha <= 0:
        raise ValueError("prior pseudo-counts must be positive")
    a = prior.alpha
    scores: dict[AttributeNode, float] = {}
    for node, table in counts.families.items():
        chain_total = sum(
            d.slot_chain.length for d in structure.parents_of(node)
        )
        total = 0.0
        for row in table.values():
            k = len(row)
            n = sum(row)
            log_dm = gammaln(k * a) - gammaln(k * a + n)
            for c in row:
                log_dm += gammaln(a + c) - gammaln(a)
            total += float(log_dm)
            if penalty_per_config:
                total -= chain_total
        if not penalty_per_config:
            total -= chain_total
        scores[node] = total
    return scores


def rbd_score(
    structure: DependencyStructure,
    counts: ContingencyCounts,
    prior: DirichletPrior | None = None,
    penalty_per_config: bool = True,
) -> float:
    return sum(
        rbd_family_scores(structure, counts, prior, penalty_per_config).values()
    )


def marginal_report(dataset: Dataset, prm: Prm) -> dict[str, float | int]:
    """Diagnostics: parentless-marginal L1 gaps, indegree stats, empty aggregates."""
    schema = dataset.schema
    out: dict[str, float | int] = {"rows.total": dataset.total_rows}

    for cpd in prm.cpds:
        ci, ai = cpd.child.class_index, cpd.child.attribute_index
        cls = schema.classes[ci]
        name = f"{cls.name}.{cls.attributes[ai].name}"
        table = dataset.tables[ci]
        out[f"rows.{cls.name}"] = table.row_count
        if cpd.parent_order:
            continue
        domain = len(cls.attributes[ai].domain)
        row = cpd.table[()]
        n = table.row_count
        if n == 0:
            continue
        freq = Counter(table.attr_values[ai])
        l1 = sum(abs(freq.get(v, 0) / n - row[v]) for v in range(domain))
        out[f"marginal_l1.{name}"] = round(l1, 6)

    for ci, cls in enumerate(schema.classes):
        referrers = [
            dataset.fk_column(slot)
            for other in schema.classes
            for slot in other.reference_slots
            if slot.referenced_class == ci
        ]
        if not referrers:
            continue
        indeg = np.bincount(np.concatenate(referrers))
        total = int(indeg.sum())
        if total:
            out[f"indegree_max.{cls.name}"] = int(indeg.max())
            out[f"indegree_mean.{cls.name}"] = round(
                total / dataset.tables[ci].row_count, 6
            )

    out["empty_aggregate_events"] = sum(
        int(np.count_nonzero(~_reaches_any(dataset, d.slot_chain)))
        for d in prm.structure.dependencies
        if d.slot_chain.is_multi_valued
    )
    return out


def _reaches_any(dataset: Dataset, chain: SlotChain) -> np.ndarray:
    """Per object of the chain's source class: does the chain reach any object?

    Walks the chain backwards with one boolean vector, so it never builds the
    reached sets; cost is one pass over each slot's foreign keys.
    """
    reaches = np.ones(dataset.object_counts[chain.end_class], dtype=bool)
    for slot in reversed(chain.slots):
        fk = dataset.fk_column(slot.base)
        if slot.inverted:
            # A target reaches something iff some owner linking to it does.
            step = np.zeros(dataset.object_counts[slot.start_class], dtype=bool)
            step[fk[reaches]] = True
            reaches = step
        else:
            reaches = reaches[fk]
    return reaches


def render_report(report: dict[str, float | int]) -> str:
    """Key = value lines, sorted, one per diagnostic."""
    return "\n".join(f"{k} = {report[k]}" for k in sorted(report)) + "\n"
