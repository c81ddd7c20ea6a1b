"""Shared brute-force oracles, kept independent of the library internals."""

import itertools


def all_digraph_edges(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def oracle_is_acyclic(n, edges):
    """Recursive three-color DFS, independent of the library's Kahn code."""
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
    color = {i: 0 for i in range(n)}

    def dfs(u):
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1:
                return False
            if color[v] == 0 and not dfs(v):
                return False
        color[u] = 2
        return True

    return all(dfs(i) for i in range(n) if color[i] == 0)


def oracle_is_connected(n, edges):
    if n == 1:
        return True
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def enumerate_dags(n, connected_only=False):
    """All labeled DAGs on n nodes as frozensets of edges, by brute force."""
    out = []
    pool = all_digraph_edges(n)
    for k in range(len(pool) + 1):
        for edges in itertools.combinations(pool, k):
            if not oracle_is_acyclic(n, edges):
                continue
            if connected_only and not oracle_is_connected(n, edges):
                continue
            out.append(frozenset(edges))
    return out


def oracle_resolve_chain(links, start, chain):
    """Brute-force slot-chain traversal over a plain link table.

    ``links`` is a dict (class_index, object_id, slot_name) -> (class, id).
    Kept as naive double loops so it shares nothing with the library's
    resolver.
    """
    current = {start}
    for slot in chain.slots:
        nxt = set()
        if slot.inverted:
            for (ci, oid, sname), tgt in links.items():
                if sname == slot.base.name and tgt in current:
                    nxt.add((ci, oid))
        else:
            for obj in current:
                ci, oid = obj
                nxt.add(links[(ci, oid, slot.base.name)])
        current = nxt
    return current


# --- per-object pipeline oracles -----------------------------------------------
#
# The one-object-at-a-time implementations the library used before slot
# chains were resolved set-at-a-time. They share only resolve_slot_chain and
# aggregate_mode with the library, which have their own oracle tests.


def _oracle_parent_value(dataset, skeleton, dep, obj):
    from prmbench.gbn import aggregate_mode, resolve_slot_chain

    targets = resolve_slot_chain(skeleton, obj, dep.slot_chain)
    column = dataset.tables[dep.parent.class_index].attr_values[
        dep.parent.attribute_index
    ]
    if dep.slot_chain.is_multi_valued:
        domain = len(
            dataset.schema.attribute(
                dep.parent.class_index, dep.parent.attribute_index
            ).domain
        )
        return aggregate_mode((column[t.object_id] for t in targets), domain)
    (target,) = targets
    return column[target.object_id]


def oracle_generate_cpds(schema, structure, dirichlet_alpha, rng):
    """One ``rng.dirichlet`` call per parent configuration, configurations in
    ``itertools.product`` order; returns ``{child: {config: row}}``."""
    import numpy as np

    from prmbench.deps import AttributeNode

    tables = {}
    for ci, cls in enumerate(schema.classes):
        for ai, attr in enumerate(cls.attributes):
            node = AttributeNode(ci, ai)
            sizes = [
                len(schema.attribute(d.parent.class_index, d.parent.attribute_index).domain)
                for d in structure.parents_of(node)
            ]
            alphas = np.full(len(attr.domain), dirichlet_alpha)
            tables[node] = {
                config: tuple(float(x) for x in rng.dirichlet(alphas))
                for config in itertools.product(*(range(s) for s in sizes))
            }
    return tables


def oracle_count_contingencies(dataset, skeleton, structure):
    """Per-object contingency tally; returns the ``families`` mapping."""
    from prmbench.deps import AttributeNode
    from prmbench.skeleton import ObjectRef

    schema = dataset.schema
    families = {}
    for ci, cls in enumerate(schema.classes):
        table = dataset.tables[ci]
        for ai, attr in enumerate(cls.attributes):
            node = AttributeNode(ci, ai)
            parents = structure.parents_of(node)
            sizes = [
                len(schema.attribute(d.parent.class_index, d.parent.attribute_index).domain)
                for d in parents
            ]
            counts = {
                config: [0] * len(attr.domain)
                for config in itertools.product(*(range(s) for s in sizes))
            }
            child_col = table.attr_values[ai]
            for oid in range(table.row_count):
                obj = ObjectRef(ci, oid)
                config = tuple(
                    _oracle_parent_value(dataset, skeleton, d, obj) for d in parents
                )
                counts[config][child_col[oid]] += 1
            families[node] = counts
    return families


def oracle_marginal_report(dataset, prm):
    """Per-object diagnostics report over a skeleton rebuilt from the data."""
    from collections import Counter

    from prmbench.gbn import resolve_slot_chain, skeleton_from_dataset
    from prmbench.skeleton import ObjectRef

    schema = dataset.schema
    out = {"rows.total": dataset.total_rows}
    skeleton = skeleton_from_dataset(dataset)

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
        indeg = Counter()
        for (owner, slot), target in skeleton.links.items():
            if target.class_index == ci:
                indeg[target.object_id] += 1
        if indeg:
            out[f"indegree_max.{cls.name}"] = max(indeg.values())
            out[f"indegree_mean.{cls.name}"] = round(
                sum(indeg.values()) / dataset.tables[ci].row_count, 6
            )

    empty_aggregates = 0
    for dep in prm.structure.dependencies:
        if dep.slot_chain is None or not dep.slot_chain.is_multi_valued:
            continue
        ci = dep.child.class_index
        for oid in range(dataset.tables[ci].row_count):
            if not resolve_slot_chain(skeleton, ObjectRef(ci, oid), dep.slot_chain):
                empty_aggregates += 1
    out["empty_aggregate_events"] = empty_aggregates
    return out


def oracle_forward_sample(prm, skeleton, rng):
    """Scalar forward sampling that consumes ``rng`` as the library does.

    Attributes go in the attribute DAG's topological order; each takes
    ``rng.random(n)`` for its n objects, and each object walks its CPD row
    with a running sum. Returns ``{(class, attribute): states}``.
    """
    from prmbench.dag import topological_order
    from prmbench.gbn import aggregate_mode, resolve_slot_chain
    from prmbench.skeleton import ObjectRef

    schema = prm.schema
    structure = prm.structure
    flat = [
        (ci, ai)
        for ci, count in enumerate(structure.attr_counts)
        for ai in range(count)
    ]
    states = {}
    for i in topological_order(structure.attribute_dag()):
        ci, ai = flat[i]
        cpd = prm.cpds[i]
        n = skeleton.object_counts[ci]
        u = rng.random(n)
        column = []
        for oid in range(n):
            config = []
            for dep in cpd.parent_order:
                pa, pi = dep.parent.class_index, dep.parent.attribute_index
                targets = resolve_slot_chain(skeleton, ObjectRef(ci, oid), dep.slot_chain)
                values = [states[(pa, pi)][t.object_id] for t in targets]
                if dep.slot_chain.is_multi_valued:
                    config.append(
                        aggregate_mode(values, len(schema.attribute(pa, pi).domain))
                    )
                else:
                    (value,) = values
                    config.append(value)
            probs = cpd.table[tuple(config)]
            acc = 0.0
            state = len(probs) - 1
            for s, p in enumerate(probs):
                acc += p
                if u[oid] < acc:
                    state = s
                    break
            column.append(state)
        states[(ci, ai)] = column
    return states


def oracle_assign_slot_chains(schema, structure, k_max, rng, aggregators=("MODE",)):
    """Slot-chain assignment that draws from the fully enumerated list."""
    from dataclasses import replace

    from prmbench.deps import SlotChain, draw_slot_chain, enumerate_slot_chains

    k_eff = max(k_max, len(schema.classes) - 1)
    cands = {}
    assigned = []
    for dep in structure.dependencies:
        source, target = dep.child.class_index, dep.parent.class_index
        if source == target:
            assigned.append(replace(dep, slot_chain=SlotChain(source), aggregator=None))
            continue
        if (source, target) not in cands:
            cands[source, target] = enumerate_slot_chains(schema, source, target, k_eff)
        if not cands[source, target]:
            continue  # dropped, drawing nothing
        chain = draw_slot_chain(cands[source, target], rng)
        aggregator = None
        if chain.is_multi_valued:
            aggregator = aggregators[int(rng.integers(len(aggregators)))]
        assigned.append(replace(dep, slot_chain=chain, aggregator=aggregator))
    return replace(structure, dependencies=tuple(assigned), k_max=k_eff)


# --- skeletons ---------------------------------------------------------------


def skeleton_from_links(object_counts, links):
    """A skeleton from a hand-written ``(owner, slot) -> target`` dict.

    Objects without a link on a slot read as -1, the missing-link marker.
    Raises ValueError on a link whose owner or target class disagrees with
    its slot: a column indexed by owner id can only hold targets of the
    slot's referenced class.
    """
    from prmbench.skeleton import RelationalSkeleton

    columns = {}
    for (owner, slot), target in links.items():
        if owner.class_index != slot.owner_class:
            raise ValueError(
                f"orientation: {slot.name} link recorded on class "
                f"{owner.class_index}, slot belongs to {slot.owner_class}"
            )
        if target.class_index != slot.referenced_class:
            raise ValueError(
                f"orientation: {slot.name} points into class {target.class_index}, "
                f"expected {slot.referenced_class}"
            )
        column = columns.setdefault(slot, [-1] * object_counts[slot.owner_class])
        column[owner.object_id] = target.object_id
    return RelationalSkeleton(tuple(object_counts), columns)


def oracle_generate_skeleton(schema, cfg, rng):
    """The recursive, link-dict skeleton generator the library replaced.

    It makes the same RNG calls in the same order as
    :func:`prmbench.skeleton.generate_skeleton`, so both must return equal
    skeletons and leave ``rng`` in the same state.
    """
    from prmbench.skeleton import ObjectRef, RelationalSkeleton

    n_classes = len(schema.classes)
    referenced = {s.referenced_class for c in schema.classes for s in c.reference_slots}
    roots = [i for i in range(n_classes) if i not in referenced]
    counts = [0] * n_classes
    balls = [[] for _ in range(n_classes)]
    links = {}
    total = 0
    iteration_counts = []

    def make_object(ci):
        nonlocal total
        oid = counts[ci]
        counts[ci] += 1
        total += 1
        return oid

    def grow(obj):
        for slot in schema.classes[obj.class_index].reference_slots:
            ci = slot.referenced_class
            n_p = counts[obj.class_index]
            if total >= cfg.n_total:
                make_new = counts[ci] == 0
            elif rng.random() < cfg.alpha / (n_p - 1 + cfg.alpha):
                make_new = True
            else:
                make_new = counts[ci] == 0
            if make_new:
                target_id = make_object(ci)
            else:
                target_id = balls[ci][int(rng.integers(len(balls[ci])))]
            links[(obj, slot)] = ObjectRef(ci, target_id)
            balls[ci].append(target_id)
            if make_new:
                grow(ObjectRef(ci, target_id))

    while total < cfg.n_total:
        before = total
        root = roots[int(rng.integers(len(roots)))] if len(roots) > 1 else roots[0]
        grow(ObjectRef(root, make_object(root)))
        iteration_counts.append(total - before)
    columns = {
        s: [-1] * counts[s.owner_class] for c in schema.classes for s in c.reference_slots
    }
    for (owner, slot), target in links.items():
        columns[slot][owner.object_id] = target.object_id
    return RelationalSkeleton(tuple(counts), columns, tuple(iteration_counts))
