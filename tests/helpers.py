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
