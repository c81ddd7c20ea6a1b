"""Random DAG generation, connectivity tests, and topological ordering.

DAGs are sampled by walking a Markov chain over DAG space: each step picks a
move kind (add / remove / reverse) and an ordered node pair uniformly, and
rejects the move if it would create a cycle or exceed the parent cap. The
proposal kernel is symmetric between any two valid states, so the stationary
distribution is uniform over the reachable DAGs; ``mixing_steps`` controls
how close a single draw gets to stationarity.

Connected DAGs are obtained by rejection: resample until the undirected
version of the graph has a single component.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CyclicGraphError",
    "Dag",
    "DagPolicy",
    "RejectionBudgetError",
    "generate_connected_dag",
    "generate_random_dag",
    "is_acyclic",
    "is_weakly_connected",
    "sample_connected_dags",
    "topological_order",
]


class CyclicGraphError(ValueError):
    """A directed cycle was found where a DAG is required."""


class RejectionBudgetError(RuntimeError):
    """Rejection sampling exhausted its retry budget without an accept."""

    def __init__(self, attempts: int, message: str):
        self.attempts = attempts
        super().__init__(f"{message} after {attempts} attempts")


@dataclass(frozen=True)
class Dag:
    """Directed graph on nodes ``0..node_count-1`` intended to be acyclic.

    Acyclicity is maintained by the generators and verified by
    :func:`topological_order` / :func:`is_acyclic`; the constructor only
    rejects malformed edges so that validators can inspect broken graphs.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in ascending (u, v) order, for deterministic iteration."""
        return tuple(sorted(self.edges))

    def reversed(self) -> "Dag":
        return Dag(self.node_count, frozenset((v, u) for (u, v) in self.edges))


@dataclass(frozen=True)
class DagPolicy:
    """Knobs for the Markov-chain sampler and the rejection loop.

    ``mixing_steps=None`` resolves to ``50 * n**2`` for a graph on ``n``
    nodes; explicit values are floored at ``n**2`` so a policy tuned for one
    graph size stays adequate when reused on a larger one.
    """

    mixing_steps: int | None = None
    max_parents: int | None = None
    max_rejections: int = 1_000_000

    def __post_init__(self):
        if self.mixing_steps is not None and self.mixing_steps < 1:
            raise ValueError("mixing_steps must be positive")
        if self.max_parents is not None and self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")

    def resolved_mixing_steps(self, n: int) -> int:
        base = 50 * n * n if self.mixing_steps is None else self.mixing_steps
        return max(base, n * n)


def _reaches(children: list[int], src: int, dst: int) -> bool:
    """True if dst is reachable from src along directed edges (bitmask BFS)."""
    dst_bit = 1 << dst
    seen = 0
    frontier = children[src]
    while frontier:
        if frontier & dst_bit:
            return True
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= children[b.bit_length() - 1]
        frontier = nxt & ~seen
    return False


def _apply_move(
    children: list[int],
    parent_count: list[int],
    kind: int,
    u: int,
    v: int,
    max_parents: int | None,
) -> bool:
    """Apply one chain move in place; returns False when the move is rejected.

    kind 0 adds u->v, kind 1 removes u->v, kind 2 reverses u->v to v->u.
    Rejections keep the state unchanged, which gives the chain its
    aperiodicity; validity of a move depends only on whether the target
    state is itself a legal DAG, which keeps the kernel symmetric.
    """
    bit_v = 1 << v
    if kind == 0:
        if children[u] & bit_v:
            return False
        if max_parents is not None and parent_count[v] >= max_parents:
            return False
        if _reaches(children, v, u):
            return False
        children[u] |= bit_v
        parent_count[v] += 1
        return True
    if kind == 1:
        if not children[u] & bit_v:
            return False
        children[u] ^= bit_v
        parent_count[v] -= 1
        return True
    # reverse
    if not children[u] & bit_v:
        return False
    if max_parents is not None and parent_count[u] >= max_parents:
        return False
    children[u] ^= bit_v
    if _reaches(children, u, v):
        children[u] |= bit_v
        return False
    children[v] |= 1 << u
    parent_count[v] -= 1
    parent_count[u] += 1
    return True


def _edges_from_masks(children: list[int]) -> frozenset[tuple[int, int]]:
    edges = []
    for u, m in enumerate(children):
        while m:
            b = m & -m
            m ^= b
            edges.append((u, b.bit_length() - 1))
    return frozenset(edges)


def generate_random_dag(
    n: int,
    policy: DagPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> Dag:
    """Draw one DAG on ``n`` nodes from the Markov chain.

    The draw consumes exactly ``resolved_mixing_steps(n)`` integers from the
    stream (none for ``n == 1``), so runs are reproducible per seed.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    policy = policy or DagPolicy()
    if n == 1:
        return Dag(1, frozenset())
    rng = rng if rng is not None else np.random.default_rng()

    n_pairs = n * (n - 1)
    steps = policy.resolved_mixing_steps(n)
    children = [0] * n
    parent_count = [0] * n
    for c in rng.integers(0, 3 * n_pairs, size=steps).tolist():
        kind, pair = divmod(c, n_pairs)
        u, r = divmod(pair, n - 1)
        v = r + (r >= u)
        _apply_move(children, parent_count, kind, u, v, policy.max_parents)
    return Dag(n, _edges_from_masks(children))


def is_weakly_connected(g: Dag) -> bool:
    """True when the undirected version of ``g`` has a single component."""
    n = g.node_count
    if n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def generate_connected_dag(
    n: int,
    policy: DagPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> Dag:
    """Rejection-sample :func:`generate_random_dag` until weakly connected."""
    policy = policy or DagPolicy()
    for attempt in range(1, policy.max_rejections + 1):
        g = generate_random_dag(n, policy, rng)
        if is_weakly_connected(g):
            return g
    raise RejectionBudgetError(
        policy.max_rejections, f"no weakly connected DAG on {n} nodes found"
    )


def topological_order(g: Dag) -> tuple[int, ...]:
    """Kahn's algorithm with ties broken by ascending node index."""
    n = g.node_count
    indeg = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        children[u].append(v)
        indeg[v] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        raise CyclicGraphError(
            f"graph has a directed cycle ({n - len(order)} nodes unresolved)"
        )
    return tuple(order)


def is_acyclic(g: Dag) -> bool:
    try:
        topological_order(g)
    except CyclicGraphError:
        return False
    return True


# Batch sampling. For small n the whole chain is compiled into a transition
# table indexed by (move choice, state), where a state is the bitmask of the
# n(n-1) possible edges; batches of chains then advance in lockstep through
# numpy fancy indexing. The table is built from _apply_move itself, so both
# paths realize the same chain.

_TABLE_MAX_PAIRS = 12  # tabulate up to 2**12 states (n <= 4)


def _pair_table(n: int) -> list[tuple[int, int]]:
    pairs = []
    for p in range(n * (n - 1)):
        u, r = divmod(p, n - 1)
        pairs.append((u, r + (r >= u)))
    return pairs


@lru_cache(maxsize=None)
def _move_table(n: int, max_parents: int | None):
    m = n * (n - 1)
    pairs = _pair_table(n)
    pair_index = {pair: p for p, pair in enumerate(pairs)}
    n_states = 1 << m
    table = np.zeros((3 * m, n_states), dtype=np.uint16)
    connected = np.zeros(n_states, dtype=bool)
    for s in range(n_states):
        children = [0] * n
        parent_count = [0] * n
        for p in range(m):
            if s >> p & 1:
                u, v = pairs[p]
                children[u] |= 1 << v
                parent_count[v] += 1
        g = Dag(n, _edges_from_masks(children))
        if not is_acyclic(g):
            table[:, s] = s  # unreachable from the empty DAG; keep total
            continue
        connected[s] = is_weakly_connected(g)
        for c in range(3 * m):
            kind, pair = divmod(c, m)
            u, v = pairs[pair]
            work = children.copy()
            counts = parent_count.copy()
            _apply_move(work, counts, kind, u, v, max_parents)
            table[c, s] = sum(1 << pair_index[e] for e in _edges_from_masks(work))
    return table, connected, pairs


def sample_connected_dags(
    n: int,
    count: int,
    policy: DagPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> list[Dag]:
    """Draw ``count`` independent connected DAGs.

    Semantically identical to calling :func:`generate_connected_dag` in a
    loop (same chain, same rejection rule), but for n <= 4 the chains run
    vectorized over a precompiled move table, which makes large statistical
    batches cheap. The stream consumption differs from the scalar loop, so
    the two paths are not draw-for-draw identical for a shared seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    policy = policy or DagPolicy()
    if n == 1:
        return [Dag(1, frozenset())] * count
    if n * (n - 1) > _TABLE_MAX_PAIRS:
        return [generate_connected_dag(n, policy, rng) for _ in range(count)]
    rng = rng if rng is not None else np.random.default_rng()

    table, connected, pairs = _move_table(n, policy.max_parents)
    steps = policy.resolved_mixing_steps(n)
    n_choices = table.shape[0]
    out = np.zeros(count, dtype=np.int64)
    pending = np.arange(count)
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > policy.max_rejections:
            raise RejectionBudgetError(
                policy.max_rejections, f"no weakly connected DAG on {n} nodes found"
            )
        cur = np.zeros(pending.size, dtype=np.uint16)
        for _ in range(steps):
            cur = table[rng.integers(0, n_choices, size=cur.size), cur]
        ok = connected[cur]
        out[pending[ok]] = cur[ok]
        pending = pending[~ok]

    dag_cache: dict[int, Dag] = {}
    result = []
    for s in out.tolist():
        dag = dag_cache.get(s)
        if dag is None:
            edges = frozenset(pairs[p] for p in range(len(pairs)) if s >> p & 1)
            dag = Dag(n, edges)
            dag_cache[s] = dag
        result.append(dag)
    return result
