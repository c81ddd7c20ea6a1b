from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from prmbench.dag import (
    CyclicGraphError,
    Dag,
    DagPolicy,
    RejectionBudgetError,
    generate_connected_dag,
    generate_random_dag,
    is_acyclic,
    is_weakly_connected,
    sample_connected_dags,
    topological_order,
)

from helpers import enumerate_dags, oracle_is_acyclic


def test_dag_rejects_malformed_edges():
    with pytest.raises(ValueError):
        Dag(0, frozenset())
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 5)}))


def test_single_node_dag_is_unique():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = generate_random_dag(1, rng=rng)
        assert g.node_count == 1 and not g.edges


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        generate_random_dag(0, rng=np.random.default_rng(0))


def test_max_parents_zero_forbids_all_edges():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = generate_random_dag(3, DagPolicy(max_parents=0), rng)
        assert not g.edges


def test_random_dag_uniform_over_25_three_node_dags():
    # Oracle enumerates all 3-node digraphs and filters the acyclic ones.
    universe = enumerate_dags(3)
    assert len(universe) == 25
    rng = np.random.default_rng(202)
    counts = Counter()
    # The table-backed batch path covers the big statistical run for the
    # acceptance suite; here the scalar sampler itself is checked.
    for _ in range(5000):
        counts[generate_random_dag(3, rng=rng).edges] += 1
    assert set(counts) <= set(universe)
    assert len(counts) == 25
    _, p = chisquare([counts[g] for g in universe])
    assert p > 0.01


def test_connected_dag_two_nodes_balanced():
    rng = np.random.default_rng(3)
    dags = sample_connected_dags(2, 10_000, rng=rng)
    freq = Counter(d.edges for d in dags)
    assert set(freq) == {frozenset({(0, 1)}), frozenset({(1, 0)})}
    for v in freq.values():
        assert abs(v / 10_000 - 0.5) <= 0.02


def test_connected_dag_invariants_across_sizes():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(10):
            g = generate_connected_dag(n, rng=rng)
            assert is_weakly_connected(g)
            assert oracle_is_acyclic(n, g.edges)
            assert is_acyclic(g)


def test_same_seed_same_policy_identical_dag():
    policy = DagPolicy(mixing_steps=500)
    a = generate_random_dag(5, policy, np.random.default_rng(99))
    b = generate_random_dag(5, policy, np.random.default_rng(99))
    assert a == b


def test_chain_moves_keep_acyclicity_in_debug_mode():
    # Step seed 17's move stream by hand, as generate_random_dag decodes it,
    # and check the graph after every applied move.
    from prmbench import dag

    n = 6
    n_pairs = n * (n - 1)
    steps = DagPolicy().resolved_mixing_steps(n)
    children, parent_count = [0] * n, [0] * n
    applied = 0
    for c in np.random.default_rng(17).integers(0, 3 * n_pairs, size=steps).tolist():
        kind, pair = divmod(c, n_pairs)
        u, r = divmod(pair, n - 1)
        v = r + (r >= u)
        if dag._apply_move(children, parent_count, kind, u, v, None):
            applied += 1
            assert oracle_is_acyclic(n, dag._edges_from_masks(children))
    assert applied > 100
    g = generate_random_dag(n, DagPolicy(), np.random.default_rng(17))
    assert g.edges == dag._edges_from_masks(children)
    assert is_acyclic(g)


def test_rejection_budget_error_is_diagnosable():
    # max_parents=0 makes connectivity unreachable for n >= 2.
    policy = DagPolicy(max_parents=0, max_rejections=25)
    with pytest.raises(RejectionBudgetError) as exc:
        generate_connected_dag(3, policy, np.random.default_rng(0))
    assert exc.value.attempts == 25


def test_weak_connectivity_examples():
    assert is_weakly_connected(Dag(1, frozenset()))
    assert not is_weakly_connected(Dag(3, frozenset({(0, 1)})))
    assert is_weakly_connected(Dag(3, frozenset({(0, 1), (2, 1)})))


def test_topological_order_examples():
    assert topological_order(Dag(3, frozenset({(0, 1), (1, 2)}))) == (0, 1, 2)
    assert topological_order(Dag(3, frozenset())) == (0, 1, 2)
    # Kahn with an index-ordered ready queue: 1 and 2 start ready, 0 waits on 2.
    assert topological_order(Dag(3, frozenset({(2, 0)}))) == (1, 2, 0)


def test_topological_order_rejects_cycles():
    with pytest.raises(CyclicGraphError):
        topological_order(Dag(3, frozenset({(0, 1), (1, 2), (2, 0)})))


def test_topological_order_respects_edges():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = generate_random_dag(7, rng=rng)
        pos = {v: i for i, v in enumerate(topological_order(g))}
        for u, v in g.edges:
            assert pos[u] < pos[v]


def test_batch_matches_scalar_distribution():
    # Both paths run the same move kernel; compare their empirical
    # distributions over the 18 connected 3-node DAGs.
    universe = enumerate_dags(3, connected_only=True)
    assert len(universe) == 18
    batch = Counter(
        d.edges for d in sample_connected_dags(3, 6000, rng=np.random.default_rng(8))
    )
    rng = np.random.default_rng(9)
    scalar = Counter(generate_connected_dag(3, rng=rng).edges for _ in range(3000))
    assert set(batch) == set(universe)
    assert set(scalar) == set(universe)
    _, p_b = chisquare([batch[g] for g in universe])
    _, p_s = chisquare([scalar[g] for g in universe])
    assert p_b > 0.01 and p_s > 0.01


def test_batch_falls_back_for_larger_n():
    dags = sample_connected_dags(5, 4, rng=np.random.default_rng(2))
    assert len(dags) == 4
    for g in dags:
        assert g.node_count == 5 and is_weakly_connected(g)


def test_policy_validation():
    with pytest.raises(ValueError):
        DagPolicy(mixing_steps=0)
    with pytest.raises(ValueError):
        DagPolicy(max_parents=-1)
    with pytest.raises(ValueError):
        DagPolicy(max_rejections=0)
    assert DagPolicy(mixing_steps=2).resolved_mixing_steps(4) == 16
