import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from prmbench.dag import DagPolicy
from prmbench.deps import (
    AttributeNode,
    Cpd,
    Dependency,
    DependencyStructure,
    Prm,
    Slot,
    SlotChain,
    SlotChainCounts,
    assign_slot_chains,
    canonical_parent_order,
    draw_slot_chain,
    enumerate_slot_chains,
    generate_cpds,
    generate_dependency_structure,
    simplify_slot_chain,
    slot_chain_weights,
)
from prmbench.schema import GenerationPolicy, generate_schema

from helpers import oracle_assign_slot_chains, oracle_generate_cpds, oracle_is_acyclic

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


# --- slot chain simplification ----------------------------------------------


def test_simplify_user_roundtrip(movie_schema, movie_slots):
    movie_slot, user_slot = movie_slots
    # Vote.User.User^-1.User collapses to Vote.User.
    chain = SlotChain(2, (Slot(user_slot), Slot(user_slot, True), Slot(user_slot)))
    assert simplify_slot_chain(chain) == SlotChain(2, (Slot(user_slot),))


def test_simplify_inverse_then_forward_collapses_to_empty(movie_slots):
    movie_slot, _ = movie_slots
    # Movie-side round trip Vote.Movie^-1.Movie is the empty chain.
    chain = SlotChain(0, (Slot(movie_slot, True), Slot(movie_slot)))
    assert simplify_slot_chain(chain) == SlotChain(0)


def test_simplify_idempotent_and_preserves_simplified(movie_slots):
    movie_slot, user_slot = movie_slots
    chains = [
        SlotChain(2, (Slot(user_slot), Slot(user_slot, True), Slot(movie_slot))),
        SlotChain(2, (Slot(movie_slot),)),
        SlotChain(2),
        SlotChain(0, (Slot(movie_slot, True), Slot(user_slot))),
    ]
    for c in chains:
        once = simplify_slot_chain(c)
        assert simplify_slot_chain(once) == once
        assert once.length <= c.length


def test_chain_composition_validated(movie_slots):
    movie_slot, user_slot = movie_slots
    with pytest.raises(ValueError):
        SlotChain(2, (Slot(movie_slot), Slot(user_slot)))  # Movie then Vote-owned slot
    with pytest.raises(ValueError):
        SlotChain(0, (Slot(movie_slot),))  # forward slot starts at Vote, not Movie


# --- enumeration ---------------------------------------------------------------


def test_enumerate_vote_to_movie(movie_schema, movie_slots):
    movie_slot, user_slot = movie_slots
    chains = enumerate_slot_chains(movie_schema, 2, 0, 3)
    texts = {c.text for c in chains}
    # movie/~movie/movie collapses into the length-1 chain and is not listed.
    assert texts == {"movie", "user/~user/movie"}


def test_enumerate_empty_chain_iff_same_class(movie_schema):
    same = enumerate_slot_chains(movie_schema, 0, 0, 0)
    assert [c.text for c in same] == [""]
    cross = enumerate_slot_chains(movie_schema, 2, 0, 0)
    assert cross == ()


def test_enumerated_chains_are_pairwise_distinct_on_random_skeletons(
    movie_schema,
):
    # Distinctness oracle: resolve every listed chain from every vote object
    # on 20 generated skeletons; no two chains may agree everywhere.
    from prmbench.skeleton import CrpConfig, generate_skeleton
    from prmbench.gbn import resolve_slot_chain

    chains = enumerate_slot_chains(movie_schema, 2, 0, 3)
    profiles = [[] for _ in chains]
    for seed in range(20):
        sk = generate_skeleton(
            movie_schema, CrpConfig(n_total=30), np.random.default_rng(seed)
        )
        for i, chain in enumerate(chains):
            for oid in range(sk.object_counts[2]):
                from prmbench.skeleton import ObjectRef

                profiles[i].append(
                    resolve_slot_chain(sk, ObjectRef(2, oid), chain)
                )
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            assert profiles[i] != profiles[j]


# --- weights and drawing -------------------------------------------------------


def _chains_of_lengths(movie_slots, lengths):
    movie_slot, user_slot = movie_slots
    by_len = {
        0: SlotChain(2),
        1: SlotChain(2, (Slot(movie_slot),)),
        2: SlotChain(2, (Slot(movie_slot), Slot(movie_slot, True))),
        3: SlotChain(2, (Slot(user_slot), Slot(user_slot, True), Slot(movie_slot))),
    }
    return [by_len[l] for l in lengths]


def test_weights_match_hand_computation(movie_slots):
    w = slot_chain_weights(_chains_of_lengths(movie_slots, [1, 1, 2]))
    raw = [math.exp(-0.5), math.exp(-0.5), math.exp(-2.0)]
    expected = [r / sum(raw) for r in raw]
    assert np.allclose(w, expected, atol=1e-4)
    assert np.allclose(expected, [0.4498, 0.4498, 0.1004], atol=1e-4)


def test_weights_single_and_empty_chain(movie_slots):
    assert slot_chain_weights(_chains_of_lengths(movie_slots, [3])) == [1.0]
    assert slot_chain_weights(_chains_of_lengths(movie_slots, [0])) == [1.0]
    with pytest.raises(ValueError):
        slot_chain_weights([])


def test_draw_frequency_matches_weights(movie_slots):
    chains = _chains_of_lengths(movie_slots, [1, 2])
    w = slot_chain_weights(chains)
    rng = np.random.default_rng(40)
    hits = Counter(draw_slot_chain(chains, rng).length for _ in range(10_000))
    for chain, weight in zip(chains, w):
        assert abs(hits[chain.length] / 10_000 - weight) <= 0.02


# --- structure generation ------------------------------------------------------


def test_single_attribute_schema_has_no_dependencies():
    from prmbench.schema import AttributeDef, ClassDef, RelationalSchema
    from prmbench.dag import Dag

    schema = RelationalSchema(
        (ClassDef("clazz0", "clazz0id", (AttributeDef("att0", ("v0", "v1")),)),),
        Dag(1, frozenset()),
    )
    structure = generate_dependency_structure(schema, FAST, np.random.default_rng(0))
    assert structure.dependencies == ()


def test_attribute_graph_acyclic_against_oracle():
    rng = np.random.default_rng(7)
    for seed in range(300):
        schema = generate_schema(4, FAST, rng)
        structure = generate_dependency_structure(schema, FAST, rng)
        g = structure.attribute_dag()
        assert oracle_is_acyclic(g.node_count, g.edges)


def test_inter_class_edges_connect_components():
    rng = np.random.default_rng(3)
    for _ in range(50):
        schema = generate_schema(4, FAST, rng)
        structure = generate_dependency_structure(schema, FAST, rng)
        classes = {i: i for i in range(4)}

        def find(x):
            while classes[x] != x:
                x = classes[x]
            return x

        for d in structure.dependencies:
            if d.child.class_index != d.parent.class_index:
                classes[find(d.child.class_index)] = find(d.parent.class_index)
        assert len({find(i) for i in range(4)}) == 1


def test_movie_anchor_dependency_appears(movie_schema):
    # Some seed must produce the cross-class dependency with child
    # vote.rating and parent movie.genre; its chain then starts at the
    # vote class and reaches the movie class.
    want_child = AttributeNode(2, 0)
    want_parent = AttributeNode(0, 0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        structure = generate_dependency_structure(movie_schema, FAST, rng)
        match = [
            d
            for d in structure.dependencies
            if d.child == want_child and d.parent == want_parent
        ]
        if match:
            annotated = assign_slot_chains(movie_schema, structure, 3, rng)
            chains = [
                d.slot_chain
                for d in annotated.dependencies
                if d.child == want_child and d.parent == want_parent
            ]
            assert chains and chains[0].source_class == 2
            assert chains[0].end_class == 0
            return
    pytest.fail("anchor dependency not generated in 200 seeds")


# --- chain assignment ----------------------------------------------------------


def test_assign_intra_class_gets_empty_chain_no_aggregator():
    rng = np.random.default_rng(5)
    schema = generate_schema(3, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, 2, rng)
    for d in annotated.dependencies:
        if d.child.class_index == d.parent.class_index:
            assert d.slot_chain.length == 0
            assert d.aggregator is None


def test_assign_effective_kmax_is_at_least_n_minus_one():
    rng = np.random.default_rng(6)
    schema = generate_schema(5, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, 1, rng)
    assert annotated.k_max == 4
    for d in annotated.dependencies:
        assert d.slot_chain.length <= 4


def test_assign_drops_unreachable_dependency_with_diagnostic(caplog):
    import logging

    from prmbench.dag import Dag
    from prmbench.deps import DependencyStructure
    from prmbench.schema import AttributeDef, ClassDef, RelationalSchema

    # Two classes with no referential path at all (invalid as a generated
    # schema, but the assignment must stay total and explain the drop).
    schema = RelationalSchema(
        (
            ClassDef("a", "aid", (AttributeDef("att0", ("v0", "v1")),)),
            ClassDef("b", "bid", (AttributeDef("att0", ("v0", "v1")),)),
        ),
        Dag(2, frozenset()),
    )
    dep = Dependency(child=AttributeNode(0, 0), parent=AttributeNode(1, 0))
    structure = DependencyStructure((dep,), (1, 1))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with caplog.at_level(logging.WARNING, logger="prmbench.deps"):
        annotated = assign_slot_chains(schema, structure, 3, rng)
    assert annotated.dependencies == ()
    assert any("dropping dependency" in r.message for r in caplog.records)
    assert rng.bit_generator.state == state  # a dropped dependency draws nothing


def test_assign_aggregator_iff_multi_valued():
    rng = np.random.default_rng(8)
    for _ in range(30):
        schema = generate_schema(4, FAST, rng)
        structure = generate_dependency_structure(schema, FAST, rng)
        annotated = assign_slot_chains(schema, structure, 3, rng)
        for d in annotated.dependencies:
            assert (d.aggregator is not None) == d.slot_chain.is_multi_valued


def test_toy_shape_chain_lengths_and_mode(movie_schema):
    # Across seeds, toy-sized runs produce inter-class chains of lengths
    # 1 through 3 and MODE annotations on inverse-bearing chains.
    seen_lengths = set()
    seen_mode = False
    rng = np.random.default_rng(0)
    for _ in range(300):
        schema = generate_schema(4, FAST, rng)
        structure = generate_dependency_structure(schema, FAST, rng)
        annotated = assign_slot_chains(schema, structure, 3, rng)
        for d in annotated.dependencies:
            if d.child.class_index != d.parent.class_index:
                seen_lengths.add(d.slot_chain.length)
                if d.aggregator == "MODE":
                    seen_mode = True
        if {1, 2, 3} <= seen_lengths and seen_mode:
            break
    assert {1, 2, 3} <= seen_lengths
    assert seen_mode


# --- counted chains against the enumeration ----------------------------------


def _random_schemas(count=40):
    rng = np.random.default_rng(123)
    return [generate_schema(2 + i % 5, FAST, rng) for i in range(count)]


def _unrank_all(table, from_class):
    return [
        table.unrank(from_class, length, rank)
        for length, count in enumerate(table.occ(from_class))
        for rank in range(count)
    ]


def test_counts_match_enumeration_for_every_pair_and_horizon():
    for schema in _random_schemas():
        n = len(schema.classes)
        for to_class in range(n):
            tables = [SlotChainCounts(schema, to_class, h) for h in range(6)]
            for from_class in range(n):
                for h, table in enumerate(tables):
                    occ = Counter(
                        c.length
                        for c in enumerate_slot_chains(schema, from_class, to_class, h)
                    )
                    assert table.occ(from_class) == tuple(occ[l] for l in range(h + 1))


def test_unranking_reproduces_enumeration_order():
    for schema in _random_schemas():
        n = len(schema.classes)
        for to_class in range(n):
            table = SlotChainCounts(schema, to_class, 5)
            for from_class in range(n):
                assert _unrank_all(table, from_class) == list(
                    enumerate_slot_chains(schema, from_class, to_class, 5)
                )


def test_unranking_follows_text_order_when_names_sort_below_slash():
    # "-" sorts below "/", so chain text puts "a-b/~a-b" before "a/~a"
    # although the token "a" sorts before "a-b".
    from prmbench.dag import Dag
    from prmbench.schema import AttributeDef, ClassDef, ReferenceSlot, RelationalSchema

    attrs = (AttributeDef("att0", ("v0", "v1")),)
    slots = (ReferenceSlot("a", 0, 1), ReferenceSlot("a-b", 0, 2))
    schema = RelationalSchema(
        (
            ClassDef("x", "xid", attrs, slots),
            ClassDef("y", "yid", attrs, (ReferenceSlot("c", 1, 2),)),
            ClassDef("z", "zid", attrs),
        ),
        Dag(3, frozenset({(0, 1), (0, 2), (1, 2)})),
    )
    for to_class in range(3):
        table = SlotChainCounts(schema, to_class, 4)
        for from_class in range(3):
            assert _unrank_all(table, from_class) == list(
                enumerate_slot_chains(schema, from_class, to_class, 4)
            )
    texts = [c.text for c in enumerate_slot_chains(schema, 0, 0, 2) if c.length == 2]
    assert texts == ["a-b/~a-b", "a/~a"]


def test_counts_validate_arguments(movie_schema):
    with pytest.raises(ValueError):
        SlotChainCounts(movie_schema, 0, -1)
    with pytest.raises(ValueError):
        SlotChainCounts(movie_schema, 3, 2)
    table = SlotChainCounts(movie_schema, 0, 3)
    with pytest.raises(ValueError):
        table.occ(-1)
    assert table.occ(2) == (0, 1, 0, 1)
    with pytest.raises(IndexError):
        table.unrank(2, 1, 1)
    with pytest.raises(IndexError):
        table.unrank(2, 4, 0)


# The pipelines the enumeration was retired on: 4 classes at the fanout
# seeds, 9 classes at the wide seeds, and 2-8 classes at seeds 20-39.
_PIPELINES = (
    [(4, s) for s in range(12)]
    + [(9, s) for s in range(3)]
    + [(n, s) for n in range(2, 9) for s in range(20, 40)]
)


def test_assignment_matches_enumeration_oracle_with_same_stream():
    from prmbench.schema import GenerationPolicy

    for classes, seed in _PIPELINES:
        rng = np.random.default_rng(seed)
        policy = GenerationPolicy()
        schema = generate_schema(classes, policy, rng)
        structure = generate_dependency_structure(schema, policy, rng)
        oracle_rng = np.random.default_rng()
        oracle_rng.bit_generator.state = rng.bit_generator.state
        got = assign_slot_chains(schema, structure, 3, rng)
        want = oracle_assign_slot_chains(schema, structure, 3, oracle_rng)
        assert got == want, (classes, seed)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class _FixedUniforms:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_draw_matches_enumeration_inside_every_chain_and_at_length_boundaries():
    for schema in _random_schemas(15):
        n = len(schema.classes)
        for to_class in range(n):
            table = SlotChainCounts(schema, to_class, 5)
            for from_class in range(n):
                chains = enumerate_slot_chains(schema, from_class, to_class, 5)
                if not chains:
                    continue
                cum = np.cumsum(slot_chain_weights(chains))
                ends = [i for i in range(len(chains) - 1)
                        if chains[i].length != chains[i + 1].length]
                us = [0.0, float(np.nextafter(1.0, 0.0))]
                us += [float(x) for x in (np.concatenate(([0.0], cum[:-1])) + cum) / 2]
                for i in ends:
                    us += [cum[i] * (1 - 1e-12), min(cum[i] * (1 + 1e-12), us[1])]
                for u in us:
                    want = draw_slot_chain(chains, _FixedUniforms([u]))
                    assert table.draw(from_class, _FixedUniforms([u])) == want, u


# --- CPDs ----------------------------------------------------------------------


def _toy_prm(seed, n=3, alpha=1.0):
    rng = np.random.default_rng(seed)
    schema = generate_schema(n, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, 3, rng)
    return generate_cpds(schema, annotated, alpha, rng)


def test_cpd_rows_normalized_and_complete():
    for seed in range(10):
        prm = _toy_prm(seed)
        for cpd in prm.cpds:
            sizes = [
                len(prm.schema.attribute(d.parent.class_index, d.parent.attribute_index).domain)
                for d in cpd.parent_order
            ]
            expected_rows = int(np.prod(sizes)) if sizes else 1
            assert len(cpd.table) == expected_rows
            for row in cpd.table.values():
                assert abs(sum(row) - 1.0) < 1e-9
                assert all(p >= 0 for p in row)


def test_parentless_binary_cpd_single_row():
    from prmbench.schema import AttributeDef, ClassDef, RelationalSchema
    from prmbench.dag import Dag
    from prmbench.deps import DependencyStructure

    schema = RelationalSchema(
        (ClassDef("clazz0", "clazz0id", (AttributeDef("att0", ("v0", "v1")),)),),
        Dag(1, frozenset()),
    )
    structure = DependencyStructure((), (1,), k_max=0)
    prm = generate_cpds(schema, structure, 1.0, np.random.default_rng(0))
    assert len(prm.cpds) == 1
    (row,) = prm.cpds[0].table.values()
    assert len(row) == 2 and abs(sum(row) - 1.0) < 1e-12


def test_dirichlet_one_marginal_is_uniform():
    # Dirichlet(1, 1) first coordinate is Uniform(0, 1): KS at 0.01.
    from prmbench.schema import AttributeDef, ClassDef, RelationalSchema
    from prmbench.dag import Dag
    from prmbench.deps import DependencyStructure

    schema = RelationalSchema(
        (ClassDef("clazz0", "clazz0id", (AttributeDef("att0", ("v0", "v1")),)),),
        Dag(1, frozenset()),
    )
    structure = DependencyStructure((), (1,), k_max=0)
    rng = np.random.default_rng(1234)
    draws = [
        generate_cpds(schema, structure, 1.0, rng).cpds[0].table[()][0]
        for _ in range(10_000)
    ]
    assert kstest(draws, "uniform").pvalue > 0.01


def test_cpd_one_three_state_parent_three_rows(movie_schema):
    from prmbench.deps import DependencyStructure

    dep = Dependency(
        child=AttributeNode(2, 0),
        parent=AttributeNode(0, 0),
        slot_chain=SlotChain(2, (Slot(movie_schema.classes[2].reference_slots[0]),)),
    )
    structure = DependencyStructure((dep,), (1, 1, 1), k_max=2)
    prm = generate_cpds(movie_schema, structure, 1.0, np.random.default_rng(0))
    rating_cpd = [c for c in prm.cpds if c.child == AttributeNode(2, 0)][0]
    assert len(rating_cpd.table) == 3


def test_generate_cpds_validates_inputs():
    rng = np.random.default_rng(5)
    schema = generate_schema(2, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    with pytest.raises(ValueError):
        generate_cpds(schema, structure, 1.0, rng)  # chains unassigned
    annotated = assign_slot_chains(schema, structure, 2, rng)
    with pytest.raises(ValueError):
        generate_cpds(schema, annotated, 0.0, rng)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 3.0])
def test_generate_cpds_matches_per_row_oracle_with_same_stream(alpha):
    # One dirichlet call per CPD must draw what one call per row drew, and
    # leave the stream where the per-row calls left it. alpha = 0.05 takes
    # NumPy's small-alpha branch.
    policy = GenerationPolicy(attr_lambda=2.0, dag_policy=DagPolicy(mixing_steps=1))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        schema = generate_schema(2 + seed % 3, policy, rng)
        structure = generate_dependency_structure(schema, policy, rng)
        annotated = assign_slot_chains(schema, structure, 3, rng)
        oracle_rng = np.random.default_rng()
        oracle_rng.bit_generator.state = rng.bit_generator.state
        prm = generate_cpds(schema, annotated, alpha, rng)
        expected = oracle_generate_cpds(schema, annotated, alpha, oracle_rng)
        assert {c.child: c.table for c in prm.cpds} == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _two_parent_structure(movie_schema):
    """vote.rating (3 states) <- movie.genre (3 states), user.age (2 states)."""
    movie_slot, user_slot = movie_schema.classes[2].reference_slots
    deps = tuple(
        Dependency(AttributeNode(2, 0), AttributeNode(ci, 0), SlotChain(2, (Slot(slot),)))
        for ci, slot in ((0, movie_slot), (1, user_slot))
    )
    return DependencyStructure(deps, (1, 1, 1), k_max=1)


def _rating_prm(movie_schema, rows):
    structure = _two_parent_structure(movie_schema)
    rating = AttributeNode(2, 0)
    cpds = (
        Cpd(AttributeNode(0, 0), (), {(): (0.5, 0.3, 0.2)}),
        Cpd(AttributeNode(1, 0), (), {(): (0.6, 0.4)}),
        Cpd(rating, structure.parents_of(rating), rows),
    )
    return Prm(movie_schema, structure, cpds, 1)


def _rating_table():
    return {
        (g, a): (0.1 * g, 0.5 - 0.1 * g - 0.1 * a, 0.5 + 0.1 * a)
        for g in range(3)
        for a in range(2)
    }


def test_cpd_dict_and_array_give_the_same_rows(movie_schema):
    table = _rating_table()
    from_dict = _rating_prm(movie_schema, table).cpds[2]
    assert from_dict.rows.shape == (3, 2, 3)
    assert from_dict.table == table
    assert from_dict.rows[2, 1].tolist() == list(table[2, 1])
    assert from_dict.rows.reshape(-1, 3).tolist() == [list(r) for r in table.values()]
    from_array = _rating_prm(movie_schema, from_dict.rows.copy()).cpds[2]
    assert from_array == from_dict
    changed = from_dict.rows.copy()
    changed[0, 0] = (0.0, 0.0, 1.0)
    assert _rating_prm(movie_schema, changed).cpds[2] != from_dict


def test_cpd_rows_are_read_only(movie_schema):
    cpds = list(_toy_prm(0).cpds) + [_rating_prm(movie_schema, _rating_table()).cpds[2]]
    for cpd in cpds:
        assert not cpd.rows.flags.writeable
        with pytest.raises(ValueError):
            cpd.rows[...] = 0.0


def test_prm_rejects_transposed_cpd(movie_schema):
    # Six rows either way, so only the shape tells them apart.
    rows = np.array(list(_rating_table().values())).reshape(3, 2, 3)
    with pytest.raises(ValueError, match="shape"):
        _rating_prm(movie_schema, rows.transpose(1, 0, 2))


@pytest.mark.parametrize("missing", [[(0, 0)], [(1, 1)], [(2, 0), (2, 1)]])
def test_prm_rejects_cpd_table_missing_a_configuration(movie_schema, missing):
    table = _rating_table()
    for config in missing:
        del table[config]
    with pytest.raises(ValueError):
        _rating_prm(movie_schema, table)


def test_prm_rejects_cpd_with_wrong_state_count(movie_schema):
    table = {config: row[:2] for config, row in _rating_table().items()}
    with pytest.raises(ValueError, match="shape"):
        _rating_prm(movie_schema, table)


def test_prm_rejects_structure_with_other_attribute_counts(movie_schema):
    prm = _rating_prm(movie_schema, _rating_table())
    structure = replace(prm.structure, attr_counts=(1, 1, 2))
    with pytest.raises(ValueError, match="attribute counts"):
        Prm(movie_schema, structure, prm.cpds, 1)


def test_canonical_parent_order_stable(movie_schema):
    slot = movie_schema.classes[2].reference_slots[0]
    d1 = Dependency(
        AttributeNode(2, 0), AttributeNode(0, 0), SlotChain(2, (Slot(slot),))
    )
    d2 = Dependency(AttributeNode(2, 0), AttributeNode(2, 0), SlotChain(2))
    assert canonical_parent_order([d1, d2]) == (d1, d2)
    assert canonical_parent_order([d2, d1]) == (d1, d2)


def test_structure_determinism():
    a = _toy_prm(99)
    b = _toy_prm(99)
    assert a == b
