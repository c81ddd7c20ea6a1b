from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from prmbench.dag import DagPolicy
from prmbench.deps import (
    AttributeNode,
    Slot,
    SlotChain,
    assign_slot_chains,
    generate_cpds,
    generate_dependency_structure,
    simplify_slot_chain,
)
from prmbench.gbn import (
    AggregateParent,
    aggregate_mode,
    chain_matrices,
    forward_sample,
    ground,
    mode_rows,
    resolve_slot_chain,
    skeleton_from_dataset,
)
from prmbench.schema import GenerationPolicy, generate_schema
from prmbench.skeleton import CrpConfig, ObjectRef, generate_skeleton, validate_skeleton

from conftest import MOVIE, USER, VOTE, build_movie_prm, links_as_plain_table
from helpers import (
    oracle_forward_sample,
    oracle_is_acyclic,
    oracle_resolve_chain,
    skeleton_from_links,
)

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


def _random_pipeline(seed, n=3, n_total=40, k_max=3):
    rng = np.random.default_rng(seed)
    schema = generate_schema(n, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, k_max, rng)
    prm = generate_cpds(schema, annotated, 1.0, rng)
    sk = generate_skeleton(schema, CrpConfig(n_total=n_total), rng)
    return prm, sk, rng


# --- slot chain resolution -----------------------------------------------------


def test_resolve_votes_of_user_reaches_both_movies(movie_schema, movie_skeleton, movie_slots):
    movie_slot, user_slot = movie_slots
    chain = SlotChain(USER, (Slot(user_slot, True), Slot(movie_slot)))
    got = resolve_slot_chain(movie_skeleton, ObjectRef(USER, 0), chain)
    assert got == frozenset({ObjectRef(MOVIE, 0), ObjectRef(MOVIE, 1)})


def test_resolve_empty_chain_is_identity(movie_skeleton):
    start = ObjectRef(VOTE, 4)
    assert resolve_slot_chain(movie_skeleton, start, SlotChain(VOTE)) == frozenset({start})


def test_resolve_checks_source_class(movie_skeleton):
    with pytest.raises(ValueError):
        resolve_slot_chain(movie_skeleton, ObjectRef(MOVIE, 0), SlotChain(VOTE))


def test_resolve_matches_bruteforce_oracle(movie_schema, movie_slots):
    movie_slot, user_slot = movie_slots
    chains = [
        SlotChain(VOTE, (Slot(movie_slot),)),
        SlotChain(VOTE, (Slot(movie_slot), Slot(movie_slot, True))),
        SlotChain(MOVIE, (Slot(movie_slot, True), Slot(user_slot))),
        SlotChain(USER, (Slot(user_slot, True), Slot(movie_slot), Slot(movie_slot, True))),
    ]
    for seed in range(10):
        sk = generate_skeleton(
            movie_schema, CrpConfig(n_total=35), np.random.default_rng(seed)
        )
        table = links_as_plain_table(sk)
        for chain in chains:
            for oid in range(sk.object_counts[chain.source_class]):
                start = ObjectRef(chain.source_class, oid)
                got = resolve_slot_chain(sk, start, chain)
                want = oracle_resolve_chain(
                    table, (chain.source_class, oid), chain
                )
                assert {(o.class_index, o.object_id) for o in got} == want


def _random_walk_chain(schema, rng, max_len=4):
    steps = [[] for _ in schema.classes]
    for cls in schema.classes:
        for s in cls.reference_slots:
            steps[s.owner_class].append(Slot(s, False))
            steps[s.referenced_class].append(Slot(s, True))
    at = int(rng.integers(len(schema.classes)))
    chain = SlotChain(at)
    for _ in range(int(rng.integers(0, max_len + 1))):
        if steps[at]:
            slot = steps[at][int(rng.integers(len(steps[at])))]
            chain = SlotChain(chain.source_class, chain.slots + (slot,))
            at = slot.end_class
    return chain


def _assert_rows_match_oracles(sk, chains):
    table = links_as_plain_table(sk)
    matrices = chain_matrices(chains, sk)
    for chain in chains:
        matrix = matrices[chain]
        assert matrix.shape[0] == sk.object_counts[chain.source_class]
        for oid in range(matrix.shape[0]):
            row = matrix.indices[matrix.indptr[oid] : matrix.indptr[oid + 1]]
            assert list(row) == sorted(row)
            got = {(chain.end_class, int(t)) for t in row}
            start = ObjectRef(chain.source_class, oid)
            walked = resolve_slot_chain(sk, start, chain)
            assert got == {(o.class_index, o.object_id) for o in walked}
            assert got == oracle_resolve_chain(table, (chain.source_class, oid), chain)


def test_chain_matrix_rows_match_both_oracles_on_random_pipelines():
    rng = np.random.default_rng(2024)
    seen_inverse = seen_repeat = seen_empty = 0
    for seed in range(40):
        n = 2 + seed % 4
        prm, sk, _ = _random_pipeline(seed, n=n, n_total=30, k_max=1 + seed % 4)
        chains = [d.slot_chain for d in prm.structure.dependencies]
        chains += [_random_walk_chain(prm.schema, rng) for _ in range(4)]
        _assert_rows_match_oracles(sk, chains)
        for chain in chains:
            seen_inverse += chain.is_multi_valued
            seen_repeat += len({s.base for s in chain.slots}) < chain.length
            seen_empty += chain.length == 0
    assert min(seen_inverse, seen_repeat, seen_empty) >= 10


def test_chain_matrix_rows_match_both_oracles_on_movie_fixture(
    movie_skeleton, movie_slots
):
    movie_slot, user_slot = movie_slots
    _assert_rows_match_oracles(
        movie_skeleton,
        [
            SlotChain(VOTE),
            SlotChain(MOVIE),
            SlotChain(VOTE, (Slot(movie_slot),)),
            SlotChain(MOVIE, (Slot(movie_slot, True),)),
            SlotChain(USER, (Slot(user_slot, True), Slot(movie_slot))),
            SlotChain(MOVIE, (Slot(movie_slot, True), Slot(movie_slot))),
            SlotChain(
                VOTE,
                (Slot(movie_slot), Slot(movie_slot, True), Slot(user_slot),
                 Slot(user_slot, True), Slot(movie_slot)),
            ),
        ],
    )


def test_simplification_changes_semantics_on_shared_sink_schemas():
    # Boundary documentation: with two classes referencing a shared sink, a
    # trailing inverse/forward pair through the *other* referrer is not
    # equivalent to its simplified form whenever some sink object lacks
    # referrers on that slot. The equivalence the chain deduplication relies
    # on needs every class to carry at most one incoming slot.
    from prmbench.dag import Dag
    from prmbench.schema import AttributeDef, ClassDef, ReferenceSlot, RelationalSchema

    sigma = ReferenceSlot("sigma", owner_class=0, referenced_class=2)
    rho = ReferenceSlot("rho", owner_class=1, referenced_class=2)
    schema = RelationalSchema(
        (
            ClassDef("a", "aid", (AttributeDef("att0", ("v0", "v1")),), (sigma,)),
            ClassDef("b", "bid", (AttributeDef("att0", ("v0", "v1")),), (rho,)),
            ClassDef("c", "cid", (AttributeDef("att0", ("v0", "v1")),)),
        ),
        Dag(3, frozenset({(0, 2), (1, 2)})),
    )
    links = {
        (ObjectRef(0, 0), sigma): ObjectRef(2, 0),
        (ObjectRef(1, 0), rho): ObjectRef(2, 1),
    }
    sk = skeleton_from_links((1, 1, 2), links)
    assert validate_skeleton(sk, schema).is_valid

    chain = SlotChain(0, (Slot(sigma), Slot(rho, True), Slot(rho)))
    simplified = simplify_slot_chain(chain)
    assert simplified.text == "sigma"
    start = ObjectRef(0, 0)
    # c0 has a sigma referrer but no rho referrer: the round trip dies out.
    assert resolve_slot_chain(sk, start, chain) == frozenset()
    assert resolve_slot_chain(sk, start, simplified) == frozenset({ObjectRef(2, 0)})


# --- aggregation -----------------------------------------------------------------


def test_mode_majority():
    assert aggregate_mode([1, 0, 1], 2) == 1


def test_mode_tie_breaks_low():
    assert aggregate_mode([0, 1], 2) == 0


def test_mode_empty_default():
    assert aggregate_mode([], 2) == 0


def test_mode_rejects_tiny_domain():
    with pytest.raises(ValueError):
        aggregate_mode([0], 1)
    with pytest.raises(ValueError):
        mode_rows(sparse.csr_array((1, 1), dtype=bool), np.zeros(1, np.int64), 1)


def test_mode_rows_matches_aggregate_mode():
    rng = np.random.default_rng(11)
    ties = empties = 0
    for _ in range(300):
        rows, cols = int(rng.integers(0, 8)), int(rng.integers(0, 9))
        domain = int(rng.integers(2, 5))
        members = sparse.csr_array(rng.random((rows, cols)) < rng.random())
        column = rng.integers(0, domain, size=cols)
        got = mode_rows(members, column, domain)
        for i in range(rows):
            values = column[members.indices[members.indptr[i] : members.indptr[i + 1]]]
            assert got[i] == aggregate_mode(values.tolist(), domain)
            tally = np.bincount(values, minlength=domain)
            ties += len(values) > 0 and (tally == tally.max()).sum() > 1
            empties += len(values) == 0
    assert ties >= 20 and empties >= 20


# --- grounding -------------------------------------------------------------------


def test_ground_node_count_is_objects_times_attributes():
    prm, sk, _ = _random_pipeline(0, n=2, n_total=5)
    gbn = ground(prm, sk)
    expected = sum(
        sk.object_counts[ci] * len(cls.attributes)
        for ci, cls in enumerate(prm.schema.classes)
    )
    assert len(gbn.nodes) == expected


def test_ground_two_classes_one_attribute_each_five_objects():
    # 3 + 2 objects with one attribute per class ground to exactly 5 nodes.
    from prmbench.dag import Dag
    from prmbench.deps import DependencyStructure
    from prmbench.schema import AttributeDef, ClassDef, ReferenceSlot, RelationalSchema

    slot = ReferenceSlot("bref", 0, 1)
    schema = RelationalSchema(
        (
            ClassDef("a", "aid", (AttributeDef("att0", ("v0", "v1")),), (slot,)),
            ClassDef("b", "bid", (AttributeDef("att0", ("v0", "v1")),)),
        ),
        Dag(2, frozenset({(0, 1)})),
    )
    structure = DependencyStructure((), (1, 1), k_max=0)
    prm = generate_cpds(schema, structure, 1.0, np.random.default_rng(0))
    links = {
        (ObjectRef(0, 0), slot): ObjectRef(1, 0),
        (ObjectRef(0, 1), slot): ObjectRef(1, 1),
        (ObjectRef(0, 2), slot): ObjectRef(1, 0),
    }
    sk = skeleton_from_links((3, 2), links)
    assert len(ground(prm, sk).nodes) == 5


def test_ground_rating_parent_is_genre_of_linked_movie(movie_schema, movie_skeleton):
    prm = build_movie_prm(
        movie_schema,
        rating_rows={i: (0.2, 0.3, 0.5) for i in range(3)},
    )
    gbn = ground(prm, movie_skeleton)
    movie_slot = movie_schema.classes[VOTE].reference_slots[0]
    for vid in range(9):
        vote_node = gbn.nodes[gbn.node_id(ObjectRef(VOTE, vid), 0)]
        movie = movie_skeleton.target_of(ObjectRef(VOTE, vid), movie_slot)
        assert vote_node.parents == (gbn.node_id(movie, 0),)


def test_ground_graph_acyclic_against_oracle():
    for seed in range(40):
        prm, sk, _ = _random_pipeline(seed, n=3, n_total=25)
        gbn = ground(prm, sk)
        edges = set()
        for nid, node in enumerate(gbn.nodes):
            for entry in node.parents:
                if isinstance(entry, AggregateParent):
                    edges.update((p, nid) for p in entry.contributing)
                else:
                    edges.add((entry, nid))
        assert oracle_is_acyclic(len(gbn.nodes), edges)


def test_node_view_matches_per_object_resolution():
    for seed in range(15):
        prm, sk, _ = _random_pipeline(seed, n=3, n_total=25)
        gbn = ground(prm, sk)
        for node in gbn.nodes:
            ci = node.object.class_index
            parents = prm.cpd_for(AttributeNode(ci, node.attribute_index)).parent_order
            assert len(node.parents) == len(parents)
            for dep, entry in zip(parents, node.parents):
                targets = resolve_slot_chain(sk, node.object, dep.slot_chain)
                ids = tuple(
                    sorted(gbn.node_id(t, dep.parent.attribute_index) for t in targets)
                )
                if dep.slot_chain.is_multi_valued:
                    pa, pi = dep.parent.class_index, dep.parent.attribute_index
                    domain = len(prm.schema.attribute(pa, pi).domain)
                    assert entry == AggregateParent(dep.aggregator, ids, domain)
                else:
                    assert (entry,) == ids


def test_multi_valued_parents_become_aggregates():
    for seed in range(60):
        prm, sk, _ = _random_pipeline(seed, n=3, n_total=25)
        gbn = ground(prm, sk)
        multi = [
            d for d in prm.structure.dependencies if d.slot_chain.is_multi_valued
        ]
        if not multi:
            continue
        seen_aggregate = any(
            isinstance(entry, AggregateParent)
            for node in gbn.nodes
            for entry in node.parents
        )
        assert seen_aggregate
        return
    pytest.fail("no multi-valued dependency generated in 60 seeds")


# --- forward sampling --------------------------------------------------------------


def test_degenerate_cpds_sample_to_fixpoint(movie_schema, movie_skeleton):
    prm = build_movie_prm(
        movie_schema,
        rating_rows={0: (1.0, 0.0, 0.0), 1: (0.0, 1.0, 0.0), 2: (0.0, 0.0, 1.0)},
        genre_row=(0.0, 1.0, 0.0),
        age_row=(1.0, 0.0),
    )
    gbn = ground(prm, movie_skeleton)
    ds = forward_sample(gbn, np.random.default_rng(0))
    assert set(ds.tables[MOVIE].attr_values[0]) == {1}
    assert set(ds.tables[USER].attr_values[0]) == {0}
    assert set(ds.tables[VOTE].attr_values[0]) == {1}  # rating copies genre


def test_parentless_marginal_converges(movie_schema, movie_skeleton):
    prm = build_movie_prm(
        movie_schema,
        rating_rows={i: (0.3, 0.4, 0.3) for i in range(3)},
        genre_row=(0.3, 0.7, 0.0),
    )
    gbn = ground(prm, movie_skeleton)
    rng = np.random.default_rng(99)
    hits = Counter()
    draws = 0
    for _ in range(3000):
        ds = forward_sample(gbn, rng)
        hits.update(ds.tables[MOVIE].attr_values[0])
        draws += 5
    assert abs(hits[1] / draws - 0.7) <= 0.02


def test_dataset_referential_integrity():
    for seed in range(20):
        prm, sk, rng = _random_pipeline(seed, n=4, n_total=50)
        ds = forward_sample(ground(prm, sk), rng)
        for table in ds.tables:
            cls = ds.schema.classes[table.class_index]
            for slot in cls.reference_slots:
                targets = table.fk_values[slot.name]
                assert len(targets) == table.row_count
                limit = ds.tables[slot.referenced_class].row_count
                assert all(0 <= t < limit for t in targets)
            for ai, attr in enumerate(cls.attributes):
                assert all(0 <= v < len(attr.domain) for v in table.attr_values[ai])


def test_forward_sample_matches_scalar_oracle():
    # The oracle walks one object at a time but consumes the stream in the
    # same order, so every sampled state must agree exactly.
    for seed in range(20):
        prm, sk, _ = _random_pipeline(seed, n=2 + seed % 3, n_total=40)
        ds = forward_sample(ground(prm, sk), np.random.default_rng(seed))
        want = oracle_forward_sample(prm, sk, np.random.default_rng(seed))
        for (ci, ai), states in want.items():
            assert list(ds.tables[ci].attr_values[ai]) == states


def test_sampling_determinism_and_seed_sensitivity():
    prm, sk, _ = _random_pipeline(5, n=3, n_total=60)
    gbn = ground(prm, sk)
    a = forward_sample(gbn, np.random.default_rng(1))
    b = forward_sample(gbn, np.random.default_rng(1))
    c = forward_sample(gbn, np.random.default_rng(2))
    assert a == b
    assert a != c


def test_skeleton_roundtrip_through_dataset():
    prm, sk, rng = _random_pipeline(8, n=3, n_total=40)
    ds = forward_sample(ground(prm, sk), rng)
    rebuilt = skeleton_from_dataset(ds)
    assert rebuilt.object_counts == sk.object_counts
    assert rebuilt.links == sk.links
