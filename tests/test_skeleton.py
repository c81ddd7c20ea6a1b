from collections import Counter

import numpy as np
import pytest

from prmbench.dag import DagPolicy
from prmbench.schema import GenerationPolicy, generate_schema
from prmbench.skeleton import (
    NEW_OBJECT,
    CrpConfig,
    ObjectRef,
    RelationalSkeleton,
    _replay_stream,
    crp_choose,
    generate_skeleton,
    validate_skeleton,
)

from helpers import oracle_generate_skeleton, skeleton_from_links

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


def _two_class_schema(seed=0):
    # A references B; rejection until the 2-class DAG has its single edge
    # pointing 0 -> 1 so tests can rely on which class is the root.
    rng = np.random.default_rng(seed)
    while True:
        s = generate_schema(2, FAST, rng)
        if (0, 1) in s.class_dag.edges:
            return s


def test_crp_first_parent_always_new():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert crp_choose([], 1, 1.0, rng) is NEW_OBJECT


def test_crp_p_new_half_at_np_two():
    rng = np.random.default_rng(1)
    existing = [(ObjectRef(0, 0), 1)]
    news = sum(
        crp_choose(existing, 2, 1.0, rng) is NEW_OBJECT for _ in range(10_000)
    )
    assert abs(news / 10_000 - 0.5) <= 0.02


def test_crp_existing_branch_proportional_to_indegree():
    rng = np.random.default_rng(2)
    a, b = ObjectRef(0, 0), ObjectRef(0, 1)
    existing = [(a, 3), (b, 1)]
    picks = Counter()
    while sum(picks.values()) < 10_000:
        choice = crp_choose(existing, 50, 0.01, rng)
        if choice is not NEW_OBJECT:
            picks[choice] += 1
    assert abs(picks[a] / sum(picks.values()) - 0.75) <= 0.02


def test_crp_empty_pool_forces_new():
    rng = np.random.default_rng(3)
    # alpha tiny and n_p high: new-object branch nearly never drawn, the
    # empty pool must force it anyway.
    assert crp_choose([], 1000, 1e-9, rng) is NEW_OBJECT


def test_crp_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        crp_choose([], 0, 1.0, rng)
    with pytest.raises(ValueError):
        crp_choose([], 1, 0.0, rng)


def test_single_class_skeleton_exact_count():
    rng = np.random.default_rng(4)
    schema = generate_schema(1, FAST, rng)
    sk = generate_skeleton(schema, CrpConfig(n_total=10), rng)
    assert sk.object_counts == (10,)
    assert not sk.links
    assert len(sk.iteration_counts) == 10


def test_total_count_window():
    rng = np.random.default_rng(5)
    for n_total in (10, 57, 400):
        for n in (2, 4, 6):
            schema = generate_schema(n, FAST, rng)
            sk = generate_skeleton(schema, CrpConfig(n_total=n_total), rng)
            assert n_total <= sk.total_objects <= n_total + n


def test_generated_skeletons_validate_clean():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        schema = generate_schema(n, FAST, rng)
        sk = generate_skeleton(schema, CrpConfig(n_total=60), rng)
        report = validate_skeleton(sk, schema)
        assert report.is_valid, report.findings


def test_link_targets_match_slot_class():
    rng = np.random.default_rng(7)
    schema = generate_schema(4, FAST, rng)
    sk = generate_skeleton(schema, CrpConfig(n_total=120), rng)
    for (owner, slot), target in sk.links.items():
        assert owner.class_index == slot.owner_class
        assert target.class_index == slot.referenced_class


def test_determinism():
    schema = _two_class_schema()
    a = generate_skeleton(schema, CrpConfig(n_total=200), np.random.default_rng(11))
    b = generate_skeleton(schema, CrpConfig(n_total=200), np.random.default_rng(11))
    assert a == b


def test_near_matching_under_huge_alpha():
    # alpha >> n keeps p_new at ~1, so links form a near-perfect matching.
    schema = _two_class_schema()
    sk = generate_skeleton(
        schema, CrpConfig(alpha=1e6, n_total=100), np.random.default_rng(12)
    )
    indeg = Counter(t for t in sk.links.values())
    assert max(indeg.values()) == 1


def test_preferential_attachment_concentrates_indegree():
    # At alpha=1 the max indegree should beat a uniform-assignment baseline
    # on nearly every seed (45 of 50 required; see acceptance suite for the
    # full-size version).
    schema = _two_class_schema()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sk = generate_skeleton(schema, CrpConfig(alpha=1.0, n_total=1500), rng)
        indeg = Counter(t for t in sk.links.values())
        crp_max = max(indeg.values())
        n_links = len(sk.links)
        n_targets = sk.object_counts[1]
        base = np.random.default_rng(1000 + seed).integers(0, n_targets, size=n_links)
        base_max = np.bincount(base).max()
        wins += crp_max > base_max
    assert wins >= 18


def test_iteration_counts_bounded_by_path_count(movie_schema):
    # Each pass creates at least the root object and at most one object per
    # root-to-class path in the class graph (votes have no outgoing slots
    # here, so each pass creates exactly one vote plus up to two targets).
    rng = np.random.default_rng(13)
    sk = generate_skeleton(movie_schema, CrpConfig(n_total=40), rng)
    assert all(1 <= c <= 3 for c in sk.iteration_counts)


def _walks_from_root(schema, root):
    # Number of distinct reference-path walks from the root to any class,
    # root itself included; each walk can create at most one object per pass.
    from prmbench.dag import topological_order

    order = topological_order(schema.class_dag)
    walks = {c: 0 for c in range(len(schema.classes))}
    walks[root] = 1
    for c in order:
        for slot in schema.classes[c].reference_slots:
            walks[slot.referenced_class] += walks[c]
    return sum(walks.values())


def test_iteration_counts_bounded_on_random_schemas():
    rng = np.random.default_rng(29)
    for _ in range(20):
        schema = generate_schema(4, FAST, rng)
        referenced = {
            s.referenced_class for c in schema.classes for s in c.reference_slots
        }
        roots = [i for i in range(4) if i not in referenced]
        bound = max(_walks_from_root(schema, r) for r in roots)
        sk = generate_skeleton(schema, CrpConfig(n_total=50), rng)
        assert all(1 <= c <= bound for c in sk.iteration_counts)


def test_validate_reports_unassigned_slot(movie_schema, movie_skeleton):
    broken_links = dict(movie_skeleton.links)
    removed = next(iter(broken_links))
    del broken_links[removed]
    broken = skeleton_from_links(movie_skeleton.object_counts, broken_links)
    report = validate_skeleton(broken, movie_schema)
    assert any("totality" in f for f in report.findings)


def test_validate_reports_reversed_orientation(movie_slots):
    # A column is indexed by owner id and holds ids of the referenced class,
    # so a link recorded against the slot's direction cannot be stored at
    # all; building such a skeleton is what fails.
    movie_slot, _ = movie_slots
    links = {(ObjectRef(0, 0), movie_slot): ObjectRef(2, 0)}
    with pytest.raises(ValueError, match="orientation"):
        skeleton_from_links((1, 0, 1), links)


def test_generation_matches_recursive_link_dict_oracle():
    # The explicit-stack generator must make the recursive generator's RNG
    # calls in the same order: same columns, counts, passes and final state.
    rng = np.random.default_rng(2024)
    cut_mid_pass = 0
    for case in range(120):
        n = 1 + case % 8
        alpha = (0.01, 1.0, 1e6)[case % 3]
        schema = generate_schema(n, FAST, rng)
        # Passes are the same under any budget until the budget is reached,
        # so a budget inside a multi-object pass of a probe run cuts that
        # pass short.
        probe = generate_skeleton(
            schema, CrpConfig(alpha=alpha, n_total=400), np.random.default_rng(case)
        )
        starts = np.cumsum((0,) + probe.iteration_counts)
        cuttable = [i for i, size in enumerate(probe.iteration_counts) if size > 1]
        n_total = int(rng.integers(1, 400))
        if cuttable:
            k = cuttable[int(rng.integers(len(cuttable)))]
            n_total = int(starts[k] + rng.integers(1, probe.iteration_counts[k]))
            cut_mid_pass += 1
        cfg = CrpConfig(alpha=alpha, n_total=n_total)
        ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
        sk = generate_skeleton(schema, cfg, ours)
        oracle = oracle_generate_skeleton(schema, cfg, theirs)
        assert sk.object_counts == oracle.object_counts, case
        assert sk.iteration_counts == oracle.iteration_counts, case
        for slot in oracle.columns:
            assert np.array_equal(sk.fk_column(slot), oracle.fk_column(slot)), case
        assert sk == oracle, case
        assert ours.bit_generator.state == theirs.bit_generator.state, case
    assert cut_mid_pass >= 80


def _plain(state):
    # Philox keeps arrays in its state, which dict equality cannot compare.
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


REPLAYED = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox)


@pytest.mark.parametrize("bit_generator", REPLAYED, ids=lambda b: b.__name__)
@pytest.mark.parametrize("buffered", [0, 1])
def test_replay_matches_scalar_generator_calls(bit_generator, buffered):
    # n up to 2**32 - 1, including 2**31 + 1 and 3 * 2**30, where Lemire's
    # draw rejects about half of the time; runs long enough to cross blocks.
    bounds = (1, 2, 3, 7, 10**5, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1)
    meta = np.random.default_rng(buffered)
    for trial in range(40):
        seed = int(meta.integers(2**32))
        scalar = np.random.Generator(bit_generator(seed))
        replayed = np.random.Generator(bit_generator(seed))
        if buffered:  # leave the high half of a word in the 32-bit buffer
            scalar.integers(5)
            replayed.integers(5)
        assert scalar.bit_generator.state["has_uint32"] == buffered
        random, integers, rewind = _replay_stream(replayed.bit_generator)
        for _ in range(int(meta.integers(0, 2500))):
            if meta.random() < 0.5:
                assert random() == scalar.random()
            else:
                n = bounds[int(meta.integers(len(bounds)))]
                assert integers(n) == scalar.integers(n), n
        rewind()
        assert _plain(replayed.bit_generator.state) == _plain(
            scalar.bit_generator.state
        ), trial


@pytest.mark.parametrize("bit_generator", REPLAYED[1:], ids=lambda b: b.__name__)
def test_generation_matches_oracle_on_other_bit_generators(bit_generator):
    # PCG64 is covered above; budgets up to 3000 objects cross word blocks.
    rng = np.random.default_rng(7)
    for case in range(30):
        schema = generate_schema(1 + case % 6, FAST, rng)
        alpha = (0.01, 1.0, 1e6)[case % 3]
        cfg = CrpConfig(alpha=alpha, n_total=int(rng.integers(1, 3000)))
        ours = np.random.Generator(bit_generator(case))
        theirs = np.random.Generator(bit_generator(case))
        assert generate_skeleton(schema, cfg, ours) == oracle_generate_skeleton(
            schema, cfg, theirs
        ), case
        assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


def test_generation_rejects_mt19937_before_any_draw():
    schema = _two_class_schema()
    rng = np.random.Generator(np.random.MT19937(3))
    before = _plain(rng.bit_generator.state)
    with pytest.raises(TypeError, match="MT19937"):
        generate_skeleton(schema, CrpConfig(n_total=50), rng)
    assert _plain(rng.bit_generator.state) == before


def test_links_view_reads_the_columns(movie_skeleton, movie_slots):
    movie_slot, user_slot = movie_slots
    links = movie_skeleton.links
    assert len(links) == 18
    assert links[(ObjectRef(2, 1), movie_slot)] == ObjectRef(0, 1)
    assert links[(ObjectRef(2, 1), user_slot)] == ObjectRef(1, 0)
    for key in [(ObjectRef(2, 9), movie_slot), (ObjectRef(0, 0), movie_slot)]:
        assert key not in links
    assert dict(links) == {key: links[key] for key in links}
    assert movie_skeleton.referrers(movie_slot, 2) == (2, 6)
    assert movie_skeleton.referrers(movie_slot, 7) == ()


def test_validate_reports_object_cycles_like_the_oracle():
    # Two classes referencing each other (an invalid schema) let random
    # columns close directed cycles through the objects.
    from prmbench.dag import Dag
    from prmbench.schema import AttributeDef, ClassDef, ReferenceSlot, RelationalSchema

    from helpers import oracle_is_acyclic

    ab, ba = ReferenceSlot("ab", 0, 1), ReferenceSlot("ba", 1, 0)
    attrs = (AttributeDef("att0", ("v0", "v1")),)
    schema = RelationalSchema(
        (ClassDef("a", "aid", attrs, (ab,)), ClassDef("b", "bid", attrs, (ba,))),
        Dag(2, frozenset({(0, 1), (1, 0)})),
    )
    rng = np.random.default_rng(31)
    cyclic = 0
    for _ in range(300):
        n_a, n_b = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        # Missing links (-1) leave some graphs acyclic.
        to_b = np.where(rng.random(n_a) < 0.4, -1, rng.integers(0, n_b, n_a))
        to_a = np.where(rng.random(n_b) < 0.4, -1, rng.integers(0, n_a, n_b))
        sk = RelationalSkeleton((n_a, n_b), {ab: to_b, ba: to_a})
        edges = [(i, n_a + t) for i, t in enumerate(to_b.tolist()) if t >= 0]
        edges += [(n_a + i, t) for i, t in enumerate(to_a.tolist()) if t >= 0]
        findings = validate_skeleton(sk, schema).findings
        expected = not oracle_is_acyclic(n_a + n_b, edges)
        assert any("acyclicity" in f for f in findings) == expected
        missing = int((to_b == -1).sum() + (to_a == -1).sum())
        assert sum("totality" in f for f in findings) == missing
        cyclic += expected
    assert 50 <= cyclic <= 250


def test_config_validation():
    with pytest.raises(ValueError):
        CrpConfig(alpha=0.0)
    with pytest.raises(ValueError):
        CrpConfig(n_total=0)
