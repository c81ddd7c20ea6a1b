"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical checks use fixed seeds and the tolerances stated with
each criterion.
"""

import math
import sqlite3
import time
from collections import Counter
from dataclasses import replace

import numpy as np
from scipy.stats import chisquare

from prmbench.dag import Dag, DagPolicy, sample_connected_dags
from prmbench.deps import (
    AttributeNode,
    Cpd,
    Dependency,
    DependencyStructure,
    Prm,
    Slot,
    SlotChain,
    assign_slot_chains,
    draw_slot_chain,
    generate_cpds,
    generate_dependency_structure,
    simplify_slot_chain,
    slot_chain_weights,
)
from prmbench.export import parse_prm, serialize_prm
from prmbench.gbn import forward_sample, ground, resolve_slot_chain
from prmbench.metrics import (
    ContingencyCounts,
    DirichletPrior,
    count_contingencies,
    marginal_report,
    rbd_score,
)
from prmbench.schema import (
    AttributeDef,
    ClassDef,
    GenerationPolicy,
    ReferenceSlot,
    RelationalSchema,
    generate_schema,
    validate_schema,
)
from prmbench.skeleton import (
    NEW_OBJECT,
    CrpConfig,
    ObjectRef,
    crp_choose,
    generate_skeleton,
    validate_skeleton,
)

from conftest import MOVIE, VOTE
from helpers import enumerate_dags, oracle_is_acyclic

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


def _report(name, detail):
    print(f"PASS: {name} ({detail})")


def test_criterion_1_structural_soundness_sweep():
    # 1000 seeds, N in 2..6, k_max in 1..4: schema connected and acyclic,
    # dependency DAG acyclic, skeleton valid, ground network acyclic.
    # Zero failures, under 60 s.
    t0 = time.monotonic()
    policy = GenerationPolicy()
    for seed in range(1000):
        n = 2 + seed % 5
        k_max = 1 + seed % 4
        rng = np.random.default_rng(seed)
        schema = generate_schema(n, policy, rng)
        report = validate_schema(schema)
        assert report.is_valid, (seed, report.findings)
        structure = generate_dependency_structure(schema, policy, rng)
        attr_dag = structure.attribute_dag()
        assert oracle_is_acyclic(attr_dag.node_count, attr_dag.edges), seed
        annotated = assign_slot_chains(schema, structure, k_max, rng)
        prm = generate_cpds(schema, annotated, 1.0, rng)
        sk = generate_skeleton(schema, CrpConfig(n_total=60), rng)
        sk_report = validate_skeleton(sk, schema)
        assert sk_report.is_valid, (seed, sk_report.findings)
        gbn = ground(prm, sk)  # raises CyclicGraphError on a cyclic attribute DAG
        edges = set()
        for nid, node in enumerate(gbn.nodes):
            for entry in node.parents:
                if isinstance(entry, int):
                    edges.add((entry, nid))
                else:
                    edges.update((p, nid) for p in entry.contributing)
        assert oracle_is_acyclic(len(gbn.nodes), edges), seed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _report("criterion 1 structural soundness", f"1000 seeds in {elapsed:.1f}s")


def test_criterion_2_uniform_connected_dag_sampling():
    # 1e5 draws at n=3 hit all 18 connected DAGs (enumerated by brute
    # force) and pass chi-square uniformity at significance 0.01, in <30 s.
    t0 = time.monotonic()
    universe = enumerate_dags(3, connected_only=True)
    assert len(universe) == 18
    draws = sample_connected_dags(3, 100_000, rng=np.random.default_rng(42))
    counts = Counter(d.edges for d in draws)
    assert set(counts) == set(universe)
    stat, p = chisquare([counts[g] for g in universe])
    assert p > 0.01, f"chi-square p={p:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"sampling took {elapsed:.1f}s"
    _report(
        "criterion 2 uniform DAG sampling",
        f"chi2 p={p:.3f} over 18 DAGs in {elapsed:.1f}s",
    )


def _single_incoming_schema(rng):
    # The trailing-pair equivalence is a theorem only when every class has
    # at most one incoming reference (each referenced object then carries a
    # referrer on that slot from birth); with several referrer classes a
    # sink object may lack referrers on one slot and the equivalence fails
    # (see test_gbn.test_simplification_changes_semantics_on_shared_sink_schemas).
    while True:
        n = int(rng.integers(2, 5))
        schema = generate_schema(n, FAST, rng)
        indeg = [0] * n
        for _, v in schema.class_dag.edges:
            indeg[v] += 1
        if max(indeg) <= 1:
            return schema


def _random_walk_chain(schema, rng, max_len=4):
    steps = [[] for _ in schema.classes]
    for cls in schema.classes:
        for s in cls.reference_slots:
            steps[s.owner_class].append(Slot(s, False))
            steps[s.referenced_class].append(Slot(s, True))
    src = int(rng.integers(len(schema.classes)))
    length = int(rng.integers(1, max_len + 1))
    slots, at = [], src
    for _ in range(length):
        if not steps[at]:
            break
        slot = steps[at][int(rng.integers(len(steps[at])))]
        slots.append(slot)
        at = slot.end_class
    return SlotChain(src, tuple(slots))


def test_criterion_3_slot_chain_semantics(movie_schema, movie_skeleton):
    # 100 random (schema, skeleton, chain) triples: the simplified chain
    # resolves to the identical object set from every start object, and
    # simplification is idempotent. The two classic recommender-schema
    # equivalences are reproduced exactly on the fixture.
    movie_slot, user_slot = movie_schema.classes[VOTE].reference_slots

    # Anchor: Vote.User.User^-1.User is Vote.User.
    roundtrip = SlotChain(VOTE, (Slot(user_slot), Slot(user_slot, True), Slot(user_slot)))
    direct = SlotChain(VOTE, (Slot(user_slot),))
    assert simplify_slot_chain(roundtrip) == direct
    for vid in range(movie_skeleton.object_counts[VOTE]):
        start = ObjectRef(VOTE, vid)
        assert resolve_slot_chain(movie_skeleton, start, roundtrip) == resolve_slot_chain(
            movie_skeleton, start, direct
        )

    # Anchor: Vote.Movie^-1.Movie is the empty chain.
    back_and_forth = SlotChain(MOVIE, (Slot(movie_slot, True), Slot(movie_slot)))
    empty = SlotChain(MOVIE)
    assert simplify_slot_chain(back_and_forth) == empty
    for mid in range(movie_skeleton.object_counts[MOVIE]):
        start = ObjectRef(MOVIE, mid)
        assert resolve_slot_chain(movie_skeleton, start, back_and_forth) == frozenset(
            {start}
        )

    rng = np.random.default_rng(303)
    simplified_count = 0
    for _ in range(100):
        schema = _single_incoming_schema(rng)
        sk = generate_skeleton(schema, CrpConfig(n_total=40), rng)
        chain = _random_walk_chain(schema, rng)
        simp = simplify_slot_chain(chain)
        assert simplify_slot_chain(simp) == simp  # idempotent
        assert simp.length <= chain.length
        if simp != chain:
            simplified_count += 1
        for oid in range(sk.object_counts[chain.source_class]):
            start = ObjectRef(chain.source_class, oid)
            assert resolve_slot_chain(sk, start, chain) == resolve_slot_chain(
                sk, start, simp
            )
    assert simplified_count >= 10  # the sample genuinely exercises the rule
    _report(
        "criterion 3 slot chain semantics",
        f"100 triples, {simplified_count} non-trivially simplified, anchors exact",
    )


def test_criterion_4_weighted_chain_drawing(movie_schema):
    # Candidate lengths {1, 1, 2}: expected pick frequencies
    # [0.4498, 0.4498, 0.1004] from exp(-l / occ(l)), within 0.02 at 1e4.
    movie_slot, user_slot = movie_schema.classes[VOTE].reference_slots
    chains = [
        SlotChain(VOTE, (Slot(movie_slot),)),
        SlotChain(VOTE, (Slot(user_slot),)),
        SlotChain(VOTE, (Slot(movie_slot), Slot(movie_slot, True))),
    ]
    weights = slot_chain_weights(chains)
    assert np.allclose(weights, [0.4498, 0.4498, 0.1004], atol=1e-4)
    rng = np.random.default_rng(404)
    picks = Counter(draw_slot_chain(chains, rng).text for _ in range(10_000))
    for chain, expected in zip(chains, weights):
        freq = picks[chain.text] / 10_000
        assert abs(freq - expected) <= 0.02, (chain.text, freq, expected)
    _report(
        "criterion 4 weighted chain drawing",
        "frequencies within 0.02 of [0.4498, 0.4498, 0.1004]",
    )


def test_criterion_5_crp_behavior():
    # p_new matches alpha / (n_p - 1 + alpha) within 0.02 for n_p in
    # {1,2,5,10} x alpha in {0.5,1,5} at 1e4 trials each; preferential
    # attachment beats a uniform baseline on >= 45 of 50 seeds.
    rng = np.random.default_rng(505)
    existing = [(ObjectRef(0, 0), 2), (ObjectRef(0, 1), 1)]
    for n_p in (1, 2, 5, 10):
        for alpha in (0.5, 1.0, 5.0):
            expected = alpha / (n_p - 1 + alpha)
            news = sum(
                crp_choose(existing, n_p, alpha, rng) is NEW_OBJECT
                for _ in range(10_000)
            )
            assert abs(news / 10_000 - expected) <= 0.02, (n_p, alpha)

    slot = ReferenceSlot("bfk", 0, 1)
    schema = RelationalSchema(
        (
            ClassDef("a", "aid", (AttributeDef("att0", ("v0", "v1")),), (slot,)),
            ClassDef("b", "bid", (AttributeDef("att0", ("v0", "v1")),)),
        ),
        Dag(2, frozenset({(0, 1)})),
    )
    wins = 0
    for seed in range(50):
        sk = generate_skeleton(
            schema, CrpConfig(alpha=1.0, n_total=5000), np.random.default_rng(seed)
        )
        indeg = Counter(t for t in sk.links.values())
        crp_max = max(indeg.values())
        baseline = np.random.default_rng(10_000 + seed).integers(
            0, sk.object_counts[1], size=len(sk.links)
        )
        wins += crp_max > int(np.bincount(baseline).max())
    assert wins >= 45, f"preferential attachment beat uniform on {wins}/50 seeds"
    _report("criterion 5 CRP behavior", f"p_new grid within 0.02; {wins}/50 seeds")


def test_criterion_6_sampling_fidelity():
    # Parentless marginals within L1 0.02 of their CPD rows at 1e5 rows;
    # conditionals within L1 0.05 on a 2-class fixture at >= 1e4
    # instantiations.
    schema = RelationalSchema(
        (
            ClassDef(
                "clazz0",
                "clazz0id",
                (
                    AttributeDef("att0", ("v0", "v1", "v2")),
                    AttributeDef("att1", ("v0", "v1")),
                ),
            ),
        ),
        Dag(1, frozenset()),
    )
    structure = DependencyStructure((), (2,), k_max=0)
    cpds = (
        Cpd(AttributeNode(0, 0), (), {(): (0.2, 0.5, 0.3)}),
        Cpd(AttributeNode(0, 1), (), {(): (0.3, 0.7)}),
    )
    prm = Prm(schema, structure, cpds, 0)
    rng = np.random.default_rng(606)
    sk = generate_skeleton(schema, CrpConfig(n_total=100_000), rng)
    dataset = forward_sample(ground(prm, sk), rng)
    report = marginal_report(dataset, prm)
    l1_values = {k: v for k, v in report.items() if k.startswith("marginal_l1")}
    assert len(l1_values) == 2
    assert max(l1_values.values()) < 0.02, l1_values
    state1 = dataset.tables[0].attr_values[1].count(1) / 100_000
    assert abs(state1 - 0.7) <= 0.01

    slot = ReferenceSlot("bref", 0, 1)
    schema2 = RelationalSchema(
        (
            ClassDef("a", "aid", (AttributeDef("att0", ("v0", "v1")),), (slot,)),
            ClassDef("b", "bid", (AttributeDef("att0", ("v0", "v1", "v2")),)),
        ),
        Dag(2, frozenset({(0, 1)})),
    )
    dep = Dependency(
        AttributeNode(0, 0), AttributeNode(1, 0), SlotChain(0, (Slot(slot),))
    )
    structure2 = DependencyStructure((dep,), (1, 1), k_max=1)
    rows = {(0,): (0.8, 0.2), (1,): (0.3, 0.7), (2,): (0.5, 0.5)}
    cpds2 = (
        Cpd(AttributeNode(0, 0), (dep,), rows),
        Cpd(AttributeNode(1, 0), (), {(): (0.3, 0.3, 0.4)}),
    )
    prm2 = Prm(schema2, structure2, cpds2, 1)
    rng = np.random.default_rng(707)
    # A huge attachment parameter makes the links a near-perfect matching,
    # so each parent configuration collects thousands of instantiations.
    sk2 = generate_skeleton(schema2, CrpConfig(alpha=1e6, n_total=20_000), rng)
    dataset2 = forward_sample(ground(prm2, sk2), rng)
    a_table = dataset2.tables[0]
    b_states = dataset2.tables[1].attr_values[0]
    assert a_table.row_count >= 10_000
    grouped: dict[int, Counter] = {}
    for oid in range(a_table.row_count):
        parent_state = b_states[a_table.fk_values["bref"][oid]]
        grouped.setdefault(parent_state, Counter())[
            a_table.attr_values[0][oid]
        ] += 1
    worst = 0.0
    for config, tally in grouped.items():
        n = sum(tally.values())
        l1 = sum(abs(tally.get(v, 0) / n - rows[(config,)][v]) for v in range(2))
        worst = max(worst, l1)
    assert worst < 0.05, worst
    _report(
        "criterion 6 sampling fidelity",
        f"marginal L1 max {max(l1_values.values()):.4f}, conditional L1 max {worst:.4f}",
    )


def test_criterion_7_score_sanity():
    # Hand-checked value first: one parentless binary attribute observed
    # once in state 0 scores ln 0.5 exactly (to 1e-9).
    tiny_structure = DependencyStructure((), (1,), k_max=0)
    tiny_counts = ContingencyCounts({AttributeNode(0, 0): {(): [1, 0]}})
    score = rbd_score(tiny_structure, tiny_counts, DirichletPrior(1.0))
    assert abs(score - math.log(0.5)) < 1e-9

    # Ranking: on 50 generated (model, dataset) pairs (2 classes, <= 3
    # attributes per class, >= 5e3 instantiations of the family under
    # test), the full structure scores at least as high as the structure
    # with one dependency deleted in >= 90% of runs.
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        while True:
            schema = generate_schema(2, FAST, rng)
            if all(len(c.attributes) <= 3 for c in schema.classes):
                break
        referenced = {
            s.referenced_class for c in schema.classes for s in c.reference_slots
        }
        root = next(i for i in range(2) if i not in referenced)
        while True:
            structure = generate_dependency_structure(schema, FAST, rng)
            annotated = assign_slot_chains(schema, structure, 1, rng)
            if any(d.child.class_index == root for d in annotated.dependencies):
                break
        prm = generate_cpds(schema, annotated, 1.0, rng)
        sk = generate_skeleton(schema, CrpConfig(alpha=10.0, n_total=8000), rng)
        dataset = forward_sample(ground(prm, sk), rng)
        deps = list(annotated.dependencies)
        pool = [
            d for d in deps if dataset.tables[d.child.class_index].row_count >= 5000
        ]
        victim = pool[int(rng.integers(len(pool)))]
        reduced = replace(
            annotated, dependencies=tuple(d for d in deps if d != victim)
        )
        s_true = rbd_score(annotated, count_contingencies(dataset, sk, annotated))
        s_reduced = rbd_score(reduced, count_contingencies(dataset, sk, reduced))
        wins += s_true >= s_reduced
    assert wins >= 45, f"true structure ranked first on only {wins}/50 runs"
    _report("criterion 7 score sanity", f"ln 0.5 exact; ranking wins {wins}/50")


def test_criterion_8_end_to_end_toy_reproduction(tmp_path):
    # CLI with 4 classes, k_max 3, ~2500 objects: finishes in < 10 s,
    # the SQL loads with foreign keys enforced, per-table row counts sum
    # to within 4 of the request, chain lengths stay <= 3, the serialized
    # model round-trips exactly, and a rerun is byte-identical.
    from prmbench.cli import run_cli

    args = [
        "--classes", "4", "--kmax", "3", "--alpha", "1.0",
        "--objects", "2500", "--seed", "42", "--format", "sql,csv",
    ]
    out_a = tmp_path / "a"
    t0 = time.monotonic()
    assert run_cli(args + ["--out", str(out_a)]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"CLI run took {elapsed:.1f}s"

    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA foreign_keys = ON;")
    con.executescript((out_a / "data.sql").read_text(encoding="utf-8"))
    assert con.execute("PRAGMA foreign_key_check;").fetchall() == []
    prm = parse_prm((out_a / "model.xml").read_text(encoding="utf-8"))
    total = 0
    for cls in prm.schema.classes:
        (count,) = con.execute(f"SELECT COUNT(*) FROM {cls.name}").fetchone()
        total += count
    con.close()
    assert 2500 <= total <= 2504, total

    assert prm.k_max == 3
    for dep in prm.structure.dependencies:
        assert dep.slot_chain.length <= 3
    assert parse_prm(serialize_prm(prm)) == prm

    out_b = tmp_path / "b"
    assert run_cli(args + ["--out", str(out_b)]) == 0
    for path_a in sorted(out_a.iterdir()):
        assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()
    _report(
        "criterion 8 end-to-end toy reproduction",
        f"{total} rows in {elapsed:.1f}s, byte-identical rerun",
    )
