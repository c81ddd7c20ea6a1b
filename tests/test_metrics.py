import math

import numpy as np
import pytest

from prmbench.dag import DagPolicy
from prmbench.deps import (
    AttributeNode,
    DependencyStructure,
    assign_slot_chains,
    generate_cpds,
    generate_dependency_structure,
)
from prmbench.gbn import forward_sample, ground
from prmbench.metrics import (
    ContingencyCounts,
    DirichletPrior,
    count_contingencies,
    marginal_report,
    rbd_family_scores,
    rbd_score,
    render_report,
)
from prmbench.schema import GenerationPolicy, generate_schema
from prmbench.skeleton import CrpConfig, generate_skeleton

from conftest import MOVIE, USER, VOTE, build_movie_prm
from helpers import skeleton_from_links

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


def _sampled(seed, n=2, n_total=60, k_max=2):
    rng = np.random.default_rng(seed)
    schema = generate_schema(n, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, k_max, rng)
    prm = generate_cpds(schema, annotated, 1.0, rng)
    sk = generate_skeleton(schema, CrpConfig(n_total=n_total), rng)
    ds = forward_sample(ground(prm, sk), rng)
    return prm, sk, ds


# --- contingency counting -------------------------------------------------------


def test_parentless_counts_are_direct_tallies(movie_schema, movie_skeleton):
    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(0))
    counts = count_contingencies(ds, movie_skeleton, prm.structure)
    genre = counts.family(AttributeNode(MOVIE, 0))
    tally = [0, 0, 0]
    for v in ds.tables[MOVIE].attr_values[0]:
        tally[v] += 1
    assert genre[()] == tally


def test_deterministic_copy_gives_diagonal_counts(movie_schema, movie_skeleton):
    prm = build_movie_prm(
        movie_schema,
        rating_rows={0: (1.0, 0.0, 0.0), 1: (0.0, 1.0, 0.0), 2: (0.0, 0.0, 1.0)},
    )
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(1))
    counts = count_contingencies(ds, movie_skeleton, prm.structure)
    rating = counts.family(AttributeNode(VOTE, 0))
    for config, row in rating.items():
        for v, c in enumerate(row):
            if v != config[0]:
                assert c == 0
    assert sum(sum(r) for r in rating.values()) == 9


def test_counts_match_naive_reresolution_oracle():
    # Oracle: rebuild parent configurations with plain nested loops over the
    # dataset and the raw link dict.
    from prmbench.gbn import aggregate_mode

    prm, sk, ds = _sampled(3, n=3, n_total=50, k_max=3)
    counts = count_contingencies(ds, sk, prm.structure)
    from helpers import oracle_resolve_chain
    from conftest import links_as_plain_table

    table = links_as_plain_table(sk)
    for cpd in prm.cpds:
        node = cpd.child
        ci, ai = node.class_index, node.attribute_index
        got = counts.family(node)
        naive = {config: [0] * len(ds.schema.attribute(ci, ai).domain)
                 for config in got}
        for oid in range(ds.tables[ci].row_count):
            config = []
            for dep in cpd.parent_order:
                objs = oracle_resolve_chain(table, (ci, oid), dep.slot_chain)
                col = ds.tables[dep.parent.class_index].attr_values[
                    dep.parent.attribute_index
                ]
                values = [col[o[1]] for o in objs]
                if dep.slot_chain.is_multi_valued:
                    domain = len(
                        ds.schema.attribute(
                            dep.parent.class_index, dep.parent.attribute_index
                        ).domain
                    )
                    config.append(aggregate_mode(values, domain))
                else:
                    config.append(values[0])
            naive[tuple(config)][ds.tables[ci].attr_values[ai][oid]] += 1
        assert naive == got


def test_counts_and_report_match_per_object_oracles():
    from helpers import oracle_count_contingencies, oracle_marginal_report

    for seed in range(30):
        prm, sk, ds = _sampled(seed, n=2 + seed % 4, n_total=50, k_max=1 + seed % 3)
        counts = count_contingencies(ds, sk, prm.structure)
        assert counts.families == oracle_count_contingencies(ds, sk, prm.structure)
        assert marginal_report(ds, prm) == oracle_marginal_report(ds, prm)


def test_counts_reject_skeleton_that_disagrees_with_dataset(movie_schema, movie_skeleton):
    from prmbench.skeleton import ObjectRef

    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(0))
    movie_slot = movie_schema.classes[VOTE].reference_slots[0]
    links = dict(movie_skeleton.links)
    key = (ObjectRef(VOTE, 3), movie_slot)
    links[key] = ObjectRef(MOVIE, (links[key].object_id + 1) % 5)
    moved = skeleton_from_links(movie_skeleton.object_counts, links)
    with pytest.raises(ValueError, match="disagree on movie of object 3"):
        count_contingencies(ds, moved, prm.structure)

    resized = skeleton_from_links((5, 4, 9), movie_skeleton.links)
    with pytest.raises(ValueError, match="object counts"):
        count_contingencies(ds, resized, prm.structure)


@pytest.mark.parametrize("bad_id", [5, -1])
def test_out_of_range_foreign_key_is_rejected(movie_schema, movie_skeleton, bad_id):
    # Foreign keys become array indices, and numpy wraps a negative index
    # instead of failing, so they must be checked before any gather.
    import dataclasses

    from prmbench.gbn import skeleton_from_dataset
    from prmbench.skeleton import ObjectRef

    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(0))
    votes = ds.tables[VOTE]
    movie_fk = list(votes.fk_values["movie"])
    movie_fk[3] = bad_id  # the movie table has 5 rows
    tables = list(ds.tables)
    tables[VOTE] = dataclasses.replace(
        votes, fk_values={**votes.fk_values, "movie": tuple(movie_fk)}
    )
    bad = dataclasses.replace(ds, tables=tuple(tables))
    message = f"slot movie of object 3 links to {bad_id}, but the referenced class has 5"
    with pytest.raises(ValueError, match=message):
        count_contingencies(bad, skeleton_from_dataset(bad), prm.structure)
    with pytest.raises(ValueError, match=message):
        count_contingencies(bad, movie_skeleton, prm.structure)
    with pytest.raises(ValueError, match=message):
        marginal_report(bad, prm)

    movie_slot = movie_schema.classes[VOTE].reference_slots[0]
    links = dict(movie_skeleton.links)
    links[(ObjectRef(VOTE, 3), movie_slot)] = ObjectRef(MOVIE, bad_id)
    with pytest.raises(ValueError, match=message):
        ground(prm, skeleton_from_links(movie_skeleton.object_counts, links))


def test_counts_schema_mismatch_rejected(movie_schema, movie_skeleton):
    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(0))
    wrong = DependencyStructure((), (1, 1), k_max=0)
    with pytest.raises(ValueError):
        count_contingencies(ds, movie_skeleton, wrong)


# --- scoring ---------------------------------------------------------------------


def _counts_fixture(rows):
    return ContingencyCounts({AttributeNode(0, 0): rows})


def test_hand_computed_log_half():
    # One parentless binary attribute observed once in state 0:
    # DM = G(2)/G(3) * G(2)/G(1) * G(1)/G(1) = 0.5.
    structure = DependencyStructure((), (1,), k_max=0)
    counts = _counts_fixture({(): [1, 0]})
    score = rbd_score(structure, counts, DirichletPrior(1.0))
    assert abs(score - math.log(0.5)) < 1e-9


def test_empty_dataset_scores_minus_penalty(movie_schema):
    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    zero = ContingencyCounts(
        {
            AttributeNode(MOVIE, 0): {(): [0, 0, 0]},
            AttributeNode(USER, 0): {(): [0, 0]},
            AttributeNode(VOTE, 0): {(i,): [0, 0, 0] for i in range(3)},
        }
    )
    # The rating family carries one chain of length 1 over 3 configurations.
    assert rbd_score(prm.structure, zero) == pytest.approx(-3.0)
    assert rbd_score(prm.structure, zero, penalty_per_config=False) == pytest.approx(-1.0)


def test_intra_only_structures_have_zero_penalty():
    prm, sk, ds = _sampled(11, n=2, n_total=80)
    counts = count_contingencies(ds, sk, prm.structure)
    intra_only = DependencyStructure(
        tuple(
            d
            for d in prm.structure.dependencies
            if d.child.class_index == d.parent.class_index
        ),
        prm.structure.attr_counts,
        k_max=prm.structure.k_max,
    )
    counts2 = count_contingencies(ds, sk, intra_only)
    with_pen = rbd_score(intra_only, counts2, penalty_per_config=True)
    without = rbd_score(intra_only, counts2, penalty_per_config=False)
    assert with_pen == pytest.approx(without)


def test_score_is_finite_and_decomposable():
    prm, sk, ds = _sampled(7, n=3, n_total=70, k_max=3)
    counts = count_contingencies(ds, sk, prm.structure)
    per_family = rbd_family_scores(prm.structure, counts)
    total = rbd_score(prm.structure, counts)
    assert math.isfinite(total)
    assert total == pytest.approx(sum(per_family.values()))
    assert set(per_family) == set(counts.families)


def test_prior_must_be_positive():
    structure = DependencyStructure((), (1,), k_max=0)
    counts = _counts_fixture({(): [1, 0]})
    with pytest.raises(ValueError):
        rbd_score(structure, counts, DirichletPrior(0.0))


# --- diagnostics -----------------------------------------------------------------


def test_degenerate_cpds_have_zero_l1(movie_schema, movie_skeleton):
    prm = build_movie_prm(
        movie_schema,
        rating_rows={i: (1.0, 0.0, 0.0) for i in range(3)},
        genre_row=(0.0, 0.0, 1.0),
        age_row=(1.0, 0.0),
    )
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(2))
    report = marginal_report(ds, prm)
    assert report["marginal_l1.movie.genre"] == 0.0
    assert report["marginal_l1.user.age"] == 0.0


def test_single_class_schema_reports_no_indegree():
    prm, sk, ds = _sampled(21, n=1, n_total=30)
    report = marginal_report(ds, prm)
    assert not any(k.startswith("indegree") for k in report)


def test_report_renders_key_value_lines(movie_schema, movie_skeleton):
    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(3))
    text = render_report(marginal_report(ds, prm))
    lines = [l for l in text.splitlines() if l]
    assert all(" = " in l for l in lines)
    assert lines == sorted(lines)
    assert any(l.startswith("rows.total = 17") for l in lines)
