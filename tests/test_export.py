import sqlite3

import numpy as np
import pytest

from prmbench.dag import DagPolicy
from prmbench.deps import (
    assign_slot_chains,
    generate_cpds,
    generate_dependency_structure,
)
from prmbench.export import (
    ModelFormatError,
    emit_csv,
    emit_sql,
    parse_prm,
    read_csv_dataset,
    serialize_prm,
)
from prmbench.gbn import Dataset, ClassTable, forward_sample, ground
from prmbench.schema import GenerationPolicy, generate_schema
from prmbench.skeleton import CrpConfig, generate_skeleton

FAST = GenerationPolicy(dag_policy=DagPolicy(mixing_steps=1))


def _pipeline(seed, n=3, n_total=40, k_max=3):
    rng = np.random.default_rng(seed)
    schema = generate_schema(n, FAST, rng)
    structure = generate_dependency_structure(schema, FAST, rng)
    annotated = assign_slot_chains(schema, structure, k_max, rng)
    prm = generate_cpds(schema, annotated, 1.0, rng)
    sk = generate_skeleton(schema, CrpConfig(n_total=n_total), rng)
    ds = forward_sample(ground(prm, sk), rng)
    return prm, sk, ds


# --- model document -----------------------------------------------------------


def test_roundtrip_on_100_random_models():
    for seed in range(100):
        prm, _, _ = _pipeline(seed, n=2 + seed % 3, n_total=10)
        assert parse_prm(serialize_prm(prm)) == prm


def test_minimal_model_has_empty_dependency_section():
    from prmbench.dag import Dag
    from prmbench.deps import DependencyStructure
    from prmbench.schema import AttributeDef, ClassDef, RelationalSchema

    schema = RelationalSchema(
        (ClassDef("clazz0", "clazz0id", (AttributeDef("att0", ("v0", "v1")),)),),
        Dag(1, frozenset()),
    )
    structure = DependencyStructure((), (1,), k_max=0)
    prm = generate_cpds(schema, structure, 1.0, np.random.default_rng(0))
    text = serialize_prm(prm)
    assert "<dependencies />" in text or "<dependencies/>" in text
    assert parse_prm(text) == prm


def test_serialized_chains_use_tilde_prefix_and_slashes():
    for seed in range(120):
        prm, _, _ = _pipeline(seed)
        text = serialize_prm(prm)
        multi = [
            d
            for d in prm.structure.dependencies
            if d.slot_chain.is_multi_valued and d.slot_chain.length >= 2
        ]
        if multi:
            chain = multi[0].slot_chain
            assert f'chain="{chain.text}"' in text
            assert "~" in chain.text
            assert 'aggregator="MODE"' in text
            return
    pytest.fail("no multi-valued chain generated in 120 seeds")


def test_parse_rejects_malformed_xml():
    with pytest.raises(ModelFormatError, match="malformed"):
        parse_prm("<prm version='1'")


def test_parse_rejects_unknown_tags():
    prm, _, _ = _pipeline(0, n=2)
    text = serialize_prm(prm).replace("<dependencies", "<mystery/><dependencies", 1)
    with pytest.raises(ModelFormatError, match="unknown tag"):
        parse_prm(text)


def test_parse_rejects_unnormalized_row_naming_attribute():
    prm, _, _ = _pipeline(1, n=2)
    text = serialize_prm(prm)
    first_row_start = text.index("<row>")
    first_row_end = text.index("</row>", first_row_start)
    row = text[first_row_start + 5 : first_row_end]
    probs = [float(t) for t in row.split()]
    probs[0] += 0.1  # breaks normalization
    broken = text[: first_row_start + 5] + " ".join(map(repr, probs)) + text[first_row_end:]
    with pytest.raises(ModelFormatError, match="sums to"):
        parse_prm(broken)


def test_parse_rejects_non_finite_row_with_line_context():
    # NaN compares false with everything, so a NaN row slips past both the
    # sign check and the sum check unless entries are required finite.
    prm, _, _ = _pipeline(1, n=2)
    text = serialize_prm(prm)
    first_row_start = text.index("<row>") + 5
    first_row_end = text.index("</row>", first_row_start)
    width = len(text[first_row_start:first_row_end].split())
    for bad in ("nan", "inf"):
        broken = (
            text[:first_row_start] + " ".join([bad] * width) + text[first_row_end:]
        )
        with pytest.raises(ModelFormatError, match=r"line \d+: .*non-finite"):
            parse_prm(broken)


def test_parse_rejects_dangling_chain_slot():
    prm, _, _ = _pipeline(2, n=3)
    text = serialize_prm(prm)
    assert 'chain="' in text
    import re

    broken = re.sub(r'chain="[^"]+"', 'chain="ghostslot"', text, count=1)
    with pytest.raises(ModelFormatError, match="unknown slot|does not compose|ends at"):
        parse_prm(broken)


def test_parse_errors_carry_line_context():
    prm, _, _ = _pipeline(3, n=2)
    text = serialize_prm(prm).replace("<dependencies", "<mystery/><dependencies", 1)
    with pytest.raises(ModelFormatError, match=r"line \d+"):
        parse_prm(text)


def test_parse_rejects_cyclic_dependency_structure(movie_schema):
    text = """<prm version="1" kmax="1">
  <schema>
    <class name="a" pk="aid">
      <attribute name="att0" states="v0,v1" />
      <attribute name="att1" states="v0,v1" />
      <referenceSlot name="bref" target="b" />
    </class>
    <class name="b" pk="bid">
      <attribute name="att0" states="v0,v1" />
    </class>
  </schema>
  <dependencies>
    <dependency child="a.att0" parent="a.att1" chain="" />
    <dependency child="a.att1" parent="a.att0" chain="" />
  </dependencies>
  <cpds />
</prm>
"""
    with pytest.raises(ModelFormatError, match="cycle"):
        parse_prm(text)


def test_parse_rejects_disconnected_schema():
    prm, _, _ = _pipeline(4, n=2)
    text = serialize_prm(prm)
    # Cutting the referenceSlot line disconnects the class graph.
    lines = [l for l in text.splitlines() if "<referenceSlot" not in l]
    cut = "\n".join(l for l in lines if "chain=" not in l)
    with pytest.raises(ModelFormatError, match="disconnected|bijection"):
        parse_prm(cut)


# --- SQL -----------------------------------------------------------------------


def test_sql_targets_precede_referrers_and_reference_primary_keys():
    for seed in range(20):
        prm, _, ds = _pipeline(seed, n=4, n_total=30)
        script = emit_sql(prm.schema, ds)
        created = []
        for line in script.splitlines():
            if line.startswith("CREATE TABLE "):
                created.append(line.split()[2])
        pos = {name: i for i, name in enumerate(created)}
        for cls in prm.schema.classes:
            for slot in cls.reference_slots:
                target = prm.schema.classes[slot.referenced_class]
                assert pos[target.name] < pos[cls.name]
                assert f"REFERENCES {target.name}({target.primary_key})" in script


def test_sql_empty_dataset_is_ddl_only(movie_schema):
    empty = Dataset(
        movie_schema,
        tuple(
            ClassTable(
                ci,
                0,
                {s.name: () for s in cls.reference_slots},
                tuple(() for _ in cls.attributes),
            )
            for ci, cls in enumerate(movie_schema.classes)
        ),
    )
    script = emit_sql(movie_schema, empty)
    assert script.count("CREATE TABLE") == 3
    assert "INSERT" not in script


def test_sql_loads_into_sqlite_with_foreign_keys_enforced():
    prm, _, ds = _pipeline(5, n=4, n_total=60)
    script = emit_sql(prm.schema, ds)
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA foreign_keys = ON;")
    con.executescript(script)
    for ci, cls in enumerate(prm.schema.classes):
        (count,) = con.execute(f"SELECT COUNT(*) FROM {cls.name}").fetchone()
        assert count == ds.tables[ci].row_count
    violations = con.execute("PRAGMA foreign_key_check;").fetchall()
    assert violations == []
    con.close()


# --- CSV -----------------------------------------------------------------------


def test_csv_one_file_per_class_with_header(tmp_path):
    prm, _, ds = _pipeline(6, n=4, n_total=25)
    paths = emit_csv(prm.schema, ds, tmp_path)
    assert len(paths) == 4
    for ci, path in enumerate(paths):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == ds.tables[ci].row_count + 1


def test_csv_roundtrip(tmp_path):
    prm, _, ds = _pipeline(7, n=3, n_total=35)
    emit_csv(prm.schema, ds, tmp_path)
    assert read_csv_dataset(prm.schema, tmp_path) == ds
