import copy
import io
import re
import sqlite3
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "schema, dependency, message",
    [
        ("", "", "at least one <class>"),
        (
            '<class name="a" pk="aid"><attribute name="att0" states="v0,v1" />'
            '<referenceSlot name="aref" target="a" /></class>',
            "",
            "its own class",
        ),
        (
            '<class name="a" pk="aid"><attribute name="att0" states="v0,v1" />'
            '<referenceSlot name="bref" target="b" /></class>'
            '<class name="b" pk="bid"><attribute name="att0" states="v0,v1" /></class>',
            '<dependency child="a.att0" parent="a.att0" chain="bref/~bref"'
            ' aggregator="MODE" />',
            "depends on itself",
        ),
    ],
)
def test_parse_rejects_graphs_without_nodes_or_with_self_loops(
    schema, dependency, message
):
    # Each used to escape as a bare ValueError from the graph constructor.
    text = (
        f'<prm version="1" kmax="2"><schema>{schema}</schema>'
        f"<dependencies>{dependency}</dependencies><cpds /></prm>"
    )
    with pytest.raises(ModelFormatError, match=rf"line 1: .*{message}"):
        parse_prm(text)


def test_parse_rejects_disconnected_schema():
    prm, _, _ = _pipeline(4, n=2)
    text = serialize_prm(prm)
    # Cutting the referenceSlot line disconnects the class graph.
    lines = [l for l in text.splitlines() if "<referenceSlot" not in l]
    cut = "\n".join(l for l in lines if "chain=" not in l)
    with pytest.raises(ModelFormatError, match="disconnected|bijection"):
        parse_prm(cut)


_FUZZ_DOCS = [
    serialize_prm(_pipeline(seed, n=n)[0]) for seed, n in ((1, 1), (2, 3), (3, 4))
]
_FUZZ_ELEMENTS = [el for text in _FUZZ_DOCS for el in ET.fromstring(text).iter()]
# Tags and attribute names of the dialect.
_FUZZ_NAMES = sorted(
    {el.tag for el in _FUZZ_ELEMENTS}.union(*(el.attrib for el in _FUZZ_ELEMENTS))
)
# Values that mean something to the parser: every attribute value of the
# documents and its pieces, plus a few numbers and separators.
_FUZZ_VALUES = sorted(
    {"", "0", "-1", "2", "1e309", "nan", "-0.0", "~", "/", ",", ".", "MODE"}.union(
        *([v, *re.split(r"[/,.~]", v)] for el in _FUZZ_ELEMENTS for v in el.attrib.values())
    )
)
# XML 1.0 cannot carry control characters; the byte mutations cover them.
_PRINTABLE = st.characters(blacklist_categories=("Cc", "Cs"))


def _mutate_tree(data, root):
    """Change one attribute, text, tag or element position of ``root``."""
    parent = {child: el for el in root.iter() for child in el}
    el = data.draw(st.sampled_from(list(root.iter())))
    ops = ["set", "drop", "text", "tag", "remove", "copy", "move"]
    op = data.draw(st.sampled_from(ops))
    value = data.draw(st.sampled_from(_FUZZ_VALUES) | st.text(_PRINTABLE, max_size=6))
    if op == "set":
        el.set(data.draw(st.sampled_from(_FUZZ_NAMES)), value)
    elif op == "drop" and el.attrib:
        del el.attrib[data.draw(st.sampled_from(sorted(el.attrib)))]
    elif op == "text":
        el.text = value
    elif op == "tag":
        el.tag = data.draw(st.sampled_from(_FUZZ_NAMES))
    elif el in parent:
        if op != "copy":
            parent[el].remove(el)
        if op != "remove":
            target = data.draw(st.sampled_from(list(root.iter())))
            target.insert(data.draw(st.integers(0, len(target))), copy.deepcopy(el))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_mutated_documents_round_trip_or_raise_model_format_error(data):
    # Mutated attributes, elements and bytes of valid documents either
    # parse to a model that round-trips exactly or raise ModelFormatError.
    root = ET.fromstring(data.draw(st.sampled_from(_FUZZ_DOCS)))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate_tree(data, root)
    raw = bytearray(ET.tostring(root, encoding="utf-8"))
    for _ in range(data.draw(st.sampled_from((0, 0, 0, 1, 2)))):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at : at + data.draw(st.integers(0, 2))] = data.draw(st.binary(max_size=2))
    text = raw.decode("utf-8", errors="replace")
    try:
        prm = parse_prm(text)
    except ModelFormatError:
        return
    assert parse_prm(serialize_prm(prm)) == prm


# --- SQL -----------------------------------------------------------------------


def test_sql_targets_precede_referrers_and_reference_primary_keys():
    for seed in range(20):
        prm, _, ds = _pipeline(seed, n=4, n_total=30)
        sql = io.StringIO()
        emit_sql(prm.schema, ds, sql)
        script = sql.getvalue()
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
    sql = io.StringIO()
    emit_sql(movie_schema, empty, sql)
    script = sql.getvalue()
    assert script.count("CREATE TABLE") == 3
    assert "INSERT" not in script


def test_sql_loads_into_sqlite_with_foreign_keys_enforced():
    prm, _, ds = _pipeline(5, n=4, n_total=60)
    sql = io.StringIO()
    emit_sql(prm.schema, ds, sql)
    script = sql.getvalue()
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA foreign_keys = ON;")
    con.executescript(script)
    for ci, cls in enumerate(prm.schema.classes):
        (count,) = con.execute(f"SELECT COUNT(*) FROM {cls.name}").fetchone()
        assert count == ds.tables[ci].row_count
    violations = con.execute("PRAGMA foreign_key_check;").fetchall()
    assert violations == []
    con.close()


class _CountingSink:
    """A text handle that counts the UTF-8 bytes written and keeps none."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_sql_export_memory_does_not_grow_with_rows():
    # Deterministic gate: the script is written in row blocks, so the peak
    # of what emit_sql allocates is far below the script's size. Holding
    # the script as one string cost 3.8 times its size.
    from prmbench.cli import RunConfig, run_pipeline

    prm, _, ds = run_pipeline(RunConfig(classes=4, objects=80_000, seed=2))
    sink = _CountingSink()
    tracemalloc.start()
    try:
        emit_sql(prm.schema, ds, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.bytes > 5_000_000
    assert peak < sink.bytes / 8, (peak, sink.bytes)


def test_csv_export_memory_does_not_grow_with_rows(tmp_path):
    # Deterministic gate: rows are written in blocks, so the peak of what
    # emit_csv allocates stays below half of the bytes it writes. Converting
    # whole columns at once cost 2.3 times the bytes written.
    from prmbench.cli import RunConfig, run_pipeline

    prm, _, ds = run_pipeline(RunConfig(classes=4, objects=80_000, seed=2))
    tracemalloc.start()
    try:
        paths = emit_csv(prm.schema, ds, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in paths)
    assert written > 1_000_000
    assert peak < written / 2, (peak, written)


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


def _movie_csv(tmp_path, movie_schema, movie_skeleton):
    from conftest import build_movie_prm

    prm = build_movie_prm(movie_schema, {i: (0.2, 0.3, 0.5) for i in range(3)})
    ds = forward_sample(ground(prm, movie_skeleton), np.random.default_rng(0))
    emit_csv(movie_schema, ds, tmp_path)
    return ds, tmp_path / "vote.csv"


def test_csv_rows_may_come_in_any_key_order(tmp_path, movie_schema, movie_skeleton):
    ds, path = _movie_csv(tmp_path, movie_schema, movie_skeleton)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = rows[5:] + rows[:5][::-1]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    assert read_csv_dataset(movie_schema, tmp_path) == ds


def _drop_row_3(lines):
    del lines[4]  # the row with key 3: a gap, so later foreign keys would shift


def _repeat_key_2(lines):
    lines[6] = "2" + lines[6][1:]


def _set_field(line_index, field, text):
    def edit(lines):
        fields = lines[line_index].split(",")
        fields[field] = text
        lines[line_index] = ",".join(fields)

    return edit


def _drop_last_field(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_row_3, r"vote\.csv, line 9: primary key 8 is not in 0\.\.7; key 3 is missing"),
        (_repeat_key_2, r"vote\.csv, line 7: duplicate primary key 2, first on line 4"),
        (_set_field(5, 3, "v7"), r"vote\.csv, line 6: unknown label 'v7' for attribute rating"),
        (_set_field(8, 1, "x"), r"vote\.csv, line 9: foreign key movie 'x' is not an integer"),
        (_set_field(4, 2, "3"), r"vote\.csv, line 5: foreign key user 3 is not in 0\.\.2"),
        (_set_field(2, 0, "1.0"), r"vote\.csv, line 3: primary key voteid '1\.0' is not an integer"),
        (_drop_last_field, r"vote\.csv, line 4: 3 fields, expected 4"),
    ],
    ids=["missing-key", "duplicate-key", "unknown-label", "non-integer-fk",
         "dangling-fk", "non-integer-pk", "field-count"],
)
def test_csv_reader_rejects_input_emit_csv_cannot_write(
    tmp_path, movie_schema, movie_skeleton, edit, message
):
    _, path = _movie_csv(tmp_path, movie_schema, movie_skeleton)
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_csv_dataset(movie_schema, tmp_path)
