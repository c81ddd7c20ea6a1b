"""Model serialization and dataset emission.

The model document is a small versioned XML dialect::

    <prm version="1" kmax="3">
      <schema>
        <class name="clazz0" pk="clazz0id">
          <attribute name="att0" states="v0,v1"/>
          <referenceSlot name="clazz1fkatt10" target="clazz1"/>
        </class>
      </schema>
      <dependencies>
        <dependency child="clazz0.att1" parent="clazz1.att0"
                    chain="clazz1fkatt10"/>
        <dependency child="clazz1.att0" parent="clazz0.att0"
                    chain="~clazz1fkatt10" aggregator="MODE"/>
      </dependencies>
      <cpds>
        <cpd child="clazz0.att0" parents="">
          <row>0.25 0.75</row>
        </cpd>
      </cpds>
    </prm>

Chains are slash-joined slot names, each prefixed with ``~`` when the slot
is traversed inverse; the empty string is the empty chain. CPD rows appear
in row-major order over the parent domains, parents in canonical order, and
probabilities use full-precision decimal text so that parse(serialize(prm))
reproduces the model exactly.

Datasets are emitted as portable SQL (INTEGER keys, VARCHAR attribute
labels, REFERENCES clauses, referenced tables created first) or as one CSV
file per class with columns pk, foreign keys, attributes.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.parsers import expat

import numpy as np

from .dag import CyclicGraphError, Dag, topological_order
from .deps import (
    AGGREGATORS,
    AttributeNode,
    Cpd,
    Dependency,
    DependencyStructure,
    Prm,
    Slot,
    SlotChain,
    parent_sizes,
)
from .gbn import ClassTable, Dataset
from .schema import (
    AttributeDef,
    ClassDef,
    ReferenceSlot,
    RelationalSchema,
    validate_schema,
)

__all__ = [
    "ModelFormatError",
    "emit_csv",
    "emit_sql",
    "parse_prm",
    "read_csv_dataset",
    "serialize_prm",
]

_FORMAT_VERSION = "1"


class ModelFormatError(ValueError):
    """The document violates the model dialect."""


# --- serialization ----------------------------------------------------------


def _attr_name(schema: RelationalSchema, node: AttributeNode) -> str:
    cls = schema.classes[node.class_index]
    return f"{cls.name}.{cls.attributes[node.attribute_index].name}"


def serialize_prm(prm: Prm) -> str:
    schema = prm.schema
    root = ET.Element("prm", version=_FORMAT_VERSION, kmax=str(prm.k_max))

    schema_el = ET.SubElement(root, "schema")
    for cls in schema.classes:
        cls_el = ET.SubElement(schema_el, "class", name=cls.name, pk=cls.primary_key)
        for attr in cls.attributes:
            for label in attr.domain:
                if "," in label:
                    raise ModelFormatError(
                        f"state label {label!r} contains the list separator"
                    )
            ET.SubElement(
                cls_el, "attribute", name=attr.name, states=",".join(attr.domain)
            )
        for slot in cls.reference_slots:
            ET.SubElement(
                cls_el,
                "referenceSlot",
                name=slot.name,
                target=schema.classes[slot.referenced_class].name,
            )

    deps_el = ET.SubElement(root, "dependencies")
    for dep in prm.structure.dependencies:
        el = ET.SubElement(
            deps_el,
            "dependency",
            child=_attr_name(schema, dep.child),
            parent=_attr_name(schema, dep.parent),
            chain=dep.slot_chain.text,
        )
        if dep.aggregator is not None:
            el.set("aggregator", dep.aggregator)

    cpds_el = ET.SubElement(root, "cpds")
    for cpd in prm.cpds:
        cpd_el = ET.SubElement(
            cpds_el,
            "cpd",
            child=_attr_name(schema, cpd.child),
            parents=",".join(_attr_name(schema, d.parent) for d in cpd.parent_order),
        )
        for row in cpd.rows.reshape(-1, cpd.rows.shape[-1]).tolist():
            ET.SubElement(cpd_el, "row").text = " ".join(map(repr, row))

    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# --- parsing ----------------------------------------------------------------


def _parse_document(text: str):
    """Expat-driven parse that records the source line of every element."""
    parser = expat.ParserCreate()
    lines: dict[int, int] = {}
    stack: list[ET.Element] = []
    root: list[ET.Element] = []

    def start(tag, attrs):
        elem = ET.Element(tag, attrs)
        lines[id(elem)] = parser.CurrentLineNumber
        if stack:
            stack[-1].append(elem)
        else:
            root.append(elem)
        stack.append(elem)

    def end(tag):
        stack.pop()

    def chars(data):
        if not stack:
            return
        cur = stack[-1]
        if len(cur):
            cur[-1].tail = (cur[-1].tail or "") + data
        else:
            cur.text = (cur.text or "") + data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ModelFormatError(f"malformed XML: {exc}") from exc
    if not root:
        raise ModelFormatError("malformed XML: empty document")
    return root[0], lines


def parse_prm(text: str) -> Prm:
    root, lines = _parse_document(text)

    def err(elem, message: str):
        line = lines.get(id(elem))
        where = f"line {line}: " if line else ""
        raise ModelFormatError(f"{where}{message}")

    def expect_children(elem, allowed: set[str]):
        for child in elem:
            if child.tag not in allowed:
                err(child, f"unknown tag <{child.tag}> inside <{elem.tag}>")

    if root.tag != "prm":
        err(root, f"unknown tag <{root.tag}>, expected <prm>")
    if root.get("version") != _FORMAT_VERSION:
        err(root, f"unsupported format version {root.get('version')!r}")
    try:
        k_max = int(root.get("kmax", ""))
    except ValueError:
        err(root, "missing or non-integer kmax attribute")
    expect_children(root, {"schema", "dependencies", "cpds"})
    schema_el = root.find("schema")
    deps_el = root.find("dependencies")
    cpds_el = root.find("cpds")
    if schema_el is None or deps_el is None or cpds_el is None:
        err(root, "<prm> requires <schema>, <dependencies>, and <cpds>")

    # Schema section: two passes so slots can reference later classes.
    expect_children(schema_el, {"class"})
    raw_classes = list(schema_el)
    if not raw_classes:
        err(schema_el, "<schema> requires at least one <class>")
    class_index = {}
    for i, el in enumerate(raw_classes):
        name = el.get("name")
        if not name:
            err(el, "<class> requires a name")
        if name in class_index:
            err(el, f"duplicate class {name!r}")
        class_index[name] = i

    classes: list[ClassDef] = []
    edges = set()
    for i, el in enumerate(raw_classes):
        expect_children(el, {"attribute", "referenceSlot"})
        attrs: list[AttributeDef] = []
        slots: list[ReferenceSlot] = []
        for sub in el:
            if sub.tag == "attribute":
                states = tuple((sub.get("states") or "").split(","))
                if len(states) < 2 or any(not s for s in states):
                    err(sub, f"attribute {sub.get('name')!r} needs at least 2 states")
                attrs.append(AttributeDef(sub.get("name") or "", states))
            else:
                target = sub.get("target")
                if target not in class_index:
                    err(sub, f"referenceSlot targets unknown class {target!r}")
                if class_index[target] == i:
                    err(sub, f"referenceSlot of class {target!r} targets its own class")
                slots.append(
                    ReferenceSlot(sub.get("name") or "", i, class_index[target])
                )
                edges.add((i, class_index[target]))
        if not el.get("pk"):
            err(el, f"<class {el.get('name')!r}> requires a pk")
        classes.append(
            ClassDef(
                name=el.get("name"),
                primary_key=el.get("pk"),
                attributes=tuple(attrs),
                reference_slots=tuple(slots),
            )
        )

    schema = RelationalSchema(tuple(classes), Dag(len(classes), frozenset(edges)))
    report = validate_schema(schema)
    if not report.is_valid:
        err(schema_el, "; ".join(report.findings))

    def resolve_attr(el, spec: str) -> AttributeNode:
        cls_name, _, attr_name = spec.partition(".")
        if cls_name not in class_index:
            err(el, f"unknown class {cls_name!r} in {spec!r}")
        ci = class_index[cls_name]
        for ai, attr in enumerate(schema.classes[ci].attributes):
            if attr.name == attr_name:
                return AttributeNode(ci, ai)
        err(el, f"unknown attribute {spec!r}")

    def resolve_chain(el, text: str, source: int, target: int) -> SlotChain:
        slots: list[Slot] = []
        if text:
            for token in text.split("/"):
                inverted = token.startswith("~")
                name = token[1:] if inverted else token
                base = schema.slot_by_name.get(name)
                if base is None:
                    err(el, f"chain references unknown slot {name!r}")
                slots.append(Slot(base, inverted))
        try:
            chain = SlotChain(source, tuple(slots))
        except ValueError as exc:
            err(el, f"chain {text!r} does not compose: {exc}")
        if chain.end_class != target:
            err(el, f"chain {text!r} ends at class {chain.end_class}, expected {target}")
        return chain

    expect_children(deps_el, {"dependency"})
    dependencies: list[Dependency] = []
    for el in deps_el:
        child = resolve_attr(el, el.get("child") or "")
        parent = resolve_attr(el, el.get("parent") or "")
        if parent == child:
            err(el, f"attribute {el.get('child')!r} depends on itself")
        chain_text = el.get("chain")
        if chain_text is None:
            err(el, "dependency requires a chain attribute")
        chain = resolve_chain(el, chain_text, child.class_index, parent.class_index)
        aggregator = el.get("aggregator")
        if aggregator is not None and aggregator not in AGGREGATORS:
            err(el, f"unknown aggregator {aggregator!r}")
        if chain.is_multi_valued and aggregator is None:
            err(el, f"multi-valued chain {chain_text!r} requires an aggregator")
        if not chain.is_multi_valued and aggregator is not None:
            err(el, f"single-valued chain {chain_text!r} cannot carry an aggregator")
        dependencies.append(Dependency(child, parent, chain, aggregator))

    structure = DependencyStructure(
        tuple(dependencies),
        tuple(len(c.attributes) for c in classes),
        k_max=k_max,
    )
    try:
        topological_order(structure.attribute_dag())
    except CyclicGraphError:
        err(deps_el, "dependency structure contains a directed cycle")

    expect_children(cpds_el, {"cpd"})
    cpds: list[Cpd] = []
    for el in cpds_el:
        child = resolve_attr(el, el.get("child") or "")
        parents = structure.parents_of(child)
        declared = el.get("parents", "")
        expected_decl = ",".join(_attr_name(schema, d.parent) for d in parents)
        if declared != expected_decl:
            err(
                el,
                f"cpd for {el.get('child')!r} declares parents {declared!r}, "
                f"dependencies imply {expected_decl!r}",
            )
        sizes = parent_sizes(schema, parents)
        expect_children(el, {"row"})
        row_els, n_rows = list(el), math.prod(sizes)
        if len(row_els) != n_rows:
            err(el, f"cpd for {el.get('child')!r} has {len(row_els)} rows, expected {n_rows}")
        domain = len(schema.attribute(child.class_index, child.attribute_index).domain)
        rows = []
        for row_el in row_els:
            try:
                probs = tuple(float(tok) for tok in (row_el.text or "").split())
            except ValueError:
                err(row_el, f"cpd row for {el.get('child')!r} has non-numeric entries")
            if len(probs) != domain:
                err(row_el, f"cpd row for {el.get('child')!r} has {len(probs)} entries, expected {domain}")
            if not all(math.isfinite(p) for p in probs):
                err(row_el, f"cpd row for {el.get('child')!r} has non-finite entries")
            if any(p < 0 for p in probs):
                err(row_el, f"cpd row for {el.get('child')!r} has negative entries")
            if abs(sum(probs) - 1.0) > 1e-9:
                err(
                    row_el,
                    f"cpd row for {el.get('child')!r} sums to {sum(probs)!r}, not 1",
                )
            rows.append(probs)
        cpds.append(Cpd(child, parents, np.array(rows).reshape(*sizes, domain)))

    try:
        return Prm(schema, structure, tuple(cpds), k_max)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


# --- SQL ---------------------------------------------------------------------


def _table_order(schema: RelationalSchema) -> tuple[int, ...]:
    # Referenced classes must exist before their referrers, which is the
    # topological order of the reversed class graph.
    return topological_order(schema.class_dag.reversed())


def _column_names(cls: ClassDef) -> list[str]:
    """Primary key, foreign keys, attributes: the column order of SQL and CSV."""
    return (
        [cls.primary_key]
        + [slot.name for slot in cls.reference_slots]
        + [attr.name for attr in cls.attributes]
    )


def _quote(label: str) -> str:
    return "'" + label.replace("'", "''") + "'"


# Rows per block of SQL or CSV lines: each block converts only its own slice
# of the columns to Python values, so memory does not grow with the row count.
_BLOCK_ROWS = 4096


def _row_blocks(cls: ClassDef, table: ClassTable, labels):
    """Per block of rows, the columns in :func:`_column_names` order.

    Yields the key columns (ids, then foreign keys, as Python ints) and the
    attribute columns, each state mapped through ``labels[attribute]``.
    """
    fks = [table.fk_values[slot.name] for slot in cls.reference_slots]
    for lo in range(0, table.row_count, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        keys = [range(lo, min(hi, table.row_count))]
        keys += [fk[lo:hi].tolist() for fk in fks]
        states = [
            map(names.__getitem__, values[lo:hi].tolist())
            for names, values in zip(labels, table.attr_values)
        ]
        yield keys, states


def emit_sql(schema: RelationalSchema, dataset: Dataset, fh) -> None:
    """Write the SQL script for ``dataset`` to the text handle ``fh``.

    The DDL comes first, referenced tables before their referrers, then one
    INSERT line per row, table by table in the same order.
    """
    order = _table_order(schema)
    for ci in order:
        cls = schema.classes[ci]
        cols = [f"  {cls.primary_key} INTEGER PRIMARY KEY"]
        for slot in cls.reference_slots:
            target = schema.classes[slot.referenced_class]
            cols.append(
                f"  {slot.name} INTEGER REFERENCES {target.name}({target.primary_key})"
            )
        for attr in cls.attributes:
            cols.append(f"  {attr.name} VARCHAR(32)")
        fh.write(f"CREATE TABLE {cls.name} (\n" + ",\n".join(cols) + "\n);\n")
    for ci in order:
        cls = schema.classes[ci]
        table = dataset.tables[ci]
        head = f"INSERT INTO {cls.name} ({', '.join(_column_names(cls))}) VALUES "
        labels = [[_quote(label) for label in attr.domain] for attr in cls.attributes]
        for keys, states in _row_blocks(cls, table, labels):
            rows = zip(*(map(str, column) for column in keys), *states)
            fh.writelines(f"{head}({', '.join(row)});\n" for row in rows)


# --- CSV ---------------------------------------------------------------------


def emit_csv(schema: RelationalSchema, dataset: Dataset, directory) -> list[Path]:
    """One ``<class>.csv`` per class; returns the written paths.

    Rows are written in blocks, as in :func:`emit_sql`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ci, cls in enumerate(schema.classes):
        table = dataset.tables[ci]
        path = directory / f"{cls.name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_column_names(cls))
            labels = [attr.domain for attr in cls.attributes]
            for keys, states in _row_blocks(cls, table, labels):
                writer.writerows(zip(*keys, *states))
        paths.append(path)
    return paths


def read_csv_dataset(schema: RelationalSchema, directory) -> Dataset:
    """Inverse of :func:`emit_csv`, used for round-trip verification.

    Each ``<class>.csv`` must carry the primary keys 0..n-1 once each, in any
    order, foreign keys that are rows of the referenced file and labels from
    the attribute domains. Raises ValueError naming the file and line of the
    first violation.
    """
    directory = Path(directory)
    tables: dict[int, ClassTable] = {}
    # Referenced tables first, so that foreign keys are checked as they are read.
    for ci in _table_order(schema):
        cls = schema.classes[ci]
        path = directory / f"{cls.name}.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        row_counts = {c: t.row_count for c, t in tables.items()}
        tables[ci] = _parse_table(path, ci, cls, records, row_counts)
    return Dataset(schema=schema, tables=tuple(tables[ci] for ci in sorted(tables)))


def _line_of(path: Path, record: int) -> int:
    """File line on which CSV record ``record`` (0 is the header) ends."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, record + 1):
            pass
        return reader.line_num


def _parse_table(
    path: Path, ci: int, cls: ClassDef, records: list, row_counts: dict[int, int]
) -> ClassTable:
    """One class's CSV records as int32 columns, rows ordered by primary key.

    ``row_counts`` holds the row count of every class this one references.
    """

    def fail(row: int, message: str):
        raise ValueError(f"{path}, line {_line_of(path, row + 1)}: {message}")

    if not records:
        raise ValueError(f"{path}: empty file, expected a header")
    header, body = records[0], records[1:]
    expected = _column_names(cls)
    if header != expected:
        raise ValueError(f"{path}, line 1: header {header} does not match schema")
    width, n = len(expected), len(body)
    if set(map(len, body)) - {width}:
        row = next(r for r, record in enumerate(body) if len(record) != width)
        fail(row, f"{len(body[row])} fields, expected {width}")

    def field(k: int) -> list[str]:
        return list(map(operator.itemgetter(k), body))

    def ids(texts, what: str) -> np.ndarray:
        low, high = np.iinfo(np.int32).min, np.iinfo(np.int32).max
        try:
            values = np.fromiter(map(int, texts), dtype=np.int64, count=n)
        except (ValueError, OverflowError):
            values = None
        if values is None or (n and (values.min() < low or values.max() > high)):
            for row, text in enumerate(texts):
                try:
                    value = int(text)
                except ValueError:
                    fail(row, f"{what} {text!r} is not an integer")
                if not low <= value <= high:
                    fail(row, f"{what} {value} does not fit in 32 bits")
        return values.astype(np.int32)

    pk = ids(field(0), f"primary key {cls.primary_key}")
    outside = np.flatnonzero((pk < 0) | (pk >= n))
    if len(outside):
        present = np.zeros(n, dtype=bool)
        present[pk[(pk >= 0) & (pk < n)]] = True
        missing = int(np.flatnonzero(~present)[0])
        row = int(outside[0])
        fail(row, f"primary key {pk[row]} is not in 0..{n - 1}; key {missing} is missing")
    # n keys in 0..n-1: a repeated key is the only way to miss one.
    order = np.argsort(pk, kind="stable")
    repeated = np.flatnonzero(pk[order][1:] == pk[order][:-1])
    if len(repeated):
        first, again = order[repeated[0]], int(order[repeated[0] + 1])
        line = _line_of(path, first + 1)
        fail(again, f"duplicate primary key {pk[again]}, first on line {line}")

    n_slots = len(cls.reference_slots)
    fk_values = {}
    for si, slot in enumerate(cls.reference_slots):
        column = ids(field(1 + si), f"foreign key {slot.name}")
        m = row_counts[slot.referenced_class]
        dangling = np.flatnonzero((column < 0) | (column >= m))
        if len(dangling):
            row = int(dangling[0])
            fail(row, f"foreign key {slot.name} {column[row]} is not in 0..{m - 1}")
        fk_values[slot.name] = column
    attr_values = []
    for ai, attr in enumerate(cls.attributes):
        texts = field(1 + n_slots + ai)
        state = {label: i for i, label in enumerate(attr.domain)}
        try:
            column = np.fromiter(map(state.__getitem__, texts), dtype=np.int32, count=n)
        except KeyError:
            row = next(r for r, text in enumerate(texts) if text not in state)
            fail(row, f"unknown label {texts[row]!r} for attribute {attr.name}")
        attr_values.append(column)
    if np.any(pk != np.arange(n)):  # rows were not in key order
        fk_values = {name: column[order] for name, column in fk_values.items()}
        attr_values = [column[order] for column in attr_values]
    return ClassTable(
        class_index=ci, row_count=n, fk_values=fk_values, attr_values=tuple(attr_values)
    )
