"""One benchmark case, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/case.py '<spec json>'``. The spec names the source
directory to import prmbench from, the CLI arguments, the output directory,
the result file and the mode:

* ``probe``: import prmbench and stop, to sample start-up time;
* ``plain``: untraced; times ``run_cli`` and the validation;
* ``trace``: the same with spans and counters (see ``spans.py``);
* ``memory``: the same again with per-stage ``tracemalloc`` peaks.

Start-up time is not measured here: the case writes the monotonic clock
reading taken right after ``import prmbench`` and the parent subtracts the
reading it took before starting this process.

Every mode but ``probe`` then loads the outputs back the way a user would,
scores them, checks them outside the timed region when the spec asks for it
(the parent asks on a case's first run; later runs must hash the same) and
hashes every output file. The result goes to the result file as JSON; the
exit code is 0 when the case ran and its outputs passed every check.
"""

import hashlib
import json
import math
import platform
import resource
import sqlite3
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

VALIDATE_MIN_S = 0.5
VALIDATE_MAX_RUNS = 9


class CheckError(Exception):
    """An output of the case is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def validate(out: Path):
    """Load the outputs back and score them with the generating structure."""
    from prmbench import export, gbn, metrics

    model_text = (out / "model.xml").read_text(encoding="utf-8")
    prm = export.parse_prm(model_text)
    dataset = export.read_csv_dataset(prm.schema, out)
    skeleton = gbn.skeleton_from_dataset(dataset)
    counts = metrics.count_contingencies(dataset, skeleton, prm.structure)
    score = metrics.rbd_score(prm.structure, counts)
    return model_text, prm, dataset, counts, score


def check_outputs(out: Path, model_text, prm, dataset, counts, score) -> None:
    from prmbench import export

    check(
        export.serialize_prm(prm) == model_text,
        "serialize_prm(parse_prm(model.xml)) differs from model.xml",
    )
    check(math.isfinite(score), f"score is not finite: {score}")
    for node, table in counts.families.items():
        tallied = sum(sum(row) for row in table.values())
        rows = dataset.tables[node.class_index].row_count
        check(tallied == rows, f"family {node} tallies {tallied} of {rows} rows")

    report = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value

    con = sqlite3.connect(":memory:")
    try:
        con.execute("PRAGMA foreign_keys=ON")
        con.executescript((out / "data.sql").read_text(encoding="utf-8"))
        violations = con.execute("PRAGMA foreign_key_check").fetchall()
        check(not violations, f"data.sql violates foreign keys: {violations[:3]}")
        sql_total = 0
        for cls, table in zip(prm.schema.classes, dataset.tables):
            (n,) = con.execute(f"SELECT COUNT(*) FROM {cls.name}").fetchone()
            check(
                n == table.row_count,
                f"{cls.name}: {n} SQL rows, {table.row_count} CSV rows",
            )
            sql_total += n
    finally:
        con.close()
    check(
        str(sql_total) == report.get("rows.total"),
        f"{sql_total} SQL rows, report says rows.total = {report.get('rows.total')}",
    )


def run_case(spec: dict, prmbench) -> dict:
    mode = spec["mode"]
    out = Path(spec["out"])
    tracer = None
    validate_fn = validate
    if mode in ("trace", "memory"):
        tracer = spans.Tracer(spec["case"], memory=mode == "memory")
        spans.install(tracer, prmbench)
        validate_fn = tracer.span("bench.validate", validate)

    start = time.perf_counter()
    code = prmbench.cli.run_cli(spec["argv"])
    generate_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if code != 0:
        raise RuntimeError(f"run_cli returned {code}")

    # Validating a small case takes milliseconds, so untraced cases repeat
    # it and keep the median. A traced case validates once, so that its
    # spans add up to generate_s plus validate_s.
    times = []
    while True:
        start = time.perf_counter()
        loaded = validate_fn(out)
        times.append(time.perf_counter() - start)
        if tracer is not None or sum(times) >= VALIDATE_MIN_S or len(times) == VALIDATE_MAX_RUNS:
            break
    validate_s = statistics.median(times)

    if spec["check"]:
        check_outputs(out, *loaded)
    rows = sum(table.row_count for table in loaded[2].tables)
    sha = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    result = {
        "generate_s": generate_s,
        "validate_s": validate_s,
        "rss_mb": rss_kb / 1024,
        "rows": rows,
        "bytes": sum(p.stat().st_size for p in out.iterdir()),
        "sha256": sha,
    }
    if tracer is not None:
        result["trace"] = tracer.record()
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import prmbench
    import prmbench.cli

    imported_at = time.monotonic()
    import numpy
    import scipy

    result = {
        "imported_at": imported_at,
        "prmbench": prmbench.__file__,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    code = 0
    if not Path(prmbench.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        result["error"] = f"prmbench imported from {prmbench.__file__}, not {spec['src']}"
        code = 2
    elif spec["mode"] != "probe":
        try:
            result.update(run_case(spec, prmbench))
        except CheckError as exc:
            result["error"] = f"output check failed: {exc}"
            result["check_failed"] = True
            code = 1
        except Exception:  # recorded as a failed case by the parent
            result["error"] = traceback.format_exc(limit=5)
            code = 1
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
