import hashlib
import sqlite3
import subprocess
import sys

import prmbench.cli
from prmbench.cli import parse_config, run_cli, run_pipeline
from prmbench.export import parse_prm, read_csv_dataset
from prmbench.gbn import skeleton_from_dataset
from prmbench.metrics import count_contingencies
from prmbench.skeleton import RelationalSkeleton


def _digest(directory):
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_full_run_writes_model_data_and_report(tmp_path):
    code = run_cli(
        [
            "--classes", "3",
            "--kmax", "2",
            "--objects", "80",
            "--seed", "7",
            "--out", str(tmp_path),
            "--format", "sql,csv",
        ]
    )
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "model.xml" in names
    assert "data.sql" in names
    assert "report.txt" in names
    assert any(n.endswith(".csv") for n in names)

    prm = parse_prm((tmp_path / "model.xml").read_text(encoding="utf-8"))
    csv_files = [n for n in names if n.endswith(".csv")]
    assert len(csv_files) == len(prm.schema.classes)

    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA foreign_keys = ON;")
    con.executescript((tmp_path / "data.sql").read_text(encoding="utf-8"))
    assert con.execute("PRAGMA foreign_key_check;").fetchall() == []
    con.close()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(["--classes", "0", "--out", str(tmp_path)]) == 2
    assert run_cli(["--classes", "2", "--format", "parquet"]) == 2
    assert run_cli([]) == 2  # --classes required
    capsys.readouterr()


def test_identical_config_is_byte_identical(tmp_path):
    args = [
        "--classes", "3", "--kmax", "3", "--objects", "60",
        "--seed", "41", "--format", "both",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert _digest(a) == _digest(b)


def test_different_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["--classes", "2", "--objects", "50", "--seed", "1", "--out", str(a)]) == 0
    assert run_cli(["--classes", "2", "--objects", "50", "--seed", "2", "--out", str(b)]) == 0
    assert _digest(a) != _digest(b)


def test_model_out_override_and_report_print(tmp_path, capsys):
    model_path = tmp_path / "nested" / "my_model.xml"
    code = run_cli(
        [
            "--classes", "2",
            "--objects", "40",
            "--seed", "3",
            "--out", str(tmp_path),
            "--model-out", str(model_path),
            "--report",
        ]
    )
    assert code == 0
    assert model_path.exists()
    out = capsys.readouterr().out
    assert "rows.total = " in out


def test_parse_config_defaults():
    cfg = parse_config(["--classes", "4"])
    assert cfg.k_max == 3
    assert cfg.formats == ("sql", "csv")
    assert cfg.objects == 1000


def test_pipeline_object_budget(tmp_path):
    cfg = parse_config(["--classes", "4", "--objects", "500", "--seed", "11"])
    prm, skeleton, dataset = run_pipeline(cfg)
    assert 500 <= dataset.total_rows <= 504
    assert skeleton.total_objects == dataset.total_rows


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "prmbench.cli",
            "--classes", "2", "--objects", "30", "--seed", "0",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "model.xml").exists()

    usage = subprocess.run(
        [sys.executable, "-m", "prmbench.cli", "--classes", "0"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
    assert "usage" in usage.stderr.lower()


def test_out_of_memory_exits_1_with_message(tmp_path, monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr(prmbench.cli, "run_pipeline", exhausted)
    assert run_cli(["--classes", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_link_lookups_stay_within_link_count(tmp_path, monkeypatch):
    # Deterministic complexity gate: resolving slot chains one object at a
    # time made 5.8M link lookups on this case; set-at-a-time resolution
    # reads each link at most once.
    calls = [0]
    target_of = RelationalSkeleton.target_of
    referrers = RelationalSkeleton.referrers

    def counted_target_of(self, obj, slot):
        calls[0] += 1
        return target_of(self, obj, slot)

    def counted_referrers(self, slot, target_id):
        calls[0] += 1
        return referrers(self, slot, target_id)

    monkeypatch.setattr(RelationalSkeleton, "target_of", counted_target_of)
    monkeypatch.setattr(RelationalSkeleton, "referrers", counted_referrers)
    args = ["--classes", "4", "--objects", "2500", "--seed", "7"]
    assert run_cli(args + ["--out", str(tmp_path), "--format", "csv"]) == 0
    prm = parse_prm((tmp_path / "model.xml").read_text(encoding="utf-8"))
    dataset = read_csv_dataset(prm.schema, tmp_path)
    skeleton = skeleton_from_dataset(dataset)
    count_contingencies(dataset, skeleton, prm.structure)
    assert calls[0] <= len(skeleton.links)


def test_pipeline_never_enumerates_slot_chains(tmp_path, monkeypatch):
    # Deterministic complexity gate: the slowest wide case spent over 98%
    # of its time listing every walk; counting chains lists none.
    import prmbench.deps

    calls = [0]
    enumerate_slot_chains = prmbench.deps.enumerate_slot_chains

    def counted(*args, **kwargs):
        calls[0] += 1
        return enumerate_slot_chains(*args, **kwargs)

    monkeypatch.setattr(prmbench.deps, "enumerate_slot_chains", counted)
    args = ["--classes", "9", "--objects", "500", "--seed", "1"]
    assert run_cli(args + ["--out", str(tmp_path), "--format", "csv"]) == 0
    assert calls[0] == 0


def test_pipeline_never_reads_the_links_view(tmp_path, monkeypatch):
    # Deterministic gate: the pipeline reads foreign keys as columns. The
    # (owner, slot) -> target mapping is a view for tracing and tests, and
    # reading it per link is what made the skeleton the largest cost.
    calls = [0]
    links = RelationalSkeleton.links

    def counted(self):
        calls[0] += 1
        return links.fget(self)

    monkeypatch.setattr(RelationalSkeleton, "links", property(counted))
    args = ["--classes", "4", "--objects", "2500", "--seed", "7"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    assert calls[0] == 0
    prm = parse_prm((tmp_path / "model.xml").read_text(encoding="utf-8"))
    dataset = read_csv_dataset(prm.schema, tmp_path)
    count_contingencies(dataset, skeleton_from_dataset(dataset), prm.structure)
    assert calls[0] == 0
    assert len(skeleton_from_dataset(dataset).links) == sum(
        dataset.object_counts[s.owner_class]
        for c in prm.schema.classes
        for s in c.reference_slots
    )
    assert calls[0] == 1  # the patch counts reads


class _BitGeneratorOnly:
    """A random stream that offers its bit generator and nothing else."""

    __slots__ = ("bit_generator",)

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator


def test_skeleton_makes_no_scalar_rng_call(tmp_path, monkeypatch):
    # Deterministic gate: the skeleton replays its draws from raw words, so
    # it needs only the bit generator. A scalar rng.random() or
    # rng.integers() call, about 0.4 and 1.2 us each, raises AttributeError.
    generate_skeleton = prmbench.cli.generate_skeleton
    calls = [0]

    def proxied(schema, cfg, rng):
        calls[0] += 1
        return generate_skeleton(schema, cfg, _BitGeneratorOnly(rng))

    args = ["--classes", "4", "--objects", "2500", "--seed", "7"]
    assert run_cli(args + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setattr(prmbench.cli, "generate_skeleton", proxied)
    assert run_cli(args + ["--out", str(tmp_path / "proxied")]) == 0
    assert calls[0] == 1
    assert _digest(tmp_path / "proxied") == _digest(tmp_path / "plain")


def test_twelve_classes_complete(tmp_path):
    # Enumerating chains at horizon 11 needed more than 1.5 GB here.
    args = ["--classes", "12", "--objects", "200", "--seed", "0"]
    assert run_cli(args + ["--out", str(tmp_path), "--format", "csv"]) == 0
