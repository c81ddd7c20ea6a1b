"""Command-line pipeline: generate a model, instantiate it, emit a dataset.

Runs the three stages in order (model, skeleton plus ground network, data),
writes the model document, the requested data files, and a diagnostics
report into the output directory. Identical configurations and seeds write
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dag import RejectionBudgetError
from .deps import (
    GenerationError,
    assign_slot_chains,
    generate_cpds,
    generate_dependency_structure,
)
from .export import emit_csv, emit_sql, serialize_prm
from .gbn import forward_sample, ground
from .metrics import marginal_report, render_report
from .schema import GenerationPolicy, generate_schema
from .skeleton import CrpConfig, generate_skeleton

__all__ = ["RunConfig", "main", "run_cli"]

_FORMATS = ("sql", "csv")


@dataclass(frozen=True)
class RunConfig:
    classes: int
    k_max: int = 3
    alpha: float = 1.0
    objects: int = 1000
    seed: int = 0
    dirichlet: float = 1.0
    attr_lambda: float = 1.0
    state_lambda: float = 1.0
    out: Path = Path(".")
    formats: tuple[str, ...] = _FORMATS
    model_out: Path | None = None
    print_report: bool = False


def _parse_formats(value: str) -> tuple[str, ...]:
    if value == "both":
        return _FORMATS
    parts = tuple(p.strip() for p in value.split(","))
    if not parts or any(p not in _FORMATS for p in parts):
        raise argparse.ArgumentTypeError(
            f"--format must be sql, csv, both, or a comma list of sql/csv, got {value!r}"
        )
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prmbench",
        description=(
            "Generate a random probabilistic relational model and a sampled "
            "relational dataset."
        ),
    )
    parser.add_argument("--classes", type=int, required=True, help="number of classes")
    parser.add_argument("--kmax", type=int, default=3, help="maximum slot chain length")
    parser.add_argument("--alpha", type=float, default=1.0, help="CRP attachment parameter")
    parser.add_argument("--objects", type=int, default=1000, help="target object total")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--dirichlet", type=float, default=1.0, help="CPD Dirichlet parameter")
    parser.add_argument("--attr-lambda", type=float, default=1.0, help="attribute count rate")
    parser.add_argument("--state-lambda", type=float, default=1.0, help="state count rate")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--format",
        type=_parse_formats,
        default=_FORMATS,
        dest="formats",
        help="data output: sql, csv, both, or comma list",
    )
    parser.add_argument("--model-out", type=Path, default=None, help="model document path")
    parser.add_argument(
        "--report", action="store_true", help="also print the diagnostics report"
    )
    return parser


def parse_config(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.classes < 1:
        parser.error("--classes must be >= 1")
    if ns.kmax < 0:
        parser.error("--kmax must be >= 0")
    if ns.alpha <= 0:
        parser.error("--alpha must be > 0")
    if ns.objects < 1:
        parser.error("--objects must be >= 1")
    if ns.dirichlet <= 0:
        parser.error("--dirichlet must be > 0")
    if ns.attr_lambda <= 0 or ns.state_lambda <= 0:
        parser.error("--attr-lambda and --state-lambda must be > 0")
    return RunConfig(
        classes=ns.classes,
        k_max=ns.kmax,
        alpha=ns.alpha,
        objects=ns.objects,
        seed=ns.seed,
        dirichlet=ns.dirichlet,
        attr_lambda=ns.attr_lambda,
        state_lambda=ns.state_lambda,
        out=ns.out,
        formats=ns.formats,
        model_out=ns.model_out,
        print_report=ns.report,
    )


def run_pipeline(config: RunConfig):
    """The three generation stages; returns (prm, skeleton, dataset)."""
    rng = np.random.default_rng(config.seed)
    policy = GenerationPolicy(
        attr_lambda=config.attr_lambda, state_lambda=config.state_lambda
    )
    schema = generate_schema(config.classes, policy, rng)
    structure = generate_dependency_structure(schema, policy, rng)
    structure = assign_slot_chains(schema, structure, config.k_max, rng)
    prm = generate_cpds(schema, structure, config.dirichlet, rng)
    skeleton = generate_skeleton(
        schema, CrpConfig(alpha=config.alpha, n_total=config.objects), rng
    )
    gbn = ground(prm, skeleton)
    dataset = forward_sample(gbn, rng)
    return prm, skeleton, dataset


def run_cli(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        prm, skeleton, dataset = run_pipeline(config)
        out_dir = config.out
        out_dir.mkdir(parents=True, exist_ok=True)

        model_path = config.model_out or out_dir / "model.xml"
        model_path.parent.mkdir(parents=True, exist_ok=True)
        model_path.write_text(serialize_prm(prm), encoding="utf-8")

        if "sql" in config.formats:
            (out_dir / "data.sql").write_text(
                emit_sql(prm.schema, dataset), encoding="utf-8"
            )
        if "csv" in config.formats:
            emit_csv(prm.schema, dataset, out_dir)

        report_text = render_report(marginal_report(dataset, prm))
        (out_dir / "report.txt").write_text(report_text, encoding="utf-8")
        if config.print_report:
            sys.stdout.write(report_text)
        return 0
    except (RejectionBudgetError, GenerationError) as exc:
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Resolved slot-chain sets can grow quadratically in --objects on
        # some seeds; report that instead of a traceback.
        print(
            "error: out of memory: this configuration does not fit; "
            "lower --objects or try another --seed",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"error: output failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
