"""prmbench benchmark: run one workload of CLI cases and print its metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload fanout --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

A workload is a fixed list of CLI configurations (``WORKLOADS``). Each case
runs ``prmbench.cli.run_cli`` with ``--format sql,csv`` in a fresh child
interpreter that imports prmbench from this checkout's ``src``, one child
at a time, under a timeout and an address-space limit. ``--seed`` orders
the cases and so decides which cases run again; the CLI seeds themselves
stay fixed, because at a fixed size run time varies about 80x from CLI
seed to CLI seed and a drawn CLI seed would swamp every other effect.

``--trace 0`` runs every case once, then runs them again in the same order
until ``--seconds`` have passed (at least one case runs twice), and prints
the end-to-end metrics. Per case it takes the median over its runs.

``--trace 1`` runs every case three times: untraced, traced (spans and
counters) and traced with ``tracemalloc`` peaks, and prints the per-layer
metrics. Counters must repeat exactly between the two traced runs.

In both modes every run of a case must write byte-identical files. The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit. The run record, spans included, is written to
``.bench_work/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    classes: int
    objects: int
    cli_seeds: tuple[int, ...]

    def argv(self, cli_seed: int, out: Path) -> list[str]:
        return [
            "--classes", str(self.classes), "--kmax", "3",
            "--objects", str(self.objects), "--seed", str(cli_seed),
            "--out", str(out), "--format", "sql,csv",
        ]


# Why each workload was chosen is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "fanout": Workload(4, 2500, tuple(range(12))),
    "bulk": Workload(4, 100_000, (2, 3, 10)),
    "wide": Workload(9, 500, (0, 1, 2)),
}

SPAN_METRICS = tuple(
    dict.fromkeys(name for _, _, name in spans.SPANS if name not in spans.ROOT_SPANS)
)
COUNT_METRICS = (
    "dag.draws", "deps.enumerate_calls", "deps.chain_candidates",
    "deps.multi_valued_chains", "deps.cpd_rows", "skeleton.objects",
    "skeleton.links", "skeleton.passes", "skeleton.target_lookups",
    "skeleton.referrer_lookups", "gbn.resolve_calls", "gbn.nodes",
    "gbn.parent_edges", "metrics.empty_aggregates", "export.bytes_written",
)

MIN_SETUP_SAMPLES = 9
CASE_TIMEOUT_S = 90
# A run must end within 180 s, so no case runs past this point.
RUN_DEADLINE_S = 160
ADDRESS_LIMIT = 2 << 30


class Runner:
    """Starts case children one at a time and keeps every result."""

    def __init__(self, workload: str, tag: str):
        self.workload = workload
        self.dir = WORK / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.started = time.monotonic()
        self.runs: list[dict] = []
        self.setup_s: list[float] = []
        self.versions: dict = {}
        # Cases whose outputs passed the checks; later runs of a case are
        # checked by comparing their sha256 with this run's.
        self.checked: set[str] = set()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, mode: str, cli_seed: int | None = None) -> None:
        n = len(self.runs)
        case = f"{self.workload}-s{cli_seed}" if cli_seed is not None else "probe"
        out = self.dir / f"{n}-out"
        result_path = self.dir / f"{n}-result.json"
        spec = {
            "src": str(SRC), "mode": mode, "case": case,
            "out": str(out), "result": str(result_path),
            "check": case not in self.checked,
        }
        if cli_seed is not None:
            spec["argv"] = WORKLOADS[self.workload].argv(cli_seed, out)
        record = {"case": case, "mode": mode, "cli_seed": cli_seed}
        timeout = min(CASE_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed())
        if timeout <= 0:
            record["error"] = "run deadline reached before the case started"
        else:
            record.update(self._spawn(spec, timeout, result_path))
            if "error" not in record:
                self.checked.add(case)
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(record)

    def _spawn(self, spec: dict, timeout: float, result_path: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        stderr_path = result_path.with_suffix(".stderr")
        with open(stderr_path, "wb") as stderr:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "case.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
                preexec_fn=_limit_address_space,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code is None:
            return {"error": f"timeout after {timeout:.0f} s"}
        if not result_path.is_file():
            tail = stderr_path.read_text(errors="replace")[-400:]
            return {"error": f"exit code {code} without a result: {tail}"}
        result = json.loads(result_path.read_text())
        self.setup_s.append(result.pop("imported_at") - started)
        self.versions = result.pop("versions")
        if code != 0 and "error" not in result:
            result["error"] = f"exit code {code}"
        return result


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def _by_case(runs: list[dict], mode: str) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r["mode"] == mode and "error" not in r:
            out.setdefault(r["case"], []).append(r)
    return out


def end_to_end(runner: Runner) -> dict[str, float]:
    cases = _by_case(runner.runs, "plain")
    generate = {c: statistics.median(r["generate_s"] for r in rs) for c, rs in cases.items()}
    validate = {c: statistics.median(r["validate_s"] for r in rs) for c, rs in cases.items()}
    rows = sum(rs[0]["rows"] for rs in cases.values())
    generate_s = sum(generate.values())
    return {
        "generate_s": generate_s,
        "slowest_case_s": max(generate.values()),
        "rows_per_s": rows / generate_s,
        "validate_s": sum(validate.values()),
        "peak_rss_mb": max(r["rss_mb"] for rs in cases.values() for r in rs),
        "setup_s": statistics.median(runner.setup_s),
    }


def per_layer(runner: Runner) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced runs, plus any trace gate failures."""
    problems = []
    plain = _by_case(runner.runs, "plain")
    traced = _by_case(runner.runs, "trace")
    memory = _by_case(runner.runs, "memory")
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    resolve_s = traced_generate = untraced_generate = 0.0
    for case, (run,) in traced.items():
        t = run["trace"]
        for name, value in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
        counters["export.bytes_written"] = counters.get("export.bytes_written", 0) + run["bytes"]
        resolve_s += t["resolve_s"]
        traced_generate += run["generate_s"]
        untraced_generate += plain[case][0]["generate_s"]
        wall = run["generate_s"] + run["validate_s"]
        if abs(sum(t["self_s"].values()) - wall) > 0.01 * wall + 0.005:
            problems.append(f"{case}: self times sum to {sum(t['self_s'].values()):.4f} s, wall {wall:.4f} s")
        (mem,) = memory.get(case, [None])
        if mem is None:
            problems.append(f"{case}: no memory run to repeat the counters")
        elif mem["trace"]["counters"] != t["counters"]:
            diff = {k: (v, mem["trace"]["counters"].get(k)) for k, v in t["counters"].items()
                    if mem["trace"]["counters"].get(k) != v}
            problems.append(f"{case}: counters differ between traced runs: {diff}")
    peaks = {name: 0.0 for name in spans.MEMORY_SPANS.values()}
    for (run,) in memory.values():
        for name, value in run["trace"]["peaks_mb"].items():
            peaks[name] = max(peaks[name], value)

    metrics = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_METRICS}
    metrics["gbn.resolve_s"] = resolve_s
    metrics.update({name: counters.get(name, 0) for name in COUNT_METRICS})
    metrics.update(peaks)
    ground_lookups = counters.get("gbn.ground_lookups", 0)
    metrics["gbn.edge_yield"] = counters.get("gbn.parent_edges", 0) / max(ground_lookups, 1)
    metrics["cli.self_s"] = sum(self_s.get(name, 0.0) for name in spans.ROOT_SPANS)
    metrics["trace.count_s"] = self_s.get(spans.COUNT_SPAN, 0.0)
    metrics["trace.overhead_s"] = traced_generate - untraced_generate
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, f"{workload}-seed{seed}-trace{int(trace)}")
    order = list(WORKLOADS[workload].cli_seeds)
    random.Random(seed).shuffle(order)

    modes = ("plain", "trace", "memory") if trace else ("plain",)
    for mode in modes:
        for cli_seed in order:
            runner.run(mode, cli_seed)
    repeats = 0
    while not trace and (repeats == 0 or runner.elapsed() < min(seconds, RUN_DEADLINE_S)):
        runner.run("plain", order[repeats % len(order)])
        repeats += 1
    while len(runner.setup_s) < MIN_SETUP_SAMPLES and runner.elapsed() < RUN_DEADLINE_S:
        runner.run("probe")

    cases = [r for r in runner.runs if r["mode"] != "probe"]
    failed = [r for r in cases if "error" in r]
    problems = [f"{r['case']} ({r['mode']}): {r['error']}" for r in runner.runs if "error" in r]
    correct = not any(r.get("check_failed") for r in cases)
    for case, rs in _by_case(runner.runs, "plain").items():
        others = [r for r in cases if r["case"] == case and "error" not in r]
        if any(r["sha256"] != rs[0]["sha256"] for r in others):
            correct = False
            problems.append(f"{case}: output files differ between runs of one case")
    complete = all(len(_by_case(runner.runs, mode)) == len(order) for mode in modes)
    if not complete:
        problems.append("some case never completed in some mode; no metrics")
        correct = False
        metrics = {}
    elif trace:
        metrics, trace_problems = per_layer(runner)
        problems += trace_problems
        correct = correct and not trace_problems
    else:
        metrics = end_to_end(runner)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "config": asdict(WORKLOADS[workload]), "order": order,
        "versions": runner.versions, "nproc": len(os.sched_getaffinity(0)),
        "elapsed_s": runner.elapsed(), "correct": correct,
        "attempted": len(cases), "failed": len(failed),
        "problems": problems, "metrics": metrics,
        "setup_s": runner.setup_s, "runs": runner.runs,
    }
    shutil.rmtree(runner.dir, ignore_errors=True)
    (WORK / f"{runner.dir.name}.json").write_text(json.dumps(record), encoding="utf-8")
    return record


def report(record: dict, units: dict[str, str]) -> None:
    w = WORKLOADS[record["workload"]]
    print(f"workload {record['workload']}: --classes {w.classes} --kmax 3 "
          f"--objects {w.objects}, CLI seeds {list(record['order'])}")
    v = record["versions"]
    print(f"python {v.get('python')}, numpy {v.get('numpy')}, scipy {v.get('scipy')}, "
          f"nproc {record['nproc']}, {record['elapsed_s']:.1f} s")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    share = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_share':<28} {share:>14.4f} ratio")
    for name, value in record["metrics"].items():
        print(f"  {name:<28} {value:>14.4f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "prmbench" / "__init__.py").is_file():
        print(f"error: no prmbench sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record, units)
        metrics = {
            k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()
        }
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
