"""Spans and counters recorded around prmbench's public functions.

The benchmark never edits the program. Instead, in a traced case it
replaces each public function with a wrapper at the place the caller looks
it up: ``prmbench.cli`` imports ``ground`` by name, so the wrapper goes into
``prmbench.cli.ground``, while ``prmbench.gbn.ground`` itself is untouched.

Two kinds of wrapper exist:

* a *span* for a stage called a handful of times per case. It records name,
  start, end, parent span and case id, all kept in memory until the case
  ends. A span's self time is its duration minus the time its child spans
  cover, so the self times of all spans add up to the duration of the root
  spans;
* a *per-object call* for functions called once per object or per link
  (``resolve_slot_chain``, ``RelationalSkeleton.target_of`` and
  ``referrers``). Recording a span per call would cost more memory than the
  case itself, so these only count calls, and ``resolve_slot_chain`` also
  sums its time. That time stays inside the self time of the span that
  called it (ground, report or counts).

With ``memory=True`` the four stages whose allocations grow with the input
also run under ``tracemalloc``, started at entry and stopped at exit, so the
peak is what the stage itself allocated. The benchmark runs this in its own
pass because ``tracemalloc`` slows allocation-heavy code about twofold.
"""

from __future__ import annotations

import time
import tracemalloc

# (module, attribute, span name). The module is the one whose namespace the
# caller reads the function from.
SPANS = (
    ("cli", "run_cli", "cli.run"),
    ("cli", "generate_schema", "schema.generate"),
    ("dag", "generate_random_dag", "dag.draw"),
    ("deps", "generate_random_dag", "dag.draw"),
    ("cli", "generate_dependency_structure", "deps.structure"),
    ("cli", "assign_slot_chains", "deps.chains"),
    ("deps", "enumerate_slot_chains", "deps.enumerate"),
    ("cli", "generate_cpds", "deps.cpds"),
    ("cli", "generate_skeleton", "skeleton.generate"),
    ("cli", "ground", "gbn.ground"),
    ("cli", "forward_sample", "gbn.sample"),
    ("cli", "serialize_prm", "export.serialize"),
    ("cli", "emit_sql", "export.sql"),
    ("cli", "emit_csv", "export.csv"),
    ("cli", "marginal_report", "metrics.report"),
    ("cli", "render_report", "metrics.render"),
    ("metrics", "skeleton_from_dataset", "gbn.rebuild"),
    ("gbn", "skeleton_from_dataset", "gbn.rebuild"),
    ("export", "parse_prm", "export.parse"),
    ("export", "read_csv_dataset", "export.read_csv"),
    ("metrics", "count_contingencies", "metrics.counts"),
    ("metrics", "rbd_score", "metrics.score"),
)

# Span name -> per-layer metric holding its tracemalloc peak.
MEMORY_SPANS = {
    "deps.chains": "deps.chains_peak_mb",
    "skeleton.generate": "skeleton.peak_mb",
    "gbn.ground": "gbn.ground_peak_mb",
    "export.sql": "export.sql_peak_mb",
}

# Spans whose self time is reported as cli.self_s: run_cli's own work
# (argument parsing, directory and file writes) and the benchmark's
# validation root (reading model.xml back).
ROOT_SPANS = ("cli.run", "bench.validate")

# Span holding the tracer's own work of reading counts off return values.
COUNT_SPAN = "trace.count"


def _parent_edges(gbn) -> int:
    edges = 0
    for node in gbn.nodes:
        for entry in node.parents:
            edges += 1 if isinstance(entry, int) else len(entry.contributing)
    return edges


def _count(tracer, name, result, lookups) -> None:
    """Counters read off a stage's return value."""
    add = tracer.add
    if name == "dag.draw":
        add("dag.draws", 1)
    elif name == "deps.enumerate":
        add("deps.enumerate_calls", 1)
        add("deps.chain_candidates", len(result))
    elif name == "deps.chains":
        add(
            "deps.multi_valued_chains",
            sum(d.slot_chain.is_multi_valued for d in result.dependencies),
        )
    elif name == "deps.cpds":
        add("deps.cpd_rows", sum(len(c.table) for c in result.cpds))
    elif name == "skeleton.generate":
        add("skeleton.objects", result.total_objects)
        add("skeleton.links", len(result.links))
        add("skeleton.passes", len(result.iteration_counts))
    elif name == "gbn.ground":
        add("gbn.nodes", len(result.nodes))
        add("gbn.parent_edges", _parent_edges(result))
        add("gbn.ground_lookups", lookups)
    elif name == "metrics.report":
        add("metrics.empty_aggregates", result["empty_aggregate_events"])


class Tracer:
    """Spans, counters and memory peaks of one case, kept in memory."""

    def __init__(self, case: str, memory: bool = False):
        self.case = case
        self.memory = memory
        self.spans: list[dict | None] = []
        self.counters: dict[str, int] = {}
        self.peaks_mb: dict[str, float] = {}
        self._open: list[int] = []
        # [target_of calls, referrers calls, resolve calls, resolve seconds]
        self.calls = [0, 0, 0, 0.0]

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def lookups(self) -> int:
        return self.calls[0] + self.calls[1]

    def _begin(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        return sid

    def _end(self, sid: int, name: str, start: float, end: float) -> None:
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[sid] = {
            "id": sid,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "case": self.case,
        }

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        peak_metric = MEMORY_SPANS.get(name) if self.memory else None

        def wrapper(*args, **kwargs):
            sid = self._begin()
            lookups = self.lookups
            if peak_metric:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak_metric:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[peak_metric] = max(
                        peak, self.peaks_mb.get(peak_metric, 0.0)
                    )
                self._end(sid, name, start, end)
            lookups = self.lookups - lookups
            cid = self._begin()
            start = time.perf_counter()
            _count(self, name, result, lookups)
            self._end(cid, COUNT_SPAN, start, time.perf_counter())
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            own = s["end"] - s["start"] - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def record(self) -> dict:
        """Everything the case traced, as plain JSON-ready values."""
        counters = dict(self.counters)
        counters["skeleton.target_lookups"] = self.calls[0]
        counters["skeleton.referrer_lookups"] = self.calls[1]
        counters["gbn.resolve_calls"] = self.calls[2]
        return {
            "spans": self.spans,
            "self_s": self.self_times(),
            "resolve_s": self.calls[3],
            "counters": counters,
            "peaks_mb": self.peaks_mb,
        }


def install(tracer: Tracer, prmbench) -> None:
    """Wrap prmbench's public functions in place, for this process only."""
    modules = {
        name: getattr(prmbench, name)
        for name in ("cli", "dag", "deps", "export", "gbn", "metrics", "skeleton")
    }
    for module, attr, name in SPANS:
        setattr(modules[module], attr, tracer.span(name, getattr(modules[module], attr)))

    calls = tracer.calls
    clock = time.perf_counter

    def resolve_wrapper(resolve):
        def resolve_slot_chain(sk, start, chain):
            t = clock()
            result = resolve(sk, start, chain)
            calls[3] += clock() - t
            calls[2] += 1
            return result

        return resolve_slot_chain

    for module in ("gbn", "metrics"):
        mod = modules[module]
        mod.resolve_slot_chain = resolve_wrapper(mod.resolve_slot_chain)

    skeleton_cls = modules["skeleton"].RelationalSkeleton
    target_of = skeleton_cls.target_of
    referrers = skeleton_cls.referrers

    def counted_target_of(self, obj, slot):
        calls[0] += 1
        return target_of(self, obj, slot)

    def counted_referrers(self, slot, target_id):
        calls[1] += 1
        return referrers(self, slot, target_id)

    skeleton_cls.target_of = counted_target_of
    skeleton_cls.referrers = counted_referrers
