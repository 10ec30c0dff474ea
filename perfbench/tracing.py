"""Spans and counters recorded around the public calls into each layer.

The benchmark never edits the package: in a traced pass it replaces the
module-level names through which layers call each other (``bench`` looks up
``ground_program``, ``enumerate_models``, ``compare_solution`` and
``run_pipeline`` in its own globals; ``pipeline`` looks up ``parse_program``;
``ground`` looks up ``validate_safety``) with wrappers that open a span,
call the original, and count the work the result shows.  Spans stay in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter
from pathlib import Path

from puzzle2asp import bench, ground, pipeline, solve, syntax

# Span name -> per-layer metric holding the span's self time in a pass.
# `gateway.load` spans happen in set-up and are reported from there.
SELF_TIME_METRICS = {
    "syntax.parse": "syntax.parse_s",
    "syntax.validate": "syntax.validate_s",
    "ground.ground": "ground.ground_s",
    "solve.enumerate": "solve.solve_s",
    "gateway.complete": "gateway.complete_s",
    "gateway.save": "gateway.save_s",
    "pipeline.run": "pipeline.self_s",
    "bench.compare": "bench.compare_s",
    "bench.case": "bench.case_self_s",
}

COUNT_METRICS = (
    "syntax.rules",
    "ground.facts",
    "ground.choices",
    "ground.candidates",
    "ground.nogoods",
    "ground.nogood_atoms",
    "solve.decisions",
    "solve.propagations",
    "gateway.requests",
    "gateway.hits",
    "gateway.misses",
    "gateway.saves",
    "gateway.bytes_written",
    "pipeline.prompt_bytes",
    "pipeline.stage_attempts",
)

# Unit of every per-layer metric a traced run prints.
UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    **{name: "count" for name in COUNT_METRICS},
    "gateway.bytes_written": "bytes",
    "pipeline.prompt_bytes": "bytes",
    "gateway.hit_ratio": "ratio",
    "pipeline.requests_per_case": "1/case",
    "gateway.load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans ``[name, start, end, parent, case]`` and work counts.

    A disabled tracer records nothing, so the untraced passes run the same
    benchmark code with no wrappers installed.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans[first:last].

        A span's self time is its duration minus the durations of its
        direct children; spans nest, so children never overlap.
        """
        child_time = Counter()
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for index in range(first, last):
            name, start, end, _, _ = self.spans[index]
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def pass_metrics(self, first: int, last: int, counts: Counter, items: int) -> dict[str, float]:
        """Per-layer values of one traced pass whose spans are spans[first:last]."""
        selfs = self.self_times(first, last)
        values = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
        values.update({name: counts[name] for name in COUNT_METRICS})
        requests = counts["gateway.requests"]
        values["gateway.hit_ratio"] = counts["gateway.hits"] / requests if requests else 0.0
        values["pipeline.requests_per_case"] = requests / items
        return values

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "case")
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(fields, record))) + "\n")


def _count_rules(counts: Counter, program) -> None:
    counts["syntax.rules"] += len(program.rules)


def _count_ground(counts: Counter, g) -> None:
    counts["ground.facts"] += len(g.facts)
    counts["ground.choices"] += len(g.choices)
    counts["ground.candidates"] += sum(len(c.candidates) for c in g.choices)
    counts["ground.nogoods"] += len(g.nogoods)
    counts["ground.nogood_atoms"] += sum(len(n.atoms) for n in g.nogoods)


def _count_solve(counts: Counter, result) -> None:
    counts["solve.decisions"] += result.stats.decisions
    counts["solve.propagations"] += result.stats.propagations


def _count_pipeline(counts: Counter, trace) -> None:
    counts["pipeline.stage_attempts"] += sum(r.attempts for r in trace.records)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap traced wrappers into the layer modules; restore them on exit."""
    if not tracer.enabled:
        yield
        return
    targets = [
        (syntax, "parse_program", "syntax.parse", _count_rules),
        (pipeline, "parse_program", "syntax.parse", _count_rules),
        (syntax, "validate_safety", "syntax.validate", None),
        (ground, "validate_safety", "syntax.validate", None),
        (ground, "ground_program", "ground.ground", _count_ground),
        (bench, "ground_program", "ground.ground", _count_ground),
        (solve, "enumerate_models", "solve.enumerate", _count_solve),
        (bench, "enumerate_models", "solve.enumerate", _count_solve),
        (bench, "compare_solution", "bench.compare", None),
        (bench, "run_pipeline", "pipeline.run", _count_pipeline),
        (bench, "evaluate_case", "bench.case", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, name, count), (_, _, original) in zip(targets, saved):
            setattr(module, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class TracedBackend:
    """Times and counts ``complete`` calls; the wrapped backend does the work."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def complete(self, request):
        self.tracer.counts["gateway.requests"] += 1
        self.tracer.counts["pipeline.prompt_bytes"] += len(request.prompt.encode("utf-8"))
        with self.tracer.span("gateway.complete"):
            return self.inner.complete(request)


def trace_cassette(cassette, tracer: Tracer):
    """Count lookups as hits or misses, and time and size every save.

    Instance attributes shadow the class methods, so only this cassette is
    affected; ``untrace_cassette`` removes them again.
    """
    lookup, save = cassette.lookup, cassette.save

    def traced_lookup(fp):
        response = lookup(fp)
        tracer.counts["gateway.hits" if response is not None else "gateway.misses"] += 1
        return response

    def traced_save(path=None):
        with tracer.span("gateway.save"):
            save(path)
        tracer.counts["gateway.saves"] += 1
        tracer.counts["gateway.bytes_written"] += os.path.getsize(path or cassette.path)

    cassette.lookup, cassette.save = traced_lookup, traced_save


def untrace_cassette(cassette) -> None:
    for attr in ("lookup", "save"):
        cassette.__dict__.pop(attr, None)
