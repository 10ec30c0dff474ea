"""Benchmark for puzzle2asp, run from a checkout's root.

    python3 perfbench/run.py --workload grid9 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20     # all four, one process each

Workloads (README.md says why each was chosen):

* ``grid9``  -- 9x9 sudoku and anti-knight sudoku from text to two models;
  grounding dominates.
* ``search`` -- all models of 11-queens and of 4x4 Latin squares; solving
  dominates.
* ``replay`` -- ``bench.evaluate_case`` over 102 generated cases, served
  from a cassette recorded during set-up.
* ``record`` -- the same cases through a recording backend that saves a
  fresh cassette after every miss.

One process, one thread, closed loop, one client.  Passes repeat until the
next one would end past ``--seconds`` of measured time (``replay`` and
``record`` make at least two).  Times other than set-up are reported in
multiples of a reference loop run beside and inside each item (speed.py).  Output checks run between passes, outside the timed region;
any failure counts in ``failed`` and makes the exit code 1.  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed; spans are written to ``.perfbench/traces/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid9", "search", "replay", "record")

# Set-up is repeated and its median reported, so one slow start-up does not
# read as a regression.
SETUP_REPEATS = 5
# No new pass starts past this much wall time, so a run exits within 180 s.
RUN_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "item_p50_ref": "ref",
    "item_p95_ref": "ref",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import puzzle2asp; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter: the start-up cost
    every command-line call pays, and where work moved into import shows."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


@dataclass
class Item:
    """One timed unit of work: a program from text to models, or one case."""

    name: str
    seconds: float = 0.0
    ref_s: float = 0.0  # mean reference-loop time while it ran (speed.py)
    output: object = None
    error: str | None = None

    @property
    def refs(self) -> float:
        return self.seconds / self.ref_s


@dataclass
class Pass:
    traced: bool
    items: list[Item]
    first_span: int
    last_span: int
    counts: Counter

    @property
    def wall(self) -> float:
        return sum(item.seconds for item in self.items)

    @property
    def wall_refs(self) -> float:
        return sum(item.refs for item in self.items)


def run_pass(workload, index: int, tracer) -> Pass:
    """Time each item of one pass and the host's speed while it runs.

    Traced passes leave the timer off, so spans hold only the item's work.
    """
    from speed import SpeedProbe
    from tracing import instrumented

    first, tracer.counts = len(tracer.spans), Counter()
    items = []
    probe = SpeedProbe()
    with instrumented(tracer):
        for name, call in workload.pass_items(index):
            tracer.case = name
            item = Item(name)
            with probe.item(ticking=not tracer.enabled) as timing:
                try:
                    item.output = call()
                except Exception as exc:  # a failed item is counted, not fatal
                    item.error = f"{type(exc).__name__}: {exc}"
            item.seconds, item.ref_s = timing["seconds"], timing["ref_s"]
            items.append(item)
    return Pass(tracer.enabled, items, first, len(tracer.spans), tracer.counts)


def run(workload_name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[dict, list[str]]:
    from tracing import UNITS, Tracer
    from workloads import WORKLOADS

    began = time.monotonic()
    tracer = Tracer(enabled=trace)
    workload = WORKLOADS[workload_name](ROOT, seed, work_dir, tracer)

    setup_times, load_times = [], []
    for _ in range(SETUP_REPEATS):
        first = len(tracer.spans)
        start = time.perf_counter()
        workload.setup()
        in_process = time.perf_counter() - start
        setup_times.append(import_seconds() + in_process)
        load_times.append(tracer.self_times(first, len(tracer.spans)).get("gateway.load", 0.0))

    passes: list[Pass] = []
    min_passes = max(workload.min_passes, 2 if trace else 1)
    while True:
        tracer.enabled = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), tracer))
        workload.check_pass(passes[-1].items)
        measured = sum(p.wall for p in passes)
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= min_passes and (
            measured + typical > seconds or time.monotonic() - began + typical > RUN_LIMIT_S
        ):
            break

    plain = [p for p in passes if not p.traced]
    item_s = [item.seconds for p in plain for item in p.items]
    lines = [
        f"workload {workload_name} seed {seed}: {len(passes)} passes, "
        f"{len(item_s)} untraced item samples in {len(plain)} passes",
        "  set-ups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s",
        "  passes: " + " ".join(f"{p.wall:.3f}{' traced' if p.traced else ''}" for p in passes) + " s",
        "  reference loop: "
        + " ".join(f"{statistics.median(i.ref_s for i in p.items) * 1000.0:.3f}" for p in passes)
        + " ms",
    ]
    if trace:
        traced = [p for p in passes if p.traced]
        per_pass = [tracer.pass_metrics(p.first_span, p.last_span, p.counts, len(p.items)) for p in traced]
        metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        metrics["gateway.load_s"] = statistics.median(load_times)
        metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall for p in plain)
        units = UNITS
        tracer.write(ROOT / ".perfbench" / "traces" / f"{workload_name}-seed{seed}.jsonl")
    else:
        item_ref = [item.refs for p in plain for item in p.items]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": statistics.median(p.wall_refs for p in plain),
            "item_p50_ref": statistics.median(item_ref),
            "item_p95_ref": _p95(item_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        lines += [
            f"  raw: wall {statistics.median(p.wall for p in plain):.6g} s, "
            f"{len(item_s) / sum(item_s):.6g} items/s, item p50 {statistics.median(item_s) * 1000.0:.6g} ms, "
            f"p95 {_p95(item_s) * 1000.0:.6g} ms"
        ]
        # Per program, or per story for cases ("foodie_club-007" varies "foodie_club").
        groups: dict[str, list[float]] = {}
        for item in (item for p in plain for item in p.items):
            groups.setdefault(item.name.rsplit("-", 1)[0], []).append(item.seconds * 1000.0)
        for name, times in sorted(groups.items()):
            lines.append(f"  {name}: median {statistics.median(times):.6g} ms over {len(times)} items")

    lines += [f"  {name:<28} {value:>14.6g} {units[name]}" for name, value in sorted(metrics.items())]
    errors = [f"{item.name}: {item.error}" for p in passes for item in p.items if item.error]
    lines += [f"  FAILED {error}" for error in errors[:20]]
    result = {
        "correct": not errors,
        "attempted": sum(len(p.items) for p in passes),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    package = SRC / "puzzle2asp" / "__init__.py"
    data = ROOT / "tests" / "data"
    if not package.is_file() or not data.is_dir():
        print(f"perfbench: {package} or {data} is missing; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import puzzle2asp

    if Path(puzzle2asp.__file__).resolve() != package:
        print(f"perfbench: imported {puzzle2asp.__file__}, not {package}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
