"""The four workloads: seeded inputs, the items of a pass, and output checks.

Each workload drives a different layer (see README.md for the measured
shares).  Inputs come only from the seed and the files under
``tests/data``; every check compares against a reference that does not
come from the code under test: known model counts, the benchmark's own
puzzle checkers and the dataset's gold rows.
"""
from __future__ import annotations

import json
import random
import string
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from puzzle2asp import bench, ground, solve, syntax
from puzzle2asp.gateway import (
    Cassette,
    CompletionRequest,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
)
from puzzle2asp.pipeline import PipelineOptions, run_pipeline

from tracing import TracedBackend, Tracer, trace_cassette, untrace_cassette

# A program that runs this long has regressed by about 3x on the slowest
# seed program; it fails instead of turning into a shorter pass.
PROGRAM_BUDGET_S = 40.0


# ---------------------------------------------------------------------------
# Program workloads: text -> parse -> validate -> ground -> solve
# ---------------------------------------------------------------------------


def text_to_models(text: str, limit: int | None):
    """Every layer below the pipeline, called through its module so a traced
    pass sees the wrappers."""
    deadline = time.monotonic() + PROGRAM_BUDGET_S
    program = syntax.parse_program(text)
    diagnostics = syntax.validate_safety(program)
    if diagnostics:
        raise ValueError(f"unsafe program: {diagnostics[0]}")
    g = ground.ground_program(program, deadline=deadline)
    return g, solve.enumerate_models(g, limit=limit, deadline=deadline)


def queens_program(n: int) -> str:
    values = "; ".join(str(i) for i in range(1, n + 1))
    return (
        f"index_of_row({values}).\n"
        f"index_of_column({values}).\n"
        "{assign(Ir, Ic): index_of_column(Ic)}=1 :- index_of_row(Ir).\n"
        "{Ic1=Ic2}=0 :- assign(Ir1,Ic1), assign(Ir2,Ic2), Ir1!=Ir2.\n"
        "{|Ir1-Ir2|=|Ic1-Ic2|}=0 :- assign(Ir1,Ic1), assign(Ir2,Ic2), Ir1!=Ir2.\n"
    )


def latin_program(n: int) -> str:
    """Each assign atom sits in three overlapping exactly-one choices."""
    values = "; ".join(str(i) for i in range(1, n + 1))
    return (
        f"index_of_row({values}).\n"
        f"index_of_column({values}).\n"
        f"number({values}).\n"
        "{assign(Ir, Ic, N): number(N)}=1 :- index_of_row(Ir), index_of_column(Ic).\n"
        "{assign(Ir, Ic, N): index_of_column(Ic)}=1 :- index_of_row(Ir), number(N).\n"
        "{assign(Ir, Ic, N): index_of_row(Ir)}=1 :- index_of_column(Ic), number(N).\n"
    )


def _assigned(atoms) -> list[tuple]:
    return [a.args for a in atoms if a.predicate == "assign"]


def _is_permutation(values, expected) -> bool:
    return sorted(values) == sorted(expected)


def sudoku_violation(atoms, knight: bool) -> str | None:
    """Rows, columns and 3x3 boxes hold 1..9 once; with `knight`, cells a
    knight's move apart differ.  Works for 0- and 1-based boards."""
    cells = {(r, c): n for r, c, n in _assigned(atoms)}
    if len(cells) != 81 or len(_assigned(atoms)) != 81:
        return f"{len(_assigned(atoms))} assignments over {len(cells)} cells, expected 81"
    base = min(r for r, _ in cells)
    grid = {(r - base, c - base): n for (r, c), n in cells.items()}
    if set(grid) != {(r, c) for r in range(9) for c in range(9)}:
        return "cells do not form a 9x9 board"
    digits = range(1, 10)
    units = [[(r, c) for c in range(9)] for r in range(9)]
    units += [[(r, c) for r in range(9)] for c in range(9)]
    units += [
        [(br + r, bc + c) for r in range(3) for c in range(3)]
        for br in (0, 3, 6)
        for bc in (0, 3, 6)
    ]
    for unit in units:
        if not _is_permutation([grid[cell] for cell in unit], digits):
            return f"unit {unit[0]}..{unit[-1]} repeats a digit"
    if knight:
        moves = [(1, 2), (2, 1), (2, -1), (1, -2)]
        for (r, c), n in grid.items():
            for dr, dc in moves:
                if grid.get((r + dr, c + dc)) == n:
                    return f"knight's move from {(r, c)} repeats {n}"
    return None


def queens_violation(atoms, n: int) -> str | None:
    placed = _assigned(atoms)
    if len(placed) != n:
        return f"{len(placed)} queens, expected {n}"
    if not _is_permutation([r for r, _ in placed], range(1, n + 1)):
        return "rows are not a permutation"
    if not _is_permutation([c for _, c in placed], range(1, n + 1)):
        return "columns are not a permutation"
    for i, (r1, c1) in enumerate(placed):
        for r2, c2 in placed[i + 1 :]:
            if abs(r1 - r2) == abs(c1 - c2):
                return f"queens {(r1, c1)} and {(r2, c2)} share a diagonal"
    return None


def latin_violation(atoms, n: int) -> str | None:
    cells = {(r, c): v for r, c, v in _assigned(atoms)}
    if len(cells) != n * n or len(_assigned(atoms)) != n * n:
        return f"{len(_assigned(atoms))} assignments over {len(cells)} cells, expected {n * n}"
    span = range(1, n + 1)
    for i in span:
        if not _is_permutation([cells.get((i, j)) for j in span], span):
            return f"row {i} is not a permutation"
        if not _is_permutation([cells.get((j, i)) for j in span], span):
            return f"column {i} is not a permutation"
    return None


class ProgramWorkload:
    """Base for workloads whose items are whole programs."""

    min_passes = 1
    limit: int | None = None

    def __init__(self, root: Path, seed: int, work_dir: Path, tracer: Tracer):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self._verified: dict[str, frozenset] = {}

    def programs(self) -> list[tuple[str, str, int, object]]:
        """(name, text, expected model count, model checker) per program."""
        raise NotImplementedError

    def setup(self) -> None:
        self.items = self.programs()
        random.Random(self.seed).shuffle(self.items)

    def pass_items(self, index: int):
        """Yield (name, call) per item; the caller times each call."""
        for name, text, _, _ in self.items:
            yield name, lambda text=text: text_to_models(text, self.limit)

    def check_pass(self, items) -> None:
        expected = {name: (count, violation) for name, _, count, violation in self.items}
        for item in items:
            if item.error is not None:
                continue
            g, result = item.output
            item.output = None
            count, violation = expected[item.name]
            models = frozenset(m.atoms for m in result.models)
            if len(result.models) != count or len(models) != count:
                item.error = f"{len(result.models)} models ({len(models)} distinct), expected {count}"
            elif self._verified.get(item.name) != models:
                item.error = _first_error(g, models, violation)
                if item.error is None:
                    self._verified[item.name] = models


def _first_error(g, models, violation) -> str | None:
    for atoms in models:
        verdict = solve.check_model(g, atoms)
        if not verdict:
            return f"check_model: {verdict.violation}"
        problem = violation(atoms)
        if problem:
            return problem
    return None


class Grid9(ProgramWorkload):
    limit = 2

    def programs(self):
        data = self.root / "tests" / "data"
        return [
            ("sudoku9", (data / "sudoku9.lp").read_text(), 2, lambda a: sudoku_violation(a, False)),
            ("anti_knight", (data / "anti_knight.lp").read_text(), 2, lambda a: sudoku_violation(a, True)),
        ]


class Search(ProgramWorkload):
    # Model counts are OEIS A000170 (n-queens) and A002860 (Latin squares).
    def programs(self):
        return [
            ("queens11", queens_program(11), 2680, lambda a: queens_violation(a, 11)),
            ("latin4", latin_program(4), 576, lambda a: latin_violation(a, 4)),
        ]


# ---------------------------------------------------------------------------
# Bench workloads: story -> six prompt stages -> program -> models -> score
# ---------------------------------------------------------------------------

# 3 stories x 34 = 102 cases per pass; two passes give 204 samples, so
# p95 has at least 10 beyond it.
CASES_PER_STORY = 34


def _marker(rng: random.Random, used: set[str]) -> str:
    while True:
        token = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        if token not in used:
            used.add(token)
            return token


def generate_dataset(data_dir: Path, seed: int) -> list[dict]:
    """Variants of the mini stories; a distinct marker in each intro makes
    every story-bearing prompt a new request.  The seed picks markers and order."""
    rng = random.Random(seed)
    used: set[str] = set()
    base = [json.loads(line) for line in (data_dir / "mini.jsonl").read_text().splitlines() if line.strip()]
    cases = []
    for obj in base:
        intro, _, rest = obj["story"].partition("\n")
        for i in range(CASES_PER_STORY):
            marked = f"{intro} (Edition {_marker(rng, used)}.)\n{rest}"
            cases.append({**obj, "id": f"{obj['id']}-{i:03d}", "story": marked})
    rng.shuffle(cases)
    return cases


def record_source_cassette(cases, scripts: dict, path: Path) -> None:
    """Record each case through its own scripted backend, then merge.

    One shared cassette would not do: a hit skips the scripted queue, so the
    stages after it would get the responses meant for earlier stages.
    """
    merged = Cassette(path)
    for case in cases:
        own = Cassette()
        recorder = RecordingBackend(ScriptedBackend(list(scripts[case.id.rsplit("-", 1)[0]])), own)
        options = replace(PipelineOptions(), use_given_constants=case.given_constants is not None)
        run_pipeline(case.story, case.given_constants, options, recorder)
        for entry in own.entries:
            request = dict(entry.request, stop=tuple(entry.request["stop"]) if entry.request["stop"] else None)
            merged.record(CompletionRequest(**request), entry.response_text)
    merged.save()


def _rows_violation(model_atoms, facts, gold) -> str | None:
    """The chosen atoms, read as unordered value sets, must be the gold rows."""
    rows = Counter(frozenset(a.args) for a in model_atoms - facts)
    expected = Counter(frozenset(value for _, value in row) for row in gold.rows)
    return None if rows == expected else "model rows differ from the gold rows"


class BenchWorkload:
    """Base for `replay` and `record`: every case through `bench.evaluate_case`.

    Two passes at least, so each pass's report can be compared byte for byte
    with the first's and p95 has enough samples.
    """

    min_passes = 2

    def __init__(self, root: Path, seed: int, work_dir: Path, tracer: Tracer):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self._gold_checked: dict[str, str | None] = {}
        self._first_blob: bytes | None = None

    def setup(self) -> None:
        data = self.root / "tests" / "data"
        dataset = self.work_dir / "dataset.jsonl"
        dataset.write_text("".join(json.dumps(c) + "\n" for c in generate_dataset(data, self.seed)))
        self.cases = bench.load_dataset(dataset)
        scripts = json.loads((data / "mini_script.json").read_text())
        source = self.work_dir / "source.json"
        record_source_cassette(self.cases, scripts, source)
        with self.tracer.span("gateway.load"):
            self.source = Cassette.load(source)

    def backend(self, index: int):
        raise NotImplementedError

    def pass_items(self, index: int):
        backend, cassette = self.backend(index)
        if self.tracer.enabled:
            trace_cassette(cassette, self.tracer)
            backend = TracedBackend(backend, self.tracer)
        try:
            for case in self.cases:
                yield case.id, lambda case=case: bench.evaluate_case(case, backend)
        finally:
            untrace_cassette(cassette)

    def check_pass(self, items) -> None:
        gold = {case.id: case.gold for case in self.cases}
        results = []
        for item in items:
            if item.error is not None:
                continue
            result = item.output
            results.append(result)
            if result.outcome.kind != bench.OutcomeKind.CORRECT:
                item.error = f"outcome {result.outcome.label()}: {result.detail}"
                continue
            item.error = self._gold_violation(result, gold[item.name])
        if len(results) == len(items):
            blob = json.dumps(
                {"report": bench.report(results).to_json(), "traces": [r.trace.to_json() for r in results]},
                sort_keys=True,
            ).encode()
            if self._first_blob is None:
                self._first_blob = blob
            elif blob != self._first_blob:
                _fail_all(items, "report or traces differ from the first pass")
        for item in items:
            item.output = None

    def _gold_violation(self, result, gold) -> str | None:
        """Solve the case's program again outside the timed region and read
        its model against the gold rows; variants of one story share a program."""
        text = syntax.render_program(result.trace.assembled_program)
        key = text + "\0" + json.dumps(gold.rows)
        if key not in self._gold_checked:
            g = ground.ground_program(syntax.parse_program(text))
            models = solve.enumerate_models(g, limit=2, budget=PROGRAM_BUDGET_S).models
            if len(models) != 1:
                self._gold_checked[key] = f"{len(models)} models, expected 1"
            elif not solve.check_model(g, models[0].atoms):
                self._gold_checked[key] = "check_model failed"
            else:
                self._gold_checked[key] = _rows_violation(models[0].atoms, g.facts, gold)
        return self._gold_checked[key]


def _fail_all(items, message: str) -> None:
    for item in items:
        item.error = item.error or message


class Replay(BenchWorkload):
    def backend(self, index: int):
        return ReplayBackend(self.source), self.source


class Record(BenchWorkload):
    """A fresh cassette per pass, so every new request is a miss that is
    recorded and saved.  One worker: concurrent saves share one temp path."""

    def backend(self, index: int):
        self._recording = self.work_dir / f"record-{index}.json"
        self._recording.unlink(missing_ok=True)
        cassette = Cassette(self._recording)
        return RecordingBackend(ReplayBackend(self.source), cassette), cassette

    def check_pass(self, items) -> None:
        super().check_pass(items)
        if not self._recording.exists():
            _fail_all(items, "no cassette was recorded")
            return
        reloaded = Cassette.load(self._recording)
        expected = {e.fingerprint: e.response_text for e in self.source.entries}
        got = {e.fingerprint: e.response_text for e in reloaded.entries}
        if len(reloaded.entries) != len(expected) or got != expected:
            _fail_all(items, f"recorded cassette reloads with {len(reloaded.entries)} entries, expected {len(expected)}")
        self._recording.unlink()


WORKLOADS = {"grid9": Grid9, "search": Search, "replay": Replay, "record": Record}
