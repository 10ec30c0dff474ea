"""Benchmark harness: dataset loading, per-case evaluation, and reporting.

A dataset is JSON lines, one puzzle per line:

    {"id": "p001", "split": "train", "story": "...",
     "constants": {"employee": ["Bonita", "Yvette", "Tabitha"], ...},
     "solution": [{"employee": "Bonita", "price": 325, "wood_type": "poplar"}, ...]}

`constants` is optional; when present the pipeline skips constant extraction
and feeds these values to the formatting stage.  Each case runs the full
story-to-program pipeline, then grounds and solves the assembled program
under a shared deadline, and the result is classified into one coarse
outcome per case.  Reports carry no wall-clock data, so a replayed run is
byte-identical.
"""
from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .gateway import Backend
from .ground import GroundingError, GroundTimeout, GroundValue, ground_program
from .pipeline import (
    CategorizedConstants,
    MappingError,
    PipelineOptions,
    PipelineOutcome,
    PipelineTrace,
    PredicateSignature,
    Stage,
    normalize_category,
    run_pipeline,
)
from .solve import SolveResult, SolveStats, SolveTimeout, StableModel, enumerate_models


class SchemaError(Exception):
    def __init__(self, line: int, field: str, message: str):
        super().__init__(f"line {line}, field {field!r}: {message}")
        self.line = line
        self.field = field


class EmptyInputError(Exception):
    pass


# ---------------------------------------------------------------------------
# Dataset types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoldSolution:
    """The expected assignment, one row per entity: category -> value."""

    rows: tuple[tuple[tuple[str, GroundValue], ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[dict[str, GroundValue]]) -> "GoldSolution":
        return cls(tuple(tuple(sorted(row.items())) for row in rows))

    def as_dicts(self) -> list[dict[str, GroundValue]]:
        return [dict(row) for row in self.rows]

    def categories(self) -> set[str]:
        return {cat for row in self.rows for cat, _ in row}


@dataclass(frozen=True)
class PuzzleCase:
    id: str
    split: str
    story: str
    given_constants: tuple[tuple[str, tuple[str, ...]], ...] | None
    gold: GoldSolution


def load_dataset(path: str | Path) -> list[PuzzleCase]:
    """Read a JSONL dataset, enforcing the grid-puzzle gold invariants."""
    cases: list[PuzzleCase] = []
    seen_ids: set[str] = set()
    for lineno, raw_line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not raw_line.strip():
            continue
        try:
            obj = json.loads(raw_line)
        except json.JSONDecodeError as exc:
            raise SchemaError(lineno, "-", f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise SchemaError(lineno, "-", "case must be a JSON object")

        def need(field: str, kind) -> object:
            if field not in obj:
                raise SchemaError(lineno, field, "missing")
            value = obj[field]
            if not isinstance(value, kind):
                raise SchemaError(lineno, field, f"expected {kind.__name__}")
            return value

        case_id = need("id", str)
        if case_id in seen_ids:
            raise SchemaError(lineno, "id", f"duplicate id {case_id!r}")
        seen_ids.add(case_id)
        split = need("split", str)
        if split not in ("train", "test"):
            raise SchemaError(lineno, "split", f"must be train or test, got {split!r}")
        story = need("story", str)

        constants: tuple[tuple[str, tuple[str, ...]], ...] | None = None
        if obj.get("constants") is not None:
            raw = need("constants", dict)
            pairs = []
            for name, values in raw.items():
                if not isinstance(values, list) or not values:
                    raise SchemaError(lineno, "constants", f"category {name!r} needs a non-empty list")
                pairs.append((str(name), tuple(str(v) for v in values)))
            constants = tuple(pairs)

        solution = need("solution", list)
        if not solution:
            raise SchemaError(lineno, "solution", "needs at least one row")
        rows: list[dict[str, GroundValue]] = []
        for row in solution:
            if not isinstance(row, dict) or not row:
                raise SchemaError(lineno, "solution", "each row must be a non-empty object")
            normalized: dict[str, GroundValue] = {}
            for cat, value in row.items():
                if not isinstance(value, (int, str)) or isinstance(value, bool):
                    raise SchemaError(lineno, "solution", f"value {value!r} must be int or string")
                normalized[normalize_category(str(cat))] = value
            rows.append(normalized)
        categories = set(rows[0])
        for row in rows[1:]:
            if set(row) != categories:
                raise SchemaError(lineno, "solution", "rows disagree on categories")
        for cat in categories:
            values = [row[cat] for row in rows]
            if len(set(values)) != len(values):
                raise SchemaError(lineno, "solution", f"category {cat!r} repeats a value")
        if constants is not None:
            constant_cats = {normalize_category(name) for name, _ in constants}
            if not constant_cats <= categories:
                missing = ", ".join(sorted(constant_cats - categories))
                raise SchemaError(lineno, "solution", f"gold does not cover categories: {missing}")

        cases.append(PuzzleCase(case_id, split, story, constants, GoldSolution.from_rows(rows)))
    if not cases:
        raise SchemaError(0, "-", "dataset contains no cases")
    return cases


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


class OutcomeKind:
    CORRECT = "Correct"
    WRONG_MODEL = "WrongModel"
    NO_MODEL = "NoModel"
    MULTIPLE_MODELS = "MultipleModels"
    SYNTAX_ERROR = "SyntaxError"
    FORMAT_ERROR = "FormatError"
    BACKEND_ERROR = "BackendError"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class CaseOutcome:
    kind: str
    stage: Stage | None = None

    def label(self) -> str:
        if self.stage is not None:
            return f"{self.kind}({self.stage.value})"
        return self.kind


@dataclass
class CaseResult:
    case_id: str
    split: str
    outcome: CaseOutcome
    trace: PipelineTrace
    models_found: int = 0
    exhausted: bool | None = None
    stats: SolveStats | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "id": self.case_id,
            "split": self.split,
            "outcome": self.outcome.label(),
            "models_found": self.models_found,
            "exhausted": self.exhausted,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Solution comparison
# ---------------------------------------------------------------------------


def _alignments(
    position_cats: list[str], gold_cats: list[str], value_sets: dict[str, Counter], gold_sets: dict[str, Counter]
):
    """Yield mappings from model categories to gold categories.

    Names that match are anchored; the leftovers are permuted among gold
    categories with identical value multisets, so a renamed category (the
    formatting stage may relabel one) can still line up.
    """
    anchored = {cat: cat for cat in position_cats if cat in gold_cats}
    free_model = [cat for cat in position_cats if cat not in anchored]
    free_gold = [cat for cat in gold_cats if cat not in anchored.values()]
    if len(free_model) != len(free_gold):
        return
    for perm in itertools.permutations(free_gold):
        mapping = dict(anchored)
        ok = True
        for model_cat, gold_cat in zip(free_model, perm):
            if value_sets[model_cat] != gold_sets[gold_cat]:
                ok = False
                break
            mapping[model_cat] = gold_cat
        if ok:
            yield mapping


def compare_solution(
    model: StableModel, gold: GoldSolution, signatures: Sequence[PredicateSignature]
) -> bool:
    """Category-aware comparison of a stable model against the gold rows.

    Each chosen atom becomes a row keyed by the signature's categories; rows
    are compared as multisets, so neither row order nor predicate argument
    order matters.  Multiple signatures are joined on their unique shared
    category before comparison.
    """
    by_name = {sig.name: sig for sig in signatures}
    rows: list[dict[str, GroundValue]] = []
    atoms = [atom for atom in model.atoms if atom.predicate in by_name]
    for atom in atoms:
        sig = by_name[atom.predicate]
        if len(atom.args) != len(sig.args):
            raise MappingError(
                f"atom {atom.render()} does not fit signature {sig.render()}"
            )
        rows.append({cat: value for (_, cat), value in zip(sig.args, atom.args)})
    if not rows:
        return False

    used_sigs = {atom.predicate for atom in atoms}
    if len(used_sigs) > 1:
        shared = set.intersection(*(set(by_name[name].categories()) for name in used_sigs))
        if len(shared) != 1:
            raise MappingError(
                "cannot join predicates without exactly one shared category"
            )
        join_cat = shared.pop()
        merged: dict[GroundValue, dict[str, GroundValue]] = {}
        for row in rows:
            key = row[join_cat]
            target = merged.setdefault(key, {})
            for cat, value in row.items():
                if cat in target and target[cat] != value:
                    return False
            target.update(row)
        rows = list(merged.values())

    model_cats = sorted(rows[0])
    for row in rows[1:]:
        if sorted(row) != model_cats:
            return False
    gold_rows = gold.as_dicts()
    gold_cats = sorted(gold.categories())
    if len(model_cats) != len(gold_cats):
        return False

    value_sets = {cat: Counter(row[cat] for row in rows) for cat in model_cats}
    gold_sets = {cat: Counter(row[cat] for row in gold_rows) for cat in gold_cats}
    gold_multiset = Counter(tuple(sorted(row.items())) for row in gold_rows)
    for mapping in _alignments(model_cats, gold_cats, value_sets, gold_sets):
        renamed = Counter(
            tuple(sorted((mapping[cat], value) for cat, value in row.items())) for row in rows
        )
        if renamed == gold_multiset:
            return True
    return False


# ---------------------------------------------------------------------------
# Per-case evaluation
# ---------------------------------------------------------------------------

_PARSE_STAGE_KIND = {
    Stage.CONSTANT_EXTRACTION: OutcomeKind.FORMAT_ERROR,
    Stage.CONSTANT_FORMATTING: OutcomeKind.FORMAT_ERROR,
    Stage.PREDICATE_GENERATION: OutcomeKind.FORMAT_ERROR,
    Stage.PARAPHRASE: OutcomeKind.FORMAT_ERROR,
    Stage.GENERATE_RULES: OutcomeKind.SYNTAX_ERROR,
    Stage.CONSTRAINT_RULES: OutcomeKind.SYNTAX_ERROR,
}


def evaluate_case(
    case: PuzzleCase,
    backend: Backend,
    options: PipelineOptions | None = None,
    budget: float = 10.0,
    limit: int = 2,
) -> CaseResult:
    """Pipeline -> ground -> solve -> classify; never raises for a case failure."""
    options = options or PipelineOptions()
    options = replace(options, use_given_constants=case.given_constants is not None)
    trace = run_pipeline(case.story, case.given_constants, options, backend)
    outcome, result, detail = _classify(case, trace, budget, limit)
    return CaseResult(
        case.id, case.split, outcome, trace,
        models_found=len(result.models) if result else 0,
        exhausted=result.exhausted if result else None,
        stats=result.stats if result else None,
        detail=detail,
    )


def _classify(
    case: PuzzleCase, trace: PipelineTrace, budget: float, limit: int
) -> tuple[CaseOutcome, SolveResult | None, str]:
    """The case's outcome, its solver result if solving finished, and a detail line."""
    stage = trace.outcome.stage
    if trace.outcome.kind == PipelineOutcome.BACKEND_FAILURE:
        return CaseOutcome(OutcomeKind.BACKEND_ERROR, stage), None, _last_error(trace)
    if trace.outcome.kind == PipelineOutcome.STAGE_PARSE_FAILURE:
        kind = _PARSE_STAGE_KIND.get(stage, OutcomeKind.FORMAT_ERROR)
        return CaseOutcome(kind, stage), None, _last_error(trace)

    deadline = time.monotonic() + budget
    try:
        ground = ground_program(trace.assembled_program, deadline=deadline)
        result = enumerate_models(ground, limit=limit, deadline=deadline)
    except (GroundTimeout, SolveTimeout):
        return CaseOutcome(OutcomeKind.TIMEOUT), None, f"budget {budget:g}s exceeded"
    except GroundingError as exc:
        generated = exc.rule_index < trace.generate_rule_count
        stage = Stage.GENERATE_RULES if generated else Stage.CONSTRAINT_RULES
        return CaseOutcome(OutcomeKind.SYNTAX_ERROR, stage), None, str(exc)

    if not result.models:
        return CaseOutcome(OutcomeKind.NO_MODEL), result, ""
    if len(result.models) > 1:
        return CaseOutcome(OutcomeKind.MULTIPLE_MODELS), result, ""
    try:
        correct = compare_solution(result.models[0], case.gold, trace.predicates or [])
    except MappingError as exc:
        return CaseOutcome(OutcomeKind.FORMAT_ERROR, Stage.PREDICATE_GENERATION), result, str(exc)
    return CaseOutcome(OutcomeKind.CORRECT if correct else OutcomeKind.WRONG_MODEL), result, ""


def _last_error(trace: PipelineTrace) -> str:
    for record in reversed(trace.records):
        if record.parse_error:
            return record.parse_error
    return ""


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass
class Report:
    results: list[CaseResult]

    def split_summary(self) -> dict[str, dict]:
        summary: dict[str, dict] = {}
        for split in sorted({r.split for r in self.results}):
            subset = [r for r in self.results if r.split == split]
            correct = sum(1 for r in subset if r.outcome.kind == OutcomeKind.CORRECT)
            summary[split] = {
                "total": len(subset),
                "correct": correct,
                "accuracy": correct / len(subset),
            }
        return summary

    def outcome_histogram(self) -> dict[str, int]:
        counts = Counter(r.outcome.label() for r in self.results)
        return dict(sorted(counts.items()))

    def to_json(self) -> dict:
        return {
            "splits": self.split_summary(),
            "outcomes": self.outcome_histogram(),
            "cases": [r.to_json() for r in sorted(self.results, key=lambda r: r.case_id)],
        }

    def render_table(self) -> str:
        lines = []
        summary = self.split_summary()
        lines.append(f"{'split':<8} {'total':>6} {'correct':>8} {'accuracy':>9}")
        for split, row in summary.items():
            lines.append(
                f"{split:<8} {row['total']:>6} {row['correct']:>8} {row['accuracy']:>9.2%}"
            )
        lines.append("")
        lines.append("outcomes:")
        for label, count in self.outcome_histogram().items():
            lines.append(f"  {label:<40} {count}")
        return "\n".join(lines)


def report(results: Sequence[CaseResult]) -> Report:
    if not results:
        raise EmptyInputError("no case results to report")
    return Report(list(results))
