"""Staged translation of a puzzle story into an answer set program.

The pipeline asks a text-completion backend to perform six small jobs, each
driven by a few-shot prompt template:

    1. constant extraction   -- story -> "category: v1; v2; ..." lines
    2. constant formatting   -- raw constants -> solver-ready constants (optional)
    3. predicate generation  -- story + constants -> predicate signatures
    4. rule generation       -- constants + predicates -> choice rules (search space)
    5. sentence paraphrasing -- numbered clues -> simpler numbered clues (optional)
    6. constraint rules      -- story + constants + predicates -> test rules

The story is deliberately absent from the rule-generation prompt: the search
space depends only on the constants and predicates.  Every stage's prompt,
raw response, and parsed artifact are captured in a PipelineTrace so a run
can be replayed and audited offline.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Sequence

from .gateway import BACKEND_ERRORS, Backend, CompletionRequest
from .ground import GroundValue, render_value
from .syntax import AspSyntaxError, Program, parse_program, render_program


# ---------------------------------------------------------------------------
# Stages and errors
# ---------------------------------------------------------------------------


class Stage(Enum):
    CONSTANT_EXTRACTION = "constant_extraction"
    CONSTANT_FORMATTING = "constant_formatting"
    PREDICATE_GENERATION = "predicate_generation"
    GENERATE_RULES = "generate_rules"
    PARAPHRASE = "paraphrase"
    CONSTRAINT_RULES = "constraint_rules"


class MissingInput(Exception):
    def __init__(self, stage: Stage, placeholder: str):
        super().__init__(f"stage {stage.value} requires <{placeholder}>")
        self.stage = stage
        self.placeholder = placeholder


class FormatError(Exception):
    """A stage response does not have the shape the prompt asked for."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MappingError(Exception):
    """Predicate variables cannot be reconciled with the constant categories."""


# ---------------------------------------------------------------------------
# Constants and predicate signatures
# ---------------------------------------------------------------------------

RawConstants = Sequence[tuple[str, Sequence[str]]]

_INT_RE = re.compile(r"-?\d+\Z")
_QUOTED_RE = re.compile(r'"([^"]*)"\Z')


def normalize_category(name: str) -> str:
    """Lowercase a category label and squeeze everything else into underscores."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


@dataclass(frozen=True)
class CategorizedConstants:
    """Ordered (category, values) pairs; a category is all-int or all-string."""

    categories: tuple[tuple[str, tuple[GroundValue, ...]], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for name, values in self.categories:
            if not name:
                raise FormatError("empty category name")
            if name in seen:
                raise FormatError(f"duplicate category {name!r}")
            seen.add(name)
            if not values:
                raise FormatError(f"category {name!r} has no constants")
            if len(set(values)) != len(values):
                raise FormatError(f"category {name!r} repeats a constant")
            kinds = {type(v) for v in values}
            if len(kinds) > 1:
                raise FormatError(f"category {name!r} mixes integers and strings")

    @classmethod
    def from_raw(cls, raw: RawConstants) -> "CategorizedConstants":
        """Lenient conversion: a category becomes integers only if every value parses."""
        out: list[tuple[str, tuple[GroundValue, ...]]] = []
        for name, values in raw:
            cleaned = [str(v).strip().strip('"') for v in values]
            if all(_INT_RE.match(v) for v in cleaned):
                converted: list[GroundValue] = [int(v) for v in cleaned]
            else:
                converted = list(cleaned)
            deduped: list[GroundValue] = []
            for v in converted:
                if v not in deduped:
                    deduped.append(v)
            out.append((normalize_category(name), tuple(deduped)))
        return cls(tuple(out))

    def names(self) -> list[str]:
        return [name for name, _ in self.categories]

    def values(self, name: str) -> tuple[GroundValue, ...]:
        for cat, vals in self.categories:
            if cat == name:
                return vals
        raise KeyError(name)

    def render(self) -> str:
        """Canonical lines: integers bare, strings double-quoted."""
        return "\n".join(
            f"{name}: " + "; ".join(render_value(v) for v in values) + "."
            for name, values in self.categories
        )


def render_raw_constants(raw: RawConstants) -> str:
    """Constants exactly as given, unquoted -- input to the formatting stage."""
    return "\n".join(
        f"{name}: " + "; ".join(str(v) for v in values) + "." for name, values in raw
    )


def parse_constants(response: str) -> CategorizedConstants:
    """Parse "category: v1; v2; ...; vn." lines into typed constants."""
    out: list[tuple[str, tuple[GroundValue, ...]]] = []
    for lineno, line in enumerate(response.split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        if ":" not in text:
            raise FormatError(f"expected 'category: constants' but got {text!r}", lineno)
        head, _, tail = text.partition(":")
        name = normalize_category(head)
        if not name:
            raise FormatError(f"unusable category name {head!r}", lineno)
        tail = tail.strip()
        if tail.endswith("."):
            tail = tail[:-1]
        values: list[GroundValue] = []
        for token in tail.split(";"):
            token = token.strip()
            if not token:
                raise FormatError("empty constant", lineno)
            if _INT_RE.match(token):
                values.append(int(token))
                continue
            quoted = _QUOTED_RE.match(token)
            if quoted:
                values.append(quoted.group(1))
                continue
            raise FormatError(f"constant {token!r} is neither an integer nor quoted", lineno)
        try:
            out.append((name, tuple(values)))
            result = CategorizedConstants(tuple(out))
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
    if not out:
        raise FormatError("no constant lines found")
    return result


@dataclass(frozen=True)
class PredicateSignature:
    """A predicate name with (variable, category) argument pairs."""

    name: str
    args: tuple[tuple[str, str], ...]

    def render(self) -> str:
        return f"{self.name}(" + ", ".join(var for var, _ in self.args) + ")"

    def categories(self) -> list[str]:
        return [cat for _, cat in self.args]


_PREDICATE_LINE_RE = re.compile(r"([a-z_]\w*)\s*\(([^()]*)\)\s*\.?\Z")
_VARIABLE_RE = re.compile(r"[A-Z]\w*\Z")


def _initials(category: str) -> str:
    return "".join(word[0] for word in category.split("_") if word)


def _anchored_subsequence(needle: str, haystack: str) -> bool:
    """True if needle is a subsequence of haystack starting at its first letter."""
    if not needle or not haystack or needle[0] != haystack[0]:
        return False
    pos = 0
    for ch in needle:
        pos = haystack.find(ch, pos)
        if pos < 0:
            return False
        pos += 1
    return True


def _map_variable(variable: str, position: int, categories: list[str]) -> str:
    """Pick the category a variable stands for.

    The stem (variable minus any trailing digits, lowercased) is matched
    against each category, best rule wins: exact initials ("Ic" for
    index_of_column), then name prefix ("E" for employee), then an
    initial-anchored subsequence of the category's word initials.  Ties and
    misses fall back to the variable's argument position.
    """
    stem = variable.rstrip("0123456789").lower()
    best_rank = 99
    hits: list[str] = []
    for category in categories:
        initials = _initials(category)
        if stem == initials:
            rank = 0
        elif category.startswith(stem):
            rank = 1
        elif _anchored_subsequence(stem, initials):
            rank = 2
        else:
            continue
        if rank < best_rank:
            best_rank, hits = rank, [category]
        elif rank == best_rank:
            hits.append(category)
    if len(hits) == 1:
        return hits[0]
    if position < len(categories):
        return categories[position]
    raise MappingError(
        f"cannot map variable {variable!r} at position {position} to a category"
    )


def parse_predicates(response: str, constants: CategorizedConstants) -> list[PredicateSignature]:
    """Parse "name(V1, ..., Vn)" lines and resolve each variable to a category."""
    categories = constants.names()
    signatures: list[PredicateSignature] = []
    for lineno, line in enumerate(response.split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        match = _PREDICATE_LINE_RE.match(text)
        if not match:
            raise FormatError(f"expected 'name(V1, ..., Vn)' but got {text!r}", lineno)
        name, arglist = match.groups()
        variables = [v.strip() for v in arglist.split(",")] if arglist.strip() else []
        if not variables:
            raise FormatError(f"predicate {name!r} has no arguments", lineno)
        if len(set(variables)) != len(variables):
            raise FormatError(f"predicate {name!r} repeats a variable", lineno)
        args = []
        for position, variable in enumerate(variables):
            if not _VARIABLE_RE.match(variable):
                raise FormatError(f"{variable!r} is not a variable", lineno)
            args.append((variable, _map_variable(variable, position, categories)))
        signatures.append(PredicateSignature(name, tuple(args)))
    if not signatures:
        raise FormatError("no predicate lines found")
    covered = {cat for sig in signatures for _, cat in sig.args}
    missing = [cat for cat in categories if cat not in covered]
    if missing:
        raise MappingError(f"no variable covers categories: {', '.join(missing)}")
    return signatures


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

_TEMPLATE_FILES = {
    Stage.CONSTANT_EXTRACTION: "constant_extraction.txt",
    Stage.CONSTANT_FORMATTING: "constant_formatting.txt",
    Stage.PREDICATE_GENERATION: "predicate_generation.txt",
    Stage.GENERATE_RULES: "generate_rules.txt",
    Stage.PARAPHRASE: "paraphrase.txt",
    Stage.CONSTRAINT_RULES: "constraint_rules.txt",
}

_PLACEHOLDER_RE = re.compile(r"<story>|<constants>|<predicates>|<sentences>")

_NUMBERED_LINE_RE = re.compile(r"\s*\d+(\.\d+)*[.)]?\s+\S")

_template_cache: dict[str, str] = {}


def load_template(name: str) -> str:
    if name not in _template_cache:
        path = resources.files("puzzle2asp").joinpath("templates", name)
        _template_cache[name] = path.read_text(encoding="utf-8")
    return _template_cache[name]


def is_numbered_line(line: str) -> bool:
    return bool(_NUMBERED_LINE_RE.match(line))


def numbered_lines(story: str) -> list[str]:
    return [line for line in story.split("\n") if is_numbered_line(line)]


def _constants_block(constants: CategorizedConstants | str) -> str:
    body = constants.render() if isinstance(constants, CategorizedConstants) else constants
    return "Constants:\n" + body.strip("\n")


def _predicates_block(predicates: Sequence[PredicateSignature]) -> str:
    return "Predicates:\n" + "\n".join(sig.render() for sig in predicates)


def build_prompt(
    stage: Stage,
    story: str | None = None,
    constants: CategorizedConstants | str | None = None,
    predicates: Sequence[PredicateSignature] | None = None,
    original_constraint_template: bool = False,
) -> str:
    """Fill the stage's template; raises MissingInput if a placeholder lacks data.

    Every placeholder is filled in one pass over the template, so text that
    a story or the constants bring in is never read as a placeholder.
    """
    name = _TEMPLATE_FILES[stage]
    if stage is Stage.CONSTRAINT_RULES and original_constraint_template:
        name = "constraint_rules_original.txt"
    template = load_template(name)

    replacements: dict[str, str] = {}
    if "<story>" in template:
        if story is None:
            raise MissingInput(stage, "story")
        replacements["<story>"] = story.strip("\n")
    if "<constants>" in template:
        if constants is None:
            raise MissingInput(stage, "constants")
        if stage is Stage.CONSTANT_FORMATTING:
            raw = constants.render() if isinstance(constants, CategorizedConstants) else constants
            replacements["<constants>"] = raw.strip("\n")
        else:
            replacements["<constants>"] = _constants_block(constants)
    if "<predicates>" in template:
        if predicates is None:
            raise MissingInput(stage, "predicates")
        replacements["<predicates>"] = _predicates_block(predicates)
    if "<sentences>" in template:
        if story is None:
            raise MissingInput(stage, "sentences")
        clues = numbered_lines(story)
        if not clues:
            raise MissingInput(stage, "sentences")
        replacements["<sentences>"] = "\n".join(line.strip() for line in clues)

    return _PLACEHOLDER_RE.sub(lambda match: replacements[match.group()], template)


# ---------------------------------------------------------------------------
# Response cleanup
# ---------------------------------------------------------------------------

_HEADER_ECHOES = {
    "constants:",
    "predicates:",
    "asp rules:",
    "constraints:",
    "formatted constants:",
    "original constants:",
    "given:",
    "copy:",
}


def _looks_like_commentary(block: list[str]) -> bool:
    for line in block:
        text = line.strip()
        if not text:
            continue
        if text.startswith("%") or text.startswith('"'):
            return False
        if "(" in text or ":-" in text or ":" in text:
            return False
        if text[0].isdigit():
            return False
    return True


def sanitize_response(response: str) -> str:
    """Trim a completion down to the payload the next parser expects.

    Drops markdown code fences, echoed section headers ("Constants:" and
    friends), and any trailing blank-line-separated blocks of plain prose.
    Comment lines starting with % survive.  Idempotent.
    """
    lines = []
    for line in response.replace("\r\n", "\n").split("\n"):
        stripped = line.strip()
        if stripped.startswith("```"):
            continue
        if stripped.lower() in _HEADER_ECHOES:
            continue
        lines.append(line.rstrip())
    text = "\n".join(lines).strip("\n")
    if not text:
        return ""
    blocks: list[list[str]] = [[]]
    for line in text.split("\n"):
        if line.strip():
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    if not blocks[-1]:
        blocks.pop()
    while len(blocks) > 1 and _looks_like_commentary(blocks[-1]):
        blocks.pop()
    return "\n\n".join("\n".join(block) for block in blocks)


def apply_paraphrase(story: str, response: str) -> str:
    """Replace the story's numbered clue block with the response's numbered lines."""
    replacement = [line.strip() for line in response.split("\n") if is_numbered_line(line)]
    if not replacement:
        raise FormatError("paraphrase response contains no numbered sentences")
    lines = story.split("\n")
    numbered_idx = [i for i, line in enumerate(lines) if is_numbered_line(line)]
    if not numbered_idx:
        return story
    first, last = numbered_idx[0], numbered_idx[-1]
    return "\n".join(lines[:first] + replacement + lines[last + 1 :])


# ---------------------------------------------------------------------------
# Pipeline driver
# ---------------------------------------------------------------------------


# Identical-prompt retries after a stage response fails to parse.
_STAGE_RETRIES = 1


@dataclass
class PipelineOptions:
    enable_formatting: bool = True
    enable_paraphrase: bool = True
    use_given_constants: bool = False
    use_original_constraint_template: bool = False
    model: str = "gpt-4"


@dataclass
class StageRecord:
    stage: Stage
    prompt: str
    fingerprint: str
    raw_response: str | None
    parse_error: str | None
    attempts: int


@dataclass(frozen=True)
class PipelineOutcome:
    ASSEMBLED = "Assembled"
    STAGE_PARSE_FAILURE = "StageParseFailure"
    BACKEND_FAILURE = "BackendFailure"

    kind: str
    stage: Stage | None = None


@dataclass
class PipelineTrace:
    story: str
    records: list[StageRecord] = field(default_factory=list)
    constants: CategorizedConstants | None = None
    predicates: list[PredicateSignature] | None = None
    paraphrased_story: str | None = None
    generate_program: Program | None = None
    constraint_program: Program | None = None
    assembled_program: Program | None = None
    outcome: PipelineOutcome = PipelineOutcome(PipelineOutcome.ASSEMBLED)

    @property
    def generate_rule_count(self) -> int:
        return len(self.generate_program.rules) if self.generate_program else 0

    def to_json(self) -> dict:
        """Serializable snapshot; deliberately contains nothing time-dependent."""
        return {
            "story": self.story,
            "outcome": {
                "kind": self.outcome.kind,
                "stage": self.outcome.stage.value if self.outcome.stage else None,
            },
            "paraphrased_story": self.paraphrased_story,
            "constants": self.constants.render() if self.constants else None,
            "predicates": [sig.render() for sig in self.predicates] if self.predicates else None,
            "generate_rule_count": self.generate_rule_count,
            "assembled_program": (
                render_program(self.assembled_program) if self.assembled_program else None
            ),
            "records": [
                {
                    "stage": rec.stage.value,
                    "prompt": rec.prompt,
                    "fingerprint": rec.fingerprint,
                    "raw_response": rec.raw_response,
                    "parse_error": rec.parse_error,
                    "attempts": rec.attempts,
                }
                for rec in self.records
            ],
        }


class _StageFailed(Exception):
    def __init__(self, outcome: PipelineOutcome):
        self.outcome = outcome


def _parse_rules(text: str) -> Program:
    try:
        return parse_program(text)
    except AspSyntaxError as exc:
        raise FormatError(str(exc)) from exc


def run_pipeline(
    story: str,
    given_constants: RawConstants | None = None,
    options: PipelineOptions | None = None,
    backend: Backend | None = None,
) -> PipelineTrace:
    """Drive every stage in order, capturing a full trace; errors land in the
    trace outcome instead of propagating."""
    if backend is None:
        raise ValueError("run_pipeline needs a backend")
    options = options or PipelineOptions()
    trace = PipelineTrace(story=story)

    def call_stage(stage: Stage, prompt: str, parse):
        """One prompt/parse round with identical-prompt retries on parse failure."""
        request = CompletionRequest(prompt=prompt, model=options.model)
        record = StageRecord(
            stage=stage,
            prompt=prompt,
            fingerprint=request.fingerprint,
            raw_response=None,
            parse_error=None,
            attempts=0,
        )
        trace.records.append(record)
        first_parse_error: str | None = None
        for attempt in range(_STAGE_RETRIES + 1):
            record.attempts = attempt + 1
            try:
                response = backend.complete(request)
            except BACKEND_ERRORS as exc:
                if first_parse_error is not None:
                    # A retry after a bad parse drained the backend; the parse
                    # failure is the real story.
                    record.parse_error = first_parse_error
                    raise _StageFailed(
                        PipelineOutcome(PipelineOutcome.STAGE_PARSE_FAILURE, stage)
                    ) from exc
                record.parse_error = f"backend: {exc}"
                raise _StageFailed(
                    PipelineOutcome(PipelineOutcome.BACKEND_FAILURE, stage)
                ) from exc
            record.raw_response = response
            cleaned = sanitize_response(response)
            try:
                artifact = parse(cleaned)
            except (FormatError, MappingError) as exc:
                record.parse_error = str(exc)
                if first_parse_error is None:
                    first_parse_error = str(exc)
                continue
            record.parse_error = None
            return artifact
        raise _StageFailed(PipelineOutcome(PipelineOutcome.STAGE_PARSE_FAILURE, stage))

    try:
        # ----- constants -------------------------------------------------
        raw_constants_text: str | None = None
        constants: CategorizedConstants | None = None
        if options.use_given_constants and given_constants is not None:
            raw_constants_text = render_raw_constants(given_constants)
        else:
            prompt = build_prompt(Stage.CONSTANT_EXTRACTION, story=story)
            if options.enable_formatting:
                # The formatting stage repairs rough output, so extraction
                # passes its cleaned text through even when unparseable.
                text = call_stage(Stage.CONSTANT_EXTRACTION, prompt, lambda t: t)
                raw_constants_text = text
                try:
                    constants = parse_constants(text)
                except (FormatError, MappingError) as exc:
                    trace.records[-1].parse_error = str(exc)
            else:
                constants = call_stage(Stage.CONSTANT_EXTRACTION, prompt, parse_constants)

        if options.enable_formatting:
            prompt = build_prompt(Stage.CONSTANT_FORMATTING, constants=raw_constants_text)
            constants = call_stage(Stage.CONSTANT_FORMATTING, prompt, parse_constants)
        elif constants is None:
            assert given_constants is not None
            try:
                constants = CategorizedConstants.from_raw(given_constants)
            except (FormatError, MappingError):
                raise _StageFailed(
                    PipelineOutcome(
                        PipelineOutcome.STAGE_PARSE_FAILURE, Stage.CONSTANT_FORMATTING
                    )
                ) from None
        trace.constants = constants

        # ----- predicates -------------------------------------------------
        prompt = build_prompt(Stage.PREDICATE_GENERATION, story=story, constants=constants)
        predicates = call_stage(
            Stage.PREDICATE_GENERATION, prompt, lambda t: parse_predicates(t, constants)
        )
        trace.predicates = predicates

        # ----- search space (story deliberately not in this prompt) -------
        prompt = build_prompt(Stage.GENERATE_RULES, constants=constants, predicates=predicates)
        trace.generate_program = call_stage(Stage.GENERATE_RULES, prompt, _parse_rules)

        # ----- paraphrase --------------------------------------------------
        final_story = story
        if options.enable_paraphrase and numbered_lines(story):
            prompt = build_prompt(Stage.PARAPHRASE, story=story)
            final_story = call_stage(
                Stage.PARAPHRASE, prompt, lambda t: apply_paraphrase(story, t)
            )
            trace.paraphrased_story = final_story

        # ----- constraints --------------------------------------------------
        prompt = build_prompt(
            Stage.CONSTRAINT_RULES,
            story=final_story,
            constants=constants,
            predicates=predicates,
            original_constraint_template=options.use_original_constraint_template,
        )
        trace.constraint_program = call_stage(Stage.CONSTRAINT_RULES, prompt, _parse_rules)

        trace.assembled_program = Program(
            trace.generate_program.rules + trace.constraint_program.rules
        )
        trace.outcome = PipelineOutcome(PipelineOutcome.ASSEMBLED)
    except _StageFailed as failure:
        trace.outcome = failure.outcome
    return trace
