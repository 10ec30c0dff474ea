"""Stage prompt construction, response parsing, and the staged pipeline driver."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzle2asp.gateway import ScriptedBackend, TransportError
from puzzle2asp.pipeline import (
    CategorizedConstants,
    FormatError,
    MappingError,
    MissingInput,
    PipelineOptions,
    PipelineOutcome,
    Stage,
    apply_paraphrase,
    build_prompt,
    is_numbered_line,
    load_template,
    normalize_category,
    numbered_lines,
    parse_constants,
    parse_predicates,
    render_raw_constants,
    run_pipeline,
    sanitize_response,
)

FORMATTED_CONSTANTS = (
    'employee: "Bonita"; "Yvette"; "Tabitha".\n'
    "price: 225; 275; 325.\n"
    'wood_type: "ash"; "poplar"; "sandalwood".'
)


class ExplodingBackend:
    def complete(self, request):
        raise TransportError("connection refused")


# ---------------------------------------------------------------------------
# Template fidelity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,trailer",
    [
        ("constant_extraction.txt", "Problem 3:\n<story>\n\nConstants:\n"),
        ("constant_formatting.txt", "Original constants:\n<constants>\n\nFormatted constants:\n"),
        ("predicate_generation.txt", "Problem 3:\n<story>\n\n<constants>\n\nPredicates:\n"),
        ("generate_rules.txt", "<constants>\n\n<predicates>\n\nASP rules:\n"),
        ("paraphrase.txt", "Given:\n<sentences>\nCopy:\n"),
        ("constraint_rules.txt", "Problem 3:\n<story>\n\n<constants>\n\n<predicates>\n\nConstraints:\n"),
        ("constraint_rules_original.txt", "Problem 3:\n<story>\n\n<constants>\n\n<predicates>\n\nConstraints:\n"),
    ],
)
def test_template_query_trailers(name, trailer):
    assert load_template(name).endswith(trailer)


def test_rule_template_example_headers_differ_from_query_header():
    # The worked examples are introduced with "ASP Rules:" but the final
    # query deliberately uses the lowercase "ASP rules:".
    template = load_template("generate_rules.txt")
    assert template.count("ASP Rules:") == 2
    assert template.count("ASP rules:") == 1


def test_formatting_template_keeps_original_time_format_example():
    assert "10:30PM" in load_template("constant_formatting.txt")


def test_constraint_template_first_example_trades_reminder_for_clue_zero():
    # Only the first worked example is amended; the second keeps its own
    # reminder sentence exactly as printed.
    amended = load_template("constraint_rules.txt")
    first_example, second_example = amended.split("Problem 2:")
    assert "0. No option in any category will ever be used more than once." in first_example
    assert "Remember, as with all grid-based logic puzzles" not in first_example
    assert "Remember, as with all grid-based logic puzzles" in second_example


def test_original_constraint_template_keeps_the_reminder_sentence():
    original = load_template("constraint_rules_original.txt")
    first_example = original.split("Problem 2:")[0]
    assert "Remember, as with all grid-based logic puzzles" in first_example
    assert "0. No option in any category" not in original


def test_constraint_template_rule_schema_is_not_a_placeholder(stories):
    constants = parse_constants(FORMATTED_CONSTANTS)
    predicates = parse_predicates("match(E, P, W)", constants)
    prompt = build_prompt(
        Stage.CONSTRAINT_RULES,
        story=stories["against_grain"]["story"],
        constants=constants,
        predicates=predicates,
    )
    assert "<C1>; <C2>; ...; <Cm>" in prompt  # literal instruction text survives


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


def test_extraction_prompt_is_template_plus_story(stories):
    story = stories["weight_loss"]["story"]
    prompt = build_prompt(Stage.CONSTANT_EXTRACTION, story=story)
    template = load_template("constant_extraction.txt")
    assert prompt == template.replace("<story>", story.strip("\n"))
    assert "<story>" not in prompt


def test_placeholder_text_in_a_story_is_left_as_written(stories, scripts):
    # The template is filled in one pass, so a story's own "<constants>" or
    # "<predicates>" is neither filled in nor taken for a missing input.
    story = stories["against_grain"]["story"]
    odd = "A note reads <constants> and <predicates>.\n"
    constants = parse_constants(FORMATTED_CONSTANTS)
    predicates = parse_predicates("match(E, P, W)", constants)
    for stage in (Stage.CONSTANT_EXTRACTION, Stage.PREDICATE_GENERATION, Stage.CONSTRAINT_RULES):
        plain = build_prompt(stage, story=story, constants=constants, predicates=predicates)
        prompt = build_prompt(stage, story=odd + story, constants=constants, predicates=predicates)
        assert prompt.count(odd) == 1
        assert prompt.replace(odd, "") == plain
    trace = run_pipeline(odd + story, backend=ScriptedBackend(scripts["against_grain"]))
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)


def test_rule_prompt_has_constants_and_predicates_but_no_story():
    constants = parse_constants(FORMATTED_CONSTANTS)
    predicates = parse_predicates("match(E, P, W)", constants)
    prompt = build_prompt(Stage.GENERATE_RULES, constants=constants, predicates=predicates)
    query = prompt[len(prompt) - len(prompt.split("Problem 2:")[-1]):]
    assert prompt.endswith("ASP rules:\n")
    assert "Constants:\n" + constants.render() in prompt
    assert "Predicates:\nmatch(E, P, W)" in prompt
    assert "<" not in query.replace("<=", "")  # no leftover placeholders in the query


def test_formatting_prompt_uses_bare_constant_lines():
    raw = render_raw_constants((("price", ["$24", "$25"]), ("name", ["Al", "Bo"])))
    prompt = build_prompt(Stage.CONSTANT_FORMATTING, constants=raw)
    assert "Original constants:\nprice: $24; $25.\nname: Al; Bo." in prompt
    assert "Constants:\nprice" not in prompt  # no block header on this stage


def test_paraphrase_prompt_lists_only_numbered_sentences(stories):
    story = stories["against_grain"]["story"]
    prompt = build_prompt(Stage.PARAPHRASE, story=story)
    assert "Given:\n1." in prompt
    assert story.splitlines()[0] not in prompt  # the intro prose stays out


@pytest.mark.parametrize(
    "stage,kwargs",
    [
        (Stage.CONSTANT_EXTRACTION, {}),
        (Stage.CONSTANT_FORMATTING, {}),
        (Stage.PREDICATE_GENERATION, {"story": "1. Clue."}),
        (Stage.GENERATE_RULES, {"constants": FORMATTED_CONSTANTS}),
        (Stage.PARAPHRASE, {}),
        (Stage.CONSTRAINT_RULES, {"story": "1. Clue."}),
    ],
)
def test_build_prompt_missing_input(stage, kwargs):
    with pytest.raises(MissingInput) as info:
        build_prompt(stage, **kwargs)
    assert info.value.stage is stage


def test_paraphrase_needs_numbered_sentences():
    with pytest.raises(MissingInput):
        build_prompt(Stage.PARAPHRASE, story="No clue list here, just prose.")


def extract_query(prompt: str, stage: Stage) -> dict[str, str]:
    """Recover the substituted inputs from a built prompt (the inverse of build_prompt)."""

    def between(text: str, start: str, end: str) -> str:
        i = text.rindex(start) + len(start)
        j = text.rindex(end)
        return text[i:j].strip("\n")

    if stage is Stage.CONSTANT_EXTRACTION:
        return {"story": between(prompt, "Problem 3:\n", "\n\nConstants:")}
    if stage is Stage.CONSTANT_FORMATTING:
        return {"constants": between(prompt, "Original constants:\n", "\n\nFormatted constants:")}
    if stage is Stage.PREDICATE_GENERATION:
        tail = prompt[prompt.rindex("Problem 3:\n") :]
        return {
            "story": between(tail, "Problem 3:\n", "\n\nConstants:"),
            "constants": between(tail, "Constants:\n", "\n\nPredicates:"),
        }
    if stage is Stage.GENERATE_RULES:
        return {
            "constants": between(prompt, "Constants:\n", "\n\nPredicates:"),
            "predicates": between(prompt, "Predicates:\n", "\n\nASP rules:"),
        }
    if stage is Stage.PARAPHRASE:
        return {"sentences": between(prompt, "Given:\n", "\nCopy:")}
    tail = prompt[prompt.rindex("Problem 3:\n") :]
    return {
        "story": between(tail, "Problem 3:\n", "\n\nConstants:"),
        "constants": between(tail, "Constants:\n", "\n\nPredicates:"),
        "predicates": between(tail, "Predicates:\n", "\n\nConstraints:"),
    }


def test_extract_query_inverts_build_prompt(stories):
    story = stories["against_grain"]["story"]
    constants = parse_constants(FORMATTED_CONSTANTS)
    predicates = parse_predicates("match(E, P, W)", constants)

    prompt = build_prompt(Stage.PREDICATE_GENERATION, story=story, constants=constants)
    query = extract_query(prompt, Stage.PREDICATE_GENERATION)
    assert query["story"] == story.strip("\n")
    assert query["constants"] == constants.render()

    prompt = build_prompt(Stage.GENERATE_RULES, constants=constants, predicates=predicates)
    query = extract_query(prompt, Stage.GENERATE_RULES)
    assert query["constants"] == constants.render()
    assert query["predicates"] == "match(E, P, W)"
    assert "story" not in query

    prompt = build_prompt(Stage.CONSTANT_EXTRACTION, story=story)
    assert extract_query(prompt, Stage.CONSTANT_EXTRACTION) == {"story": story.strip("\n")}

    raw = "employee: Bonita; Yvette; Tabitha."
    prompt = build_prompt(Stage.CONSTANT_FORMATTING, constants=raw)
    assert extract_query(prompt, Stage.CONSTANT_FORMATTING) == {"constants": raw}

    prompt = build_prompt(Stage.PARAPHRASE, story=story)
    sentences = "\n".join(line.strip() for line in numbered_lines(story))
    assert extract_query(prompt, Stage.PARAPHRASE) == {"sentences": sentences}

    prompt = build_prompt(
        Stage.CONSTRAINT_RULES, story=story, constants=constants, predicates=predicates
    )
    assert extract_query(prompt, Stage.CONSTRAINT_RULES) == {
        "story": story.strip("\n"),
        "constants": constants.render(),
        "predicates": "match(E, P, W)",
    }


# ---------------------------------------------------------------------------
# Constants parsing
# ---------------------------------------------------------------------------


def test_parse_constants_happy_path():
    constants = parse_constants(FORMATTED_CONSTANTS)
    assert constants.names() == ["employee", "price", "wood_type"]
    assert constants.values("price") == (225, 275, 325)
    assert constants.values("employee") == ("Bonita", "Yvette", "Tabitha")
    assert constants.render() == FORMATTED_CONSTANTS


def test_parse_constants_trailing_period_is_optional():
    assert parse_constants("price: 1; 2").values("price") == (1, 2)


def test_parse_constants_normalizes_category_names():
    constants = parse_constants('Wood Types: "ash"; "oak".')
    assert constants.names() == ["wood_types"]


@pytest.mark.parametrize(
    "text,line",
    [
        ('points: "181 points"; 184.', 1),  # mixed strings and integers
        ("price: 225; 225.", 1),  # repeated constant
        ("price 225.", 1),  # missing colon
        ("price: twohundred.", 1),  # bare word, neither int nor quoted
        ('employee: "A".\nemployee: "B".', 2),  # duplicate category
        ('ok: 1; 2.\nbad: "x"; 3.', 2),
    ],
)
def test_parse_constants_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as info:
        parse_constants(text)
    assert info.value.line == line


def test_parse_constants_rejects_empty_response():
    with pytest.raises(FormatError):
        parse_constants("")


def test_from_raw_is_lenient():
    constants = CategorizedConstants.from_raw(
        (("price", ["225", "275", "225"]), ("name", ['"Al"', "Bo"]))
    )
    assert constants.values("price") == (225, 275)  # ints recovered, duplicate dropped
    assert constants.values("name") == ("Al", "Bo")  # quotes stripped


def test_from_raw_keeps_strings_when_any_value_is_not_numeric():
    constants = CategorizedConstants.from_raw((("price", ["$24", "25"]),))
    assert constants.values("price") == ("$24", "25")


def test_normalize_category():
    assert normalize_category("Wood Types") == "wood_types"
    assert normalize_category("Prize amounts ($)") == "prize_amounts"


# ---------------------------------------------------------------------------
# Predicate parsing and variable-to-category mapping
# ---------------------------------------------------------------------------


def test_parse_predicates_maps_by_word_initials():
    constants = parse_constants(
        'pounds_lost: 3; 5.\ndiet: "vegan"; "low-fat".\nname: "Celia"; "Mandy".'
    )
    (sig,) = parse_predicates("match(N, Pl, D)", constants)
    assert sig.args == (("N", "name"), ("Pl", "pounds_lost"), ("D", "diet"))


def test_parse_predicates_maps_by_prefix():
    constants = parse_constants(FORMATTED_CONSTANTS)
    (sig,) = parse_predicates("match(E, P, W)", constants)
    assert sig.args == (("E", "employee"), ("P", "price"), ("W", "wood_type"))
    assert sig.render() == "match(E, P, W)"


def test_parse_predicates_maps_by_anchored_subsequence():
    constants = parse_constants("index_of_row: 1; 2.\nindex_of_column: 1; 2.")
    (sig,) = parse_predicates("assign(Ir, Ic)", constants)
    assert sig.args == (("Ir", "index_of_row"), ("Ic", "index_of_column"))


def test_parse_predicates_falls_back_to_position():
    constants = parse_constants("alpha: 1; 2.\nbeta: 3; 4.")
    (sig,) = parse_predicates("q(P, Q)", constants)
    assert sig.args == (("P", "alpha"), ("Q", "beta"))


def test_parse_predicates_multiple_signatures_and_comments():
    constants = parse_constants(FORMATTED_CONSTANTS)
    sigs = parse_predicates(
        "% one predicate per relation\nworks(E, P)\nuses(E, W)\n", constants
    )
    assert [s.name for s in sigs] == ["works", "uses"]


def test_parse_predicates_rejects_repeated_variable():
    constants = parse_constants("alpha: 1; 2.\nbeta: 3; 4.")
    with pytest.raises(FormatError):
        parse_predicates("foo(X, X)", constants)


def test_parse_predicates_requires_full_category_coverage():
    constants = parse_constants(FORMATTED_CONSTANTS)
    with pytest.raises(MappingError):
        parse_predicates("match(E, P)", constants)


def test_parse_predicates_rejects_more_variables_than_categories():
    constants = parse_constants("alpha: 1; 2.\nbeta: 3; 4.")
    with pytest.raises(MappingError):
        parse_predicates("q(P, Q, R)", constants)


# ---------------------------------------------------------------------------
# Response sanitation
# ---------------------------------------------------------------------------


def test_sanitize_strips_code_fences_and_header_echo():
    raw = '```\nConstants:\nemployee: "A"; "B".\nprice: 1; 2.\n```'
    assert sanitize_response(raw) == 'employee: "A"; "B".\nprice: 1; 2.'


def test_sanitize_drops_separated_trailing_commentary():
    raw = "ASP Rules:\np(1;2).\n{m(X): p(X)}=1 :- p(X).\n\nThese rules model the puzzle."
    assert sanitize_response(raw) == "p(1;2).\n{m(X): p(X)}=1 :- p(X)."


def test_sanitize_keeps_comment_lines():
    raw = "% clue one\nP=325 :- match(E, P, W).\n"
    assert sanitize_response(raw) == "% clue one\nP=325 :- match(E, P, W)."


def test_sanitize_strips_trailing_whitespace_per_line():
    assert sanitize_response("p(1).   \nq(2).\t") == "p(1).\nq(2)."


@given(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
@settings(max_examples=200, deadline=None)
def test_sanitize_is_idempotent(text):
    once = sanitize_response(text)
    assert sanitize_response(once) == once


# ---------------------------------------------------------------------------
# Paraphrase splicing
# ---------------------------------------------------------------------------


def test_apply_paraphrase_replaces_the_clue_block():
    story = "Intro text.\n1. First clue.\n2. Either A or B but not both.\n3. Last clue.\nTrailing note."
    response = "1. First clue.\n2.1 A and B are different.\n2.2 A or B holds.\n3. Last clue."
    assert apply_paraphrase(story, response) == (
        "Intro text.\n1. First clue.\n2.1 A and B are different.\n"
        "2.2 A or B holds.\n3. Last clue.\nTrailing note."
    )


def test_apply_paraphrase_without_clues_returns_story_unchanged():
    assert apply_paraphrase("Just prose.", "1. Something.") == "Just prose."


def test_apply_paraphrase_rejects_unnumbered_response():
    with pytest.raises(FormatError):
        apply_paraphrase("1. A clue.", "Sure, I rewrote the clues for you.")


@pytest.mark.parametrize(
    "line,numbered",
    [
        ("1. A clue.", True),
        ("2.1 Sub clue.", True),
        ("10) Parenthesised.", True),
        ("Intro text.", False),
        ("3.No space after the marker", False),
    ],
)
def test_is_numbered_line(line, numbered):
    assert is_numbered_line(line) is numbered


# ---------------------------------------------------------------------------
# The staged driver
# ---------------------------------------------------------------------------

STAGE_ORDER = [
    Stage.CONSTANT_EXTRACTION,
    Stage.CONSTANT_FORMATTING,
    Stage.PREDICATE_GENERATION,
    Stage.GENERATE_RULES,
    Stage.PARAPHRASE,
    Stage.CONSTRAINT_RULES,
]


def test_full_run_assembles_a_program(stories, furniture_backend):
    story = stories["against_grain"]["story"]
    trace = run_pipeline(story, backend=furniture_backend)
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)
    assert [r.stage for r in trace.records] == STAGE_ORDER
    assert all(r.attempts == 1 for r in trace.records)
    # Extraction keeps an advisory note (its rough text only parses after
    # formatting); every later stage parses cleanly.
    assert all(r.parse_error is None for r in trace.records[1:])
    assert trace.constants.names() == ["employee", "price", "wood_type"]
    assert trace.generate_rule_count == 4
    assert len(trace.assembled_program.rules) == len(trace.generate_program.rules) + len(
        trace.constraint_program.rules
    )


def test_full_run_prompts_are_reconstructible(stories, furniture_backend):
    """Each stage prompt must be exactly the template plus that stage's inputs."""
    story = stories["against_grain"]["story"]
    trace = run_pipeline(story, backend=furniture_backend)
    by_stage = {r.stage: r for r in trace.records}

    assert by_stage[Stage.CONSTANT_EXTRACTION].prompt == build_prompt(
        Stage.CONSTANT_EXTRACTION, story=story
    )
    extraction_text = sanitize_response(by_stage[Stage.CONSTANT_EXTRACTION].raw_response)
    assert by_stage[Stage.CONSTANT_FORMATTING].prompt == build_prompt(
        Stage.CONSTANT_FORMATTING, constants=extraction_text
    )
    assert by_stage[Stage.PREDICATE_GENERATION].prompt == build_prompt(
        Stage.PREDICATE_GENERATION, story=story, constants=trace.constants
    )
    assert by_stage[Stage.GENERATE_RULES].prompt == build_prompt(
        Stage.GENERATE_RULES, constants=trace.constants, predicates=trace.predicates
    )
    assert by_stage[Stage.PARAPHRASE].prompt == build_prompt(Stage.PARAPHRASE, story=story)
    assert by_stage[Stage.CONSTRAINT_RULES].prompt == build_prompt(
        Stage.CONSTRAINT_RULES,
        story=trace.paraphrased_story,
        constants=trace.constants,
        predicates=trace.predicates,
    )


def test_rule_prompt_never_sees_the_story(stories, furniture_backend):
    story = stories["against_grain"]["story"]
    trace = run_pipeline(story, backend=furniture_backend)
    rule_prompt = next(r for r in trace.records if r.stage is Stage.GENERATE_RULES).prompt
    assert "Bonita's piece costs" not in rule_prompt


def test_formatting_repairs_rough_extraction(stories, furniture_backend):
    # The scripted extraction answer has "$225" style values; formatting
    # turns them into bare integers.
    story = stories["against_grain"]["story"]
    trace = run_pipeline(story, backend=furniture_backend)
    extraction = trace.records[0]
    assert extraction.parse_error is not None  # rough text is not parseable
    assert trace.constants.values("price") == (225, 275, 325)


def test_given_constants_skip_extraction(stories, scripts):
    row = stories["foodie_club"]
    backend = ScriptedBackend(scripts["foodie_club"])
    options = PipelineOptions(use_given_constants=True)
    trace = run_pipeline(row["story"], tuple(
        (name, tuple(values)) for name, values in row["constants"].items()
    ), options, backend)
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)
    assert [r.stage for r in trace.records][0] is Stage.CONSTANT_FORMATTING
    assert Stage.CONSTANT_EXTRACTION not in {r.stage for r in trace.records}
    formatting_prompt = trace.records[0].prompt
    assert "price: $24; $25; $26; $27." in formatting_prompt  # raw values, as given
    assert trace.constants.values("price") == (24, 25, 26, 27)


def test_paraphrase_expansion_feeds_the_constraint_prompt(stories, scripts):
    row = stories["foodie_club"]
    backend = ScriptedBackend(scripts["foodie_club"])
    options = PipelineOptions(use_given_constants=True)
    trace = run_pipeline(row["story"], tuple(
        (name, tuple(values)) for name, values in row["constants"].items()
    ), options, backend)
    constraint_prompt = next(
        r for r in trace.records if r.stage is Stage.CONSTRAINT_RULES
    ).prompt
    assert "2.1 The person who paid $25 and the person who paid $24 are different." in constraint_prompt
    assert "2. Of the person who paid $25" not in constraint_prompt


def test_no_paraphrase_keeps_original_clues(stories, scripts):
    story = stories["against_grain"]["story"]
    responses = scripts["against_grain"][:4] + scripts["against_grain"][5:]
    options = PipelineOptions(enable_paraphrase=False)
    trace = run_pipeline(story, None, options, ScriptedBackend(responses))
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)
    assert Stage.PARAPHRASE not in {r.stage for r in trace.records}
    assert trace.paraphrased_story is None
    constraint_prompt = next(
        r for r in trace.records if r.stage is Stage.CONSTRAINT_RULES
    ).prompt
    assert "1. Bonita's piece costs $325." in constraint_prompt


def test_no_formatting_parses_extraction_strictly(stories, scripts):
    story = stories["against_grain"]["story"]
    responses = [FORMATTED_CONSTANTS] + scripts["against_grain"][2:]
    options = PipelineOptions(enable_formatting=False)
    trace = run_pipeline(story, None, options, ScriptedBackend(responses))
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)
    assert Stage.CONSTANT_FORMATTING not in {r.stage for r in trace.records}
    assert trace.constants.values("price") == (225, 275, 325)


def test_original_constraint_template_option(stories, furniture_backend):
    story = stories["against_grain"]["story"]
    options = PipelineOptions(use_original_constraint_template=True)
    trace = run_pipeline(story, None, options, furniture_backend)
    constraint_prompt = next(
        r for r in trace.records if r.stage is Stage.CONSTRAINT_RULES
    ).prompt
    assert "Remember, as with all grid-based logic puzzles" in constraint_prompt


def test_parse_failure_retries_the_same_prompt(stories, scripts):
    story = stories["against_grain"]["story"]
    responses = ["not constants at all"] + [FORMATTED_CONSTANTS] + scripts["against_grain"][2:]
    options = PipelineOptions(enable_formatting=False)
    backend = ScriptedBackend(responses)
    trace = run_pipeline(story, None, options, backend)
    assert trace.outcome == PipelineOutcome(PipelineOutcome.ASSEMBLED)
    extraction = trace.records[0]
    assert extraction.attempts == 2
    assert extraction.parse_error is None  # the retry succeeded
    assert backend.requests[0].prompt == backend.requests[1].prompt


def test_repeated_parse_failures_fail_the_stage(stories):
    story = stories["against_grain"]["story"]
    options = PipelineOptions(enable_formatting=False)
    trace = run_pipeline(story, None, options, ScriptedBackend(["junk one", "junk two"]))
    assert trace.outcome == PipelineOutcome(
        PipelineOutcome.STAGE_PARSE_FAILURE, Stage.CONSTANT_EXTRACTION
    )
    assert trace.records[0].attempts == 2
    assert trace.records[0].parse_error


def test_drained_backend_during_retry_reports_the_parse_failure(stories):
    story = stories["against_grain"]["story"]
    options = PipelineOptions(enable_formatting=False)
    trace = run_pipeline(story, None, options, ScriptedBackend(["junk only"]))
    assert trace.outcome == PipelineOutcome(
        PipelineOutcome.STAGE_PARSE_FAILURE, Stage.CONSTANT_EXTRACTION
    )
    assert "category: constants" in trace.records[0].parse_error


def test_backend_failure_is_attributed_to_the_first_stage(stories):
    trace = run_pipeline(stories["against_grain"]["story"], backend=ExplodingBackend())
    assert trace.outcome == PipelineOutcome(
        PipelineOutcome.BACKEND_FAILURE, Stage.CONSTANT_EXTRACTION
    )
    assert "backend:" in trace.records[0].parse_error


def test_programming_error_in_backend_propagates(stories):
    class BuggyBackend:
        def complete(self, request):
            raise RuntimeError("bug in the backend")

    with pytest.raises(RuntimeError, match="bug in the backend"):
        run_pipeline(stories["against_grain"]["story"], backend=BuggyBackend())


def test_bad_rule_syntax_fails_the_rule_stage(stories, scripts):
    story = stories["against_grain"]["story"]
    responses = scripts["against_grain"][:3] + ["match(X) :- whatever(("]
    trace = run_pipeline(story, backend=ScriptedBackend(responses))
    assert trace.outcome == PipelineOutcome(
        PipelineOutcome.STAGE_PARSE_FAILURE, Stage.GENERATE_RULES
    )


def test_non_ascii_digit_in_a_constraint_fails_the_constraint_stage(stories, scripts):
    # "²" is a digit to str.isdigit() but not to int(): a syntax error, not a crash.
    story = stories["against_grain"]["story"]
    responses = scripts["against_grain"][:-1] + ["X=² :- q(X)."]
    trace = run_pipeline(story, backend=ScriptedBackend(responses))
    assert trace.outcome == PipelineOutcome(
        PipelineOutcome.STAGE_PARSE_FAILURE, Stage.CONSTRAINT_RULES
    )
    assert "unexpected character '²'" in trace.records[-1].parse_error


def test_trace_json_is_deterministic_and_timeless(stories, scripts):
    story = stories["against_grain"]["story"]
    first = run_pipeline(story, backend=ScriptedBackend(scripts["against_grain"]))
    second = run_pipeline(story, backend=ScriptedBackend(scripts["against_grain"]))
    a = json.dumps(first.to_json(), sort_keys=True)
    b = json.dumps(second.to_json(), sort_keys=True)
    assert a == b

    def keys_of(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key
                yield from keys_of(value)
        elif isinstance(obj, list):
            for value in obj:
                yield from keys_of(value)

    assert not {"elapsed_s", "recorded_at", "timestamp", "duration_s"} & set(
        keys_of(first.to_json())
    )
    assert first.records[0].fingerprint in a
