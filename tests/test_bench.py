"""Dataset loading, solution comparison, per-case classification, and reporting."""
from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzle2asp.bench import (
    CaseOutcome,
    CaseResult,
    EmptyInputError,
    GoldSolution,
    OutcomeKind,
    PuzzleCase,
    Report,
    SchemaError,
    compare_solution,
    evaluate_case,
    load_dataset,
    report,
)
from puzzle2asp.gateway import ScriptedBackend
from puzzle2asp.ground import GAtom
from puzzle2asp.pipeline import (
    MappingError,
    PipelineTrace,
    Stage,
    parse_constants,
    parse_predicates,
)
from puzzle2asp.solve import StableModel


def write_jsonl(tmp_path, rows):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


GOOD_ROW = {
    "id": "tiny",
    "split": "train",
    "story": "1. A clue.",
    "solution": [
        {"person": "Al", "seat": 1},
        {"person": "Bo", "seat": 2},
    ],
}


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def test_load_mini_dataset(data_dir):
    cases = load_dataset(data_dir / "mini.jsonl")
    assert [c.id for c in cases] == ["against_grain", "foodie_club", "weight_loss"]
    assert [c.split for c in cases] == ["train", "test", "test"]
    assert cases[0].given_constants is None
    assert dict(cases[1].given_constants)["price"] == ("$24", "$25", "$26", "$27")
    assert cases[2].gold.categories() == {"name", "pounds_lost", "diet"}


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda r: r.pop("story"), "story"),
        (lambda r: r.update(split="dev"), "split"),
        (lambda r: r.update(solution=[]), "solution"),
        (lambda r: r.update(solution=[{"person": "Al"}, {"seat": 2}]), "solution"),
        (lambda r: r.update(solution=[{"person": "Al", "seat": 1}, {"person": "Al", "seat": 2}]), "solution"),
        (lambda r: r.update(solution=[{"person": True, "seat": 1}, {"person": "Bo", "seat": 2}][:1] + [{"person": "Bo", "seat": 2}]), "solution"),
        (lambda r: r.update(constants={"person": []}), "constants"),
        (lambda r: r.update(constants={"city": ["Rome", "Oslo"]}), "solution"),
    ],
)
def test_load_dataset_schema_errors(tmp_path, mutate, field):
    row = json.loads(json.dumps(GOOD_ROW))
    mutate(row)
    with pytest.raises(SchemaError) as info:
        load_dataset(write_jsonl(tmp_path, [row]))
    assert info.value.field == field
    assert info.value.line == 1


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    with pytest.raises(SchemaError) as info:
        load_dataset(write_jsonl(tmp_path, [GOOD_ROW, GOOD_ROW]))
    assert info.value.line == 2
    assert info.value.field == "id"


def test_load_dataset_rejects_invalid_json(tmp_path):
    path = tmp_path / "cases.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_load_dataset_normalizes_solution_categories(tmp_path):
    row = json.loads(json.dumps(GOOD_ROW))
    row["solution"] = [{"Seat Number": 1, "person": "Al"}, {"Seat Number": 2, "person": "Bo"}]
    (case,) = load_dataset(write_jsonl(tmp_path, [row]))
    assert case.gold.categories() == {"seat_number", "person"}


def test_gold_solution_roundtrip():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    gold = GoldSolution.from_rows(rows)
    assert sorted(gold.as_dicts(), key=lambda r: r["a"]) == rows
    assert gold.categories() == {"a", "b"}


def test_gold_solution_permits_repeated_values_when_built_directly():
    # A person can hold two jobs; only the dataset loader enforces grid
    # uniqueness, the type itself stays permissive.
    rows = [{"p": "a", "j": "x"}, {"p": "a", "j": "y"}]
    assert GoldSolution.from_rows(rows).as_dicts() != []


# ---------------------------------------------------------------------------
# Solution comparison
# ---------------------------------------------------------------------------

CONSTANTS = parse_constants(
    'employee: "B"; "Y"; "T".\nprice: 225; 275; 325.\nwood_type: "ash"; "poplar"; "sandalwood".'
)
SIGNATURES = parse_predicates("match(E, P, W)", CONSTANTS)
GOLD = GoldSolution.from_rows(
    [
        {"employee": "B", "price": 325, "wood_type": "poplar"},
        {"employee": "Y", "price": 275, "wood_type": "sandalwood"},
        {"employee": "T", "price": 225, "wood_type": "ash"},
    ]
)


def model_of(*rows):
    return StableModel(frozenset(GAtom("match", row) for row in rows))


CORRECT_ROWS = (("B", 325, "poplar"), ("Y", 275, "sandalwood"), ("T", 225, "ash"))


def test_compare_accepts_the_gold_assignment():
    assert compare_solution(model_of(*CORRECT_ROWS), GOLD, SIGNATURES)


def test_compare_ignores_row_order():
    assert compare_solution(model_of(*reversed(CORRECT_ROWS)), GOLD, SIGNATURES)


def test_compare_rejects_a_single_swap():
    swapped = (("B", 275, "poplar"), ("Y", 325, "sandalwood"), ("T", 225, "ash"))
    assert not compare_solution(model_of(*swapped), GOLD, SIGNATURES)


def test_compare_ignores_argument_order():
    sigs = parse_predicates("match(P, W, E)", CONSTANTS)
    rows = ((325, "poplar", "B"), (275, "sandalwood", "Y"), (225, "ash", "T"))
    assert compare_solution(model_of(*rows), GOLD, sigs)


def test_compare_ignores_non_signature_atoms():
    atoms = {GAtom("match", row) for row in CORRECT_ROWS}
    atoms |= {GAtom("price", (225,)), GAtom("employee", ("B",))}
    assert compare_solution(StableModel(frozenset(atoms)), GOLD, SIGNATURES)


def test_compare_aligns_a_renamed_category_by_values():
    # The formatting stage may relabel a category; values anchor it anyway.
    constants = parse_constants('employee: "B"; "Y"; "T".\ncost: 225; 275; 325.\nwood_type: "a"; "b"; "c".')
    sigs = parse_predicates("match(E, C, W)", constants)
    rows = (("B", 325, "poplar"), ("Y", 275, "sandalwood"), ("T", 225, "ash"))
    assert compare_solution(model_of(*rows), GOLD, sigs)


def test_compare_does_not_cross_align_same_valued_categories():
    gold = GoldSolution.from_rows(
        [{"left": 1, "right": 2}, {"left": 2, "right": 1}]
    )
    constants = parse_constants("left: 1; 2.\nright: 1; 2.")
    sigs = parse_predicates("pair(L, R)", constants)
    model = StableModel(frozenset({GAtom("pair", (1, 2)), GAtom("pair", (2, 1))}))
    assert compare_solution(model, gold, sigs)
    wrong = StableModel(frozenset({GAtom("pair", (1, 1)), GAtom("pair", (2, 2))}))
    assert not compare_solution(wrong, gold, sigs)


def test_compare_joins_two_predicates_on_the_shared_category():
    constants = parse_constants(
        'employee: "B"; "Y"; "T".\nprice: 225; 275; 325.\nwood_type: "ash"; "poplar"; "sandalwood".'
    )
    sigs = parse_predicates("works(E, P)\nuses(E, W)", constants)
    atoms = {
        GAtom("works", ("B", 325)),
        GAtom("works", ("Y", 275)),
        GAtom("works", ("T", 225)),
        GAtom("uses", ("B", "poplar")),
        GAtom("uses", ("Y", "sandalwood")),
        GAtom("uses", ("T", "ash")),
    }
    assert compare_solution(StableModel(frozenset(atoms)), GOLD, sigs)


def test_compare_handles_doubled_assignments():
    gold = GoldSolution.from_rows(
        [{"p": "a", "j": "x"}, {"p": "a", "j": "y"}, {"p": "b", "j": "z"}, {"p": "b", "j": "w"}]
    )
    constants = parse_constants('p: "a"; "b".\nj: "x"; "y"; "z"; "w".')
    sigs = parse_predicates("holds(P, J)", constants)
    right = {("a", "x"), ("a", "y"), ("b", "z"), ("b", "w")}
    wrong = {("a", "x"), ("a", "z"), ("b", "y"), ("b", "w")}
    assert compare_solution(
        StableModel(frozenset(GAtom("holds", r) for r in right)), gold, sigs
    )
    assert not compare_solution(
        StableModel(frozenset(GAtom("holds", r) for r in wrong)), gold, sigs
    )


def test_compare_arity_mismatch_raises():
    model = StableModel(frozenset({GAtom("match", ("B", 325))}))
    with pytest.raises(MappingError):
        compare_solution(model, GOLD, SIGNATURES)


def test_compare_without_matching_atoms_is_false():
    model = StableModel(frozenset({GAtom("other", (1,))}))
    assert not compare_solution(model, GOLD, SIGNATURES)


@given(st.permutations(list(CORRECT_ROWS)), st.permutations([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_compare_invariant_under_row_and_argument_permutations(rows, arg_order):
    variable_names = {"employee": "E", "price": "P", "wood_type": "W"}
    cats = [SIGNATURES[0].args[i][1] for i in arg_order]
    sigs = parse_predicates(
        "match(" + ", ".join(variable_names[c] for c in cats) + ")", CONSTANTS
    )
    permuted = [tuple(row[i] for i in arg_order) for row in rows]
    assert compare_solution(model_of(*permuted), GOLD, sigs)


# ---------------------------------------------------------------------------
# Per-case classification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_cases(data_dir):
    return {c.id: c for c in load_dataset(data_dir / "mini.jsonl")}


def test_correct_case(mini_cases, scripts):
    result = evaluate_case(mini_cases["foodie_club"], ScriptedBackend(scripts["foodie_club"]))
    assert result.outcome.kind == OutcomeKind.CORRECT
    assert result.outcome.label() == "Correct"
    assert result.models_found == 1
    assert result.exhausted is True


def test_wrong_model_case(mini_cases, scripts):
    # Reverse clue 2 of the furniture puzzle ("costs more" -> "costs less");
    # first confirm by brute force that this leaves exactly one, different,
    # solution, then check the classification agrees.
    clues = [
        lambda a: a["Bonita"][0] == 325,
        lambda a: next(p for p, w in a.values() if w == "poplar") < a["Yvette"][0],
        lambda a: a["Tabitha"][0] == next(p for p, w in a.values() if w == "sandalwood") - 50,
        lambda a: (next(w for p, w in a.values() if p == 275) == "ash")
        ^ (a["Yvette"][0] == 275),
    ]
    survivors = []
    for prices in itertools.permutations([225, 275, 325]):
        for woods in itertools.permutations(["ash", "poplar", "sandalwood"]):
            assignment = dict(zip(["Bonita", "Yvette", "Tabitha"], zip(prices, woods)))
            if all(clue(assignment) for clue in clues):
                survivors.append(assignment)
    assert survivors == [
        {"Bonita": (325, "ash"), "Yvette": (275, "sandalwood"), "Tabitha": (225, "poplar")}
    ]

    responses = list(scripts["against_grain"])
    responses[5] = responses[5].replace(
        "P1>P2 :- match(E1,P1,W1), match(E2,P2,W2), W1=\"poplar\", E2=\"Yvette\".",
        "P1<P2 :- match(E1,P1,W1), match(E2,P2,W2), W1=\"poplar\", E2=\"Yvette\".",
    )
    assert responses != scripts["against_grain"]
    result = evaluate_case(mini_cases["against_grain"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.WRONG_MODEL
    assert result.models_found == 1


def test_no_model_case(mini_cases, scripts):
    responses = list(scripts["weight_loss"])
    responses[4] += '\n\nPl=100 :- match(N, Pl, D), N="Celia".'
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.NO_MODEL
    assert result.models_found == 0
    assert result.exhausted is True


def test_multiple_models_case(mini_cases, scripts):
    responses = list(scripts["weight_loss"])
    responses[4] = responses[4].split("\n\n")[0]  # keep only the uniqueness rule
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.MULTIPLE_MODELS
    assert result.models_found == 2
    assert result.exhausted is False  # stopped at the model limit


def test_backend_error_case(mini_cases):
    result = evaluate_case(mini_cases["against_grain"], ScriptedBackend([]))
    assert result.outcome.kind == OutcomeKind.BACKEND_ERROR
    assert result.outcome.stage is Stage.CONSTANT_EXTRACTION
    assert result.outcome.label() == "BackendError(constant_extraction)"


def test_format_error_case(mini_cases):
    backend = ScriptedBackend(["gibberish", "more gibberish"])
    result = evaluate_case(mini_cases["weight_loss"], backend)
    assert result.outcome.kind == OutcomeKind.FORMAT_ERROR
    assert result.outcome.stage is Stage.CONSTANT_FORMATTING


def test_syntax_error_in_constraint_stage(mini_cases, scripts):
    responses = scripts["weight_loss"][:4] + ["(("]
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.SYNTAX_ERROR
    assert result.outcome.stage is Stage.CONSTRAINT_RULES
    assert result.outcome.label() == "SyntaxError(constraint_rules)"


@pytest.mark.parametrize(
    "term", ["(" * 400 + "1" + ")" * 400, "+".join(["1"] * 2000)], ids=["nested", "sum"]
)
def test_too_deep_a_term_is_a_syntax_error(mini_cases, scripts, term):
    # The parser refuses the term, so no later walker raises RecursionError
    # out of evaluate_case.
    responses = list(scripts["weight_loss"])
    responses[4] += f"\n\nPl={term} :- match(N, Pl, D)."
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.SYNTAX_ERROR
    assert result.outcome.stage is Stage.CONSTRAINT_RULES
    assert "levels deep" in result.detail


def test_semantic_error_attributed_to_constraint_stage(mini_cases, scripts):
    # Type-confused arithmetic only explodes while grounding; the rule index
    # places the blame on the stage that produced the offending rule.
    responses = list(scripts["weight_loss"])
    responses[4] += "\n\nN=5 :- match(N, Pl, D)."
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.SYNTAX_ERROR
    assert result.outcome.stage is Stage.CONSTRAINT_RULES


def test_semantic_error_attributed_to_rule_stage(mini_cases, scripts):
    responses = list(scripts["weight_loss"])
    responses[2] = responses[2].replace(
        "{match(N, Pl, D): pounds_lost(Pl), diet(D)}=1 :- name(N).",
        "{match(N, Pl, D): pounds_lost(Pl), diet(D)}=1 :- name(N), N+1=2.",
    )
    result = evaluate_case(mini_cases["weight_loss"], ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.SYNTAX_ERROR
    assert result.outcome.stage is Stage.GENERATE_RULES


def test_timeout_case(mini_cases, scripts):
    backend = ScriptedBackend(scripts["foodie_club"])
    result = evaluate_case(mini_cases["foodie_club"], backend, budget=1e-9)
    assert result.outcome.kind == OutcomeKind.TIMEOUT


def test_mapping_error_at_comparison_becomes_format_error():
    case = PuzzleCase(
        id="mismatch",
        split="test",
        story="Assign things to slots.",
        given_constants=(("alpha", ("1", "2")), ("beta", ("3", "4"))),
        gold=GoldSolution.from_rows([{"alpha": 1, "beta": 3}, {"alpha": 2, "beta": 4}]),
    )
    responses = [
        "alpha: 1; 2.\nbeta: 3; 4.",  # formatting
        "q(A, B)",  # predicates: binary signature
        "alpha(1;2).\nbeta(3;4).\n{q(A): alpha(A)}=2 :- alpha(1).",  # unary atoms
        "A=A :- q(A).",  # constraints: vacuous
    ]
    result = evaluate_case(case, ScriptedBackend(responses))
    assert result.outcome.kind == OutcomeKind.FORMAT_ERROR
    assert result.outcome.stage is Stage.PREDICATE_GENERATION
    assert result.models_found == 1


def test_case_result_json_has_no_timings(mini_cases, scripts):
    result = evaluate_case(mini_cases["foodie_club"], ScriptedBackend(scripts["foodie_club"]))
    payload = result.to_json()
    assert payload["outcome"] == "Correct"
    assert "stats" not in payload
    assert "elapsed" not in json.dumps(payload)


def test_evaluation_is_deterministic(mini_cases, scripts):
    runs = [
        evaluate_case(mini_cases["foodie_club"], ScriptedBackend(scripts["foodie_club"]))
        for _ in range(2)
    ]
    a, b = (json.dumps(r.to_json(), sort_keys=True) for r in runs)
    assert a == b


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def fake_result(case_id, split, kind, stage=None):
    return CaseResult(case_id, split, CaseOutcome(kind, stage), PipelineTrace(story=""))


def test_report_accuracy_arithmetic():
    results = [fake_result(f"c{i}", "test", OutcomeKind.CORRECT) for i in range(81)]
    results += [fake_result(f"x{i}", "test", OutcomeKind.NO_MODEL) for i in range(19)]
    summary = report(results).split_summary()
    assert summary["test"] == {"total": 100, "correct": 81, "accuracy": 0.81}


def test_report_splits_and_histogram():
    results = [
        fake_result("a", "train", OutcomeKind.CORRECT),
        fake_result("b", "test", OutcomeKind.CORRECT),
        fake_result("c", "test", OutcomeKind.SYNTAX_ERROR, Stage.GENERATE_RULES),
        fake_result("d", "test", OutcomeKind.TIMEOUT),
    ]
    r = report(results)
    assert r.split_summary()["train"]["accuracy"] == 1.0
    assert r.split_summary()["test"]["accuracy"] == pytest.approx(1 / 3)
    assert r.outcome_histogram() == {
        "Correct": 2,
        "SyntaxError(generate_rules)": 1,
        "Timeout": 1,
    }
    table = r.render_table()
    assert "train" in table and "Timeout" in table


def test_report_json_sorts_cases():
    results = [
        fake_result("zeta", "test", OutcomeKind.CORRECT),
        fake_result("alpha", "test", OutcomeKind.CORRECT),
    ]
    payload = report(results).to_json()
    assert [c["id"] for c in payload["cases"]] == ["alpha", "zeta"]


def test_report_requires_results():
    with pytest.raises(EmptyInputError):
        report([])
