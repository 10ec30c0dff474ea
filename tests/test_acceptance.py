"""The guarantees this artifact makes, one test per item.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
item.  Every expected value below was computed by an independent brute-force
oracle (in-test where cheap, in oracles.py where shared) before being frozen.
"""
from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from oracles import decoded, oracle_ground, oracle_models, random_program, search_space
from puzzle2asp.bench import OutcomeKind, evaluate_case, load_dataset, report
from puzzle2asp.gateway import (
    Cassette,
    GatewayConfig,
    LiveBackend,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    build_backend,
)
from puzzle2asp.ground import GAtom, ground_program
from puzzle2asp.pipeline import Stage, build_prompt, load_template
from puzzle2asp.solve import check_model, enumerate_models
from puzzle2asp.syntax import parse_program, validate_safety


def _verdict(number: int, summary: str) -> None:
    print(f"criterion {number}: {summary}: PASS")


def _solve(text: str, budget: float):
    g = ground_program(parse_program(text))
    return g, enumerate_models(g, limit=None, budget=budget)


def _chosen(model, predicate):
    return {a for a in model.atoms if a.predicate == predicate}


# ---------------------------------------------------------------------------
# 1. The two golden four-way grid programs
# ---------------------------------------------------------------------------

GOLDEN_MODELS = {
    "foodie": {
        GAtom("match", ("chianti", 24, "Priscilla")),
        GAtom("match", ("shiraz", 25, "Isabel")),
        GAtom("match", ("riesling", 26, "Kurt")),
        GAtom("match", ("port", 27, "Robin")),
    },
    "weight_loss": {
        GAtom("match", ("Tom", 3, "low-fat")),
        GAtom("match", ("Celia", 5, "gluten-free")),
        GAtom("match", ("Mandy", 7, "vegan")),
        GAtom("match", ("Raymond", 9, "dairy-free")),
    },
}


def test_criterion_1_golden_programs_solve_uniquely(corpus):
    for name, expected in GOLDEN_MODELS.items():
        t0 = time.monotonic()
        g, result = _solve(corpus[name], budget=1.0)
        elapsed = time.monotonic() - t0
        assert elapsed <= 1.0, f"{name} took {elapsed:.2f}s"
        assert result.exhausted
        assert len(result.models) == 1
        assert _chosen(result.models[0], "match") == expected
    _verdict(1, "both golden programs yield exactly the printed model in <= 1s")


# ---------------------------------------------------------------------------
# 2. Furniture puzzle vs. an in-test brute force over all 3! * 3! assignments
# ---------------------------------------------------------------------------


def test_criterion_2_furniture_matches_brute_force(corpus):
    clues = [
        lambda a: a["Bonita"][0] == 325,
        lambda a: next(p for p, w in a.values() if w == "poplar") > a["Yvette"][0],
        lambda a: a["Tabitha"][0]
        == next(p for p, w in a.values() if w == "sandalwood") - 50,
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
        {
            "Bonita": (325, "poplar"),
            "Yvette": (275, "sandalwood"),
            "Tabitha": (225, "ash"),
        }
    ]

    g, result = _solve(corpus["against_grain"], budget=10.0)
    assert result.exhausted and len(result.models) == 1
    assert _chosen(result.models[0], "match") == {
        GAtom("match", (name, price, wood))
        for name, (price, wood) in survivors[0].items()
    }
    _verdict(2, "furniture program model equals the unique brute-force assignment")


# ---------------------------------------------------------------------------
# 3. 8-queens vs. a permutation oracle
# ---------------------------------------------------------------------------


def test_criterion_3_queens_has_92_models(corpus):
    boards = set()
    for perm in itertools.permutations(range(1, 9)):
        if any(
            abs(r1 - r2) == abs(perm[r1 - 1] - perm[r2 - 1])
            for r1, r2 in itertools.combinations(range(1, 9), 2)
        ):
            continue
        boards.add(frozenset(GAtom("assign", (r, perm[r - 1])) for r in range(1, 9)))
    assert len(boards) == 92

    t0 = time.monotonic()
    g, result = _solve(corpus["queens8"], budget=10.0)
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    assert result.exhausted
    assert {frozenset(_chosen(m, "assign")) for m in result.models} == boards
    _verdict(3, "8-queens enumerates exactly the 92 oracle boards in <= 10s")


# ---------------------------------------------------------------------------
# 4. The jobs puzzle: unique model, two jobs each, every nogood satisfied
# ---------------------------------------------------------------------------

JOBS_MODEL = {
    GAtom("assign", ("Thelma", "chef", "female")),
    GAtom("assign", ("Thelma", "boxer", "female")),
    GAtom("assign", ("Steve", "nurse", "male")),
    GAtom("assign", ("Steve", "police officer", "male")),
    GAtom("assign", ("Pete", "telephone operator", "male")),
    GAtom("assign", ("Pete", "actor", "male")),
    GAtom("assign", ("Roberta", "guard", "female")),
    GAtom("assign", ("Roberta", "teacher", "female")),
}


def test_criterion_4_jobs_puzzle_unique_model(corpus):
    t0 = time.monotonic()
    g, result = _solve(corpus["jobs"], budget=5.0)
    elapsed = time.monotonic() - t0
    assert elapsed <= 5.0
    assert result.exhausted and len(result.models) == 1
    assigns = _chosen(result.models[0], "assign")
    assert assigns == JOBS_MODEL
    per_person = {}
    for atom in assigns:
        per_person.setdefault(atom.args[0], set()).add(atom.args[1])
    assert all(len(jobs) == 2 for jobs in per_person.values())
    assert len({atom.args[1] for atom in assigns}) == 8
    assert check_model(g, result.models[0].atoms).ok
    _verdict(4, "jobs puzzle has one model, two distinct jobs per person, all nogoods hold")


# ---------------------------------------------------------------------------
# 5. Sudoku: grid membership checking plus the 4x4 analogue's full count
# ---------------------------------------------------------------------------


def _shidoku_grids():
    perms = list(itertools.permutations((1, 2, 3, 4)))
    grids = set()
    for r1, r2 in itertools.product(perms, perms):
        if any(a == b for a, b in zip(r1, r2)):
            continue
        if {r1[0], r1[1], r2[0], r2[1]} != {1, 2, 3, 4}:
            continue
        for r3 in perms:
            if any(a == b for a, b in zip(r1, r3)) or any(
                a == b for a, b in zip(r2, r3)
            ):
                continue
            for r4 in perms:
                if (
                    any(a == b for a, b in zip(r1, r4))
                    or any(a == b for a, b in zip(r2, r4))
                    or any(a == b for a, b in zip(r3, r4))
                ):
                    continue
                if {r3[0], r3[1], r4[0], r4[1]} != {1, 2, 3, 4}:
                    continue
                rows = (r1, r2, r3, r4)
                grids.add(
                    frozenset(
                        GAtom("assign", (ir, ic, rows[ir - 1][ic - 1]))
                        for ir in range(1, 5)
                        for ic in range(1, 5)
                    )
                )
    return grids


def test_criterion_5_sudoku_membership_and_shidoku_count(corpus):
    t0 = time.monotonic()

    g9 = ground_program(parse_program(corpus["sudoku9"]))

    def value(ir, ic):  # the cyclic construction: rows shift by 3, then by 1
        r, c = ir - 1, ic - 1
        return ((r * 3 + r // 3 + c) % 9) + 1

    grid = {
        GAtom("assign", (ir, ic, value(ir, ic)))
        for ir in range(1, 10)
        for ic in range(1, 10)
    }
    candidate = set(g9.facts) | grid
    assert check_model(g9, candidate).ok

    for ir in range(1, 10):
        for ic in range(1, 10):
            other = ic % 9 + 1  # duplicate the right neighbour within the row
            flipped = (candidate - {GAtom("assign", (ir, ic, value(ir, ic)))}) | {
                GAtom("assign", (ir, ic, value(ir, other)))
            }
            assert not check_model(g9, flipped).ok

    oracle_grids = _shidoku_grids()
    assert len(oracle_grids) == 288
    g4, result = _solve(corpus["shidoku4"], budget=30.0)
    assert result.exhausted
    assert {frozenset(_chosen(m, "assign")) for m in result.models} == oracle_grids

    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    _verdict(5, "valid grid accepted, all 81 row-duplicating flips rejected, 288 shidoku models")


# ---------------------------------------------------------------------------
# 6. Randomized cross-checks of grounder and solver against the oracles
# ---------------------------------------------------------------------------


def test_criterion_6_randomized_fragment_programs_agree_with_oracles():
    checked = sat = multi = 0
    seed = 0
    while checked < 250:
        seed += 1
        program = random_program(random.Random(seed))
        assert validate_safety(program) == []
        g = ground_program(program)
        space = search_space(g)
        if space > 5000:  # keep the generate-and-test oracle affordable
            continue
        assert space <= 10**6  # the stated bound; the cap above is far stricter

        assert decoded(g) == oracle_ground(program)

        result = enumerate_models(g, limit=None, budget=30.0)
        assert result.exhausted
        assert {frozenset(m.atoms) for m in result.models} == oracle_models(g)
        for model in result.models:
            assert check_model(g, model.atoms).ok

        checked += 1
        sat += bool(result.models)
        multi += len(result.models) >= 2
    assert checked == 250
    # guard against the generator degrading into only-trivial programs
    assert sat >= 20
    assert multi >= 10
    _verdict(6, f"250 random programs: grounder and solver match both oracles ({sat} satisfiable)")


# ---------------------------------------------------------------------------
# 7. Record/replay determinism and stage dataflow isolation
# ---------------------------------------------------------------------------


def _run_blob(results):
    blob = {
        "report": report(results).to_json(),
        "traces": [r.trace.to_json() for r in results],
    }
    return json.dumps(blob, sort_keys=True).encode()


def test_criterion_7_replay_is_byte_identical_and_stages_are_isolated(
    data_dir, scripts, tmp_path
):
    cases = load_dataset(data_dir / "mini.jsonl")
    responses = []
    for case in cases:
        responses.extend(scripts[case.id])

    path = tmp_path / "golden.json"
    recorder = RecordingBackend(ScriptedBackend(responses), Cassette(path))
    recorded = [evaluate_case(case, recorder) for case in cases]
    assert all(r.outcome.kind == OutcomeKind.CORRECT for r in recorded)

    replays = []
    for _ in range(2):
        backend = ReplayBackend.from_path(path)
        replays.append([evaluate_case(case, backend) for case in cases])
    assert _run_blob(replays[0]) == _run_blob(replays[1])
    assert _run_blob(recorded) == _run_blob(replays[0])

    for case, result in zip(cases, replays[0]):
        records = {r.stage: r for r in result.trace.records}
        trace = result.trace

        # rule prompts are built from constants and predicates alone
        rebuilt = build_prompt(
            Stage.GENERATE_RULES, constants=trace.constants, predicates=trace.predicates
        )
        assert records[Stage.GENERATE_RULES].prompt == rebuilt
        for line in case.story.splitlines():
            if line.strip():
                assert line.strip() not in records[Stage.GENERATE_RULES].prompt

        # extraction prompts are built from the story alone (exact equality;
        # a substring check would misfire because the template's own worked
        # example is the furniture puzzle, constants included)
        if Stage.CONSTANT_EXTRACTION in records:
            template = load_template("constant_extraction.txt")
            assert records[Stage.CONSTANT_EXTRACTION].prompt == template.replace(
                "<story>", case.story.strip("\n")
            )
    _verdict(7, "replayed runs are byte-identical; rule prompts carry no story, story prompts no constants")


# ---------------------------------------------------------------------------
# 8. Scripted end-to-end reproduction of the printed stage outputs
# ---------------------------------------------------------------------------


def test_criterion_8_scripted_stage_outputs_reproduce_the_solution(
    data_dir, scripts, corpus
):
    (case,) = [c for c in load_dataset(data_dir / "mini.jsonl") if c.id == "foodie_club"]
    result = evaluate_case(case, ScriptedBackend(scripts["foodie_club"]))
    assert result.outcome.kind == OutcomeKind.CORRECT
    assert result.models_found == 1

    # the assembled program solves to the same unique model as the golden text
    g = ground_program(result.trace.assembled_program)
    res = enumerate_models(g, limit=None, budget=10.0)
    assert res.exhausted and len(res.models) == 1
    assert _chosen(res.models[0], "match") == GOLDEN_MODELS["foodie"]
    _verdict(8, "printed stage outputs assemble and evaluate to outcome Correct")


# ---------------------------------------------------------------------------
# 9. Reporting shape (no accuracy threshold asserted)
# ---------------------------------------------------------------------------


def test_criterion_9_report_shape_carries_no_numeric_threshold(data_dir, scripts):
    # End-to-end accuracy depends entirely on which hosted model serves the
    # prompts, and hosted models get retired, so no number is asserted here;
    # offline the report must expose accuracy per split and an outcome
    # histogram, and a live OpenAI-compatible backend must be constructible
    # for anyone re-measuring.
    cases = load_dataset(data_dir / "mini.jsonl")
    results = [
        evaluate_case(case, ScriptedBackend(scripts[case.id])) for case in cases
    ]
    payload = report(results).to_json()
    assert set(payload) == {"splits", "outcomes", "cases"}
    for split, row in payload["splits"].items():
        assert split in {"train", "test"}
        assert set(row) == {"total", "correct", "accuracy"}
        assert 0.0 <= row["accuracy"] <= 1.0
    assert payload["outcomes"] and all(
        isinstance(v, int) for v in payload["outcomes"].values()
    )

    backend = build_backend("live", config=GatewayConfig(endpoint="http://localhost:9"))
    assert isinstance(backend, LiveBackend)
    _verdict(9, "report exposes split accuracies and an outcome histogram; structure only")
