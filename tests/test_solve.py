"""Model enumeration tests, checked against a generate-and-test oracle."""
from __future__ import annotations

import dataclasses
import hashlib
import random
import time
import tracemalloc

import pytest

from conftest import DATA_DIR, assert_deadline_holds
from oracles import clique_program, oracle_models, random_program

from puzzle2asp.ground import GAtom, GroundProgram, ground_program
from puzzle2asp.solve import (
    SolveTimeout,
    _Engine,
    _FALSE,
    _TRUE,
    _UNDEC,
    check_model,
    enumerate_models,
    render_models,
)
from puzzle2asp.syntax import parse_program

def _queens(n: int) -> str:
    span = ";".join(str(i) for i in range(1, n + 1))
    return (
        f"index_of_row({span}).\n"
        f"index_of_column({span}).\n"
        "{assign(Ir, Ic): index_of_column(Ic)}=1 :- index_of_row(Ir).\n"
        "{Ic1=Ic2}=0 :- assign(Ir1, Ic1), assign(Ir2, Ic2), Ir1!=Ir2.\n"
        "{|Ir1-Ir2|=|Ic1-Ic2|}=0 :- assign(Ir1, Ic1), assign(Ir2, Ic2), Ir1!=Ir2.\n"
    )


QUEENS4 = _queens(4)


# ---------------------------------------------------------------------------
# Reference implementation: brute force over per-choice selections
# ---------------------------------------------------------------------------


def solve_text(text: str, **kwargs):
    return enumerate_models(ground_program(parse_program(text)), **kwargs)


def assert_matches_oracle(text: str):
    g = ground_program(parse_program(text))
    result = enumerate_models(g, limit=None)
    assert result.exhausted
    assert {frozenset(m.atoms) for m in result.models} == oracle_models(g)
    assert len({frozenset(m.atoms) for m in result.models}) == len(result.models)


# ---------------------------------------------------------------------------
# Known puzzles
# ---------------------------------------------------------------------------


def test_furniture_unique_model(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    result = enumerate_models(g, limit=None)
    assert result.exhausted
    assert len(result.models) == 1
    chosen = {a.render() for a in result.models[0].atoms if a.predicate == "match"}
    assert chosen == {
        'match("Bonita",325,"poplar")',
        'match("Tabitha",225,"ash")',
        'match("Yvette",275,"sandalwood")',
    }
    assert {frozenset(m.atoms) for m in result.models} == oracle_models(g)


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA_DIR.glob("*.lp")))
def test_corpus_models_pass_check_model(corpus, name):
    g = ground_program(parse_program(corpus[name]))
    result = enumerate_models(g, limit=2)
    assert result.models
    for model in result.models:
        assert check_model(g, model.atoms).ok


def test_four_queens_has_two_models():
    g = ground_program(parse_program(QUEENS4))
    result = enumerate_models(g, limit=None)
    assert len(result.models) == 2
    assert {frozenset(m.atoms) for m in result.models} == oracle_models(g)


def test_matches_oracle_weight_loss(corpus):
    assert_matches_oracle(corpus["weight_loss"])


def test_matches_oracle_overlapping_choices():
    # Both choice instances range over the same candidates; selections must agree.
    assert_matches_oracle("d(1;2).\ne(1;2;3).\n{p(E): e(E)}=1 :- d(X).")


def test_matches_oracle_multi_model():
    assert_matches_oracle(
        "n(1;2;3).\n{p(A): n(A)}=2 :- n(1).\nA1+A2!=5 :- p(A1), p(A2), A1<A2.\n"
    )


def _latin(n: int) -> str:
    # every assign atom sits in three overlapping exactly-one choices
    span = ";".join(str(i) for i in range(1, n + 1))
    return (
        f"index_of_row({span}).\n"
        f"index_of_column({span}).\n"
        f"number({span}).\n"
        "{assign(Ir, Ic, N): number(N)}=1 :- index_of_row(Ir), index_of_column(Ic).\n"
        "{assign(Ir, Ic, N): index_of_column(Ic)}=1 :- index_of_row(Ir), number(N).\n"
        "{assign(Ir, Ic, N): index_of_row(Ir)}=1 :- index_of_column(Ic), number(N).\n"
    )


# Model counts are OEIS A002860 (Latin squares) and A000170 (n-queens).
@pytest.mark.parametrize(
    "text, count",
    [(_latin(3), 12), (_latin(4), 576), (_queens(9), 352)],
    ids=["latin3", "latin4", "queens9"],
)
def test_overlapping_choices_known_model_counts(text, count):
    g = ground_program(parse_program(text))
    result = enumerate_models(g, limit=None)
    assert result.exhausted
    assert len(result.models) == count
    assert len({m.atoms for m in result.models}) == count
    for model in result.models:
        assert check_model(g, model.atoms)


# Random programs ground to no ternary nogood, so these hand-written ones put
# ternary nogoods, which `_nogood` scans, on atoms that also sit in binary
# implication lists.  Each comes with the nogood arities it grounds to: the
# first forces atoms through ternary nogoods, the second adds a unit nogood,
# and the third reaches ternary conflicts when a choice fills up.
SHARED_NOGOOD_PROGRAMS = [
    (
        "n(1;2;3;4).\n"
        "{p(X): n(X)}=2 :- n(1).\n"
        "{q(X): n(X)}=2 :- n(1).\n"
        "X!=Y :- p(X), q(Y).\n"
        "X+Y+Z!=7 :- p(X), p(Y), q(Z), X<Y.\n",
        {2, 3},
    ),
    (
        "n(1;2;3).\n"
        "{p(X): n(X)}=2 :- n(1).\n"
        "{q(X): n(X)}=1 :- n(1).\n"
        "{r(X): n(X)}=2 :- n(1).\n"
        "X!=3 :- q(X).\n"
        "X!=Y :- p(X), q(Y).\n"
        "X+Y!=Z :- p(X), q(Y), r(Z).\n",
        {1, 2, 3},
    ),
    (
        "n(1;2;3).\n"
        "{p(X): n(X)}=2 :- n(1).\n"
        "{q(X): n(X)}=2 :- n(1).\n"
        "X!=Y :- p(X), q(Y), X>2.\n"
        "X+Y+Z!=6 :- p(X), q(Y), q(Z), Y<Z.\n",
        {2, 3},
    ),
]


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA_DIR.glob("*.lp")))
def test_conflicts_equal_the_expanded_pairs(corpus, name):
    # `conflicts` holds binary nogoods only, and each atom lists its groups.
    # Together they give each atom the partners of the expanded pairs.
    g = ground_program(parse_program(corpus[name]))
    expected: list[set[int]] = [set() for _ in g.atoms]
    for nogood in g.expanded_nogoods():
        if len(nogood.atoms) == 2:
            a, b = nogood.atoms
            expected[a].add(b)
            expected[b].add(a)
    engine = _Engine(g, None, 10.0)
    binary = [n.atoms for n in g.nogoods if len(n.atoms) == 2]
    assert sum(map(len, engine.conflicts)) == 2 * len(binary)
    for aid, partners in enumerate(engine.conflicts):
        assert partners == sorted(partners)
        grouped = {other for group in engine.atom_groups[aid] for other in group}
        assert all(aid in group for group in engine.atom_groups[aid])
        assert (set(partners) | grouped) - {aid} == expected[aid]
    assert sum(map(len, engine.atom_groups)) == sum(map(len, g.groups))
    if name == "sudoku9":
        assert g.groups and not any(engine.conflicts)


def _expanded(g):
    """The same program with every group expanded into its binary nogoods."""
    return GroundProgram(g.facts, g.atoms, g.choices, g.expanded_nogoods(), ())


def test_groups_solve_like_their_expanded_pairs(corpus):
    # Walking a group visits its members in another order than the expanded
    # pairs would, so only `propagations` may differ, on branches that end
    # in a conflict.  Few random programs have groups; clique programs do.
    programs = [(name, ground_program(parse_program(corpus[name])), 2) for name in sorted(corpus)]
    for make, seeds in ((random_program, range(3000)), (clique_program, range(500))):
        programs += [
            (f"{make.__name__} {seed}", ground_program(make(random.Random(seed))), None)
            for seed in seeds
        ]
    grouped = 0
    for label, g, limit in programs:
        grouped += bool(g.groups)
        walked = enumerate_models(g, limit=limit)
        expanded = enumerate_models(_expanded(g), limit=limit)
        assert render_models(walked) == render_models(expanded), label
        assert walked.stats.decisions == expanded.stats.decisions, label
    assert grouped > 150


def test_counters_match_assignment_after_every_undo(monkeypatch):
    # Seeds 1807 and 1995 overflow a choice while the overflowing atom still
    # belongs to later choices whose counters must move with it.  Nogoods keep
    # no counters; the trail must list each decided atom exactly once.
    undo = _Engine._undo_to
    undos = 0

    def checked_undo(self, mark):
        nonlocal undos
        undo(self, mark)
        undos += 1
        a = self.assignment
        for ci, members in enumerate(self.choice_members):
            assert self.choice_true[ci] == sum(a[i] == _TRUE for i in members)
            assert self.choice_false[ci] == sum(a[i] == _FALSE for i in members)
        assert len(self.trail) == mark
        assert len(set(self.trail)) == len(self.trail)
        assert set(self.trail) == {i for i, v in enumerate(a) if v != _UNDEC}

    programs = [ground_program(random_program(random.Random(seed))) for seed in (1807, 1995)]
    for text, arities in SHARED_NOGOOD_PROGRAMS:
        g = ground_program(parse_program(text))
        assert {len(nogood.atoms) for nogood in g.nogoods} == arities
        programs.append(g)
    monkeypatch.setattr(_Engine, "_undo_to", checked_undo)
    for g in programs:
        result = enumerate_models(g, limit=None)
        assert result.exhausted
        assert {m.atoms for m in result.models} == oracle_models(g)
    assert undos > 0


# SHA-256 of `stats.decisions` and `render_models` for every corpus program
# (limit=2) and for random_program seeds 0-2999 (all models).  The oracle
# tests compare model sets; this also pins model order and the branching
# count, so a solver change that moves either shows up here.
SOLVER_OUTPUT_SHA256 = "a60d509e02f8f80442cc0d0add34081fab5cfe6f6e013362c1eaccd8dfffc8d0"
# The summed `stats.propagations` over the same runs, which the traced
# `solve.propagations` benchmark metric reports.  It fell from 48,688 when
# the solver began to walk groups instead of their expanded pairs: members
# are visited in another order, so a branch that ends in a conflict can stop
# after forcing fewer atoms.
SOLVER_PROPAGATIONS = 45_837


def test_solver_output_is_pinned(corpus):
    digest = hashlib.sha256()
    propagations = 0

    def add(label, g, limit):
        nonlocal propagations
        result = enumerate_models(g, limit=limit)
        digest.update(f"{label} decisions={result.stats.decisions}\n".encode())
        digest.update(render_models(result).encode())
        propagations += result.stats.propagations

    for name in sorted(corpus):
        add(name, ground_program(parse_program(corpus[name])), 2)
    for seed in range(3000):
        add(f"seed {seed}", ground_program(random_program(random.Random(seed))), None)
    assert digest.hexdigest() == SOLVER_OUTPUT_SHA256
    assert propagations == SOLVER_PROPAGATIONS


# ---------------------------------------------------------------------------
# Cardinality edge cases
# ---------------------------------------------------------------------------


def test_choice_of_zero_forces_all_false():
    result = solve_text("d(1;2).\n{p(X): d(X)}=0 :- d(1).", limit=None)
    assert len(result.models) == 1
    assert all(a.predicate == "d" for a in result.models[0].atoms)


def test_choice_covering_all_candidates_forces_all_true():
    result = solve_text("d(1;2).\n{p(X): d(X)}=2 :- d(1).", limit=None)
    assert len(result.models) == 1
    assert GAtom("p", (1,)) in result.models[0].atoms
    assert GAtom("p", (2,)) in result.models[0].atoms


def test_infeasible_cardinality_has_no_models():
    result = solve_text("d(1;2).\n{p(X): d(X)}=3 :- d(1).", limit=None)
    assert result.models == []
    assert result.exhausted


def test_statically_violated_program_has_no_models():
    result = solve_text("p(1;2).\nq(5;6).\nX=Y :- p(X), q(Y).", limit=None)
    assert result.models == []
    assert result.exhausted


# ---------------------------------------------------------------------------
# Enumeration contract
# ---------------------------------------------------------------------------


def test_limit_yields_a_prefix():
    g = ground_program(parse_program(QUEENS4))
    full = enumerate_models(g, limit=None)
    for limit in (1, 2, 3):
        partial = enumerate_models(g, limit=limit)
        expect = [frozenset(m.atoms) for m in full.models][:limit]
        assert [frozenset(m.atoms) for m in partial.models] == expect


def test_limit_one_on_two_model_program_is_not_exhausted():
    g = ground_program(parse_program(QUEENS4))
    assert enumerate_models(g, limit=1).exhausted is False


def test_limit_must_be_positive():
    g = ground_program(parse_program("d(1)."))
    with pytest.raises(ValueError):
        enumerate_models(g, limit=0)


def test_deterministic_output(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    first = render_models(enumerate_models(g, limit=None))
    second = render_models(enumerate_models(g, limit=None))
    assert first == second
    assert first.endswith("MODELS 1 EXHAUSTED true\n")


def test_stats_are_populated(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    result = enumerate_models(g, limit=None)
    assert result.stats.decisions > 0
    assert result.stats.propagations > 0
    assert result.stats.elapsed_s >= 0.0


def test_expired_deadline_raises(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    with pytest.raises(SolveTimeout):
        enumerate_models(g, limit=None, deadline=time.monotonic() - 1.0)


def test_deadline_holds_in_search():
    # 12 pigeons, 11 holes: no model, and no quick proof of it.  `P1<P2`
    # keeps the rule's conflicts binary nogoods instead of groups.
    pigeons, holes = ";".join(map(str, range(12))), ";".join(map(str, range(11)))
    g = ground_program(parse_program(
        f"pigeon({pigeons}).\nhole({holes}).\n{{at(P,H): hole(H)}}=1 :- pigeon(P).\n"
        "{H1=H2}=0 :- at(P1,H1), at(P2,H2), P1<P2.\n"
    ))
    assert len(g.nogoods) == 11 * 66 and not g.groups
    assert_deadline_holds(
        lambda deadline: enumerate_models(g, limit=None, deadline=deadline), SolveTimeout
    )


def _two_groups(rows: int):
    """`rows` rows that each pick one of two columns, at most one row per
    column: two groups of `rows` atoms, and no model."""
    text = (
        "d(" + ";".join(map(str, range(rows))) + ").\nh(0;1).\n{c(X,Y): h(Y)}=1 :- d(X).\n"
        "{Y1=Y2}=0 :- c(X1,Y1), c(X2,Y2), X1!=X2.\n"
    )
    g = ground_program(parse_program(text))
    assert [len(group) for group in g.groups] == [rows, rows] and not g.nogoods
    return g


def test_deadline_holds_in_solver_setup():
    g = _two_groups(3000)
    assert_deadline_holds(
        lambda deadline: enumerate_models(g, limit=None, deadline=deadline), SolveTimeout
    )


def test_groups_take_memory_linear_in_their_size():
    # Expanded into pairs, two 1,000-row groups took a 78.7 MiB peak.
    g = _two_groups(1000)
    tracemalloc.start()
    try:
        result = enumerate_models(g, limit=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.models == [] and result.exhausted
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------


def test_check_model_accepts_solver_output(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    result = enumerate_models(g, limit=None)
    assert check_model(g, result.models[0].atoms)


def test_check_model_rejects_missing_fact(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    model = set(enumerate_models(g, limit=None).models[0].atoms)
    model.discard(GAtom("price", (225,)))
    verdict = check_model(g, model)
    assert not verdict.ok
    assert "missing fact" in verdict.violation


def test_check_model_rejects_wrong_cardinality(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    model = set(enumerate_models(g, limit=None).models[0].atoms)
    model.discard(GAtom("match", ("Tabitha", 225, "ash")))
    verdict = check_model(g, model)
    assert not verdict.ok
    assert "choice" in verdict.violation


def test_check_model_rejects_unknown_atom(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    model = set(enumerate_models(g, limit=None).models[0].atoms)
    model.add(GAtom("match", ("Nobody", 999, "teak")))
    verdict = check_model(g, model)
    assert not verdict.ok
    assert "unknown atom" in verdict.violation


def test_check_model_reports_violated_nogood(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    model = set(enumerate_models(g, limit=None).models[0].atoms)
    model.discard(GAtom("match", ("Bonita", 325, "poplar")))
    model.discard(GAtom("match", ("Tabitha", 225, "ash")))
    model.add(GAtom("match", ("Bonita", 225, "poplar")))
    model.add(GAtom("match", ("Tabitha", 325, "ash")))
    verdict = check_model(g, model)
    assert not verdict.ok  # Bonita must pay 325


# SHA-256 of `check_model(...).violation` for every single-atom flip of the
# first two models of three corpus programs: each fact and candidate atom
# toggled, and each choice's true candidate moved to another of its
# candidates.  A toggle trips a fact or choice check first; a move keeps
# every choice count, so it reaches the nogoods and names the first one
# violated.  Computed before the grounder emitted at-most-one groups.
FLIP_PROGRAMS = ("weight_loss", "sudoku9", "queens8")
FLIP_VIOLATIONS = 3216
FLIP_SHA256 = "821b31e30615de85c4766c37168cc6e504e0fd9a08b3b148d85c455d45ca4b4c"


def test_check_model_violations_are_pinned(corpus):
    digest = hashlib.sha256()
    flipped_count = 0
    for name in FLIP_PROGRAMS:
        g = ground_program(parse_program(corpus[name]))
        for model in enumerate_models(g, limit=2).models:
            base = set(model.atoms)
            flips = [base ^ {a} for a in sorted(g.facts, key=lambda a: a.render()) + list(g.atoms)]
            for choice in g.choices:
                (on,) = [g.atoms[i] for i in choice.candidates if g.atoms[i] in base]
                flips += [base - {on} | {g.atoms[i]} for i in choice.candidates if g.atoms[i] != on]
            for flipped in flips:
                flipped_count += 1
                digest.update(f"{check_model(g, flipped).violation}\n".encode())
    assert flipped_count == FLIP_VIOLATIONS
    assert digest.hexdigest() == FLIP_SHA256


def test_check_model_names_the_first_expanded_nogood():
    # check_model finds the first violated nogood without expanding the
    # groups.  With the choices dropped, any set of candidates reaches the
    # nogood check, and a group may hold three or more true atoms.
    checked = 0
    for seed in range(200):
        for program in (clique_program(random.Random(seed)), random_program(random.Random(seed))):
            g = dataclasses.replace(ground_program(program), choices=())
            expanded = g.expanded_nogoods()
            rng = random.Random(seed)
            for _ in range(10):
                atoms = set(g.facts) | {a for a in g.atoms if rng.random() < 0.5}
                first = next(
                    (n.atoms for n in expanded if all(g.atoms[i] in atoms for i in n.atoms)), None
                )
                expected = None
                if first is not None:
                    expected = "nogood violated: [" + ", ".join(g.atoms[i].render() for i in first) + "]"
                    checked += 1
                assert check_model(g, atoms).violation == expected, seed
    assert checked > 1000
