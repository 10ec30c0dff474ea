"""Grounding tests: the nogood translation against a brute-force substitution oracle."""
from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, assert_deadline_holds
from oracles import (
    clique_program,
    commutative_program,
    decoded,
    ill_typed_program,
    oracle_ground,
    symmetric_program,
)

import puzzle2asp
from puzzle2asp import ground
from puzzle2asp.ground import (
    GAtom,
    GroundingError,
    GroundTimeout,
    Nogood,
    evaluate_comparison,
    evaluate_term,
    ground_program,
)
from puzzle2asp.solve import enumerate_models
from puzzle2asp.syntax import (
    Arith,
    Comparison,
    IntConst,
    StrConst,
    TestRule,
    parse_program,
)


def assert_matches_oracle(text: str):
    program = parse_program(text)
    assert decoded(ground_program(program)) == oracle_ground(program)


# ---------------------------------------------------------------------------
# Fact expansion
# ---------------------------------------------------------------------------


def test_pooled_facts_expand_cartesian():
    g = ground_program(parse_program('p(1; 2, "x"; "y").'))
    assert {a.render() for a in g.facts} == {'p(1,"x")', 'p(1,"y")', 'p(2,"x")', 'p(2,"y")'}


def test_fact_arguments_may_be_arithmetic():
    g = ground_program(parse_program("p(1+1; 6/2)."))
    assert {a.args[0] for a in g.facts} == {2, 3}


def test_duplicate_fact_rows_collapse():
    g = ground_program(parse_program("p(1;1;2).\np(2)."))
    assert len(g.facts) == 2


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


def test_matches_oracle_furniture(corpus):
    assert_matches_oracle(corpus["against_grain"])


def test_matches_oracle_weight_loss(corpus):
    assert_matches_oracle(corpus["weight_loss"])


def test_matches_oracle_shidoku(corpus):
    assert_matches_oracle(corpus["shidoku4"])


def test_matches_oracle_queens(corpus):
    assert_matches_oracle(corpus["queens8"])


def test_matches_oracle_arith_and_tuples():
    assert_matches_oracle(
        "n(1;2;3).\n"
        "{pick(A, B): n(B)}=1 :- n(A).\n"
        "|A1-A2|!=1; B1=B2 :- pick(A1, B1), pick(A2, B2), A1<A2.\n"
        "{(A, B)!=(1, 1); A\\2=0}=1 :- pick(A, B).\n"
        "A*2+B<9 :- pick(A, B).\n"
    )


def test_never_instantiated_choice_leaves_an_empty_extension():
    # The choice body is unsatisfiable, so c/1 has no candidates anywhere;
    # a test rule over it must match zero times rather than blow up.
    text = "d(1;2).\n{c(X): d(X)}=1 :- d(Y), Y>5.\nX=1 :- c(X).\n"
    assert_matches_oracle(text)
    g = ground_program(parse_program(text))
    assert g.choices == ()
    assert g.nogoods == ()


ATOM_FREE_BODIES = [
    "1=2 :- 1>0.",
    "1=2 :- 1>2.",
    "{1=1}=0 :- 1=1.",
    "d(1;2).\n{p(X): d(X)}=1 :- 1<2.",
]


@pytest.mark.parametrize("text", ATOM_FREE_BODIES)
def test_atom_free_body_matches_oracle(text):
    # Safe by validate_safety; the plan has no atom to hang the comparisons on.
    assert_matches_oracle(text)


def test_atom_free_bodies_ground_as_expected():
    for violated in ("1=2 :- 1>0.", "{1=1}=0 :- 1=1."):
        g = ground_program(parse_program(violated))
        assert len(g.nogoods) == 1 and decoded(g)[2] == {frozenset()}
        assert enumerate_models(g, limit=None).models == []
    assert ground_program(parse_program("1=2 :- 1>2.")).dump() == ""
    (choice,) = decoded(ground_program(parse_program("d(1;2).\n{p(X): d(X)}=1 :- 1<2.")))[1]
    assert choice[2] == (GAtom("p", (1,)), GAtom("p", (2,)))


def test_furniture_ground_shape(corpus):
    g = ground_program(parse_program(corpus["against_grain"]))
    assert len(g.facts) == 9
    assert len(g.choices) == 3
    assert all(c.k == 1 and len(c.candidates) == 9 for c in g.choices)
    assert all(n.atoms for n in g.nogoods)  # nothing is statically violated


# ---------------------------------------------------------------------------
# Arithmetic semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,quotient,remainder",
    [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)],
)
def test_division_truncates_toward_zero(a, b, quotient, remainder):
    assert evaluate_term(Arith("/", IntConst(a), IntConst(b)), {}) == quotient
    assert evaluate_term(Arith("\\", IntConst(a), IntConst(b)), {}) == remainder


# Each rule is statically error-free, so it is grounded through compiled terms;
# every one tells truncating division and sign-of-dividend remainder apart
# from Python's flooring // and %.
NEGATIVE_DIVISION_DOMAIN = "p(-7;-6;-1;1;6;7).\nq(-3;-1;1).\n{c(X): p(X)}=2.\n"
NEGATIVE_DIVISION_RULES = {
    "negated-head": "X/2=-3 :- c(X).",
    "two-heads": "X\\2=-1; X>0 :- c(X).",
    "probe": "{X/2=Y}=0 :- c(X), q(Y).",
    "row-side": "{Y/(-2)=X\\2}=0 :- c(X), q(Y).",
    "counted-heads": "{X/2=-3; X\\2=-1}=1 :- c(X).",
    "filter": "X>0 :- c(X), X\\2<0, X/2!=-3.",
    "choice-head": "{h(X/2, X\\2): p(X)}=1.\nA/2=B\\2 :- h(A, B).",
}


@pytest.mark.parametrize("rule", NEGATIVE_DIVISION_RULES.values(), ids=NEGATIVE_DIVISION_RULES)
def test_negative_division_through_a_compiled_rule(rule):
    assert_matches_oracle(NEGATIVE_DIVISION_DOMAIN + rule)


@given(st.integers(-200, 200), st.integers(-20, 20).filter(lambda b: b != 0))
@settings(max_examples=200, deadline=None)
def test_division_identity(a, b):
    q = evaluate_term(Arith("/", IntConst(a), IntConst(b)), {})
    r = evaluate_term(Arith("\\", IntConst(a), IntConst(b)), {})
    assert q * b + r == a
    assert r == 0 or (r > 0) == (a > 0)  # remainder takes the dividend's sign
    assert abs(r) < abs(b)


def test_comparing_unlike_types_is_an_error():
    with pytest.raises(TypeError):
        evaluate_comparison(Comparison(IntConst(1), "=", StrConst("a")), {})


def test_ordering_strings_is_an_error():
    with pytest.raises(TypeError):
        evaluate_comparison(Comparison(StrConst("a"), "<", StrConst("b")), {})


# ---------------------------------------------------------------------------
# Evaluation failures surface as GroundingError with the offending rule
# ---------------------------------------------------------------------------


def test_division_by_zero_names_the_rule():
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program("p(1).\nq(1/0)."))
    assert info.value.rule_index == 1


def test_string_arithmetic_names_the_rule():
    text = 'p("a";"b").\nd(1;2).\n{m(X, Y): d(Y)}=1 :- p(X).\nX+1=2 :- m(X, Y).'
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program(text))
    assert info.value.rule_index == 3
    assert info.value.binding  # carries the offending variable assignment


def test_validation_failure_is_a_grounding_error():
    with pytest.raises(GroundingError):
        ground_program(parse_program("X=Y :- p(X), q(Y)."))


# ---------------------------------------------------------------------------
# Structure of the result
# ---------------------------------------------------------------------------


def test_statically_violated_rule_yields_empty_nogood():
    g = ground_program(parse_program("p(1;2).\nq(5;6).\nX=Y :- p(X), q(Y)."))
    assert any(not n.atoms for n in g.nogoods)


def test_candidates_sort_integers_before_strings():
    g = ground_program(parse_program('v("a"; 1).\nd(1).\n{q(V): v(V)}=1 :- d(X).'))
    (choice,) = decoded(g)[1]
    assert [a.render() for a in choice[2]] == ["q(1)", 'q("a")']


def test_dump_golden():
    text = "d(1;2).\n{p(X): d(X)}=1 :- d(X).\nX<Y :- p(X), p(Y), X!=Y.\n"
    expected = (
        "FACT d(1)\n"
        "FACT d(2)\n"
        "CHOICE k=1 [p(1)]\n"
        "CHOICE k=1 [p(2)]\n"
        "NOGOOD [p(1), p(2)]\n"
    )
    assert ground_program(parse_program(text)).dump() == expected


def test_choice_body_variable_joins_into_conditions():
    # X is bound by the body, so each instantiation offers a single candidate.
    g = ground_program(parse_program("d(1;2).\n{p(X): d(X)}=1 :- d(X)."))
    decoded(g)  # the table invariants
    assert [tuple(g.atoms[i] for i in c.candidates) for c in g.choices] == [
        (GAtom("p", (1,)),),
        (GAtom("p", (2,)),),
    ]


def test_deterministic_across_runs(corpus):
    first = ground_program(parse_program(corpus["foodie"])).dump()
    second = ground_program(parse_program(corpus["foodie"])).dump()
    assert first == second


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA_DIR.glob("*.lp")))
def test_expired_deadline_raises(corpus, name):
    # The deadline is read for every fact row and before every probe, so even
    # a program that grounds in a few milliseconds stops at its first fact.
    program = parse_program(corpus[name])
    with pytest.raises(GroundTimeout):
        ground_program(program, deadline=time.monotonic() - 1.0)


def test_deadline_holds_in_fact_sort(monkeypatch):
    # The clock passes the deadline once the last fact atom is built, so only
    # a check in the sort of the rows that follows can raise.
    built = []

    def counted_atom(predicate, args):
        built.append(args)
        return GAtom(predicate, args)

    monkeypatch.setattr(ground, "GAtom", counted_atom)
    monkeypatch.setattr(ground.time, "monotonic", lambda: 10.0 if len(built) == 3 else 0.0)
    with pytest.raises(GroundTimeout):
        ground_program(parse_program("p(1;2;3)."), deadline=1.0)
    assert len(built) == 3


def test_deadline_holds_in_fact_expansion():
    # One pooled fact of 80^3 rows takes seconds to expand without a check.
    pool = ";".join(map(str, range(80)))
    program = parse_program(f"p({pool},{pool},{pool}).")
    start = time.monotonic()
    with pytest.raises(GroundTimeout):
        ground_program(program, deadline=start + 0.5)
    assert time.monotonic() - start < 2.0


def test_deadline_holds_in_a_choice_join():
    # 3,600 choices of 60 candidates each
    pool = ";".join(map(str, range(60)))
    program = parse_program(f"d({pool}).\n{{c(X,Y,Z): d(Z)}}=1 :- d(X), d(Y).\n")
    assert_deadline_holds(lambda deadline: ground_program(program, deadline=deadline), GroundTimeout)


def _nogood_set(values: int) -> str:
    """A program whose test rule's join key holds the violation, so nearly
    all of its time goes to finding, converting and ordering nogoods."""
    return (
        "d(" + ";".join(map(str, range(values))) + ").\n{c(X,Y): d(Y)}=1 :- d(X).\n"
        "X1+Y1!=X2+Y2+1 :- c(X1,Y1), c(X2,Y2).\n"
    )


def test_deadline_holds_while_a_large_nogood_set_is_ordered():
    # 143,960 nogoods: converting and ordering them takes about twice as
    # long as finding them.
    program = parse_program(_nogood_set(60))
    assert_deadline_holds(lambda deadline: ground_program(program, deadline=deadline), GroundTimeout)


def test_deadline_holds_while_nogoods_are_made(monkeypatch):
    # 660 nogoods.  The clock passes the deadline as the first Nogood is
    # made, after the sort, so only a check between batches can raise.
    made = []

    def counted_nogood(atoms):
        made.append(atoms)
        return Nogood(atoms)

    monkeypatch.setattr(ground, "Nogood", counted_nogood)
    monkeypatch.setattr(ground.time, "monotonic", lambda: 10.0 if made else 0.0)
    with pytest.raises(GroundTimeout):
        ground_program(parse_program(_nogood_set(10)), deadline=1.0)
    assert len(made) == 256


def test_deadline_holds_once_nogoods_are_ordered(monkeypatch):
    # The clock passes the deadline once every test rule is joined and the
    # nogoods are being ordered, so only a check there can raise.
    ordering = []
    in_order = ground._in_order

    def counted(*args):
        ordering.append(None)
        return in_order(*args)

    monkeypatch.setattr(ground, "_in_order", counted)
    monkeypatch.setattr(ground.time, "monotonic", lambda: 10.0 if ordering else 0.0)
    text = "d(1;2;3).\n{c(X): d(X)}=2.\nX1+1!=X2 :- c(X1), c(X2).\n"
    with pytest.raises(GroundTimeout):
        ground_program(parse_program(text), deadline=1.0)
    assert ordering


# ---------------------------------------------------------------------------
# Pinned output: SHA-256 of the dump of every corpus program
# ---------------------------------------------------------------------------

CORPUS_DUMP_SHA256 = {
    "against_grain": "3d23258015c075e1b91bf7d55248356dbad6d3732b4c464d17f05a8393a64d64",
    "anti_knight": "faaa1553d4d4fe32f208872aa783e67eff1ce6229ef44529a2b7e9417a817b9c",
    "foodie": "56ab9d6415e2b4cd24c522b6dfdc2ab99420287507f01e3039675fe412756e1c",
    "jobs": "a500ea0dd0ad1655ff73f48b8dafe8de954ea2ab45bab9656fd1a24683080c53",
    "offset_sudoku": "1f7c87ef020d40b34207dc44d2f4ec2c4704804868ec80624201282794579d65",
    "queens8": "b0d256686f1a52acdd9a29cc59dcc7bbd254f16d7972f03b25bf535db296a808",
    "shidoku4": "409abe1caffec52d7af08629e97753fdbdb7ccf6c747b48f6b08a2108183c601",
    "sudoku9": "00c75d59ff8b6dc6f3688a734f60b9615efcbcbf88f97d210f1bcbeb9c45b84f",
    "sudoku9_zero": "c5c15d046017ef1e8287ffd3b4c9cf250e4049198f4a979b5e5619893c7790cd",
    "sudoku_x": "a6e076bf3dca61afcf226b9874ee7e3022de7059b1494028358880ba698e1dfc",
    "weight_loss": "2546124dacb80cc58425da1144768b16251b600eb6a7c37c58e69a0b0071ec58",
    "winter_olympics": "1ed306f9a7bb76dbc8b0bc6f1a2ada71a3affab93b480d2bd29728a9f4f99963",
}


def test_dump_hashes_cover_the_corpus():
    assert sorted(CORPUS_DUMP_SHA256) == sorted(p.stem for p in DATA_DIR.glob("*.lp"))


@pytest.mark.parametrize("name", sorted(CORPUS_DUMP_SHA256))
def test_corpus_dump_is_pinned(corpus, name):
    dump = ground_program(parse_program(corpus[name])).dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == CORPUS_DUMP_SHA256[name]


# ---------------------------------------------------------------------------
# Errors are raised exactly where the literal order reaches them, even where
# keys and pushed heads could skip instances
# ---------------------------------------------------------------------------


def test_unreached_non_ground_atom_raises_nothing():
    # X>5 drops every instance before c(Y+1), whose argument is not ground.
    text = "d(1).\ne(1).\n{c(X): d(X)}=1 :- e(Z).\nX=1 :- c(X), X>5, c(Y+1).\n"
    ground_program(parse_program(text))


def test_reached_non_ground_atom_raises():
    text = "d(6).\ne(1).\n{c(X): d(X)}=1 :- e(Z).\nX=1 :- c(X), X>5, c(Y+1).\n"
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program(text))
    assert info.value.rule_index == 3
    assert info.value.message == "argument of c is not ground when matched"


def test_division_by_zero_survives_a_pushable_head():
    # The head X1=X2 contradicts X1!=X2, so no instance violates the rule,
    # but the body still divides by Z=0.
    text = (
        "p(0).\nd(1;2).\ne(1).\n{c(X): d(X)}=1 :- e(W).\nq(1).\n"
        "{X1=X2}=0 :- c(X1), c(X2), X1!=X2, p(Z), q(X1/Z).\n"
    )
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program(text))
    assert info.value.rule_index == 5
    assert "division by zero" in info.value.message


def test_mixed_type_column_is_not_used_as_a_key():
    text = (
        'p(1;"a").\nq(1;2).\n{c(X,Y): q(Y)}=1 :- p(X).\n'
        "{Y1=Y2}=0 :- c(X1,Y1), c(X2,Y2), X1=X2, Y1!=Y2.\n"
    )
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program(text))
    assert info.value.rule_index == 3
    assert "cannot compare 1 with 'a'" in info.value.message


def test_division_by_a_variable_that_can_be_zero():
    text = "p(0;1;2).\nd(1).\n{c(X): p(X)}=1 :- d(Z).\n{X1=X2}=0 :- c(X1), c(X2), 6/X1=3.\n"
    with pytest.raises(GroundingError) as info:
        ground_program(parse_program(text))
    assert info.value.rule_index == 3
    assert "division by zero" in info.value.message


# SHA-256 over, for each seed, the dump of the grounded ill-typed program or
# the text of the GroundingError it raises.
ILL_TYPED_SEEDS = range(3000)
ILL_TYPED_SHA256 = "d68e036597796e71eddcd803231b64870bcc57c497243cfb715db9f87a997ad4"


def test_ill_typed_programs_are_pinned():
    digest = hashlib.sha256()
    for seed in ILL_TYPED_SEEDS:
        try:
            out = ground_program(ill_typed_program(random.Random(seed))).dump()
        except GroundingError as exc:
            out = f"GroundingError: {exc}\n"
        digest.update(f"{seed}\n{out}".encode())
    assert digest.hexdigest() == ILL_TYPED_SHA256


# ---------------------------------------------------------------------------
# Symmetric self-joins: each mirror pair of instances is joined once
# ---------------------------------------------------------------------------

SYMMETRIC_RULES = {
    "against_grain": "{E1=E2; P1=P2; W1=W2}=0 :- match(E1,P1,W1), match(E2,P2,W2), (E1,P1,W1)!=(E2,P2,W2).",
    "foodie": "{W1=W2; P1=P2; N1=N2}=0 :- match(W1,P1,N1), match(W2,P2,N2), (W1,P1,N1)!=(W2,P2,N2).",
    "weight_loss": "{N1=N2; Pl1=Pl2; D1=D2}=0 :- match(N1,Pl1,D1), match(N2,Pl2,D2), (N1,Pl1,D1)!=(N2,Pl2,D2).",
    "queens-column": "{Ic1=Ic2}=0 :- assign(Ir1,Ic1), assign(Ir2,Ic2), Ir1!=Ir2.",
    "mirrored-order": "{A1<B2; A2<B1}=0 :- p(A1,B1), p(A2,B2), B1>A1, A2<B2.",
    "mirrored-order-k-none": "A1>=B2; B1<=A2 :- p(A1,B1), p(A2,B2).",
    "reversed-not-equal": "{A1=A2}=0 :- p(A1,B1), p(A2,B2), (B2,A2)!=(B1,A1), B1!=B2.",
    "shared-position": "{N1=N2}=0 :- assign(Ir1,Ic,N1), assign(Ir2,Ic,N2), (Ir1,N1)!=(Ir2,N2).",
    # the swap writes |Ir2-Ir1| for |Ir1-Ir2|, and each + and * with its
    # operands the other way round
    "knight": (
        "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), |Ir1-Ir2|+|Ic1-Ic2|=3, "
        "(Ir1,Ic1,N1)!=(Ir2,Ic2,N2)."
    ),
    "queens-diagonal": "{|Ir1-Ir2|=|Ic1-Ic2|}=0 :- assign(Ir1,Ic1), assign(Ir2,Ic2), Ir1!=Ir2.",
    "sum-and-product": "X1+X2<Y1*Y2 :- c(X1,Y1), c(X2,Y2), X2*X1!=4.",
}

ASYMMETRIC_RULES = {
    "roadmap-near-miss": 'P1>P2 :- match(E1,P1,W1), match(E2,P2,W2), W1="poplar", E2="Yvette".',
    "one-sided-comparison": 'E1=E2 :- match(E1,P1,W1), match(E2,P2,W2), W1="poplar".',
    "ordered-pair": "{A1=A2}=0 :- p(A1,B1), p(A2,B2), A1<A2.",
    "constant-argument": '{E1=E2}=0 :- match(E1,P1,"oak"), match(E2,P2,"oak").',
    "repeated-variable": "{A1=A2}=0 :- p(A1,A1), p(A2,A2).",
    "shared-at-other-position": "{A=C}=0 :- p(A,B), p(B,C).",
    "two-predicates": "{A1=A2}=0 :- p(A1,B1), q(A2,B2).",
    "three-atoms": "{A1=A2}=0 :- p(A1,B1), p(A2,B2), p(A3,B3).",
    "head-image-differs": "{A1<A2; B1=B2}=0 :- p(A1,B1), p(A2,B2).",
    "head-image-differs-k-none": "A1=B2 :- p(A1,B1), p(A2,B2).",
    "counted-k": "{A1=A2; B1=B2}=1 :- p(A1,B1), p(A2,B2), (A1,B1)!=(A2,B2).",
    "difference": "{X1-X2=1}=0 :- c(X1,Y1), c(X2,Y2).",
    "absolute-difference-across-columns": "{|X1-X2|=|X1-Y2|}=0 :- c(X1,Y1), c(X2,Y2).",
}


@pytest.mark.parametrize("text", SYMMETRIC_RULES.values(), ids=SYMMETRIC_RULES)
def test_symmetric_self_join_is_detected(text):
    (rule,) = parse_program(text).rules
    assert ground._symmetric(rule)


@pytest.mark.parametrize("text", ASYMMETRIC_RULES.values(), ids=ASYMMETRIC_RULES)
def test_asymmetric_self_join_is_not_detected(text):
    (rule,) = parse_program(text).rules
    assert not ground._symmetric(rule)


def test_mini_story_uniqueness_rules_are_detected(corpus):
    for name in ("against_grain", "foodie", "weight_loss"):
        assert SYMMETRIC_RULES[name] in corpus[name]


def _ordered_probes(monkeypatch, text: str) -> int:
    """Ground `text`, counting the probes of ordered (second-atom) steps."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return bisect_left(*args, **kwargs)

    bisect_left = ground.bisect_left
    monkeypatch.setattr(ground, "bisect_left", counted)
    assert_matches_oracle(text)
    return len(calls)


def test_only_error_free_chosen_self_joins_are_ordered(monkeypatch, corpus):
    # weight_loss's uniqueness rule is a clique: it is grouped, not joined
    assert _ordered_probes(monkeypatch, corpus["weight_loss"]) == 0
    assert ground_program(parse_program(corpus["weight_loss"])).groups
    domain = "d(1;2;3).\n{c(X): d(X)}=1.\n"
    assert _ordered_probes(monkeypatch, domain + "{X1=X2}=0 :- c(X1), c(X2).") > 0
    # a self-join of a domain predicate has no ids to order by
    assert _ordered_probes(monkeypatch, domain + "{X1=X2}=0 :- d(X1), d(X2), c(X1).") == 0
    assert _ordered_probes(monkeypatch, domain + "{X1=X2}=0 :- d(X1), d(X2).") == 0
    # symmetric, but dividing by a variable is not statically error-free
    divided = "{X1=X2}=0 :- c(X1), c(X2), X1/X2>=0, X2/X1>=0."
    assert ground._symmetric(parse_program(divided).rules[0])
    assert _ordered_probes(monkeypatch, domain + divided) == 0


# ---------------------------------------------------------------------------
# At-most-one rules: grouped by key, not joined pair by pair
# ---------------------------------------------------------------------------

CLIQUE_RULES = {
    "uniqueness": SYMMETRIC_RULES["weight_loss"],
    "sudoku-row": "{N1=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic1,N1)!=(Ic2,N2).",
    "sudoku-box": (
        "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), "
        "((Ir1-1)/3,(Ic1-1)/3)=((Ir2-1)/3,(Ic2-1)/3), (Ir1,Ic1,N1)!=(Ir2,Ic2,N2)."
    ),
    "offset-cell": (
        "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), Ir1\\3=Ir2\\3, Ic1\\3=Ic2\\3, "
        "(Ir1,Ic1,N1)!=(Ir2,Ic2,N2)."
    ),
    # given equal columns, the rows differ exactly when the atoms do
    "queens-column": SYMMETRIC_RULES["queens-column"],
    "reversed-sides": "{N2=N1}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic2,N2)!=(Ic1,N1), Ic2/3=Ic1/3.",
    "tuple-head": "{(A1,B1)=(A2,B2)}=0 :- p(A1,B1,C1), p(A2,B2,C2), C1!=C2.",
    "arithmetic-head": "{A1+B1=A2+B2}=0 :- p(A1,B1), p(A2,B2), (A1,B1)!=(A2,B2).",
}

NOT_CLIQUE_RULES = {
    "no-guard": "{N1=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2).",
    "one-sided-comparison": (
        "{N1=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic1,N1)!=(Ic2,N2), Ic1<5, Ic2<5."
    ),
    "swapped-pair": (
        "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), Ir1=Ic1, Ir2=Ic2, "
        "(Ir1,Ic1,N1)!=(Ir2,Ic2,N2)."
    ),
    "head-not-equal": "{N1!=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic1,N1)!=(Ic2,N2).",
    "head-not-mirrored": "{A1<B2; A2<B1}=0 :- p(A1,B1), p(A2,B2), (A1,B1)!=(A2,B2).",
    "k-none": "N1=N2 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic1,N1)!=(Ic2,N2).",
    "counted-k": SYMMETRIC_RULES["weight_loss"].replace("}=0", "}=1"),
    "guard-leaves-a-position": "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), (Ir1,N1)!=(Ir2,N2).",
    "head-fixes-no-position": "{N1/2=N2/2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), Ic1!=Ic2.",
    "second-head-uncovered": "{N1=N2; Ic1=Ic2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), Ic1!=Ic2.",
    "two-guards": "{N1=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), Ic1!=Ic2, N1!=N2.",
    "arithmetic-guard": "{N1=N2}=0 :- assign(Ir,Ic1,N1), assign(Ir,Ic2,N2), (Ic1+1,N1)!=(Ic2+1,N2).",
    "asymmetric": "{N1=N2}=0 :- assign(Ir1,Ic1,N1), assign(Ir2,Ic2,N2), (Ir1,Ic1,N1)!=(Ir2,Ic2,N2), Ir1<Ir2.",
}


@pytest.mark.parametrize("text", CLIQUE_RULES.values(), ids=CLIQUE_RULES)
def test_clique_rule_is_detected(text):
    (rule,) = parse_program(text).rules
    assert ground._clique(rule) is not None


@pytest.mark.parametrize("text", NOT_CLIQUE_RULES.values(), ids=NOT_CLIQUE_RULES)
def test_non_clique_rule_is_not_detected(text):
    (rule,) = parse_program(text).rules
    assert ground._clique(rule) is None


def _grouped_rules(monkeypatch) -> list:
    """Patch the grounder to list the rule body atom of every grouped rule."""
    grouped = []
    group = ground._Grounder._group

    def counted(self, atom, *args):
        grouped.append(atom)
        return group(self, atom, *args)

    monkeypatch.setattr(ground._Grounder, "_group", counted)
    return grouped


# The uniqueness rule of each logic puzzle, and the sudoku row, column, box
# and offset rules and the queens column rule.  The sudoku_x diagonal rules
# (``Ir1=Ic1, Ir2=Ic2``) and the knight and queens diagonal rules are not.
CORPUS_CLIQUES = {
    "against_grain": 1, "anti_knight": 3, "foodie": 1, "jobs": 0, "offset_sudoku": 4,
    "queens8": 1, "shidoku4": 3, "sudoku9": 3, "sudoku9_zero": 3, "sudoku_x": 3,
    "weight_loss": 1, "winter_olympics": 1,
}


def test_corpus_clique_rules_are_grouped(monkeypatch, corpus):
    assert sorted(CORPUS_CLIQUES) == sorted(corpus)
    grouped = _grouped_rules(monkeypatch)
    for name in sorted(corpus):
        del grouped[:]
        g = ground_program(parse_program(corpus[name]))
        assert len(grouped) == CORPUS_CLIQUES[name], name
        assert bool(g.groups) == bool(grouped)
    assert sum(CORPUS_CLIQUES.values()) == 24


def test_groups_expand_into_the_pairs_they_stand_for():
    # Each head buckets the 8 rows of c/3 by one column: 6 groups of 4 rows,
    # 36 pairs.  Two rows that agree on two columns share two groups, so the
    # distinct pairs are the 24 of rows that agree somewhere.
    text = (
        "d(0;1).\n{c(X,Y,Z): d(Y), d(Z)}=2 :- d(X).\n"
        "{X1=X2; Y1=Y2; Z1=Z2}=0 :- c(X1,Y1,Z1), c(X2,Y2,Z2), (X1,Y1,Z1)!=(X2,Y2,Z2).\n"
    )
    g = ground_program(parse_program(text))
    assert g.nogoods == ()
    assert g.groups == ((0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7))
    disjoint = {(0, 7), (1, 6), (2, 5), (3, 4)}  # ids are 4X+2Y+Z
    expected = [pair for pair in itertools.combinations(range(8), 2) if pair not in disjoint]
    assert [nogood.atoms for nogood in g.expanded_nogoods()] == expected
    assert_matches_oracle(text)


def test_clique_programs_match_oracle(monkeypatch):
    grouped = _grouped_rules(monkeypatch)
    rules = 0
    for seed in range(1500):
        program = clique_program(random.Random(seed))
        rules += sum(isinstance(rule, TestRule) for rule in program.rules)
        assert decoded(ground_program(program)) == oracle_ground(program), seed
    assert 0.5 * rules < len(grouped) < 0.9 * rules  # both paths are exercised


def test_expired_deadline_during_grouping_raises(monkeypatch):
    # The clock passes the deadline as the first clique rule starts grouping.
    grouped = _grouped_rules(monkeypatch)
    monkeypatch.setattr(ground.time, "monotonic", lambda: 10.0 if grouped else 0.0)
    text = "d(1;2;3).\n{c(X,Y): d(Y)}=1 :- d(X).\n" + CLIQUE_RULES["queens-column"].replace(
        "assign", "c"
    )
    with pytest.raises(GroundTimeout):
        ground_program(parse_program(text), deadline=1.0)
    assert len(grouped) == 1


# SHA-256 over, for each seed, the dump of the grounded symmetric_program;
# computed before the grounder joined symmetric rules once.
SYMMETRIC_SEEDS = range(3000)
SYMMETRIC_SHA256 = "e7206c52cbf6079a4a758c887032987a3ce0282ce228743a55e490bdaa957683"


def test_symmetric_programs_match_oracle_and_are_pinned():
    digest = hashlib.sha256()
    detected = 0
    for seed in SYMMETRIC_SEEDS:
        program = symmetric_program(random.Random(seed))
        detected += sum(ground._symmetric(r) for r in program.rules if isinstance(r, TestRule))
        g = ground_program(program)
        assert decoded(g) == oracle_ground(program), seed
        digest.update(f"{seed}\n{g.dump()}".encode())
    assert digest.hexdigest() == SYMMETRIC_SHA256
    assert 2000 < detected < 5000  # of 6,020 test rules: both paths are exercised


# SHA-256 over, for each seed, the dump of the grounded commutative_program;
# computed before `_symmetric` compared sides in canonical form.  Then it
# accepted 154 of the 1,974 test rules.
COMMUTATIVE_SEEDS = range(1000)
COMMUTATIVE_SHA256 = "760bb56f70162abb58d3893a4d7bf00e9022b468a68b3eb78da52a45aad59014"


def test_commutative_programs_match_oracle_and_are_pinned():
    digest = hashlib.sha256()
    rules = detected = 0
    for seed in COMMUTATIVE_SEEDS:
        program = commutative_program(random.Random(seed))
        tests = [rule for rule in program.rules if isinstance(rule, TestRule)]
        rules += len(tests)
        detected += sum(map(ground._symmetric, tests))
        g = ground_program(program)
        assert decoded(g) == oracle_ground(program), seed
        digest.update(f"{seed}\n{g.dump()}".encode())
    assert digest.hexdigest() == COMMUTATIVE_SHA256
    assert 0.6 * rules < detected < 0.9 * rules  # both paths are exercised


# ---------------------------------------------------------------------------
# Index sharing: steps share an index only when their signatures are equal
# ---------------------------------------------------------------------------

# Each pair of rules differs in one part of a step's index signature, and
# the nogoods of its two rules are disjoint, so neither hides the other's
# mistake.  "all-in-one" puts every rule in one program.
INDEX_NEAR_COLLISIONS = {
    # c(X,Y,X) and c(X,Y,Y) have the same binders and differ in what repeats
    "repeated-variable": "{X=2}=0 :- c(X,Y,X).\n{X=3}=0 :- c(X,Y,Y).\n",
    "row-side": (
        "{Z1=Z2}=0 :- c(X1,1,Z1), c(X2,1,Z2), (X1-1)/3=(X2-1)/3, X1!=X2.\n"
        "{Z1=Z2}=0 :- c(X1,2,Z1), c(X2,2,Z2), (X1-1)/2=(X2-1)/2, X1!=X2.\n"
    ),
    # the row side X2 reads position 0 in one rule and position 1 in the other
    "binder-names": (
        "{Z1=Z2}=0 :- c(X1,Y1,Z1), c(X2,Y2,Z2), X1+1=X2.\n"
        "{Z1=Z2}=0 :- c(X1,Y1,Z1), c(Y2,X2,Z2), X1+1=X2.\n"
    ),
}
INDEX_NEAR_COLLISIONS["all-in-one"] = "".join(INDEX_NEAR_COLLISIONS.values())


@pytest.mark.parametrize("rules", INDEX_NEAR_COLLISIONS.values(), ids=INDEX_NEAR_COLLISIONS)
def test_index_near_collisions_match_oracle(rules):
    assert_matches_oracle("d(1;2;3).\n{c(X,Y,Z): d(Y), d(Z)}=1 :- d(X).\n" + rules)


def test_steps_that_differ_in_variable_names_share_an_index(monkeypatch):
    builds = []
    build = ground._AtomStep._build_index
    monkeypatch.setattr(ground._AtomStep, "_build_index", lambda step: builds.append(1) or build(step))

    def count(rules: str) -> int:
        builds.clear()
        text = 'd(1;2;3).\nw("port";"oak").\n{c(X,W): w(W)}=1 :- d(X).\n' + rules
        assert_matches_oracle(text)
        return len(builds)

    port = 'Y=1 :- c(Y,W1), W1="port".\n'
    # The second rule keys on position 1 too; the third keys on position 0.
    assert count(port + 'Y=1 :- c(Y,X), X="port".\n') == count(port)
    assert count(port + "W=\"oak\" :- c(Y,W), Y=2.\n") == count(port) + 1


# ---------------------------------------------------------------------------
# Output does not depend on the order of string hashing
# ---------------------------------------------------------------------------

HASH_ORDER_SCRIPT = """
import json
import sys
from pathlib import Path

from puzzle2asp.bench import evaluate_case, load_dataset
from puzzle2asp.gateway import ScriptedBackend
from puzzle2asp.ground import ground_program
from puzzle2asp.solve import enumerate_models, render_models
from puzzle2asp.syntax import parse_program

data = Path(sys.argv[1])
programs = [(p.stem, parse_program(p.read_text())) for p in sorted(data.glob("*.lp"))]
scripts = json.loads((data / "mini_script.json").read_text())
for case in load_dataset(data / "mini.jsonl"):
    trace = evaluate_case(case, ScriptedBackend(scripts[case.id])).trace
    programs.append((case.id, trace.assembled_program))
for name, program in programs:
    g = ground_program(program)
    sys.stdout.write("== " + name + "\\n" + g.dump() + render_models(enumerate_models(g)))
"""


def test_output_does_not_depend_on_string_hashing():
    src = Path(puzzle2asp.__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", HASH_ORDER_SCRIPT, str(DATA_DIR)],
            env=env, capture_output=True, check=True, timeout=300,
        )
        outputs.append(done.stdout)
    assert outputs[0].count(b"\n== ") + 1 == len(CORPUS_DUMP_SHA256) + 3
    assert outputs[0] == outputs[1]
