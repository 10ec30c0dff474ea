"""Parser, renderer, and static-validation tests for the ASP fragment."""
from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzle2asp.ground import GAtom, ground_program
from puzzle2asp.solve import enumerate_models
from puzzle2asp.syntax import (
    MAX_TERM_DEPTH,
    Abs,
    Arith,
    AspSyntaxError,
    Atom,
    ChoiceRule,
    Comparison,
    DiagnosticKind,
    Fact,
    IntConst,
    Program,
    StrConst,
    TestRule,
    TupleTerm,
    Variable,
    chosen_predicates,
    domain_predicates,
    parse_program,
    render_program,
    validate_safety,
)

from conftest import DATA_DIR
from oracles import oracle_tokenize
from puzzle2asp import syntax

CORPUS = sorted(p.name for p in DATA_DIR.glob("*.lp"))


# ---------------------------------------------------------------------------
# Shapes of the three rule kinds
# ---------------------------------------------------------------------------


def test_pooled_fact_shape():
    prog = parse_program('p(1; 2, "a").')
    (rule,) = prog.rules
    assert isinstance(rule, Fact)
    assert rule.predicate == "p"
    assert rule.pools == ((IntConst(1), IntConst(2)), (StrConst("a"),))
    assert rule.body == ()


def test_choice_rule_shape():
    prog = parse_program("{match(E, P): price(P)}=1 :- employee(E).")
    (rule,) = prog.rules
    assert isinstance(rule, ChoiceRule)
    assert rule.head == Atom("match", (Variable("E"), Variable("P")))
    assert rule.conditions == (Atom("price", (Variable("P"),)),)
    assert rule.k == 1
    assert rule.body == (Atom("employee", (Variable("E"),)),)


def test_test_rule_braceless_is_open_disjunction():
    prog = parse_program("X=1; Y!=2 :- p(X), q(Y).")
    (rule,) = prog.rules
    assert isinstance(rule, TestRule)
    assert rule.k is None
    assert len(rule.heads) == 2
    assert rule.heads[0] == Comparison(Variable("X"), "=", IntConst(1))


def test_test_rule_braced_counts_heads():
    prog = parse_program('{W="ash"; E="Yvette"}=1 :- match(E, P, W), P=275.')
    (rule,) = prog.rules
    assert isinstance(rule, TestRule)
    assert rule.k == 1
    assert len(rule.heads) == 2
    assert len(rule.body) == 2


@pytest.mark.parametrize("op", ["=", "!=", "<", ">", "<=", ">="])
def test_comparison_operators(op):
    prog = parse_program(f"X{op}Y :- p(X), p(Y).")
    (rule,) = prog.rules
    assert rule.heads[0].op == op


def test_arithmetic_precedence():
    prog = parse_program("X+2*3=Y :- p(X), p(Y).")
    comp = prog.rules[0].heads[0]
    assert comp.lhs == Arith("+", Variable("X"), Arith("*", IntConst(2), IntConst(3)))


def test_parenthesized_arithmetic_and_remainder():
    prog = parse_program("(X-1)/3=Y\\3 :- p(X), p(Y).")
    comp = prog.rules[0].heads[0]
    assert comp.lhs == Arith("/", Arith("-", Variable("X"), IntConst(1)), IntConst(3))
    assert comp.rhs == Arith("\\", Variable("Y"), IntConst(3))


def test_absolute_value():
    prog = parse_program("|X-Y|=|U-V| :- p(X), p(Y), q(U), q(V).")
    comp = prog.rules[0].heads[0]
    assert comp.lhs == Abs(Arith("-", Variable("X"), Variable("Y")))
    assert comp.rhs == Abs(Arith("-", Variable("U"), Variable("V")))


def test_tuple_comparison():
    prog = parse_program("(X, Y)!=(1, 2) :- p(X), p(Y).")
    comp = prog.rules[0].heads[0]
    assert comp.lhs == TupleTerm((Variable("X"), Variable("Y")))
    assert comp.rhs == TupleTerm((IntConst(1), IntConst(2)))


def test_negative_integers_and_comments():
    prog = parse_program("% a comment line\np(-3; -5).  % trailing comment\n")
    (rule,) = prog.rules
    assert rule.pools == ((IntConst(-3), IntConst(-5)),)


def test_strings_may_contain_syntax_characters():
    prog = parse_program('p("a;b", "c :- d", "").')
    (rule,) = prog.rules
    assert rule.pools == ((StrConst("a;b"),), (StrConst("c :- d"),), (StrConst(""),))


# ---------------------------------------------------------------------------
# Rejected constructs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "{p(X)}=1 :- d(X), not q(X).",  # default negation
        "p(1..5).",  # interval
        "#count { X : p(X) }.",  # aggregate
        "p((1, 2)).",  # tuple as an atom argument
        "q(X) :- p(X), (1,2)<(3,4).",  # ordered tuple comparison
        "q(X) :- p(X), (1,2)=(1,2,3).",  # unequal tuple lengths
        "p(a).",  # unquoted symbolic constant
        "p(1)",  # missing terminating period
        'p("unterminated).',
        "p(²).",  # a digit to str.isdigit(), but not to int()
    ],
)
def test_rejected_constructs(text):
    with pytest.raises(AspSyntaxError):
        parse_program(text)


def test_error_carries_position():
    with pytest.raises(AspSyntaxError) as info:
        parse_program("p(1).\nq(2).\nr(1..3).\n")
    assert info.value.line == 3
    assert info.value.column == 4


# ---------------------------------------------------------------------------
# Tokenizer against the character-by-character oracle
# ---------------------------------------------------------------------------

# Pieces that generated texts are made of.  Non-ASCII letters and digits
# probe the Unicode classes: "٣" and "𝟘" are decimal, "²" and "½" only
# numeric, "Ⅻ" is numeric and upper case, "ǅ" title case, and "\u0301" a
# combining mark that continues no word.
TOKEN_PIECES = [sym for sym, _ in syntax._SYMBOLS] + [
    "p", "Xy", "abc", "é", "Émile", "ßx", "Ω", "ǅ", "x_1", "_", "_x", "A__",
    "0", "42", "٣", "𝟘", "²", "½", "Ⅻ", "7é",
    '"s"', '"a b.:-"', '""', '"é"',
    " ", "  ", "\t", "\n", "\r\n", "\r", "% note", "%", "%%\n",
]
# Each of these mostly makes the text an error, so they come up less often.
TOKEN_ERRORS = ['"open', '"', "#", "@", "!", "'", "~", "\x0b", "\u00a0", "\u0301"]


def _token_text(rng: random.Random) -> str:
    pieces = [rng.choice(TOKEN_PIECES) for _ in range(rng.randrange(12))]
    if rng.random() < 0.3:
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(TOKEN_ERRORS))
    return "".join(pieces)


def _outcome(tokenize, text: str):
    try:
        return [tuple(token) for token in tokenize(text)]
    except AspSyntaxError as exc:
        return (exc.line, exc.column, exc.message)


def test_tokenizer_matches_the_oracle():
    rng = random.Random(20231)
    texts = [_token_text(rng) for _ in range(3000)] + ["", "%", "a.%", "a. % x", "\r\n", " "]
    for text in texts:
        assert _outcome(syntax._tokenize, text) == _outcome(oracle_tokenize, text), repr(text)
    # Both outcomes are common, or the comparison would prove little.
    errors = sum(isinstance(_outcome(oracle_tokenize, text), tuple) for text in texts)
    assert 0.2 * len(texts) < errors < 0.6 * len(texts)


def test_regex_classes_are_the_str_predicates():
    """`_tokenize` relies on these; see the comment on `syntax._LEXEME`."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", every) == list(filter(str.isdecimal, every))
    assert re.findall(r"[^\W_]", every) == list(filter(str.isalnum, every))
    assert set(filter(str.isalpha, every)) <= set(re.findall(r"[^\W\d_]", every))


# Each shape with its depth in levels: parentheses, bars and a left-deep sum.
DEEP_TERMS = {
    "parentheses": lambda depth: "(" * (depth - 1) + "100" + ")" * (depth - 1),
    "bars": lambda depth: "|" * (depth - 1) + "100" + "|" * (depth - 1),
    "sum": lambda depth: "+".join(["1"] * depth),
}


def _deep_rule(term: str) -> str:
    return "d(1;100).\n{c(X): d(X)}=1.\nX=" + term + " :- c(X).\n"


@pytest.mark.parametrize("shape", DEEP_TERMS)
@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 400, 2000])
def test_too_deep_a_term_is_rejected(shape, depth):
    # Refused at the token that passes the bound, so no walker over terms
    # (validation, grounding, printing) can reach Python's recursion limit.
    term = DEEP_TERMS[shape](depth)
    with pytest.raises(AspSyntaxError) as info:
        parse_program(_deep_rule(term))
    assert info.value.message == f"term nested more than {MAX_TERM_DEPTH} levels deep"
    assert info.value.line == 3
    if shape == "sum":
        assert info.value.column == len("X=") + 2 * MAX_TERM_DEPTH  # the 100th "+"
    elif depth == MAX_TERM_DEPTH + 1:
        assert info.value.column == len("X=" + term)  # the outermost closing token
    else:
        assert info.value.column == len("X=") + MAX_TERM_DEPTH + 1  # the 101st opening token


@pytest.mark.parametrize("shape", DEEP_TERMS)
def test_a_term_at_the_depth_bound_grounds(shape):
    program = parse_program(_deep_rule(DEEP_TERMS[shape](MAX_TERM_DEPTH)))
    assert validate_safety(program) == []
    assert parse_program(render_program(program)) == program
    (model,) = enumerate_models(ground_program(program), limit=None).models
    assert GAtom("c", (100,)) in model.atoms


# ---------------------------------------------------------------------------
# Corpus: every bundled program parses with no diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses_clean(corpus, name):
    prog = parse_program(corpus[name.removesuffix(".lp")])
    assert prog.rules
    assert validate_safety(prog) == []


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_render_roundtrip(corpus, name):
    prog = parse_program(corpus[name.removesuffix(".lp")])
    assert parse_program(render_program(prog)) == prog


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_comment_insertion_is_invisible(corpus, name):
    text = corpus[name.removesuffix(".lp")]
    commented = "\n".join(f"% noise {i}\n{line}" for i, line in enumerate(text.splitlines()))
    assert parse_program(commented) == parse_program(text)


def test_predicate_partition():
    prog = parse_program(
        "d(1;2).\ne(3).\n{p(X): e(Y)}=1 :- d(X).\nX=Y :- p(X), d(Y).\n"
    )
    assert domain_predicates(prog) == {"d", "e"}
    assert chosen_predicates(prog) == {"p"}


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def kinds(prog: Program) -> set[DiagnosticKind]:
    return {d.kind for d in validate_safety(prog)}


def test_unsafe_variable_diagnostic():
    prog = parse_program("p(1;2).\nX=Y :- p(X).")
    diags = validate_safety(prog)
    assert any(d.kind is DiagnosticKind.UNSAFE_VARIABLE and d.subject == "Y" for d in diags)


def test_arity_mismatch_diagnostic():
    prog = parse_program("p(1;2).\nX=1 :- p(X, Y).")
    diags = validate_safety(prog)
    assert any(d.kind is DiagnosticKind.ARITY_MISMATCH and d.subject == "p" for d in diags)


def test_unknown_predicate_diagnostic():
    prog = parse_program("p(1;2).\nX=1 :- q(X).")
    assert DiagnosticKind.UNKNOWN_PREDICATE in kinds(prog)


def test_domain_chosen_overlap_diagnostic():
    prog = parse_program("p(1).\nd(1;2).\n{p(X): d(X)}=1 :- d(X).")
    assert DiagnosticKind.DOMAIN_CHOSEN_OVERLAP in kinds(prog)


def test_atom_headed_rule_with_body_is_unsupported():
    prog = parse_program("p(1;2).\nq(X) :- p(X).")
    assert DiagnosticKind.UNSUPPORTED_RULE in kinds(prog)


def test_clean_program_has_no_diagnostics():
    prog = parse_program('e("a";"b").\nn(1;2).\n{m(E, N): n(N)}=1 :- e(E).\nN=1 :- m(E, N), E="a".')
    assert validate_safety(prog) == []


def test_choice_body_comparison_needs_a_body_atom():
    # X is bound only by the condition d(X), which the body is grounded without.
    prog = parse_program("d(1;2).\ne(1).\n{p(X): d(X)}=1 :- e(Y), X>1.")
    diags = validate_safety(prog)
    assert [(d.rule_index, d.kind, d.subject) for d in diags] == [
        (2, DiagnosticKind.UNSAFE_VARIABLE, "X")
    ]


# ---------------------------------------------------------------------------
# Property: rendering is a faithful inverse of parsing
# ---------------------------------------------------------------------------

_names = st.sampled_from(["p", "q", "r", "d", "edge", "row_of"])
_variables = st.sampled_from(["X", "Y", "Z", "N1", "Col"]).map(Variable)
_strings = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"'),
    max_size=6,
)
_consts = st.one_of(
    st.integers(-99, 99).map(IntConst),
    _strings.map(StrConst),
)


def _extend(children):
    return st.one_of(
        st.builds(
            Arith,
            st.sampled_from(["+", "-", "*", "/", "\\"]),
            children,
            children,
        ),
        st.builds(Abs, children),
    )


_arith_terms = st.recursive(
    st.one_of(st.integers(-99, 99).map(IntConst), _variables), _extend, max_leaves=5
)
_tuple_elements = st.one_of(_consts, _variables)


@st.composite
def _comparisons(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        elements = st.tuples(*[_tuple_elements] * n)
        lhs = TupleTerm(draw(elements))
        rhs = TupleTerm(draw(elements))
        op = draw(st.sampled_from(["=", "!="]))
    else:
        lhs = draw(_arith_terms)
        rhs = draw(_arith_terms)
        op = draw(st.sampled_from(["=", "!=", "<", ">", "<=", ">="]))
    return Comparison(lhs, op, rhs)


_atoms = st.builds(
    Atom,
    _names,
    st.lists(st.one_of(_consts, _variables), min_size=1, max_size=3).map(tuple),
)
_body = st.lists(st.one_of(_atoms, _comparisons()), min_size=1, max_size=3).map(tuple)

_facts = st.builds(
    Fact,
    _names,
    st.lists(
        st.lists(_consts, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3
    ).map(tuple),
)
_choices = st.builds(
    ChoiceRule,
    _atoms,
    st.lists(_atoms, min_size=0, max_size=2).map(tuple),
    st.integers(0, 3),
    _body,
)


@st.composite
def _tests(draw):
    heads = tuple(draw(st.lists(_comparisons(), min_size=1, max_size=3)))
    k = draw(st.one_of(st.none(), st.integers(0, 3)))
    return TestRule(heads, k, draw(_body))


_programs = st.lists(
    st.one_of(_facts, _choices, _tests()), min_size=1, max_size=5
).map(lambda rules: Program(tuple(rules)))


@given(_programs)
@settings(max_examples=300, deadline=None)
def test_render_parse_roundtrip(program):
    assert parse_program(render_program(program)) == program
