"""AST, parser, printer, and safety validation for a restricted ASP fragment.

The fragment covers grid-puzzle programs and nothing more:

* ground facts with ``;`` argument pools, e.g. ``price(225; 275; 325).``
* exactly-k choice rules, e.g.
  ``{match(E, P, W): price(P), wood_type(W)}=1 :- employee(E).``
* comparison-headed test rules, either a plain disjunction
  (``P=325 :- match(E,P,W), E="Bonita".``) or an exactly-k set
  (``{W="ash"; E="Yvette"}=1 :- match(E,P,W), P=275.``).

``%`` starts a comment running to end of line.  There is no default
negation, no ``1..n`` intervals, no aggregates beyond the two rule forms
above, and no recursion.  Everything here is a pure function over
immutable values and safe to use concurrently.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Union

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class StrConst:
    """String constant, stored without the surrounding double quotes."""

    value: str


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Arith:
    """Binary integer arithmetic; ``/`` truncates toward zero, ``\\`` is remainder."""

    op: str  # one of + - * / \
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Abs:
    inner: "Term"


@dataclass(frozen=True)
class TupleTerm:
    """Term tuple of length >= 2; appears only as a comparison operand."""

    elements: tuple["Term", ...]


Term = Union[IntConst, StrConst, Variable, Arith, Abs, TupleTerm]

COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Comparison:
    lhs: Term
    op: str
    rhs: Term


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]


Literal = Union[Atom, Comparison]

# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    """Atom whose argument positions hold pools of ground terms.

    ``employee("Bonita"; "Yvette"; "Tabitha").`` is one Fact with a single
    pooled position; pools expand cartesian-product-wise across positions.
    A body is accepted by the grammar so that stray ``head :- body`` rules
    can be reported by :func:`validate_safety` instead of dying in the
    parser, but a valid fragment program never has one.
    """

    predicate: str
    pools: tuple[tuple[Term, ...], ...]
    body: tuple[Literal, ...] = ()


@dataclass(frozen=True)
class ChoiceRule:
    """``{head: conditions}=k :- body.`` — pick exactly k head instances per body match."""

    head: Atom
    conditions: tuple[Atom, ...]
    k: int
    body: tuple[Literal, ...]


@dataclass(frozen=True)
class TestRule:
    """Comparison-headed constraint.

    ``k is None`` means at least one head comparison must hold whenever the
    body holds; ``k = n`` means exactly n of them must hold.
    """

    heads: tuple[Comparison, ...]
    k: int | None
    body: tuple[Literal, ...]


Rule = Union[Fact, ChoiceRule, TestRule]


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Errors and diagnostics
# ---------------------------------------------------------------------------


class AspSyntaxError(Exception):
    """Raised on any token or construct outside the fragment."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class DiagnosticKind(Enum):
    UNSAFE_VARIABLE = "UnsafeVariable"
    ARITY_MISMATCH = "ArityMismatch"
    UNKNOWN_PREDICATE = "UnknownPredicate"
    DOMAIN_CHOSEN_OVERLAP = "DomainChosenOverlap"
    UNSUPPORTED_RULE = "UnsupportedRule"


@dataclass(frozen=True)
class Diagnostic:
    rule_index: int
    kind: DiagnosticKind
    subject: str  # offending variable or predicate name
    message: str

    def __str__(self) -> str:
        return f"rule {self.rule_index}: {self.kind.value}({self.subject}): {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# Longest symbols first so ":-" wins over ":" and ".." over ".".
_SYMBOLS = (
    (":-", "IF"),
    ("!=", "NEQ"),
    ("<=", "LE"),
    (">=", "GE"),
    ("..", "RANGE"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    (",", "COMMA"),
    (";", "SEMI"),
    (".", "DOT"),
    (":", "COLON"),
    ("=", "EQ"),
    ("<", "LT"),
    (">", "GT"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
    ("\\", "BSLASH"),
    ("|", "PIPE"),
)
_SYMBOL_KINDS = dict(_SYMBOLS)

# One token per match: the blanks before it, then one alternative per lexeme,
# whose group number `_tokenize` dispatches on.  On str patterns `\d` is
# exactly `str.isdecimal` (what int() accepts) and `\w` exactly
# `str.isalnum` or "_".  A word must start with a letter, and `[^\W\d_]` also
# admits digits that are not decimal, such as "²" and "½", so `_tokenize`
# checks `isalpha` on a word's first character.  Any other character that
# is not a blank, such as an unterminated string's quote, falls to the last
# group; blanks at the end of the text match nothing.
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"  # 1
    r"|(%[^\n]*)"  # 2
    r'|"([^"\n]*)"'  # 3
    r"|(\d+)"  # 4
    r"|([^\W\d_]\w*)"  # 5
    r"|(" + "|".join(re.escape(sym) for sym, _ in _SYMBOLS) + ")"  # 6
    r"|([^ \t\r])"  # 7
    r")"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    line, line_start = 1, 0
    comment = None  # where the comment that the text may end in starts
    for match in _LEXEME.finditer(text):
        group = match.lastindex
        start = match.start(group)
        if group == 1:
            line, line_start, comment = line + 1, start + 1, None
        elif group == 2:
            comment = start
        elif group == 5 and text[start].isalpha():
            word = match[5]
            append(_Token("VAR" if word[0].isupper() else "IDENT", word, line, start - line_start + 1))
        elif group == 6:
            symbol = match[6]
            append(_Token(_SYMBOL_KINDS[symbol], symbol, line, start - line_start + 1))
        elif group == 4:
            append(_Token("INT", match[4], line, start - line_start + 1))
        elif group == 3:  # the group starts after the opening quote
            append(_Token("STRING", match[3], line, start - line_start))
        else:
            column = start - line_start + 1
            if text[start] == '"':
                raise AspSyntaxError(line, column, "unterminated string constant")
            raise AspSyntaxError(line, column, f"unexpected character {text[start]!r}")
    # A comment does not move the column, so a text that ends in one puts
    # EOF where the comment starts.
    end = len(text) if comment is None else comment
    append(_Token("EOF", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The deepest term the parser accepts.  Every walker over terms (safety
# validation, grounding, printing) recurses once per level, so a bound here
# keeps each of them far from Python's recursion limit.
MAX_TERM_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        # A term's depth counts each operator, parenthesis pair and |...|
        # on its deepest path, plus one for the constant or variable there.
        # `_height` is the depth of the term last parsed; `_open` counts the
        # parentheses and bars open around the current token, so nesting is
        # refused before it recurses, not after.
        self._height = 0
        self._open = 0

    # -- token plumbing

    def _peek(self) -> _Token:
        return self._tokens[self._pos]  # `_next` never moves past EOF

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            self._fail(tok, f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}")
        return self._next()

    def _fail(self, tok: _Token, message: str) -> None:
        raise AspSyntaxError(tok.line, tok.column, message)

    def _deeper(self, height: int, tok: _Token) -> int:
        """`height` if it is within the bound, else a syntax error at `tok`."""
        if height > MAX_TERM_DEPTH:
            self._fail(tok, f"term nested more than {MAX_TERM_DEPTH} levels deep")
        return height

    def _enter(self, tok: _Token) -> None:
        """Open a parenthesis or bar at `tok`."""
        self._open = self._deeper(self._open + 1, tok)

    def _leave(self, tok: _Token) -> None:
        """Close the innermost parenthesis or bar around the term just parsed."""
        self._open -= 1
        self._height = self._deeper(self._height + 1, tok)

    def _reject_keyword(self, tok: _Token) -> None:
        if tok.kind == "IDENT" and tok.text == "not":
            self._fail(tok, "default negation 'not' is outside the fragment")
        if tok.kind == "IDENT" and tok.text == "and":
            self._fail(tok, "'and' is not a conjunction here; separate literals with ','")
        if tok.kind == "RANGE":
            self._fail(tok, "'..' intervals are outside the fragment")

    # -- entry point

    def parse(self) -> Program:
        rules: list[Rule] = []
        while self._peek().kind != "EOF":
            rules.append(self._rule())
        return Program(tuple(rules))

    def _rule(self) -> Rule:
        tok = self._peek()
        self._reject_keyword(tok)
        if tok.kind == "LBRACE":
            rule = self._braced_rule()
        elif tok.kind == "IDENT":
            rule = self._fact_rule()
        else:
            rule = self._test_rule_bare()
        self._expect("DOT", "'.' at end of rule")
        return rule

    # -- rule forms

    def _fact_rule(self) -> Fact:
        name = self._next().text
        pools: list[tuple[Term, ...]] = []
        if self._peek().kind == "LPAREN":
            self._next()
            while True:
                pool = [self._additive()]
                while self._peek().kind == "SEMI":
                    self._next()
                    pool.append(self._additive())
                pools.append(tuple(pool))
                if self._peek().kind == "COMMA":
                    self._next()
                    continue
                self._expect("RPAREN", "')'")
                break
        body: tuple[Literal, ...] = ()
        if self._peek().kind == "IF":
            self._next()
            body = self._body()
        return Fact(name, tuple(pools), body)

    def _braced_rule(self) -> Rule:
        self._next()  # consume '{'
        tok = self._peek()
        self._reject_keyword(tok)
        if tok.kind == "IDENT":
            return self._choice_rule()
        heads = [self._comparison()]
        while self._peek().kind == "SEMI":
            self._next()
            heads.append(self._comparison())
        self._expect("RBRACE", "'}'")
        k = self._cardinality()
        body = self._rule_body()
        return TestRule(tuple(heads), k, body)

    def _choice_rule(self) -> ChoiceRule:
        head = self._atom()
        conditions: list[Atom] = []
        if self._peek().kind == "COLON":
            self._next()
            conditions.append(self._condition_atom())
            while self._peek().kind == "COMMA":
                self._next()
                conditions.append(self._condition_atom())
        tok = self._peek()
        if tok.kind == "SEMI":
            self._fail(tok, "a choice rule holds a single head atom")
        self._expect("RBRACE", "'}'")
        k = self._cardinality()
        body = self._rule_body()
        return ChoiceRule(head, tuple(conditions), k, body)

    def _condition_atom(self) -> Atom:
        tok = self._peek()
        self._reject_keyword(tok)
        if tok.kind != "IDENT":
            self._fail(tok, "choice conditions must be domain atoms")
        return self._atom()

    def _test_rule_bare(self) -> TestRule:
        heads = [self._comparison()]
        while self._peek().kind == "SEMI":
            self._next()
            heads.append(self._comparison())
        body = self._rule_body()
        return TestRule(tuple(heads), None, body)

    def _cardinality(self) -> int:
        self._expect("EQ", "'=' after '}'")
        tok = self._expect("INT", "non-negative cardinality")
        return int(tok.text)

    def _rule_body(self) -> tuple[Literal, ...]:
        if self._peek().kind == "IF":
            self._next()
            return self._body()
        return ()

    def _body(self) -> tuple[Literal, ...]:
        literals = [self._literal()]
        while self._peek().kind == "COMMA":
            self._next()
            literals.append(self._literal())
        tok = self._peek()
        self._reject_keyword(tok)
        return tuple(literals)

    def _literal(self) -> Literal:
        tok = self._peek()
        self._reject_keyword(tok)
        if tok.kind == "IDENT":
            return self._atom()
        return self._comparison()

    # -- atoms, comparisons, terms

    def _atom(self) -> Atom:
        name = self._expect("IDENT", "predicate name").text
        args: list[Term] = []
        if self._peek().kind == "LPAREN":
            self._next()
            args.append(self._additive())
            while self._peek().kind == "COMMA":
                self._next()
                args.append(self._additive())
            self._expect("RPAREN", "')'")
        return Atom(name, tuple(args))

    def _comparison(self) -> Comparison:
        lhs = self._comparand()
        tok = self._peek()
        ops = {"EQ": "=", "NEQ": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}
        if tok.kind not in ops:
            self._fail(tok, f"expected comparison operator, found {tok.text!r}")
        self._next()
        rhs = self._comparand()
        lhs_tuple = isinstance(lhs, TupleTerm)
        rhs_tuple = isinstance(rhs, TupleTerm)
        if lhs_tuple or rhs_tuple:
            if ops[tok.kind] not in ("=", "!="):
                self._fail(tok, "tuples compare only with '=' and '!='")
            if not (lhs_tuple and rhs_tuple):
                self._fail(tok, "a tuple compares only against another tuple")
            if len(lhs.elements) != len(rhs.elements):  # type: ignore[union-attr]
                self._fail(tok, "tuple operands must have equal length")
        return Comparison(lhs, ops[tok.kind], rhs)

    def _comparand(self) -> Term:
        """Term in comparison-operand position; the only place tuples may appear."""
        if self._peek().kind == "LPAREN":
            self._enter(self._next())
            first = self._additive()
            if self._peek().kind == "COMMA":
                elements, height = [first], self._height
                while self._peek().kind == "COMMA":
                    self._next()
                    elements.append(self._additive())
                    height = max(height, self._height)
                self._height = height
                self._leave(self._expect("RPAREN", "')'"))
                tok = self._peek()
                if tok.kind in ("PLUS", "MINUS", "STAR", "SLASH", "BSLASH"):
                    self._fail(tok, "tuples cannot take part in arithmetic")
                return TupleTerm(tuple(elements))
            self._leave(self._expect("RPAREN", "')'"))
            # A parenthesized arithmetic group may continue: (Ir1-1)/3.
            return self._additive(seed=self._multiplicative(seed=first))
        return self._additive()

    def _additive(self, seed: Term | None = None) -> Term:
        """A sum; a `seed` is its first operand, whose depth is `_height`."""
        term = seed if seed is not None else self._multiplicative()
        height = self._height
        while self._peek().kind in ("PLUS", "MINUS"):
            tok = self._next()
            term = Arith(tok.text, term, self._multiplicative())
            height = self._deeper(max(height, self._height) + 1, tok)
        self._height = height
        return term

    def _multiplicative(self, seed: Term | None = None) -> Term:
        """A product; a `seed` is its first operand, whose depth is `_height`."""
        term = seed if seed is not None else self._primary()
        height = self._height
        while self._peek().kind in ("STAR", "SLASH", "BSLASH"):
            tok = self._next()
            term = Arith(tok.text, term, self._primary())
            height = self._deeper(max(height, self._height) + 1, tok)
        self._height = height
        return term

    def _primary(self) -> Term:
        tok = self._peek()
        self._reject_keyword(tok)
        if tok.kind in ("INT", "MINUS", "STRING", "VAR"):
            self._height = 1
        if tok.kind == "INT":
            self._next()
            return IntConst(int(tok.text))
        if tok.kind == "MINUS":
            self._next()
            num = self._expect("INT", "integer after unary '-'")
            return IntConst(-int(num.text))
        if tok.kind == "STRING":
            self._next()
            return StrConst(tok.text)
        if tok.kind == "VAR":
            self._next()
            return Variable(tok.text)
        if tok.kind == "PIPE":
            self._enter(self._next())
            inner = self._additive()
            self._leave(self._expect("PIPE", "closing '|'"))
            return Abs(inner)
        if tok.kind == "LPAREN":
            self._enter(self._next())
            inner = self._additive()
            if self._peek().kind == "COMMA":
                self._fail(self._peek(), "tuple terms are only allowed as comparison operands")
            self._leave(self._expect("RPAREN", "')'"))
            return inner
        if tok.kind == "IDENT":
            self._fail(tok, f"unquoted constant or nested atom {tok.text!r} is not a term")
        self._fail(tok, f"expected a term, found {tok.text!r}" if tok.text else "expected a term")
        raise AssertionError  # unreachable


def parse_program(text: str) -> Program:
    """Parse fragment source into a :class:`Program`.

    Raises :class:`AspSyntaxError` with line/column on any construct the
    fragment excludes (``not``, ``:~``, intervals, atom pools outside facts,
    and so on), and on a term nested more than :data:`MAX_TERM_DEPTH` levels
    deep.  An empty string yields a program with zero rules.
    """
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "\\": 2}


def _render_term(term: Term, parent_prec: int, right_side: bool = False) -> str:
    if isinstance(term, IntConst):
        if term.value < 0 and parent_prec > 0:
            return f"({term.value})"
        return str(term.value)
    if isinstance(term, StrConst):
        return f'"{term.value}"'
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Abs):
        return f"|{_render_term(term.inner, 0)}|"
    if isinstance(term, TupleTerm):
        return "(" + ",".join(_render_term(t, 0) for t in term.elements) + ")"
    prec = _PRECEDENCE[term.op]
    left = _render_term(term.left, prec)
    # - and / and \ are left-associative: parenthesize an equal-precedence
    # right child so (a-b)-c and a-(b-c) stay distinct.
    right = _render_term(term.right, prec + 1, right_side=True)
    text = f"{left}{term.op}{right}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def render_comparison(comp: Comparison) -> str:
    return f"{_render_term(comp.lhs, 0)}{comp.op}{_render_term(comp.rhs, 0)}"


def render_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    return atom.predicate + "(" + ",".join(_render_term(a, 0) for a in atom.args) + ")"


def _render_literal(lit: Literal) -> str:
    return render_atom(lit) if isinstance(lit, Atom) else render_comparison(lit)


def render_rule(rule: Rule) -> str:
    if isinstance(rule, Fact):
        text = rule.predicate
        if rule.pools:
            text += "(" + ", ".join("; ".join(_render_term(t, 0) for t in pool) for pool in rule.pools) + ")"
        if rule.body:
            text += " :- " + ", ".join(_render_literal(l) for l in rule.body)
        return text + "."
    if isinstance(rule, ChoiceRule):
        text = "{" + render_atom(rule.head)
        if rule.conditions:
            text += ": " + ", ".join(render_atom(c) for c in rule.conditions)
        text += "}=" + str(rule.k)
        if rule.body:
            text += " :- " + ", ".join(_render_literal(l) for l in rule.body)
        return text + "."
    heads = "; ".join(render_comparison(c) for c in rule.heads)
    text = "{" + heads + "}=" + str(rule.k) if rule.k is not None else heads
    if rule.body:
        text += " :- " + ", ".join(_render_literal(l) for l in rule.body)
    return text + "."


def render_program(program: Program) -> str:
    """Canonical concrete syntax; re-parsing reproduces the same AST."""
    return "".join(render_rule(r) + "\n" for r in program.rules)


# ---------------------------------------------------------------------------
# Safety validation
# ---------------------------------------------------------------------------


def term_variables(term: Term) -> Iterator[str]:
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, Arith):
        yield from term_variables(term.left)
        yield from term_variables(term.right)
    elif isinstance(term, Abs):
        yield from term_variables(term.inner)
    elif isinstance(term, TupleTerm):
        for element in term.elements:
            yield from term_variables(element)


def atom_variables(atom: Atom) -> set[str]:
    out: set[str] = set()
    for arg in atom.args:
        out.update(term_variables(arg))
    return out


def comparison_variables(comp: Comparison) -> set[str]:
    return set(term_variables(comp.lhs)) | set(term_variables(comp.rhs))


def domain_predicates(program: Program) -> set[str]:
    return {r.predicate for r in program.rules if isinstance(r, Fact)}


def chosen_predicates(program: Program) -> set[str]:
    return {r.head.predicate for r in program.rules if isinstance(r, ChoiceRule)}


def validate_safety(program: Program) -> list[Diagnostic]:
    """Check Program invariants, returning one Diagnostic per violation.

    An empty result means the program grounds cleanly: predicates split
    into domain (fact heads) and chosen (choice heads), arities are
    consistent, every body atom refers to a declared predicate, and every
    variable is bound by a positive body atom (a choice head variable may
    instead be bound by a condition atom).
    """
    diags: list[Diagnostic] = []
    domain = domain_predicates(program)
    chosen = chosen_predicates(program)

    arity: dict[str, tuple[int, int]] = {}  # predicate -> (arity, rule index)

    def check_arity(pred: str, n_args: int, rule_index: int) -> None:
        if pred not in arity:
            arity[pred] = (n_args, rule_index)
        elif arity[pred][0] != n_args:
            diags.append(
                Diagnostic(
                    rule_index,
                    DiagnosticKind.ARITY_MISMATCH,
                    pred,
                    f"predicate {pred} used with {n_args} argument(s), "
                    f"declared with {arity[pred][0]} at rule {arity[pred][1]}",
                )
            )

    def check_atom_use(atom: Atom, rule_index: int, allowed: set[str], role: str) -> None:
        check_arity(atom.predicate, len(atom.args), rule_index)
        if atom.predicate not in allowed:
            detail = (
                "no fact or choice rule declares this predicate"
                if atom.predicate not in domain | chosen
                else f"{role} must use a domain predicate"
            )
            diags.append(
                Diagnostic(rule_index, DiagnosticKind.UNKNOWN_PREDICATE, atom.predicate, detail)
            )

    for index, rule in enumerate(program.rules):
        if isinstance(rule, ChoiceRule) and rule.head.predicate in domain:
            diags.append(
                Diagnostic(
                    index,
                    DiagnosticKind.DOMAIN_CHOSEN_OVERLAP,
                    rule.head.predicate,
                    "predicate appears both in fact heads and in a choice head",
                )
            )

    for index, rule in enumerate(program.rules):
        if isinstance(rule, Fact):
            check_arity(rule.predicate, len(rule.pools), index)
            seen: set[str] = set()
            for pool in rule.pools:
                for term in pool:
                    for var in term_variables(term):
                        if var not in seen:
                            seen.add(var)
                            diags.append(
                                Diagnostic(
                                    index,
                                    DiagnosticKind.UNSAFE_VARIABLE,
                                    var,
                                    f"variable {var} in a fact head is bound by nothing",
                                )
                            )
            if rule.body:
                diags.append(
                    Diagnostic(
                        index,
                        DiagnosticKind.UNSUPPORTED_RULE,
                        rule.predicate,
                        "atom-headed rules with bodies are outside the fragment",
                    )
                )
                for lit in rule.body:
                    if isinstance(lit, Atom):
                        check_atom_use(lit, index, domain | chosen, "body atom")
        elif isinstance(rule, ChoiceRule):
            check_arity(rule.head.predicate, len(rule.head.args), index)
            condition_bound: set[str] = set()
            for atom in rule.conditions:
                check_atom_use(atom, index, domain, "a choice condition")
                condition_bound |= atom_variables(atom)
            # The body is grounded before the conditions, so only body atoms
            # bind body comparison variables; the head may use both.
            body_bound: set[str] = set()
            for lit in rule.body:
                if isinstance(lit, Atom):
                    check_atom_use(lit, index, domain, "a choice body atom")
                    body_bound |= atom_variables(lit)
            for var in sorted(atom_variables(rule.head) - condition_bound - body_bound):
                diags.append(
                    Diagnostic(
                        index,
                        DiagnosticKind.UNSAFE_VARIABLE,
                        var,
                        f"head variable {var} occurs in no condition or body atom",
                    )
                )
            for lit in rule.body:
                if isinstance(lit, Comparison):
                    for var in sorted(comparison_variables(lit) - body_bound):
                        diags.append(
                            Diagnostic(
                                index,
                                DiagnosticKind.UNSAFE_VARIABLE,
                                var,
                                f"comparison variable {var} occurs in no body atom",
                            )
                        )
        else:
            bound = set()
            for lit in rule.body:
                if isinstance(lit, Atom):
                    check_atom_use(lit, index, domain | chosen, "body atom")
                    bound |= atom_variables(lit)
            unsafe: set[str] = set()
            for comp in rule.heads:
                unsafe |= comparison_variables(comp) - bound
            for lit in rule.body:
                if isinstance(lit, Comparison):
                    unsafe |= comparison_variables(lit) - bound
            for var in sorted(unsafe):
                diags.append(
                    Diagnostic(
                        index,
                        DiagnosticKind.UNSAFE_VARIABLE,
                        var,
                        f"variable {var} occurs in no positive body atom",
                    )
                )

    diags.sort(key=lambda d: d.rule_index)
    return diags
