"""Grounding: expand a validated fragment program into facts, choices, nogoods, groups.

Because the fragment has no recursion and every test-rule head comparison is
ground once the body is bound, every violated test-rule instance reduces to a
plain nogood over the chosen atoms in its body.  Every candidate atom appears
once in ``atoms``, in :func:`atom_sort_key` order, and its id is its position
there.  The solver then only ever deals with four ground objects:

* ``facts`` — ground atoms that hold in every model,
* ``choices`` — pick exactly k of the listed candidate ids,
* ``nogoods`` — ids of candidate atoms that must not be jointly true,
* ``groups`` — ids of candidate atoms of which at most one may be true.  A
  group stands for the binary nogood of each pair of its members, and
  :meth:`GroundProgram.expanded_nogoods` lists those pairs with ``nogoods``.

Choice bodies, choice conditions and test bodies are each compiled once into
a join plan: the atoms in written order, each comparison right after the atom
that binds its last variable.  An atom step looks its rows up in an index
keyed on every argument position bound before it.  The step is bound to its
index when the plan is compiled: the index is cached on the predicate's
extension, so every step with the same signature shares it, across violation
plans and across rules.  A signature is the key positions and the repeated-
variable positions, where a pushed key side that is a plain variable (such as
``W1`` in ``W1="port"``) counts as the position that binds it; so
``W1="port"`` and ``X="port"`` on the same position share one index.  A step
with any other pushed key side also keys its index on those sides and on the
variables it binds.  When a rule is statically error-free, its plan also
does less work per instance:

* an ``=`` comparison with one side computed only from the variables the atom
  binds and the other from earlier bindings, such as
  ``((Ir1-1)/3,(Ic1-1)/3)=((Ir2-1)/3,(Ic2-1)/3)`` or ``W1="poplar"``, becomes
  one more element of that atom's key instead of a filter;
* a test rule's violation condition becomes plain body comparisons, so only
  violating instances are enumerated.  For ``k=0`` (violated when some head
  holds) there is one plan per head, whose body is the rule body plus that
  head; nogoods form a set, so an instance found twice counts once.  For
  ``k=None`` (violated when every head fails) the one plan's body is the rule
  body plus every head negated.  Any other ``k`` counts the true heads of
  every body instance.
* a symmetric self-join is enumerated once.  A ``k=0`` or ``k=None`` test
  rule whose body is two atoms of one chosen predicate, such as the
  uniqueness rule ``{E1=E2; P1=P2; W1=W2}=0 :- match(E1,P1,W1),
  match(E2,P2,W2), (E1,P1,W1)!=(E2,P2,W2).``, is symmetric when swapping the
  variables of the two atoms position by position maps its body comparisons
  and its set of heads onto themselves.  Comparisons are compared in a
  canonical form (see `_canonical`): ``=``/``!=`` sides unordered, ``>`` as
  ``<``, and the operands of each ``+``, ``*`` and ``|a-b|`` in a fixed
  order, so the knight rule's ``|Ir1-Ir2|+|Ic1-Ic2|=3`` is its own image.
  Its instances then come in mirror pairs that give the same nogood, so the
  second atom only matches rows whose id is at least the first row's.  The
  rules of the next bullet, the uniqueness rule among them, skip the join
  altogether.
* a symmetric ``k=0`` rule that says "at most one row per key", such as the
  uniqueness rule or the sudoku row, column and box rules, is not joined at
  all (see `_clique`).  Its violated instances are exactly the pairs of
  distinct rows that agree on the shared positions, the body equalities and
  a head, so each head buckets the predicate's rows by those values, and
  every bucket of two or more rows becomes one group.

A rule is statically error-free when, given the value types of the extension
columns its variables are bound from, every comparison, head and compound
atom argument is well typed: arithmetic reads only integer columns, every
``/`` and ``\\`` divides by a nonzero constant, and every ``=`` and ``!=``
compares values of one type.  Any other rule keeps every comparison a filter
and counts its test-rule heads on every body instance, so each evaluation
error is raised where a literal-by-literal join would raise it.  An atom
argument that is not ground when its step is reached raises there, not when
the rule is compiled.

A plan runs as a chain of closures, one per atom step and comparison filter,
ending in a callback per instance.  Every filter, probe, pushed key side,
choice head and counted test-rule head is compiled once, when its plan is
built, into a closure of the binding.  A statically error-free rule gets
closures of plain Python operators with no type checks: the column types
already prove every check would pass, and ``==``/``!=`` are exact because
both sides have one type and tuple shape.  ``/`` and ``\\`` still go through
`_trunc_div` and `_remainder`, which truncate toward zero.  Any other rule
gets checked closures around :func:`evaluate_term` and
:func:`evaluate_comparison`, so each :class:`GroundingError` is raised at the
same instance, with the same text and binding, as a literal-by-literal join
would raise it.  Those evaluators stay because they are the only correct path
for such rules, and because the brute-force oracle in ``tests/oracles.py``
grounds with them.

Grounding is deterministic: identical input produces an identical
:meth:`GroundProgram.dump`.
"""
from __future__ import annotations

import itertools
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from .syntax import (
    Abs,
    Arith,
    Atom,
    ChoiceRule,
    Comparison,
    Fact,
    IntConst,
    Program,
    StrConst,
    Term,
    TestRule,
    TupleTerm,
    Variable,
    atom_variables,
    chosen_predicates,
    comparison_variables,
    term_variables,
    validate_safety,
)

GroundValue = int | str
Binding = dict[str, GroundValue]


class GroundingError(Exception):
    """Evaluation failure during grounding, tagged with the offending rule."""

    def __init__(self, rule_index: int, binding: Binding, message: str):
        bound = ", ".join(f"{k}={v!r}" for k, v in sorted(binding.items()))
        super().__init__(f"rule {rule_index}: {message} [{bound}]")
        self.rule_index = rule_index
        self.binding = dict(binding)
        self.message = message


class GroundTimeout(Exception):
    """Raised when grounding exceeds the caller's wall-clock deadline."""


# ---------------------------------------------------------------------------
# Ground atoms
# ---------------------------------------------------------------------------


def render_value(value: GroundValue) -> str:
    return str(value) if isinstance(value, int) else f'"{value}"'


@dataclass(frozen=True)
class GAtom:
    predicate: str
    args: tuple[GroundValue, ...]

    def render(self) -> str:
        if not self.args:
            return self.predicate
        return self.predicate + "(" + ",".join(render_value(v) for v in self.args) + ")"


def _ground_key(value) -> tuple:
    # Integers sort before strings so mixed-type columns still have a total order.
    return (0, value) if isinstance(value, int) else (1, value)


def _row_key(row: tuple[GroundValue, ...]) -> tuple:
    return tuple(_ground_key(v) for v in row)


def atom_sort_key(atom: GAtom) -> tuple:
    return (atom.predicate, len(atom.args), _row_key(atom.args))


@dataclass(frozen=True)
class GroundChoice:
    """One body instantiation of a choice rule: pick exactly k candidates."""

    rule_index: int
    binding: tuple[tuple[str, GroundValue], ...]
    candidates: tuple[int, ...]  # ascending ids into GroundProgram.atoms
    k: int


@dataclass(frozen=True)
class Nogood:
    """Candidate atoms that must not all be true, as ascending ids.

    An empty atom set marks a constraint violated by facts alone: the
    program has no stable models at all.
    """

    atoms: tuple[int, ...]


def _in_order(nogoods, check_deadline: Callable[[], None] = lambda: None) -> tuple[Nogood, ...]:
    """Distinct ascending id tuples as nogoods in (len, ids) order.

    `check_deadline` is called before each batch of 256 nogoods is made, the
    first time right after the sort.
    """
    ordered = sorted(nogoods)
    ordered.sort(key=len)  # stable, so ids order within each length
    made: list[Nogood] = []
    for start in range(0, len(ordered), 256):
        check_deadline()
        made += map(Nogood, ordered[start : start + 256])
    return tuple(made)


@dataclass(frozen=True)
class GroundProgram:
    facts: frozenset[GAtom]
    atoms: tuple[GAtom, ...]  # every candidate once, in atom_sort_key order
    choices: tuple[GroundChoice, ...]
    nogoods: tuple[Nogood, ...]
    # at most one atom of each group may be true; ascending ids, sorted
    groups: tuple[tuple[int, ...], ...]

    def expanded_nogoods(self) -> tuple[Nogood, ...]:
        """`nogoods` and every pair of every group, deduplicated, in (len,
        ids) order: the nogoods the program stands for."""
        merged = {nogood.atoms for nogood in self.nogoods}
        for group in self.groups:
            merged.update(itertools.combinations(group, 2))
        return _in_order(merged)

    def dump(self) -> str:
        """Canonical text form: FACT / CHOICE / NOGOOD lines, with every group
        expanded into the binary nogoods it stands for."""
        lines = [f"FACT {a.render()}" for a in sorted(self.facts, key=atom_sort_key)]
        names = [a.render() for a in self.atoms]
        for choice in self.choices:
            inner = ", ".join(names[i] for i in choice.candidates)
            lines.append(f"CHOICE k={choice.k} [{inner}]")
        for nogood in self.expanded_nogoods():
            inner = ", ".join(names[i] for i in nogood.atoms)
            lines.append(f"NOGOOD [{inner}]")
        return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Term and comparison evaluation
# ---------------------------------------------------------------------------


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _remainder(a: int, b: int) -> int:
    # Remainder carries the sign of the dividend: -7 \ 2 = -1, 7 \ -2 = 1.
    return a - b * _trunc_div(a, b)


def evaluate_term(term: Term, binding: Binding) -> GroundValue | tuple:
    """Evaluate a term under a total binding.

    Arithmetic is integer-only: applying it to a string raises TypeError,
    dividing by zero raises ZeroDivisionError.  Tuples evaluate to tuples.
    """
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, StrConst):
        return term.value
    if isinstance(term, Variable):
        return binding[term.name]
    if isinstance(term, Abs):
        inner = evaluate_term(term.inner, binding)
        if not isinstance(inner, int):
            raise TypeError(f"absolute value of non-integer {inner!r}")
        return abs(inner)
    if isinstance(term, TupleTerm):
        return tuple(evaluate_term(t, binding) for t in term.elements)
    left = evaluate_term(term.left, binding)
    right = evaluate_term(term.right, binding)
    if not isinstance(left, int) or not isinstance(right, int):
        bad = left if not isinstance(left, int) else right
        raise TypeError(f"arithmetic on non-integer {bad!r}")
    if term.op == "+":
        return left + right
    if term.op == "-":
        return left - right
    if term.op == "*":
        return left * right
    if term.op == "/":
        return _trunc_div(left, right)
    return _remainder(left, right)


def _values_equal(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            raise TypeError("a tuple compares only against another tuple")
        if len(a) != len(b):
            raise TypeError("tuple comparison with unequal lengths")
        return all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, int) != isinstance(b, int):
        raise TypeError(f"cannot compare {a!r} with {b!r}")
    return a == b


def evaluate_comparison(comp: Comparison, binding: Binding) -> bool:
    """Evaluate a ground comparison; ordering operators require integers."""
    left = evaluate_term(comp.lhs, binding)
    right = evaluate_term(comp.rhs, binding)
    if comp.op == "=":
        return _values_equal(left, right)
    if comp.op == "!=":
        return not _values_equal(left, right)
    if not isinstance(left, int) or not isinstance(right, int):
        bad = left if not isinstance(left, int) else right
        raise TypeError(f"ordering comparison on non-integer {bad!r}")
    if comp.op == "<":
        return left < right
    if comp.op == ">":
        return left > right
    if comp.op == "<=":
        return left <= right
    return left >= right


# ---------------------------------------------------------------------------
# Compiled terms
# ---------------------------------------------------------------------------

# Closure factories: given the closures of the operands, one closure that
# applies the operator natively.  Division and remainder still truncate.
_ARITH = {
    "+": lambda f, g: lambda b: f(b) + g(b),
    "-": lambda f, g: lambda b: f(b) - g(b),
    "*": lambda f, g: lambda b: f(b) * g(b),
    "/": lambda f, g: lambda b: _trunc_div(f(b), g(b)),
    "\\": lambda f, g: lambda b: _remainder(f(b), g(b)),
}
_COMPARE = {
    "=": lambda f, g: lambda b: f(b) == g(b),
    "!=": lambda f, g: lambda b: f(b) != g(b),
    "<": lambda f, g: lambda b: f(b) < g(b),
    ">": lambda f, g: lambda b: f(b) > g(b),
    "<=": lambda f, g: lambda b: f(b) <= g(b),
    ">=": lambda f, g: lambda b: f(b) >= g(b),
}


def _native_term(term: Term):
    """A closure computing `term` from a binding with plain Python operators.

    Only for terms that `_term_type` types: every check `evaluate_term` makes
    is then known to pass.
    """
    if next(term_variables(term), None) is None:
        value = evaluate_term(term, {})
        return lambda binding: value
    if isinstance(term, Variable):
        return operator.itemgetter(term.name)
    if isinstance(term, Abs):
        inner = _native_term(term.inner)
        return lambda binding: abs(inner(binding))
    if isinstance(term, TupleTerm):
        return _native_tuple(term.elements)
    return _ARITH[term.op](_native_term(term.left), _native_term(term.right))


def _native_tuple(terms) -> Callable[[Binding], tuple]:
    """A closure computing the tuple of the values of `terms`."""
    names = [t.name for t in terms if isinstance(t, Variable)]
    if len(names) == len(terms) >= 2:
        return operator.itemgetter(*names)
    parts = [_native_term(t) for t in terms]
    if len(parts) == 1:
        part = parts[0]
        return lambda binding: (part(binding),)
    return lambda binding: tuple([part(binding) for part in parts])


def _native_test(comp: Comparison) -> Callable[[Binding], bool]:
    """Only for comparisons that `_comparison_typed` accepts: both sides have
    one type and tuple shape, so plain ``==`` and ``!=`` are exact."""
    return _COMPARE[comp.op](_native_term(comp.lhs), _native_term(comp.rhs))


def _checked_test(comp: Comparison, rule_index: int) -> Callable[[Binding], bool]:
    def test(binding: Binding) -> bool:
        try:
            return evaluate_comparison(comp, binding)
        except (TypeError, ZeroDivisionError) as exc:
            raise GroundingError(rule_index, binding, str(exc)) from exc

    return test


def _checked_tuple(terms, rule_index: int, place: str) -> Callable[[Binding], tuple]:
    """Evaluate `terms` in order, raising at the first error or tuple value."""

    def values(binding: Binding) -> tuple:
        out = []
        for term in terms:
            try:
                value = evaluate_term(term, binding)
            except (TypeError, ZeroDivisionError) as exc:
                raise GroundingError(rule_index, binding, str(exc)) from exc
            if isinstance(value, tuple):
                raise GroundingError(rule_index, binding, f"tuple term in {place}")
            out.append(value)
        return tuple(out)

    return values


# ---------------------------------------------------------------------------
# Extension tables and compiled join plans
# ---------------------------------------------------------------------------


class _Extension:
    """Ground tuples of one predicate; `atoms` maps a chosen row to its id.

    `indexes` caches the index of each atom-step signature over these rows,
    and `_types` the answer of `column_type` for each position.
    """

    def __init__(self, rows: list[tuple[GroundValue, ...]], atoms: dict | None = None):
        self.rows = rows
        self.atoms = atoms
        self.indexes: dict[tuple, dict[tuple, list[tuple[GroundValue, ...]]]] = {}
        self._types: dict[int, type | None] = {}

    def column_type(self, position: int) -> type | None:
        """int or str if every row holds that type at `position`, else None."""
        if position not in self._types:
            kinds = {type(row[position]) for row in self.rows}
            self._types[position] = kinds.pop() if len(kinds) == 1 else None
        return self._types[position]


def _term_type(term: Term, types: dict[str, type | None]):
    """int, str or a tuple of these if `term` evaluates without error, else None."""
    if isinstance(term, IntConst):
        return int
    if isinstance(term, StrConst):
        return str
    if isinstance(term, Variable):
        return types.get(term.name)
    if isinstance(term, Abs):
        return int if _term_type(term.inner, types) is int else None
    if isinstance(term, TupleTerm):
        elements = tuple(_term_type(t, types) for t in term.elements)
        return None if None in elements else elements
    if _term_type(term.left, types) is not int or _term_type(term.right, types) is not int:
        return None
    if term.op in "/\\" and not (isinstance(term.right, IntConst) and term.right.value != 0):
        return None
    return int


def _comparison_typed(comp: Comparison, types: dict[str, type | None]) -> bool:
    left, right = _term_type(comp.lhs, types), _term_type(comp.rhs, types)
    if left is None or right is None:
        return False
    if comp.op in ("=", "!="):
        return left == right
    return left is int and right is int


_NEGATED = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


def _term_order(term: Term) -> tuple:
    """A total order on terms that does not depend on string hashing."""
    if isinstance(term, IntConst):
        return (0, term.value)
    if isinstance(term, StrConst):
        return (1, term.value)
    if isinstance(term, Variable):
        return (2, term.name)
    if isinstance(term, Abs):
        return (3, _term_order(term.inner))
    if isinstance(term, TupleTerm):
        return (4, tuple(map(_term_order, term.elements)))
    return (5, term.op, _term_order(term.left), _term_order(term.right))


def _canonical(term: Term, names: dict[str, Variable]) -> Term:
    """`term` with each variable renamed through `names`, and with the operands
    of each ``+``, each ``*`` and each ``|a-b|`` in `_term_order`.

    ``a+b=b+a``, ``a*b=b*a`` and ``|a-b|=|b-a|`` hold for integers, the only
    values a statically error-free rule computes with, so two terms with one
    canonical form have one value.
    """
    if isinstance(term, Variable):
        return names.get(term.name, term)
    if isinstance(term, Arith):
        left, right = _canonical(term.left, names), _canonical(term.right, names)
        if term.op in ("+", "*") and _term_order(right) < _term_order(left):
            left, right = right, left
        return Arith(term.op, left, right)
    if isinstance(term, Abs):
        inner = _canonical(term.inner, names)
        if (
            isinstance(inner, Arith)
            and inner.op == "-"
            and _term_order(inner.right) < _term_order(inner.left)
        ):
            inner = Arith("-", inner.right, inner.left)
        return Abs(inner)
    if isinstance(term, TupleTerm):
        return TupleTerm(tuple(_canonical(t, names) for t in term.elements))
    return term


def _normal_forms(comps, names: dict[str, Variable]) -> set[tuple]:
    """The comparisons renamed through `names`, in a form that ignores which
    side is written first: ``A>B`` is ``B<A``, ``=``/``!=`` sides are
    unordered, and each side is in `_canonical` form."""
    forms = set()
    for comp in comps:
        lhs, op, rhs = _canonical(comp.lhs, names), comp.op, _canonical(comp.rhs, names)
        if op in (">", ">="):
            lhs, op, rhs = rhs, "<" + op[1:], lhs
        forms.add((op, frozenset((lhs, rhs))) if op in ("=", "!=") else (op, lhs, rhs))
    return forms


def _symmetric(rule: TestRule) -> bool:
    """True if the rule's body is two atoms of one predicate over plain
    variables that the position-by-position swap maps onto each other, and
    the swap also maps the body comparisons and the set of heads onto
    themselves, up to `_normal_forms`.

    Each atom's variables must be distinct; a variable in both atoms must
    sit at the same position, where the swap leaves it.  Only ``k=0`` and
    ``k=None`` qualify: they ask whether some head holds, which the swap
    keeps, where a counted ``k`` would also depend on repeated heads.
    """
    atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
    if rule.k not in (0, None) or len(atoms) != 2 or atoms[0].predicate != atoms[1].predicate:
        return False
    first, second = atoms[0].args, atoms[1].args
    if not all(isinstance(t, Variable) for t in first + second):
        return False
    if len({t.name for t in first}) < len(first) or len({t.name for t in second}) < len(second):
        return False
    if any((a in second) != (a == b) for a, b in zip(first, second)):
        return False  # a variable of the first atom sits elsewhere in the second
    swap = {a.name: b for a, b in zip(first + second, second + first)}
    comparisons = [lit for lit in rule.body if isinstance(lit, Comparison)]
    return all(
        _normal_forms(comps, swap) == _normal_forms(comps, {})
        for comps in (comparisons, rule.heads)
    )


def _clique(rule: TestRule) -> tuple[list[Term], list[Term]] | None:
    """The bucket keys of a rule that says "at most one row per key", or None.

    Such a rule is a ``k=0`` rule that `_symmetric` accepts, whose body
    comparisons are mirror equalities and one ``!=`` guard, and whose heads
    are all mirror equalities.  A mirror equality is ``f(X̄)=f(Ȳ)``: one side
    reads only the first atom's variables and the other is its swap image.
    The guard compares a variable or a tuple of variables of the first atom
    with its swap image.  The shared positions, the guard's positions and
    the positions of a head that is a variable or a tuple of variables must
    cover every argument position.  Two rows that agree on the shared
    positions, every body equality and a head then violate the rule exactly
    when they differ, which is exactly when the guard holds; so the rule's
    nogoods for that head are every pair of the rows that agree on its key.

    Returns the key terms over the first atom's variables: the shared
    variables and one side of each body equality, then one side of each head.
    """
    if rule.k != 0 or not _symmetric(rule):
        return None
    first, second = (lit.args for lit in rule.body if isinstance(lit, Atom))
    names = {t.name for t in first}
    swap = {a.name: b for a, b in zip(first + second, second + first)}

    def mirrored(comp: Comparison) -> Term | None:
        """The side over the first atom's variables, if the other is its swap
        image up to `_canonical` form."""
        for side, other in ((comp.lhs, comp.rhs), (comp.rhs, comp.lhs)):
            reads_first = set(term_variables(side)) <= names
            if reads_first and _canonical(side, swap) == _canonical(other, {}):
                return side
        return None

    def positions(side: Term) -> set[int] | None:
        """The positions of a variable or a tuple of variables, else None."""
        terms = side.elements if isinstance(side, TupleTerm) else (side,)
        if not all(isinstance(t, Variable) for t in terms):
            return None
        return {first.index(t) for t in terms}

    keys = [a for a, b in zip(first, second) if a == b]
    shared = {first.index(t) for t in keys}
    guards = []
    for comp in (lit for lit in rule.body if isinstance(lit, Comparison)):
        side = mirrored(comp)
        if side is None or comp.op not in ("=", "!="):
            return None
        (keys if comp.op == "=" else guards).append(side)
    heads = [mirrored(head) if head.op == "=" else None for head in rule.heads]
    guard = positions(guards[0]) if len(guards) == 1 else None
    if guard is None or None in heads:
        return None
    covered = shared | guard
    if any(len(covered | (positions(head) or set())) < len(first) for head in heads):
        return None
    return keys, heads


class _AtomStep:
    """Match one body atom: look its rows up by key, then bind its new variables.

    The key holds the values of the argument positions bound before the step,
    then one value per pushed ``=`` comparison.  `probe` holds the terms that
    compute the key from the current binding; `row_sides` compute the pushed
    key parts from a row when the index is built.  `compile` binds the step to
    the extension's index for its `signature`.  The first step compiled with a
    signature builds that index, and every later one shares it.  A bucket
    lists its rows in table order, which for a chosen predicate is id order.

    An `ordered` step, the second atom of a symmetric self-join, matches only
    the rows of a bucket whose id is at least the first atom's id.
    """

    def __init__(self, atom: Atom, extension: _Extension, bound: set[str], ordered: bool):
        self.predicate = atom.predicate
        self.extension = extension
        self.probe: list[Term] = []
        self.positions: list[int] = []
        self.binders: dict[str, int] = {}  # variable -> first position binding it
        self.repeats: list[tuple[int, int]] = []
        self.not_ground = False
        self.row_sides: list[Term] = []
        self.ordered = ordered
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable) and term.name not in bound:
                if term.name in self.binders:
                    self.repeats.append((self.binders[term.name], position))
                else:
                    self.binders[term.name] = position
            elif set(term_variables(term)) <= bound:
                self.probe.append(term)
                self.positions.append(position)
            else:
                # Raised when the step is reached, after the positions before it.
                self.not_ground = True
                break

    def push(self, comp: Comparison, bound: set[str]) -> bool:
        """Make an ``=`` comparison part of the key if one side reads only the
        variables this step binds and the other only earlier ones."""
        if comp.op != "=" or self.not_ground:
            return False
        for row_side, probe_side in ((comp.lhs, comp.rhs), (comp.rhs, comp.lhs)):
            reads = set(term_variables(row_side))
            if reads <= self.binders.keys() and set(term_variables(probe_side)) <= bound:
                self.row_sides.append(row_side)
                self.probe.append(probe_side)
                return True
        return False

    def _build_index(self) -> dict[tuple, list[tuple[GroundValue, ...]]]:
        index: dict[tuple, list[tuple[GroundValue, ...]]] = {}
        sides = _native_tuple(self.row_sides) if self.row_sides else None
        for row in self.extension.rows:
            if any(row[a] != row[b] for a, b in self.repeats):
                continue
            values = tuple(row[p] for p in self.positions)
            if sides is not None:
                values += sides({name: row[p] for name, p in self.binders.items()})
            index.setdefault(values, []).append(row)
        return index

    def signature(self) -> tuple:
        """What the step's index depends on: two steps with equal signatures
        build equal indexes."""
        if all(isinstance(side, Variable) for side in self.row_sides):
            # A plain variable side keys on the row value at its binding
            # position, as if that position were bound before the step.
            sides = tuple(self.binders[side.name] for side in self.row_sides)
            return tuple(self.positions) + sides, tuple(self.repeats)
        return (
            tuple(self.positions),
            tuple(self.repeats),
            tuple(self.row_sides),
            tuple(self.binders.items()),
        )

    def compile(self, rule_index: int, error_free: bool, then, chosen: list, check_deadline):
        """A closure that binds each matching row in turn and calls `then`."""
        signature = self.signature()
        indexes = self.extension.indexes
        if signature not in indexes:
            indexes[signature] = self._build_index()
        rows = indexes[signature].get
        if error_free:
            probe = _native_tuple(self.probe)
        else:
            values = _checked_tuple(self.probe, rule_index, "an atom argument")
            not_ground = self.not_ground
            message = f"argument of {self.predicate} is not ground when matched"

            def probe(binding: Binding) -> tuple:
                key = values(binding)
                if not_ground:
                    raise GroundingError(rule_index, binding, message)
                return key

        binders, atoms = tuple(self.binders.items()), self.extension.atoms
        ordered = self.ordered

        def run(binding: Binding) -> None:
            check_deadline()
            bucket = rows(probe(binding), ())
            if ordered:
                bucket = bucket[bisect_left(bucket, chosen[-1], key=atoms.__getitem__) :]
            for row in bucket:
                for name, position in binders:
                    binding[name] = row[position]
                if atoms is None:
                    then(binding)
                else:
                    chosen.append(atoms[row])
                    then(binding)
                    chosen.pop()
            for name, _ in binders:
                binding.pop(name, None)

        return run


def _filter(test, then):
    def run(binding: Binding) -> None:
        if test(binding):
            then(binding)

    return run


# ---------------------------------------------------------------------------
# Grounder
# ---------------------------------------------------------------------------


class _Grounder:
    def __init__(self, program: Program, deadline: float | None):
        self.program = program
        self.deadline = deadline

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GroundTimeout("grounding exceeded the solve budget")

    def run(self) -> GroundProgram:
        diagnostics = validate_safety(self.program)
        if diagnostics:
            first = diagnostics[0]
            raise GroundingError(first.rule_index, {}, f"program failed validation: {first}")

        # Domain and chosen predicates are disjoint: validation fails on overlap.
        self.extensions: dict[str, _Extension] = {}
        facts = self._expand_facts()
        picks = self._ground_choices()
        atoms = tuple(sorted(set().union(*(seen for _, _, seen, _ in picks)), key=atom_sort_key))
        ids = {atom: aid for aid, atom in enumerate(atoms)}
        choices = tuple(
            GroundChoice(index, binding, tuple(sorted(ids[a] for a in seen)), k)
            for index, binding, seen, k in picks
        )

        # A chosen predicate whose choice rules grounded to nothing still needs
        # an (empty) extension so test-rule bodies over it match zero times.
        # Arities are fixed per predicate, so table order is _row_key order.
        self.extensions |= {pred: _Extension([], {}) for pred in chosen_predicates(self.program)}
        for aid, atom in enumerate(atoms):
            extension = self.extensions[atom.predicate]
            extension.rows.append(atom.args)
            extension.atoms[atom.args] = aid

        return GroundProgram(frozenset(facts), atoms, choices, *self._ground_tests())

    # -- facts

    def _expand_facts(self) -> set[GAtom]:
        rows_by_pred: dict[str, set[tuple[GroundValue, ...]]] = {}
        for index, rule in enumerate(self.program.rules):
            if not isinstance(rule, Fact):
                continue
            pools: list[list[GroundValue]] = []
            for pool in rule.pools:
                values: list[GroundValue] = []
                for term in pool:
                    try:
                        value = evaluate_term(term, {})
                    except (TypeError, ZeroDivisionError) as exc:
                        raise GroundingError(index, {}, str(exc)) from exc
                    if isinstance(value, tuple):
                        raise GroundingError(index, {}, "tuple term in a fact argument")
                    values.append(value)
                pools.append(values)
            rows = rows_by_pred.setdefault(rule.predicate, set())
            for row in itertools.product(*pools):
                self._check_deadline()
                rows.add(row)
        # Making the atoms and sorting the rows each take several times longer
        # than the product, so they check the deadline too.
        def row_key(row: tuple[GroundValue, ...]) -> tuple:
            self._check_deadline()
            return _row_key(row)

        facts: set[GAtom] = set()
        for pred, rows in rows_by_pred.items():
            for row in rows:
                self._check_deadline()
                facts.add(GAtom(pred, row))
            self.extensions[pred] = _Extension(sorted(rows, key=row_key))
        return facts

    # -- rule plans

    def _error_free(self, atoms, comparisons, head: Atom | None = None) -> bool:
        """True if no evaluation in the rule can raise, given the column types.

        Only such a rule may have its comparisons reordered into keys, or its
        terms evaluated without checks: for any other rule, skipping an
        instance could skip the error it raises.
        """
        types: dict[str, type | None] = {}
        bound: set[str] = set()
        for atom in atoms:
            extension = self.extensions[atom.predicate]
            for position, term in enumerate(atom.args):
                if isinstance(term, Variable):
                    types.setdefault(term.name, extension.column_type(position))
                elif not set(term_variables(term)) <= bound:
                    return False  # not ground when matched
                elif _term_type(term, types) not in (int, str):
                    return False
            bound |= atom_variables(atom)
        for term in head.args if head is not None else ():
            if not isinstance(term, Variable) and _term_type(term, types) not in (int, str):
                return False
        return all(_comparison_typed(comp, types) for comp in comparisons)

    def _test(self, comp: Comparison, rule_index: int, error_free: bool):
        return _native_test(comp) if error_free else _checked_test(comp, rule_index)

    def _plan(
        self,
        literals,
        rule_index: int,
        error_free: bool,
        emit,
        chosen=None,
        bound=(),
        symmetric=False,
    ):
        """Compile literals into one closure that calls `emit(binding)` once per
        instance: atoms in the given order, each comparison right after the
        atom that binds its last variable.

        In an `error_free` plan, an ``=`` comparison that one side computes
        from the atom's row and the other from earlier bindings joins that
        atom's key instead.  In a `symmetric` plan the second atom is an
        ordered step.
        """
        steps: list = []
        bound = set(bound)
        pending = [lit for lit in literals if isinstance(lit, Comparison)]
        for n, atom in enumerate(lit for lit in literals if isinstance(lit, Atom)):
            step = _AtomStep(atom, self.extensions[atom.predicate], bound, symmetric and n == 1)
            before = set(bound)
            bound |= atom_variables(atom)
            steps.append(step)
            still = []
            for comp in pending:
                if not comparison_variables(comp) <= bound:
                    still.append(comp)
                elif not (error_free and step.push(comp, before)):
                    steps.append(self._test(comp, rule_index, error_free))
            pending = still
        # validate_safety binds every comparison variable in a body atom, so
        # only the comparisons of a body without atoms are left.
        steps += [self._test(comp, rule_index, error_free) for comp in pending]
        run = emit
        for step in reversed(steps):
            if isinstance(step, _AtomStep):
                run = step.compile(rule_index, error_free, run, chosen, self._check_deadline)
            else:
                run = _filter(step, run)
        return run

    # -- choice rules

    def _ground_choices(self) -> list[tuple]:
        """(rule index, binding, candidate set, k) per choice, in program order."""
        choices: list[tuple] = []
        for index, rule in enumerate(self.program.rules):
            if not isinstance(rule, ChoiceRule):
                continue
            body_atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
            comparisons = [lit for lit in rule.body if isinstance(lit, Comparison)]
            error_free = self._error_free(
                body_atoms + list(rule.conditions), comparisons, rule.head
            )
            body_bindings: list[Binding] = []
            self._plan(rule.body, index, error_free, lambda b: body_bindings.append(dict(b)))({})
            body_bindings.sort(key=lambda b: sorted((k, _ground_key(v)) for k, v in b.items()))

            if error_free:
                head = _native_tuple(rule.head.args)
            else:
                head = _checked_tuple(rule.head.args, index, "a choice head")
            predicate = rule.head.predicate
            body_vars = set().union(*(atom_variables(a) for a in body_atoms))
            conditions = self._plan(
                rule.conditions,
                index,
                error_free,
                lambda b: seen.add(GAtom(predicate, head(b))),
                bound=body_vars,
            )
            for body_binding in body_bindings:
                seen: set[GAtom] = set()  # filled by the conditions callback
                conditions(dict(body_binding))
                choices.append((index, tuple(sorted(body_binding.items())), seen, rule.k))
        return choices

    # -- test rules

    def _ground_tests(self) -> tuple[tuple[Nogood, ...], tuple[tuple[int, ...], ...]]:
        """The nogoods and the groups of every test rule, each in canonical order."""
        nogoods: set[frozenset[int]] = set()
        groups: set[tuple[int, ...]] = set()
        for index, rule in enumerate(self.program.rules):
            if isinstance(rule, TestRule):
                self._ground_test(rule, index, nogoods, groups)

        def ascending():
            # Ordering a large nogood set can take longer than the join that
            # found it, so this conversion and `_in_order` check the deadline.
            for n, nogood in enumerate(nogoods):
                if not n % 256:
                    self._check_deadline()
                yield tuple(sorted(nogood))

        return _in_order(ascending(), self._check_deadline), tuple(sorted(groups))

    def _ground_test(self, rule: TestRule, index: int, nogoods: set, groups: set) -> None:
        atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
        comparisons = [lit for lit in rule.body if isinstance(lit, Comparison)]
        error_free = self._error_free(atoms, comparisons + list(rule.heads))
        # Only chosen rows have the ids an ordered step compares and a group holds.
        symmetric = (
            error_free
            and _symmetric(rule)
            and self.extensions[atoms[0].predicate].atoms is not None
        )
        clique = _clique(rule) if symmetric else None
        if clique is not None:
            self._group(atoms[0], *clique, groups)
            return
        chosen: list[int] = []

        def violated(binding: Binding) -> None:
            nogoods.add(frozenset(chosen))

        if error_free and rule.k in (0, None):
            # A violation is the body plus comparisons: for k=0 one head, in one
            # body per head; for k=None every head negated, in a single body.
            if rule.k == 0:
                violations = [(head,) for head in rule.heads]
            else:
                violations = [tuple(Comparison(c.lhs, _NEGATED[c.op], c.rhs) for c in rule.heads)]
            for extra in violations:
                plan = self._plan(rule.body + extra, index, True, violated, chosen, symmetric=symmetric)
                plan({})
        else:
            heads = [self._test(comp, index, error_free) for comp in rule.heads]

            def counted(binding: Binding) -> None:
                true_heads = sum([test(binding) for test in heads])
                satisfied = true_heads >= 1 if rule.k is None else true_heads == rule.k
                if not satisfied:
                    violated(binding)

            self._plan(rule.body, index, error_free, counted, chosen)({})

    def _group(self, atom: Atom, keys: list[Term], heads: list[Term], groups: set) -> None:
        """Add the groups of a rule `_clique` accepts: for each head, the ids
        of every two or more rows that agree on the key and that head."""
        extension = self.extensions[atom.predicate]
        names = [term.name for term in atom.args]
        for head in heads:
            key = _native_tuple(keys + [head])
            buckets: dict[tuple, list[int]] = {}
            for row in extension.rows:  # id order, so each bucket ascends
                self._check_deadline()
                buckets.setdefault(key(dict(zip(names, row))), []).append(extension.atoms[row])
            groups.update(tuple(ids) for ids in buckets.values() if len(ids) > 1)


def ground_program(program: Program, deadline: float | None = None) -> GroundProgram:
    """Ground a validated program.

    Raises GroundingError if validation fails or evaluation hits a type
    error / division by zero (the rule index and binding are attached),
    and GroundTimeout past `deadline` (a time.monotonic() instant).
    """
    return _Grounder(program, deadline).run()
