"""Grounding: expand a validated fragment program into facts, choices, nogoods.

Because the fragment has no recursion and every test-rule head comparison is
ground once the body is bound, every violated test-rule instance reduces to a
plain nogood over the chosen atoms in its body.  The solver then only ever
deals with three ground objects:

* ``facts`` — ground atoms that hold in every model,
* ``choices`` — pick exactly k of the listed candidate atoms,
* ``nogoods`` — sets of candidate atoms that must not be jointly true.

Grounding is deterministic: identical input produces an identical
:meth:`GroundProgram.dump`.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

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
    chosen_predicates,
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


def atom_sort_key(atom: GAtom) -> tuple:
    # Integers sort before strings so mixed-type argument columns still have
    # a total order.
    tagged = tuple((0, v) if isinstance(v, int) else (1, v) for v in atom.args)
    return (atom.predicate, len(atom.args), tagged)


@dataclass(frozen=True)
class GroundChoice:
    """One body instantiation of a choice rule: pick exactly k candidates."""

    rule_index: int
    binding: tuple[tuple[str, GroundValue], ...]
    candidates: tuple[GAtom, ...]
    k: int


@dataclass(frozen=True)
class Nogood:
    """Candidate atoms that must not all be true.

    An empty atom set marks a constraint violated by facts alone: the
    program has no stable models at all.
    """

    atoms: frozenset[GAtom]


@dataclass(frozen=True)
class GroundProgram:
    facts: frozenset[GAtom]
    choices: tuple[GroundChoice, ...]
    nogoods: tuple[Nogood, ...]

    def dump(self) -> str:
        """Canonical text form: FACT / CHOICE / NOGOOD lines."""
        lines = [f"FACT {a.render()}" for a in sorted(self.facts, key=atom_sort_key)]
        for choice in self.choices:
            inner = ", ".join(a.render() for a in choice.candidates)
            lines.append(f"CHOICE k={choice.k} [{inner}]")
        for nogood in self.nogoods:
            inner = ", ".join(a.render() for a in sorted(nogood.atoms, key=atom_sort_key))
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
# Extension tables with single-position indexing
# ---------------------------------------------------------------------------


class _Extension:
    """Ground tuples of one predicate plus lazy per-position value indexes."""

    def __init__(self, rows: list[tuple[GroundValue, ...]]):
        self.rows = rows
        self._indexes: dict[int, dict[GroundValue, list[tuple[GroundValue, ...]]]] = {}

    def candidates(self, position: int, value: GroundValue) -> list[tuple[GroundValue, ...]]:
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for row in self.rows:
                index.setdefault(row[position], []).append(row)
            self._indexes[position] = index
        return index.get(value, [])


def _ground_key(value) -> tuple:
    return (0, value) if isinstance(value, int) else (1, value)


def _row_key(row: tuple[GroundValue, ...]) -> tuple:
    return tuple(_ground_key(v) for v in row)


# ---------------------------------------------------------------------------
# Grounder
# ---------------------------------------------------------------------------


class _Grounder:
    def __init__(self, program: Program, deadline: float | None):
        self.program = program
        self.deadline = deadline
        self._tick = 0

    def _check_deadline(self) -> None:
        self._tick += 1
        if self.deadline is not None and self._tick % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise GroundTimeout("grounding exceeded the solve budget")

    def run(self) -> GroundProgram:
        diagnostics = validate_safety(self.program)
        if diagnostics:
            first = diagnostics[0]
            raise GroundingError(first.rule_index, {}, f"program failed validation: {first}")

        self.domain: dict[str, _Extension] = {}
        facts = self._expand_facts()
        choices = self._ground_choices()

        chosen_rows: dict[str, set[tuple[GroundValue, ...]]] = {}
        for choice in choices:
            for atom in choice.candidates:
                chosen_rows.setdefault(atom.predicate, set()).add(atom.args)
        # A chosen predicate whose choice rules grounded to nothing still needs
        # an (empty) extension so test-rule bodies over it match zero times.
        self.chosen = {pred: _Extension([]) for pred in chosen_predicates(self.program)}
        for pred, rows in chosen_rows.items():
            self.chosen[pred] = _Extension(sorted(rows, key=_row_key))

        nogoods = self._ground_tests()
        return GroundProgram(frozenset(facts), tuple(choices), tuple(nogoods))

    # -- facts

    def _expand_facts(self) -> set[GAtom]:
        facts: set[GAtom] = set()
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
            for combo in itertools.product(*pools) if pools else [()]:
                rows_by_pred.setdefault(rule.predicate, set()).add(tuple(combo))
                facts.add(GAtom(rule.predicate, tuple(combo)))
        for pred, rows in rows_by_pred.items():
            self.domain[pred] = _Extension(sorted(rows, key=_row_key))
        return facts

    # -- shared literal matching

    def _order_literals(self, literals, rule_index: int):
        """Atoms in given order; each comparison as early as its variables allow."""
        atoms = [lit for lit in literals if isinstance(lit, Atom)]
        comps = [lit for lit in literals if isinstance(lit, Comparison)]
        plan: list[tuple[str, object]] = []
        bound: set[str] = set()
        pending = list(comps)
        for atom in atoms:
            plan.append(("atom", atom))
            bound |= set().union(*(set(term_variables(a)) for a in atom.args)) if atom.args else set()
            still: list[Comparison] = []
            for comp in pending:
                vars_needed = set(term_variables(comp.lhs)) | set(term_variables(comp.rhs))
                if vars_needed <= bound:
                    plan.append(("comp", comp))
                else:
                    still.append(comp)
            pending = still
        if pending:
            # validate_safety guarantees comparison variables occur in body
            # atoms, so anything left over is a genuine internal error.
            raise GroundingError(rule_index, {}, "comparison variables not bound by body atoms")
        return plan

    def _match_atom(
        self, atom: Atom, extension: _Extension, binding: Binding, rule_index: int
    ) -> Iterator[tuple[GroundValue, ...]]:
        """Yield extension rows matching the atom; extends `binding` in place.

        The caller must consume each yielded row before advancing and must
        restore the binding via the row-local undo set we attach.
        """
        fixed: list[tuple[int, GroundValue]] = []
        free: list[tuple[int, str]] = []
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                if term.name in binding:
                    fixed.append((position, binding[term.name]))
                else:
                    free.append((position, term.name))
            else:
                needed = set(term_variables(term))
                if needed <= binding.keys():
                    try:
                        value = evaluate_term(term, binding)
                    except (TypeError, ZeroDivisionError) as exc:
                        raise GroundingError(rule_index, binding, str(exc)) from exc
                    if isinstance(value, tuple):
                        raise GroundingError(rule_index, binding, "tuple term in an atom argument")
                    fixed.append((position, value))
                else:
                    raise GroundingError(
                        rule_index, binding, f"argument of {atom.predicate} is not ground when matched"
                    )
        rows = (
            extension.candidates(fixed[0][0], fixed[0][1]) if fixed else extension.rows
        )
        rest = fixed[1:]
        for row in rows:
            self._check_deadline()
            if any(row[pos] != val for pos, val in rest):
                continue
            ok = True
            bound_here: list[str] = []
            for pos, name in free:
                if name in binding:
                    if binding[name] != row[pos]:
                        ok = False
                        break
                else:
                    binding[name] = row[pos]
                    bound_here.append(name)
            if ok:
                yield row
            for name in bound_here:
                del binding[name]

    def _instances(
        self,
        plan: list,
        step: int,
        binding: Binding,
        chosen_atoms: list[GAtom],
        rule_index: int,
    ) -> Iterator[None]:
        """Depth-first join over the literal plan; yields once per instance."""
        if step == len(plan):
            yield None
            return
        kind, payload = plan[step]
        if kind == "comp":
            try:
                holds = evaluate_comparison(payload, binding)
            except (TypeError, ZeroDivisionError) as exc:
                raise GroundingError(rule_index, binding, str(exc)) from exc
            if holds:
                yield from self._instances(plan, step + 1, binding, chosen_atoms, rule_index)
            return
        atom: Atom = payload
        if atom.predicate in self.domain:
            extension = self.domain[atom.predicate]
            is_chosen = False
        else:
            extension = self.chosen[atom.predicate]
            is_chosen = True
        for row in self._match_atom(atom, extension, binding, rule_index):
            if is_chosen:
                chosen_atoms.append(GAtom(atom.predicate, row))
            yield from self._instances(plan, step + 1, binding, chosen_atoms, rule_index)
            if is_chosen:
                chosen_atoms.pop()

    # -- choice rules

    def _ground_choices(self) -> list[GroundChoice]:
        choices: list[GroundChoice] = []
        for index, rule in enumerate(self.program.rules):
            if not isinstance(rule, ChoiceRule):
                continue
            plan = self._order_literals(rule.body, index)
            body_bindings: list[Binding] = []
            binding: Binding = {}
            for _ in self._instances(plan, 0, binding, [], index):
                body_bindings.append(dict(binding))
            body_bindings.sort(key=lambda b: sorted((k, _ground_key(v)) for k, v in b.items()))
            for body_binding in body_bindings:
                candidates = self._choice_candidates(rule, body_binding, index)
                choices.append(
                    GroundChoice(
                        index,
                        tuple(sorted(body_binding.items())),
                        tuple(candidates),
                        rule.k,
                    )
                )
        return choices

    def _choice_candidates(
        self, rule: ChoiceRule, body_binding: Binding, rule_index: int
    ) -> list[GAtom]:
        plan = [("atom", atom) for atom in rule.conditions]
        binding = dict(body_binding)
        seen: set[GAtom] = set()
        out: list[GAtom] = []
        for _ in self._instances(plan, 0, binding, [], rule_index):
            args: list[GroundValue] = []
            for term in rule.head.args:
                try:
                    value = evaluate_term(term, binding)
                except (TypeError, ZeroDivisionError) as exc:
                    raise GroundingError(rule_index, binding, str(exc)) from exc
                if isinstance(value, tuple):
                    raise GroundingError(rule_index, binding, "tuple term in a choice head")
                args.append(value)
            atom = GAtom(rule.head.predicate, tuple(args))
            if atom not in seen:
                seen.add(atom)
                out.append(atom)
        out.sort(key=atom_sort_key)
        return out

    # -- test rules

    def _ground_tests(self) -> list[Nogood]:
        nogoods: set[frozenset[GAtom]] = set()
        for index, rule in enumerate(self.program.rules):
            if not isinstance(rule, TestRule):
                continue
            plan = self._order_literals(rule.body, index)
            binding: Binding = {}
            chosen_atoms: list[GAtom] = []
            for _ in self._instances(plan, 0, binding, chosen_atoms, index):
                true_heads = 0
                for comp in rule.heads:
                    try:
                        if evaluate_comparison(comp, binding):
                            true_heads += 1
                    except (TypeError, ZeroDivisionError) as exc:
                        raise GroundingError(index, binding, str(exc)) from exc
                satisfied = true_heads >= 1 if rule.k is None else true_heads == rule.k
                if not satisfied:
                    nogoods.add(frozenset(chosen_atoms))
        return [
            Nogood(atoms)
            for atoms in sorted(
                nogoods, key=lambda s: (len(s), sorted(atom_sort_key(a) for a in s))
            )
        ]


def ground_program(program: Program, deadline: float | None = None) -> GroundProgram:
    """Ground a validated program.

    Raises GroundingError if validation fails or evaluation hits a type
    error / division by zero (the rule index and binding are attached),
    and GroundTimeout past `deadline` (a time.monotonic() instant).
    """
    return _Grounder(program, deadline).run()
