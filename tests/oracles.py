"""Brute-force reference implementations shared by the test modules.

They trade all cleverness for trustworthiness: tokenizing by walking the
text one character at a time, grounding by exhaustive substitution, solving
by generate-and-test.  The grounding and solving oracles are feasible only
for tiny programs; all of them exist purely to cross-check the real
tokenizer, grounder and solver.
"""
from __future__ import annotations

import itertools
import math

from puzzle2asp.ground import (
    GAtom,
    GroundProgram,
    atom_sort_key,
    evaluate_comparison,
    evaluate_term,
)
from puzzle2asp.syntax import (
    _SYMBOLS,
    Abs,
    Arith,
    AspSyntaxError,
    Atom,
    ChoiceRule,
    Comparison,
    Fact,
    IntConst,
    Program,
    StrConst,
    TestRule,
    TupleTerm,
    Variable,
    chosen_predicates,
)


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text` as (kind, text, line, column), or AspSyntaxError."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                j += 1
            if j >= n or text[j] == "\n":
                raise AspSyntaxError(line, col, "unterminated string constant")
            tokens.append(("STRING", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdecimal():  # what int() accepts; "²".isdigit() holds too
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "VAR" if word[0].isupper() else "IDENT"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise AspSyntaxError(line, col, f"unexpected character {ch!r}")
    tokens.append(("EOF", "", line, col))
    return tokens


def _const_value(term):
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, StrConst):
        return term.value
    raise AssertionError("oracle only handles constant/variable atom arguments")


def _bind_rows(atoms, combo):
    """Unify each atom with its row; return the binding or None on clash."""
    binding = {}
    for atom, row in zip(atoms, combo):
        for term, value in zip(atom.args, row):
            if isinstance(term, Variable):
                if term.name in binding and binding[term.name] != value:
                    return None
                binding[term.name] = value
            elif _const_value(term) != value:
                return None
    return binding


def _matches(literals, universe):
    """All total body matches: yields (binding, rows aligned with the atoms)."""
    atoms = [lit for lit in literals if isinstance(lit, Atom)]
    comps = [lit for lit in literals if isinstance(lit, Comparison)]
    options = [sorted(universe[a.predicate]) for a in atoms]
    for combo in itertools.product(*options):
        binding = _bind_rows(atoms, combo)
        if binding is None:
            continue
        if all(evaluate_comparison(c, binding) for c in comps):
            yield binding, list(zip(atoms, combo))


def oracle_ground(program):
    """Ground by trying every row combination; no indexes, no reordering."""
    domain: dict[str, set[tuple]] = {}
    for rule in program.rules:
        if isinstance(rule, Fact):
            pools = [[evaluate_term(t, {}) for t in pool] for pool in rule.pools]
            for combo in itertools.product(*pools):
                domain.setdefault(rule.predicate, set()).add(tuple(combo))
    facts = {GAtom(p, row) for p, rows in domain.items() for row in rows}

    choices = set()
    chosen_rows: dict[str, set[tuple]] = {}
    for index, rule in enumerate(program.rules):
        if not isinstance(rule, ChoiceRule):
            continue
        for binding, _ in _matches(rule.body, domain):
            candidates = set()
            cond_atoms = list(rule.conditions)
            options = [sorted(domain[a.predicate]) for a in cond_atoms]
            for combo in itertools.product(*options):
                local = _bind_rows(cond_atoms, combo)
                if local is None:
                    continue
                clash = any(
                    name in binding and binding[name] != value
                    for name, value in local.items()
                )
                if clash:
                    continue
                full = {**binding, **local}
                args = tuple(evaluate_term(t, full) for t in rule.head.args)
                candidates.add(GAtom(rule.head.predicate, args))
            for atom in candidates:
                chosen_rows.setdefault(atom.predicate, set()).add(atom.args)
            choices.add(
                (
                    index,
                    tuple(sorted(binding.items())),
                    tuple(sorted(candidates, key=atom_sort_key)),
                    rule.k,
                )
            )

    universe = dict(domain)
    chosen = chosen_predicates(program)
    for pred in chosen:
        universe[pred] = set()
    for pred, rows in chosen_rows.items():
        universe[pred] = rows

    nogoods = set()
    for rule in program.rules:
        if not isinstance(rule, TestRule):
            continue
        for binding, matched in _matches(rule.body, universe):
            true_heads = sum(bool(evaluate_comparison(c, binding)) for c in rule.heads)
            satisfied = true_heads >= 1 if rule.k is None else true_heads == rule.k
            if not satisfied:
                nogoods.add(
                    frozenset(
                        GAtom(a.predicate, row) for a, row in matched if a.predicate in chosen
                    )
                )
    return facts, choices, nogoods


def _ascending(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def decoded(g: GroundProgram):
    """`g` as `(facts, choices, nogoods)` in `oracle_ground`'s shapes.

    Candidate and nogood ids are mapped back to atoms through `g.atoms`, and
    each group stands for the binary nogoods of its pairs.  Asserts the atom
    table invariants on the way: `g.atoms` is strictly increasing under
    `atom_sort_key` and is exactly the union of the candidates, every
    candidate, nogood and group tuple is strictly ascending, groups are
    sorted and hold two or more ids each.
    """
    assert _ascending([atom_sort_key(a) for a in g.atoms])
    assert {i for c in g.choices for i in c.candidates} == set(range(len(g.atoms)))
    assert all(_ascending(c.candidates) for c in g.choices)
    assert all(_ascending(n.atoms) for n in g.nogoods)
    assert all(len(group) >= 2 and _ascending(group) for group in g.groups)
    assert _ascending(g.groups)
    choices = {
        (c.rule_index, c.binding, tuple(g.atoms[i] for i in c.candidates), c.k)
        for c in g.choices
    }
    nogoods = {frozenset(g.atoms[i] for i in n.atoms) for n in g.expanded_nogoods()}
    return set(g.facts), choices, nogoods


def oracle_models(g: GroundProgram) -> set[frozenset[GAtom]]:
    """All stable models by exhaustive search; feasible only for tiny programs.

    Generates either one selection per choice or every subset of the
    candidate atoms, whichever is fewer, and tests each against every choice
    and nogood.  Both give the same models; choices that share their
    candidates make the per-choice product far larger than the subsets.
    """
    _, choice_set, nogoods = decoded(g)
    choices = [(candidates, k) for _, _, candidates, k in choice_set]
    union = sorted({a for candidates, _ in choices for a in candidates}, key=atom_sort_key)
    if 2 ** len(union) < search_space(g):
        selections = itertools.chain.from_iterable(
            itertools.combinations(union, r) for r in range(len(union) + 1)
        )
    else:
        selections = (
            itertools.chain.from_iterable(combo)
            for combo in itertools.product(
                *(itertools.combinations(candidates, k) for candidates, k in choices)
            )
        )
    models: set[frozenset[GAtom]] = set()
    for selection in selections:
        atoms = set(g.facts)
        atoms.update(selection)
        # Re-check every cardinality against the union: overlapping choices may
        # disagree with each other even though each selection was locally valid.
        if any(
            sum(1 for a in candidates if a in atoms) != k for candidates, k in choices
        ):
            continue
        if any(n <= atoms for n in nogoods):
            continue
        models.add(frozenset(atoms))
    return models


def search_space(g: GroundProgram) -> int:
    """Number of candidate selections generate-and-test would enumerate."""
    total = 1
    for choice in g.choices:
        total *= math.comb(len(choice.candidates), choice.k)
    return total


# ---------------------------------------------------------------------------
# Seeded random fragment programs for cross-checking
# ---------------------------------------------------------------------------

INT_OPS = ["=", "!=", "<", "<=", ">", ">="]
STRINGS = ["a", "b", "c", "d", "e", "f"]


def _const(value):
    return IntConst(value) if isinstance(value, int) else StrConst(value)


def random_program(rng):
    """A small well-typed program over the fragment, driven by `rng`.

    Domain predicates carry per-position types so that every generated
    comparison is type-correct; division always uses nonzero constant
    divisors.  Sizes are kept tiny so the brute-force oracles stay cheap.
    """
    domains = []  # (name, types, rows)
    rules = []
    for i in range(rng.randint(2, 3)):
        arity = rng.randint(1, 2)
        types = tuple(rng.choice(("int", "str")) for _ in range(arity))
        if arity > 1 and rng.random() < 0.4:
            # one pooled fact; the extension is the cartesian product
            pools = tuple(
                tuple(
                    sorted(
                        {rng.randint(1, 9) for _ in range(rng.randint(1, 2))}
                        if t == "int"
                        else {rng.choice(STRINGS) for _ in range(rng.randint(1, 2))}
                    )
                )
                for t in types
            )
            rows = sorted(itertools.product(*pools))
            rules.append(
                Fact(f"d{i}", tuple(tuple(_const(v) for v in pool) for pool in pools))
            )
        else:
            rows = set()
            while len(rows) < rng.randint(2, 4):
                rows.add(
                    tuple(
                        rng.randint(1, 9) if t == "int" else rng.choice(STRINGS)
                        for t in types
                    )
                )
            rows = sorted(rows)
            for row in rows:
                rules.append(Fact(f"d{i}", tuple((_const(v),) for v in row)))
        domains.append((f"d{i}", types, rows))

    counter = itertools.count()
    chosen_sigs = []  # (name, head argument types)

    def fresh():
        return f"V{next(counter)}"

    def make_choice(name, reuse_types=None):
        conds, cond_vars = [], []  # cond_vars: (variable name, type)
        for dom_name, types, _rows in rng.sample(domains, rng.randint(1, 2)):
            vs = [fresh() for _ in types]
            conds.append(Atom(dom_name, tuple(Variable(v) for v in vs)))
            cond_vars.extend(zip(vs, types))
        if reuse_types is None:
            arity = rng.randint(1, min(3, len(cond_vars)))
            picked = rng.sample(cond_vars, arity)
        else:
            # match an existing signature so two rules feed one predicate
            picked = []
            for want in reuse_types:
                pool = [cv for cv in cond_vars if cv[1] == want and cv not in picked]
                if not pool:
                    return None
                picked.append(rng.choice(pool))
        head_args, head_types = [], []
        for var, typ in picked:
            term = Variable(var)
            if typ == "int" and rng.random() < 0.3:
                term = Arith("+", term, IntConst(rng.randint(1, 3)))
            head_args.append(term)
            head_types.append(typ)
        body = []
        if rng.random() < 0.5:
            dom_name, types, _rows = rng.choice(domains)
            vs = [fresh() for _ in types]
            body.append(Atom(dom_name, tuple(Variable(v) for v in vs)))
            ints = [v for v, t in zip(vs, types) if t == "int"]
            if ints and rng.random() < 0.5:
                body.append(
                    Comparison(
                        Variable(rng.choice(ints)),
                        rng.choice(INT_OPS),
                        IntConst(rng.randint(1, 9)),
                    )
                )
        k = 2 if rng.random() < 0.25 else 1
        rule = ChoiceRule(Atom(name, tuple(head_args)), tuple(conds), k, tuple(body))
        return rule, tuple(head_types)

    n_choices = rng.randint(1, 2)
    for j in range(n_choices):
        if j and chosen_sigs and rng.random() < 0.3:
            name, types = chosen_sigs[0]
            made = make_choice(name, reuse_types=types)
            if made is None:
                made = make_choice(f"c{j}")
        else:
            made = make_choice(f"c{j}")
        rule, head_types = made
        rules.append(rule)
        chosen_sigs.append((rule.head.predicate, head_types))

    for _ in range(rng.randint(1, 3)):
        body, typed_vars = [], []
        over_domain_only = rng.random() < 0.1  # can yield empty nogoods
        if not over_domain_only:
            for name, types in rng.sample(
                chosen_sigs, rng.randint(1, min(2, len(chosen_sigs)))
            ):
                vs = [fresh() for _ in types]
                body.append(Atom(name, tuple(Variable(v) for v in vs)))
                typed_vars.extend(zip(vs, types))
        if over_domain_only or rng.random() < 0.3:
            dom_name, types, _rows = rng.choice(domains)
            vs = [fresh() for _ in types]
            body.append(Atom(dom_name, tuple(Variable(v) for v in vs)))
            typed_vars.extend(zip(vs, types))
        ints = [v for v, t in typed_vars if t == "int"]
        strs = [v for v, t in typed_vars if t == "str"]

        def comparison():
            if rng.random() < 0.2 and len(typed_vars) >= 2:
                pairs = rng.sample(typed_vars, 2)
                lhs = TupleTerm(tuple(Variable(v) for v, _ in pairs))
                rhs_terms = []
                for _v, t in pairs:
                    if t == "int":
                        rhs_terms.append(
                            rng.choice(
                                [IntConst(rng.randint(1, 9))]
                                + [Variable(x) for x in ints]
                            )
                        )
                    else:
                        rhs_terms.append(
                            rng.choice(
                                [StrConst(rng.choice(STRINGS))]
                                + [Variable(x) for x in strs]
                            )
                        )
                return Comparison(lhs, rng.choice(["=", "!="]), TupleTerm(tuple(rhs_terms)))
            if ints and (not strs or rng.random() < 0.6):
                lhs = Variable(rng.choice(ints))
                rhs = rng.choice(
                    [IntConst(rng.randint(0, 10))] + [Variable(v) for v in ints]
                )
                if rng.random() < 0.4:
                    op = rng.choice(["+", "-", "*", "/", "\\"])
                    operand = (
                        IntConst(rng.randint(1, 3))
                        if op in "/\\"
                        else IntConst(rng.randint(0, 3))
                    )
                    rhs = Arith(op, rhs, operand)
                if rng.random() < 0.2:
                    rhs = Abs(rhs)
                return Comparison(lhs, rng.choice(INT_OPS), rhs)
            lhs = Variable(rng.choice(strs))
            rhs = rng.choice(
                [StrConst(rng.choice(STRINGS))] + [Variable(v) for v in strs]
            )
            return Comparison(lhs, rng.choice(["=", "!="]), rhs)

        heads = tuple(comparison() for _ in range(rng.randint(1, 2)))
        if len(heads) == 1 and rng.random() < 0.5:
            k = None
        else:
            k = rng.randint(0, len(heads))
        rules.append(TestRule(heads, k, tuple(body)))

    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# Seeded ill-typed programs for pinning the grounder's error behaviour
# ---------------------------------------------------------------------------

ILL_VALUES = [-3, -2, -1, 0, 1, 2, 3, "a", "b"]


def ill_typed_program(rng):
    """A small program that is often ill-typed, driven by `rng`.

    Unlike `random_program`, nothing keeps it well typed: columns may mix
    integers and strings, divisors may be variables or constants that are
    0, atoms repeat variables, and atom arguments may be tuples or read a
    variable that only a later atom binds.  Grounding one either returns a
    program or raises GroundingError; what it does, and where the error is
    raised, is what the grounder must keep.
    """
    counter = itertools.count()
    rules = []
    domains = []  # (name, arity)

    def fresh():
        return f"V{next(counter)}"

    def value(kind):
        if kind == "int":
            return rng.randint(-3, 3)
        if kind == "str":
            return rng.choice(["a", "b"])
        return rng.choice(ILL_VALUES)

    kind_pool = ["int"] if rng.random() < 0.4 else ["int", "int", "str", "mixed"]
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(1, 2)
        kinds = [rng.choice(kind_pool) for _ in range(arity)]
        rows = sorted({tuple(value(k) for k in kinds) for _ in range(rng.randint(1, 4))}, key=repr)
        for row in rows:
            rules.append(Fact(f"d{i}", tuple((_const(v),) for v in row)))
        domains.append((f"d{i}", arity))

    def term(names, depth=0):
        r = rng.random()
        if not names or r < 0.2:
            return _const(rng.choice(ILL_VALUES) if r < 0.05 else rng.randint(-3, 3))
        if depth >= 2 or r < 0.7:
            return Variable(rng.choice(names))
        if r < 0.92:
            return Arith(rng.choice("+-*/\\"), term(names, depth + 1), term(names, depth + 1))
        return Abs(term(names, depth + 1))

    def comparison(names):
        if rng.random() < 0.15:
            lhs = TupleTerm((term(names), term(names)))
            width = rng.choice([2, 2, 2, 3])
            rhs = TupleTerm(tuple(term(names) for _ in range(width)))
            if rng.random() < 0.2:
                rhs = term(names)
            return Comparison(lhs, rng.choice(["=", "!=", "<"]), rhs)
        return Comparison(term(names), rng.choice(INT_OPS), term(names))

    def body_atoms(predicates, count, bound, wild):
        """Atoms over `predicates`; returns them and the names they bind.

        An argument is a fresh variable, or with probability `wild` a
        repeated variable, a constant, arithmetic, a tuple or a term over a
        variable that only a later atom binds.
        """
        atoms, names, owed = [], list(bound), []
        for _ in range(count):
            pred, arity = rng.choice(predicates)
            before, args = list(names), []
            for _ in range(arity):
                r = rng.random()
                if r >= wild or not names:
                    name = fresh()
                    names.append(name)
                    args.append(Variable(name))
                    continue
                r /= wild
                if r < 0.45:
                    args.append(Variable(rng.choice(names)))  # repeated variable
                elif r < 0.6:
                    args.append(_const(rng.choice(ILL_VALUES)))
                elif r < 0.8:
                    args.append(Arith(rng.choice("+-/"), term(before, 1), term(before, 1)))
                elif r < 0.9:
                    later = fresh()  # bound only by an atom after this one
                    owed.append(later)
                    args.append(Arith("+", Variable(later), IntConst(1)))
                else:
                    args.append(TupleTerm((term(before, 1), term(before, 1))))
            atoms.append(Atom(pred, tuple(args)))
        for name in owed:
            pred, arity = rng.choice(domains)
            args = [Variable(name)] + [Variable(fresh()) for _ in range(arity - 1)]
            atoms.append(Atom(pred, tuple(args)))
            names.append(name)
        return atoms, names

    chosen = []  # (name, arity)
    for j in range(rng.randint(1, 2)):
        body, body_names = [], []
        if rng.random() < 0.4:
            body, body_names = body_atoms(domains, 1, [], 0.3)
            if rng.random() < 0.5:
                body.append(comparison(body_names))
        conditions, names = body_atoms(domains, rng.randint(1, 2), body_names, 0.2)
        arity = rng.randint(1, 2)
        head_args = []
        for _ in range(arity):
            r = rng.random()
            if r < 0.7:
                head_args.append(Variable(rng.choice(names)))
            elif r < 0.97:
                head_args.append(term(names, 1))
            else:
                head_args.append(TupleTerm((term(names, 1), term(names, 1))))
        k = rng.choice([1, 1, 2])
        rules.append(ChoiceRule(Atom(f"c{j}", tuple(head_args)), tuple(conditions), k, tuple(body)))
        chosen.append((f"c{j}", arity))

    for _ in range(rng.randint(1, 3)):
        atoms, names = body_atoms(chosen, rng.randint(1, 2), [], 0.35)
        if rng.random() < 0.3:
            more, names = body_atoms(domains, 1, names, 0.35)
            atoms += more
        body = list(atoms)
        for _ in range(rng.randint(0, 2)):
            body.insert(rng.randint(0, len(body)), comparison(names))
        heads = tuple(comparison(names) for _ in range(rng.randint(1, 2)))
        k = rng.choice([None, *range(len(heads) + 1)])
        rules.append(TestRule(heads, k, tuple(body)))

    return Program(tuple(rules))



# ---------------------------------------------------------------------------
# Seeded self-joins of one chosen predicate, most of them symmetric
# ---------------------------------------------------------------------------

_MIRRORED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _renamed(term, names):
    """`term` with each variable renamed through `names`."""
    if isinstance(term, Variable):
        return names.get(term.name, term)
    if isinstance(term, Arith):
        return Arith(term.op, _renamed(term.left, names), _renamed(term.right, names))
    if isinstance(term, Abs):
        return Abs(_renamed(term.inner, names))
    if isinstance(term, TupleTerm):
        return TupleTerm(tuple(_renamed(t, names) for t in term.elements))
    return term


def _self_join_domain(rng, kinds=None):
    """Column kinds and the rules of a chosen predicate ``c`` over them.

    The kinds are drawn unless given.  One domain fact per column, of 1-3
    values, and one choice rule that picks ``c`` rows: either k of all of
    them, or k per first-column value.
    """
    if kinds is None:
        kinds = [rng.choice(("int", "int", "str")) for _ in range(rng.randint(1, 3))]
    rules = []
    for i, kind in enumerate(kinds):
        pool = [1, 2, 3, 4] if kind == "int" else ["a", "b", "c"]
        values = sorted(rng.sample(pool, rng.choice([1, 2, 3, 3])))
        rules.append(Fact(f"d{i}", (tuple(_const(v) for v in values),)))
    head = Atom("c", tuple(Variable(f"X{i}") for i in range(len(kinds))))
    conditions = tuple(Atom(f"d{i}", (Variable(f"X{i}"),)) for i in range(len(kinds)))
    body = ()
    if len(kinds) > 1 and rng.random() < 0.5:
        body, conditions = conditions[:1], conditions[1:]  # one choice per first value
    rules.append(ChoiceRule(head, conditions, rng.choice([1, 1, 2]), body))
    return kinds, rules


def _written(rng, lhs, op, rhs):
    """The comparison with either side first."""
    if rng.random() < 0.5:
        return Comparison(rhs, _MIRRORED[op], lhs)
    return Comparison(lhs, op, rhs)


def _side_term(rng, kinds, side, i):
    """A term of column i's type over one atom's variables `side`."""
    ints = [j for j, kind in enumerate(kinds) if kind == "int"]
    if kinds[i] == "str" or rng.random() < 0.4:
        return side[i]
    return rng.choice([
        Arith("+", side[i], IntConst(rng.randint(1, 2))),
        Arith("/", Arith("-", side[i], IntConst(1)), IntConst(2)),
        Arith("+", side[i], side[rng.choice(ints)]),
    ])


def _self_join_atoms(rng, kinds, share):
    """The variables of ``c(A1,B1,..)`` and ``c(A2,B2,..)``, and their swap.

    With probability `share`, one position holds the same variable in both.
    """
    letters = "ABC"[: len(kinds)]
    shared = {rng.choice(letters)} if len(kinds) > 1 and rng.random() < share else set()
    first = [Variable(x if x in shared else x + "1") for x in letters]
    second = [Variable(x if x in shared else x + "2") for x in letters]
    swap = {v.name: w for v, w in zip(first + second, second + first)}
    return first, second, swap


def symmetric_program(rng):
    """A small program whose test rules join one chosen predicate with itself.

    Each test rule has k=0 or k=None and the body ``c(A1,B1,..), c(A2,B2,..)``
    followed by comparisons; a position may hold one shared variable in both
    atoms.  Most rules are symmetric under swapping A1 with A2, B1 with B2
    and so on: each body comparison and each head either maps onto itself or
    comes with its mirror image.  Some miss by one comparison.  A body may
    carry the guard ``(A1,B1,..)!=(A2,B2,..)``; without it, a violated
    instance can pair a row with itself and give a unit nogood.  Comparisons
    are written with either side first, and every rule is well typed.
    """
    kinds, rules = _self_join_domain(rng)
    ints = [i for i, kind in enumerate(kinds) if kind == "int"]

    for _ in range(rng.randint(1, 3)):
        first, second, swap = _self_join_atoms(rng, kinds, 0.3)

        def comparison():
            """Over one atom's variables and a constant, or across both atoms."""
            i = rng.randrange(len(kinds))
            side, other = rng.choice(((first, second), (second, first)))
            lhs = _side_term(rng, kinds, side, i)
            if kinds[i] == "str":
                rhs = rng.choice([StrConst(rng.choice("abc")), other[i]])
                return _written(rng, lhs, rng.choice(["=", "!="]), rhs)
            rhs = rng.choice(
                [IntConst(rng.randint(1, 5)), _side_term(rng, kinds, other, rng.choice(ints))]
            )
            return _written(rng, lhs, rng.choice(INT_OPS), rhs)

        def symmetric(count):
            """Comparisons that each map onto themselves or come with their mirror."""
            comps = []
            for _ in range(count):
                if rng.random() < 0.4:
                    term = _side_term(rng, kinds, first, rng.randrange(len(kinds)))
                    comps.append(
                        _written(rng, term, rng.choice(["=", "!="]), _renamed(term, swap))
                    )
                else:
                    comp = comparison()
                    mirror = _written(
                        rng, _renamed(comp.lhs, swap), comp.op, _renamed(comp.rhs, swap)
                    )
                    comps += [comp, mirror]
            if rng.random() < 0.15:
                comps.append(comparison())  # a near miss
            return comps

        comps = symmetric(rng.randint(0, 2))
        if rng.random() < 0.6:
            if len(kinds) > 1:
                comps.append(_written(rng, TupleTerm(tuple(first)), "!=", TupleTerm(tuple(second))))
            else:
                comps.append(_written(rng, first[0], "!=", second[0]))
        rng.shuffle(comps)
        atoms = (Atom("c", tuple(first)), Atom("c", tuple(second)))
        rules.append(TestRule(tuple(symmetric(1)), rng.choice([0, None]), atoms + tuple(comps)))
    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# Seeded at-most-one rules over one chosen predicate, and near misses
# ---------------------------------------------------------------------------


def clique_program(rng):
    """A small program whose test rules mostly say "at most one row per key".

    Each test rule has the body ``c(A1,B1,..), c(A2,B2,..)``, where a position
    may hold one shared variable in both atoms, then mirror equalities
    ``f(A1,..)=f(A2,..)`` and a guard ``(A1,..)!=(A2,..)`` over some of the
    first atom's variables.  Its heads are mirror equalities and k=0.  The
    guard covers every position a shared variable does not, except perhaps
    that of a lone head that is a plain variable, and maybe more.  About one
    rule in three misses by one thing: a guard position dropped, a second
    guard, no guard, a guard over arithmetic, a one-sided comparison on
    each atom, a ``!=`` head, or k=None.  Comparisons are written with
    either side first, and every rule is well typed.
    """
    kinds, rules = _self_join_domain(rng)
    positions = range(len(kinds))
    for _ in range(rng.randint(1, 3)):
        first, second, swap = _self_join_atoms(rng, kinds, 0.5)

        def mirror(term, op="="):
            return _written(rng, term, op, _renamed(term, swap))

        sides = [
            first[i] if rng.random() < 0.5 else _side_term(rng, kinds, first, i)
            for i in (rng.randrange(len(kinds)) for _ in range(rng.randint(1, 2)))
        ]
        # a lone plain-variable head fixes its own position
        skip = first.index(sides[0]) if len(sides) == 1 and sides[0] in first else None
        guarded = [
            i for i in positions
            if (first[i] != second[i] and i != skip) or rng.random() < 0.2
        ] or [rng.choice(positions)]
        miss = rng.choice(["none"] * 14 + ["drop", "second", "unguarded", "arith", "onesided", "head", "k"])
        if miss == "drop" and len(guarded) > 1:
            guarded.remove(rng.choice(guarded))
        guard = [first[i] for i in guarded]
        comps = [
            mirror(_side_term(rng, kinds, first, rng.randrange(len(kinds))))
            for _ in range(rng.randint(0, 2))
        ]
        if miss == "arith" and kinds[guarded[0]] == "int":
            comps.append(mirror(Arith("+", guard[0], IntConst(1)), "!="))
        elif miss != "unguarded":
            comps.append(mirror(guard[0] if len(guard) == 1 else TupleTerm(tuple(guard)), "!="))
        if miss == "second":
            comps.append(mirror(first[rng.randrange(len(kinds))], "!="))
        if miss == "onesided":
            i = rng.randrange(len(kinds))
            op, value = ("<", IntConst(3)) if kinds[i] == "int" else ("=", StrConst("a"))
            comps += [_written(rng, atom[i], op, value) for atom in (first, second)]
        heads = [mirror(side) for side in sides]
        if miss == "head":
            heads.append(mirror(first[rng.randrange(len(kinds))], "!="))
        rng.shuffle(comps)
        atoms = (Atom("c", tuple(first)), Atom("c", tuple(second)))
        k = None if miss == "k" else 0
        rules.append(TestRule(tuple(heads), k, atoms + tuple(comps)))
    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# Seeded self-joins through commutative terms, and near misses
# ---------------------------------------------------------------------------


def commutative_program(rng):
    """A small program whose test rules join one chosen integer predicate with
    itself through terms that the swap maps onto themselves only up to the
    order of their operands.

    Each test rule has k=0 or k=None and the body ``c(A1,B1,..), c(A2,B2,..)``
    followed by comparisons; a position may hold one shared variable in both
    atoms.  A comparison side is ``|X1-X2|``, ``X1+X2`` or ``X1*X2`` over one
    column, with either operand first, or the sum of two such sides, as in
    the knight rule ``|Ir1-Ir2|+|Ic1-Ic2|=3``; the other side is a constant
    or another such side.  A head is such a comparison or a mirror equality
    ``X1=X2``.  About one rule in four also holds a near miss: ``X1-X2``, or
    ``|X1-Y2|`` or ``X1+Y2`` across two columns.  A body may carry the guard
    ``(A1,B1,..)!=(A2,B2,..)``.  Comparisons are written with either side
    first, and every rule is well typed.
    """
    kinds, rules = _self_join_domain(rng, ["int"] * rng.randint(1, 3))
    positions = range(len(kinds))
    for _ in range(rng.randint(1, 3)):
        first, second, _ = _self_join_atoms(rng, kinds, 0.3)

        def side():
            i = rng.choice(positions)
            a, b = rng.sample([first[i], second[i]], 2)
            op = rng.choice(["|-|", "+", "*"])
            return Abs(Arith("-", a, b)) if op == "|-|" else Arith(op, a, b)

        def comparison():
            lhs = side() if rng.random() < 0.7 else Arith("+", side(), side())
            rhs = IntConst(rng.randint(0, 6)) if rng.random() < 0.6 else side()
            return _written(rng, lhs, rng.choice(INT_OPS), rhs)

        def head():
            if rng.random() < 0.4:
                i = rng.choice(positions)
                return _written(rng, first[i], "=", second[i])
            return comparison()

        comps = [comparison() for _ in range(rng.randint(0, 2))]
        heads = [head() for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.25:
            i, j = rng.choice(positions), rng.choice(positions)
            if i == j:
                miss = Arith("-", first[i], second[i])
            else:
                across = Arith("-", first[i], second[j])
                miss = rng.choice([Abs(across), Arith("+", first[i], second[j])])
            rng.choice([comps, heads]).append(
                _written(rng, miss, rng.choice(INT_OPS), IntConst(rng.randint(0, 6)))
            )
        if rng.random() < 0.6:
            comps.append(_written(rng, TupleTerm(tuple(first)), "!=", TupleTerm(tuple(second))))
        rng.shuffle(comps)
        atoms = (Atom("c", tuple(first)), Atom("c", tuple(second)))
        rules.append(TestRule(tuple(heads), rng.choice([0, None]), atoms + tuple(comps)))
    return Program(tuple(rules))
