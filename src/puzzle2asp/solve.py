"""Stable-model enumeration for ground choice/nogood programs.

The search is a deterministic depth-first walk over the ground choices in
program order.  Within a choice, candidates are tried true-then-false in the
order of the grounder's atom ids (canonical atom order), which enumerates the
size-k subsets lexicographically.

Every assignment is pushed on a trail and updates the true/false counters of
each choice the atom belongs to; counters are kept for choices only.
Propagation then walks the trail from the first new atom and checks each
choice of each atom it passes.  Nogoods are checked only when one of their
atoms becomes true: a false atom satisfies its nogoods, so it can neither
complete nor shorten one.  A binary nogood {a, b} is kept as an implication
list: b sits in ``conflicts[a]`` and a in ``conflicts[b]``, so a true atom
walks its list and forces each undecided partner false.  ``conflicts`` holds
binary nogoods only.  A group (at most one of its atoms true) is never
expanded into the pairs it stands for: each atom lists the groups that hold
it, and a true atom walks each of them, forcing every undecided member false
and failing on any other true member.  Set-up and memory are thus linear in
the groups' total size, where the expanded pairs grow with the square of a
group's size.  Every other nogood (empty, unit, ternary or larger) is
scanned from its members.  Almost every ground nogood is binary or grouped,
so the scan path is rare.  Atoms forced by a check join the trail and are
walked in turn, and there are three forcing rules:

* a nogood with all but one atom true forces the remaining atom false, and
  a true member of a group forces the group's other members false;
* a choice that already has k true candidates forces the rest false;
* a choice whose undecided candidates are exactly the k still needed
  forces them all true.

A nogood with every atom true, or a choice with more than k true or fewer
than k possible, is a conflict, and the search backtracks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ground import GAtom, GroundProgram, atom_sort_key


class SolveTimeout(Exception):
    """Enumeration ran past its wall-clock budget."""

    def __init__(self, budget: float):
        super().__init__(f"solve budget of {budget:g}s exceeded")
        self.budget = budget


@dataclass(frozen=True)
class StableModel:
    """One stable model: the program facts plus the chosen atoms."""

    atoms: frozenset[GAtom]

    def render(self) -> str:
        return "".join(a.render() + "\n" for a in sorted(self.atoms, key=atom_sort_key))


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    elapsed_s: float = 0.0


@dataclass
class SolveResult:
    models: list[StableModel]
    exhausted: bool  # True iff the whole search space was explored
    stats: SolveStats = field(default_factory=SolveStats)


def render_models(result: SolveResult) -> str:
    """Text form: one atom per line, models separated by ``----``."""
    parts: list[str] = []
    for i, model in enumerate(result.models):
        if i:
            parts.append("----\n")
        parts.append(model.render())
    parts.append(f"MODELS {len(result.models)} EXHAUSTED {'true' if result.exhausted else 'false'}\n")
    return "".join(parts)


@dataclass
class ModelCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_model(g: GroundProgram, atoms: set[GAtom] | frozenset[GAtom]) -> ModelCheck:
    """Verify a candidate atom set against facts, cardinalities, and nogoods.

    Reports the first violation found, scanning facts, then unknown atoms,
    then choices in program order, then the nogoods of
    `GroundProgram.expanded_nogoods` in their (len, ids) order.
    """
    for fact in sorted(g.facts - set(atoms), key=atom_sort_key):
        return ModelCheck(False, f"missing fact {fact.render()}")
    for stray in sorted(set(atoms) - g.facts - set(g.atoms), key=atom_sort_key):
        return ModelCheck(False, f"unknown atom {stray.render()}")
    chosen = [a in atoms for a in g.atoms]
    for index, choice in enumerate(g.choices):
        true_count = sum(chosen[i] for i in choice.candidates)
        if true_count != choice.k:
            return ModelCheck(
                False,
                f"choice {index} (rule {choice.rule_index}) selects "
                f"{true_count} of its candidates, expected exactly {choice.k}",
            )
    # The first violated expanded nogood is the least violated one in (len,
    # ids) order.  The least pair a group holds of its true members is its
    # two smallest, so the groups need not be expanded.
    violated = [n.atoms for n in g.nogoods if all(chosen[i] for i in n.atoms)]
    for group in g.groups:
        true = [i for i in group if chosen[i]]
        if len(true) > 1:
            violated.append(tuple(true[:2]))
    if violated:
        first = min(violated, key=lambda ids: (len(ids), ids))
        inner = ", ".join(g.atoms[i].render() for i in first)
        return ModelCheck(False, f"nogood violated: [{inner}]")
    return ModelCheck(True)


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------

_UNDEC, _TRUE, _FALSE = 0, 1, 2


class _Engine:
    def __init__(self, g: GroundProgram, deadline: float | None, budget: float):
        self.deadline = deadline
        self.budget = budget
        self.stats = SolveStats()

        self.atoms = g.atoms
        n = len(self.atoms)

        self.assignment = [_UNDEC] * n
        self.trail: list[int] = []

        # choices: per-choice candidate ids, k, live true/false counters
        self.choice_members: list[tuple[int, ...]] = []
        self.choice_k: list[int] = []
        self.choice_true: list[int] = []
        self.choice_false: list[int] = []
        self.atom_choices: list[list[int]] = [[] for _ in range(n)]
        for ci, choice in enumerate(g.choices):
            self.choice_members.append(choice.candidates)
            self.choice_k.append(choice.k)
            self.choice_true.append(0)
            self.choice_false.append(0)
            for aid in choice.candidates:
                self.atom_choices[aid].append(ci)

        # binary nogoods as implication lists, groups as they are, the rest by
        # their members.  Binary nogoods come in ascending (a, b) order, so
        # each list ascends: a's partners below it come before those above.
        self.conflicts: list[list[int]] = [[] for _ in range(n)]
        self.nogood_members: list[tuple[int, ...]] = []
        self.atom_nogoods: list[list[int]] = [[] for _ in range(n)]
        for nogood in g.nogoods:
            if len(nogood.atoms) == 2:
                a, b = nogood.atoms
                self.conflicts[a].append(b)
                self.conflicts[b].append(a)
                continue
            gi = len(self.nogood_members)
            self.nogood_members.append(nogood.atoms)
            for aid in nogood.atoms:
                self.atom_nogoods[aid].append(gi)
        self.atom_groups: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for group in g.groups:
            for aid in group:
                self.atom_groups[aid].append(group)

        self.facts = g.facts

    # -- assignment bookkeeping

    def _set(self, aid: int, value: int) -> None:
        """Assign an undecided atom, push it on the trail, update its choice counters."""
        self.assignment[aid] = value
        self.trail.append(aid)
        if value == _TRUE:
            for ci in self.atom_choices[aid]:
                self.choice_true[ci] += 1
        else:
            for ci in self.atom_choices[aid]:
                self.choice_false[ci] += 1

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            aid = self.trail.pop()
            value = self.assignment[aid]
            self.assignment[aid] = _UNDEC
            if value == _TRUE:
                for ci in self.atom_choices[aid]:
                    self.choice_true[ci] -= 1
            else:
                for ci in self.atom_choices[aid]:
                    self.choice_false[ci] -= 1

    # -- the constraint checks: the only places that see a conflict or force atoms

    def _nogood(self, gi: int) -> bool:
        """Check nogood `gi` (not binary); force its last undecided atom false.

        False on conflict.
        """
        assignment = self.assignment
        undecided = None
        for aid in self.nogood_members[gi]:
            value = assignment[aid]
            if value == _FALSE:
                return True
            if value == _UNDEC:
                if undecided is not None:
                    return True
                undecided = aid
        if undecided is None:
            return False
        self.stats.propagations += 1
        self._set(undecided, _FALSE)
        return True

    def _choice(self, ci: int) -> bool:
        """Check choice `ci`; cap it when full, fill it when short.  False on conflict."""
        members = self.choice_members[ci]
        k = self.choice_k[ci]
        true = self.choice_true[ci]
        undecided = len(members) - true - self.choice_false[ci]
        if true > k or true + undecided < k:
            return False
        if undecided and (true == k or true + undecided == k):
            value = _FALSE if true == k else _TRUE
            for aid in members:
                if self.assignment[aid] == _UNDEC:
                    self.stats.propagations += 1
                    self._set(aid, value)
        return True

    def _propagate(self, head: int) -> bool:
        """Check every constraint of every trail atom from `head` on.

        A true atom first walks its `conflicts` list and then each of its
        groups: a true partner or other group member is a conflict, and an
        undecided one is forced false.  Its non-binary nogoods are then
        scanned by `_nogood`, and the choices of every atom, true or false,
        by `_choice`.
        """
        trail, assignment, conflicts = self.trail, self.assignment, self.conflicts
        atom_groups = self.atom_groups
        while head < len(trail):
            aid = trail[head]
            head += 1
            if assignment[aid] == _TRUE:
                for other in conflicts[aid]:
                    value = assignment[other]
                    if value == _TRUE:
                        return False
                    if value == _UNDEC:
                        self.stats.propagations += 1
                        self._set(other, _FALSE)
                for group in atom_groups[aid]:
                    for other in group:
                        value = assignment[other]
                        if value == _UNDEC:
                            self.stats.propagations += 1
                            self._set(other, _FALSE)
                        elif value == _TRUE and other != aid:
                            return False
                for gi in self.atom_nogoods[aid]:
                    if not self._nogood(gi):
                        return False
            for ci in self.atom_choices[aid]:
                if not self._choice(ci):
                    return False
        return True

    def _assign(self, aid: int, value: int) -> bool:
        head = len(self.trail)
        self._set(aid, value)
        return self._propagate(head)

    def _initial_propagate(self) -> bool:
        # Binary nogoods and groups need no pass here: `_propagate(0)` walks
        # the `conflicts` list and the groups of every atom the choices made
        # true.
        return (
            all(self._choice(ci) for ci in range(len(self.choice_members)))
            and all(self._nogood(gi) for gi in range(len(self.nogood_members)))
            and self._propagate(0)
        )

    # -- branching

    def _branch_atom(self) -> int | None:
        for ci, members in enumerate(self.choice_members):
            if self.choice_true[ci] < self.choice_k[ci]:
                for aid in members:
                    if self.assignment[aid] == _UNDEC:
                        return aid
        return None

    def run(self, limit: int | None) -> SolveResult:
        start = time.monotonic()
        deadline = self.deadline
        if deadline is None and self.budget is not None:
            deadline = start + self.budget
        models: list[StableModel] = []

        def out(exhausted: bool) -> SolveResult:
            self.stats.elapsed_s = time.monotonic() - start
            return SolveResult(models, exhausted, self.stats)

        if not self._initial_propagate():
            return out(True)

        # frames: (atom id, trail mark, tried_false)
        frames: list[list[int]] = []
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise SolveTimeout(self.budget)
            aid = self._branch_atom()
            if aid is None:
                models.append(
                    StableModel(
                        frozenset(self.facts)
                        | frozenset(
                            a for i, a in enumerate(self.atoms) if self.assignment[i] == _TRUE
                        )
                    )
                )
                if limit is not None and len(models) >= limit:
                    return out(not frames)
                conflict = True  # force a backtrack to look for the next model
            else:
                self.stats.decisions += 1
                frames.append([aid, len(self.trail), 0])
                conflict = not self._assign(aid, _TRUE)
            while conflict:
                if not frames:
                    return out(True)
                frame = frames[-1]
                self._undo_to(frame[1])
                if frame[2] == 0:
                    frame[2] = 1
                    conflict = not self._assign(frame[0], _FALSE)
                    if conflict:
                        frames.pop()
                else:
                    frames.pop()


def enumerate_models(
    g: GroundProgram,
    limit: int | None = 2,
    budget: float = 10.0,
    deadline: float | None = None,
) -> SolveResult:
    """Enumerate stable models up to `limit` (None for all).

    `budget` is a wall-clock allowance in seconds; callers sharing a clock
    across grounding and solving may pass an absolute `deadline`
    (time.monotonic() instant) instead.  Raises SolveTimeout when the time
    runs out.  Models come back in deterministic search order and
    ``exhausted`` says whether the whole space was explored.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be a positive integer or None")
    return _Engine(g, deadline, budget).run(limit)
