"""Preprocessing of LIA formulae before the DPLL(T) search.

Parikh (tag) formulae are dominated by *defining equalities*: tag counters
are sums of transition counters, most ``γ`` variables are fixed to 0, and
Kirchhoff constraints chain counters together.  Eliminating such equalities
by substitution shrinks the formula dramatically (fewer atoms, fewer
variables) and is the single most important performance lever of the solver.

The elimination is satisfiability- and model-preserving: each eliminated
variable has a definition ``v = expr`` with unit coefficient, recorded in
order so that :func:`complete_model` can recover its value from a model of
the reduced formula.

**Order.**  The conjunct eliminated next is always the lowest-positioned
equality (in the input's conjunct order) that :func:`_isolate` can solve;
every remaining conjunct is rewritten with the new definition before the
next pick.  This is the result of restarting a left-to-right scan after
each elimination, and it is what fixes the reduced formula and the
elimination list.

**Cost.**  The scan itself is not run.  An *occurrence index* maps each
variable to the positions of the conjuncts that mention it, and a min-heap
holds the positions of candidate equalities.  Eliminating ``v`` rewrites
only the conjuncts indexed under ``v``, adds them to the index entries of
the definition's variables, and pushes the ones that are still equalities;
a conjunct that does not mention ``v`` keeps its form, hence its
isolability, so popping the lowest position still finds the scan's pick
(stale and unsolvable positions are skipped).  The first elimination
rewrites every conjunct once — which also puts the input in the normal
form :func:`repro.lia.terms.substitute` produces — so the total work is
one pass over the formula plus one rewrite per occurrence of an
eliminated variable, instead of one pass per elimination.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..budget import checkpoint
from .terms import And, BoolConst, Eq, Formula, LinExpr, conj, substitute

#: Maximum number of variables in a defining expression used for elimination;
#: larger definitions cause too much fill-in to be worth substituting.
_MAX_DEFINITION_SIZE = 24


def _isolate(expr: LinExpr, exclude: set) -> Optional[Tuple[str, LinExpr]]:
    """Find a variable with coefficient ±1 in ``expr = 0`` and solve for it."""
    for name, coeff in expr.coeffs.items():
        if name in exclude:
            continue
        if coeff in (1, -1):
            rest_coeffs = {other: c for other, c in expr.coeffs.items() if other != name}
            rest = LinExpr(rest_coeffs, expr.const)
            definition = rest * (-1) if coeff == 1 else rest
            if len(definition.coeffs) <= _MAX_DEFINITION_SIZE:
                return name, definition
    return None


def _equality_positions(slots: List[Optional[Formula]]) -> List[int]:
    """Positions of the equalities, ascending (hence already a min-heap)."""
    return [position for position, conjunct in enumerate(slots) if isinstance(conjunct, Eq)]


def _rewrite(
    slots: List[Optional[Formula]], positions: Iterable[int], mapping: Dict[str, LinExpr]
) -> List[int]:
    """Substitute ``mapping`` into the conjuncts at ``positions``.

    Conjuncts that become ``true`` are dropped (their slot is cleared);
    returns the positions of the surviving rewritten conjuncts.
    """
    survivors: List[int] = []
    for position in positions:
        other = slots[position]
        if other is None:
            continue
        checkpoint("lia.presolve")
        replaced = substitute(other, mapping)
        if isinstance(replaced, BoolConst) and replaced.value:
            slots[position] = None
            continue
        slots[position] = replaced
        survivors.append(position)
    return survivors


def eliminate_equalities(
    formula: Formula, protected: Optional[set] = None
) -> Tuple[Formula, List[Tuple[str, LinExpr]]]:
    """Eliminate top-level defining equalities by substitution.

    ``protected`` variables are never eliminated (useful when the caller needs
    their values to appear directly in the reduced model, e.g. user-visible
    length variables).  Returns the reduced formula and the elimination order
    (see the module docstring for the order and its cost).
    """
    protected = set(protected or ())
    eliminated: List[Tuple[str, LinExpr]] = []

    if not isinstance(formula, And):
        return formula, eliminated

    # ``None`` marks an eliminated or dropped conjunct: positions never move.
    slots: List[Optional[Formula]] = list(formula.args)
    heap = _equality_positions(slots)
    # variable -> positions of the conjuncts that may mention it (a superset:
    # a coefficient that cancels leaves a stale entry, which only costs a
    # rewrite that changes nothing); built after the first elimination
    occurrences: Optional[Dict[str, Set[int]]] = None
    while heap:
        checkpoint("lia.presolve")
        position = heappop(heap)
        conjunct = slots[position]
        if not isinstance(conjunct, Eq):
            continue  # dropped, or rewritten into a non-equality since pushed
        isolated = _isolate(conjunct.expr, protected)
        if isolated is None:
            continue
        name, definition = isolated
        eliminated.append(isolated)
        slots[position] = None
        mapping = {name: definition}
        if occurrences is None:
            # Rewrite everything once; from here on every conjunct is a
            # fixpoint of ``substitute`` under mappings it does not mention.
            _rewrite(slots, range(len(slots)), mapping)
            occurrences = {}
            for other_position, other in enumerate(slots):
                if other is not None:
                    for other_name in other.variables():
                        occurrences.setdefault(other_name, set()).add(other_position)
            heap = _equality_positions(slots)
            continue
        for touched in _rewrite(slots, occurrences.pop(name, ()), mapping):
            for other_name in definition.coeffs:
                occurrences.setdefault(other_name, set()).add(touched)
            if isinstance(slots[touched], Eq):
                heappush(heap, touched)

    reduced = conj([conjunct for conjunct in slots if conjunct is not None])
    return reduced, eliminated


def complete_model(model: Dict[str, int], eliminated: List[Tuple[str, LinExpr]]) -> Dict[str, int]:
    """Extend a model of the reduced formula with the eliminated variables.

    Each definition mentions only variables that were still present when
    it was eliminated.  Some of those were eliminated *later*, so their
    values must be known first: definitions are evaluated in reverse
    elimination order.
    """
    completed = dict(model)
    for name, definition in reversed(eliminated):
        value = definition.const
        for other, coeff in definition.coeffs.items():
            value += coeff * completed.get(other, 0)
        completed[name] = int(value)
    return completed
