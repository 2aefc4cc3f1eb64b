"""Tests for the LIA presolve (``repro.lia.simplify``).

The presolve eliminates defining equalities through an occurrence index
and a heap of candidate positions.  Its contract is to return exactly what
restarting a left-to-right scan after every elimination returns; that scan
is kept below as the oracle and compared on seeded random conjunctions
(same reduced formula by ``==`` and ``repr``, same elimination list).
"""

import random

import pytest

from repro.budget import Budget
from repro.lia import FALSE, LinExpr, disj, eq, evaluate, le, neg, substitute, var
from repro.lia.simplify import _isolate, complete_model, eliminate_equalities
from repro.lia.terms import And, BoolConst, Eq, Le, Not, Or, conj


def restart_scan(formula, protected=None):
    """The oracle: rescan from the first conjunct after every elimination."""
    protected = set(protected or ())
    eliminated = []
    if not isinstance(formula, And):
        return formula, eliminated
    conjuncts = list(formula.args)
    changed = True
    while changed:
        changed = False
        for index, conjunct in enumerate(conjuncts):
            if not isinstance(conjunct, Eq):
                continue
            isolated = _isolate(conjunct.expr, protected)
            if isolated is None:
                continue
            name, definition = isolated
            new_conjuncts = []
            for position, other in enumerate(conjuncts):
                if position == index:
                    continue
                replaced = substitute(other, {name: definition})
                if isinstance(replaced, BoolConst) and replaced.value:
                    continue
                new_conjuncts.append(replaced)
            eliminated.append((name, definition))
            conjuncts = new_conjuncts
            changed = True
            break
    return conj(conjuncts), eliminated


def assert_same_as_oracle(formula, protected=()):
    reduced, eliminated = eliminate_equalities(formula, protected=set(protected))
    expected, expected_eliminated = restart_scan(formula, protected=set(protected))
    assert reduced == expected
    assert repr(reduced) == repr(expected)
    assert eliminated == expected_eliminated
    assert repr(eliminated) == repr(expected_eliminated)
    return reduced, eliminated


# ----------------------------------------------------------------------
# Seeded random conjunctions
# ----------------------------------------------------------------------

COEFFS = (1, -1, 2, -2)


def random_expr(rng, names, size, hidden):
    """A linear expression over ``size`` of ``names``; with a ``hidden``
    assignment its constant is chosen so that the expression is 0 there."""
    chosen = rng.sample(names, min(size, len(names)))
    coeffs = {name: rng.choice(COEFFS) for name in chosen}
    if hidden is None:
        return LinExpr(coeffs, rng.randint(-3, 3))
    value = sum(coeff * hidden[name] for name, coeff in coeffs.items())
    return LinExpr(coeffs, -value)


def random_atom(rng, names, hidden):
    expr = random_expr(rng, names, rng.randint(1, 4), hidden)
    if rng.random() < 0.5:
        return eq(expr, 0)
    # expr = 0 at the hidden point, so expr - slack <= 0 holds there
    return le(expr - rng.randint(0, 2), 0)


def random_conjunction(seed):
    """A random conjunction; returns ``(formula, protected, hidden)`` where
    ``hidden`` is a satisfying assignment, or ``None`` for a random (often
    contradictory) one."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(rng.randint(4, 40))]
    consistent = rng.random() < 0.6
    hidden = {name: rng.randint(-5, 5) for name in names} if consistent else None
    conjuncts = []
    # an equality chain x_i = x_{i+1} + c, sometimes written the other way round
    start = rng.randrange(len(names))
    for left, right in zip(names[start:start + rng.randint(0, 8)], names[start + 1:]):
        delta = hidden[left] - hidden[right] if hidden else rng.randint(-2, 2)
        pair = [(left, 1), (right, -1)]
        if rng.random() < 0.5:
            pair.reverse()
        conjuncts.append(Eq(LinExpr(dict(pair), -delta)))
    for _ in range(rng.randint(2, 30)):
        roll = rng.random()
        if roll < 0.5:
            conjuncts.append(random_atom(rng, names, hidden))
        elif roll < 0.65:
            conjuncts.append(disj([random_atom(rng, names, hidden) for _ in range(2)]))
        elif roll < 0.72 and len(names) > 25:
            # a definition with more than 24 variables cannot be isolated
            size = rng.randint(26, len(names))
            conjuncts.append(Eq(random_expr(rng, names, size, hidden)))
        elif roll < 0.85 and conjuncts:
            # a duplicate collapses to true; a shifted one (when the
            # assignment is random) collapses to false
            atom = rng.choice(conjuncts)
            if isinstance(atom, (Eq, Le)) and hidden is None and rng.random() < 0.5:
                atom = type(atom)(atom.expr + rng.randint(1, 2))
            conjuncts.append(atom)
        elif roll < 0.92:
            # conjuncts not in substitute's normal form
            atom = random_atom(rng, names, hidden)
            conjuncts.append(rng.choice([Not(neg(atom)), And((atom,)), Or((atom,))]))
        else:
            conjuncts.append(Not(random_atom(rng, names, None)) if hidden is None
                             else neg(neg(random_atom(rng, names, hidden))))
    rng.shuffle(conjuncts)
    protected = set(rng.sample(names, rng.randint(0, len(names) // 3)))
    return And(tuple(conjuncts)), protected, hidden


SEEDS = range(300)


def test_matches_the_restart_scan_on_random_conjunctions():
    covered = {"protected": 0, "true": 0, "false": 0, "wide": 0, "chain": 0}
    for seed in SEEDS:
        formula, protected, _hidden = random_conjunction(seed)
        reduced, eliminated = assert_same_as_oracle(formula, protected)
        names = {name for name, _ in eliminated}
        assert not names & protected
        remaining = reduced.args if isinstance(reduced, And) else (reduced,)
        if protected and any(
            isinstance(c, Eq) and set(c.variables()) & protected for c in formula.args
        ):
            covered["protected"] += 1
        if len(remaining) + len(eliminated) < len(formula.args) and reduced != FALSE:
            covered["true"] += 1
        if reduced == FALSE or FALSE in remaining:
            covered["false"] += 1
        if any(isinstance(c, Eq) and len(c.variables()) > 25 for c in formula.args):
            covered["wide"] += 1
        if len(eliminated) >= 5:
            covered["chain"] += 1
    assert all(count >= 10 for count in covered.values()), covered


def test_complete_model_extends_a_model_of_the_reduced_formula():
    checked = 0
    for seed in SEEDS:
        formula, protected, hidden = random_conjunction(seed)
        if hidden is None:
            continue
        reduced, eliminated = eliminate_equalities(formula, protected=protected)
        model = {name: hidden[name] for name in reduced.variables()}
        assert evaluate(reduced, model)
        completed = complete_model(model, eliminated)
        full = {name: completed.get(name, 0) for name in formula.variables()}
        assert evaluate(formula, full), seed
        checked += 1
    assert checked >= 100


def test_elimination_order_and_protected_variables():
    x, y, z = var("x"), var("y"), var("z")
    formula = And((le(x, 10), eq(y, z + 1), eq(x, y + 2), le(z, 3)))
    reduced, eliminated = assert_same_as_oracle(formula)
    assert [name for name, _ in eliminated] == ["y", "x"]
    assert reduced == conj([le(z + 3, 10), le(z, 3)])

    reduced, eliminated = assert_same_as_oracle(formula, protected={"y"})
    assert [name for name, _ in eliminated] == ["z", "x"]
    assert set(reduced.variables()) == {"y"}


def test_substitution_collapses_conjuncts_to_true_and_false():
    x, y = var("x"), var("y")
    reduced, eliminated = assert_same_as_oracle(And((eq(x, y), le(x, y), le(y, 5))))
    assert [name for name, _ in eliminated] == ["x"]
    assert reduced == le(y, 5)  # x <= y became true and was dropped
    reduced, _ = assert_same_as_oracle(And((eq(x, y), le(x, y - 1), le(y, 5))))
    assert reduced == FALSE


def test_definitions_wider_than_24_variables_are_not_used():
    def row(width):
        return Eq(LinExpr({f"v{i}": 1 for i in range(width)}, -3))

    bound = le(var("v0"), 1)
    # 25 variables: the definition of v0 has 24, the widest allowed
    reduced, eliminated = assert_same_as_oracle(And((row(25), bound)))
    assert [(name, len(definition.coeffs)) for name, definition in eliminated] == [("v0", 24)]
    # 26 variables: every definition would have 25
    reduced, eliminated = assert_same_as_oracle(And((row(26), bound)))
    assert eliminated == []
    assert reduced == And((row(26), bound))


# ----------------------------------------------------------------------
# Deterministic complexity gate
# ----------------------------------------------------------------------

CHAIN = 400


def chain(n, forward):
    """``x_i = x_{i+1} + 1`` for i < n.  ``forward`` writes each equality so
    that the variable it defines occurs in the next conjunct, which the
    elimination must then rewrite."""
    conjuncts = []
    for i in range(n):
        left, right = f"x{i}", f"x{i + 1}"
        order = [(right, -1), (left, 1)] if forward else [(left, 1), (right, -1)]
        conjuncts.append(Eq(LinExpr(dict(order), -1)))
    conjuncts.append(le(var(f"x{n}"), 7))
    return And(tuple(conjuncts))


@pytest.mark.parametrize("forward", [False, True])
def test_presolve_steps_grow_linearly_on_an_equality_chain(forward):
    formula = chain(CHAIN, forward)
    expected = restart_scan(formula)
    budget = Budget(None, max_steps=4 * CHAIN)
    with budget.activate():
        reduced, eliminated = eliminate_equalities(formula)
    assert (reduced, eliminated) == expected
    assert repr(reduced) == repr(expected[0])
    assert len(eliminated) == CHAIN
    # the gate is tight enough that a scan per elimination cannot pass it
    assert budget.steps <= 4 * CHAIN < CHAIN * CHAIN // 2
