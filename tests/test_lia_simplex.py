"""Tests for the exact rational simplex and the integer layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lia import LinExpr
from repro.lia.intsolver import ResourceLimit, check_integer_feasibility
from repro.lia.simplex import Constraint, Simplex, check_constraints


def expr(coeffs, const=0):
    return LinExpr(coeffs, const)


def test_simple_feasible_system():
    # x + y <= 4, x >= 1, y >= 2
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -4), "<="),
            Constraint(expr({"x": 1}, -1), ">="),
            Constraint(expr({"y": 1}, -2), ">="),
        ]
    )
    assert result.feasible
    model = result.model
    assert model["x"] + model["y"] <= 4
    assert model["x"] >= 1
    assert model["y"] >= 2


def test_simple_infeasible_system():
    # x >= 3 and x <= 1
    result = check_constraints(
        [
            Constraint(expr({"x": 1}, -3), ">=", tag="lo"),
            Constraint(expr({"x": 1}, -1), "<=", tag="hi"),
        ]
    )
    assert not result.feasible
    assert result.conflict == {"lo", "hi"}


def test_equalities():
    # x + y == 5, x - y == 1 -> x=3, y=2
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -5), "=="),
            Constraint(expr({"x": 1, "y": -1}, -1), "=="),
        ]
    )
    assert result.feasible
    assert result.model["x"] == Fraction(3)
    assert result.model["y"] == Fraction(2)


def test_infeasible_combination_of_rows():
    # x + y <= 1, x >= 1, y >= 1 is infeasible
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -1), "<=", tag=1),
            Constraint(expr({"x": 1}, -1), ">=", tag=2),
            Constraint(expr({"y": 1}, -1), ">=", tag=3),
        ]
    )
    assert not result.feasible
    assert result.conflict  # some explanation is produced


def test_negative_values_allowed():
    result = check_constraints([Constraint(expr({"x": 1}, 5), "<=")])  # x <= -5
    assert result.feasible
    assert result.model["x"] <= -5


def test_rational_vertex():
    # 2x <= 1, 2x >= 1 -> x = 1/2 over Q
    result = check_constraints(
        [
            Constraint(expr({"x": 2}, -1), "<="),
            Constraint(expr({"x": 2}, -1), ">="),
        ]
    )
    assert result.feasible
    assert result.model["x"] == Fraction(1, 2)


def test_integer_layer_rejects_fractional_only_solutions():
    # 2x == 1 has no integer solution
    outcome = check_integer_feasibility([Constraint(expr({"x": 2}, -1), "==")])
    assert not outcome.feasible


def test_integer_layer_finds_integral_point():
    # x + y == 4, x >= 1, y >= 1
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 1, "y": 1}, -4), "=="),
            Constraint(expr({"x": 1}, -1), ">="),
            Constraint(expr({"y": 1}, -1), ">="),
        ]
    )
    assert outcome.feasible
    assert outcome.model["x"] + outcome.model["y"] == 4


def test_integer_branching():
    # 2x + 2y == 6 and x >= y and y >= 1 -> x=2,y=1 (after branching on x=y=1.5)
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 2, "y": 2}, -6), "=="),
            Constraint(expr({"x": 1, "y": -1}), ">="),
            Constraint(expr({"y": 1}, -1), ">="),
        ]
    )
    assert outcome.feasible
    assert outcome.model["x"] + outcome.model["y"] == 3
    assert outcome.model["x"] >= outcome.model["y"] >= 1


def test_divisibility_conflicts_need_no_branching():
    # 2x = 1 is refuted by the gcd preprocessing even with a zero node budget.
    constraints = [Constraint(expr({"x": 2}, -1), "==")]
    outcome = check_integer_feasibility(constraints, max_nodes=0)
    assert not outcome.feasible


def test_node_limit_raises():
    # The Omega pre-pass decides this trivial system outright, so it is
    # disabled here to expose the branch-and-bound node budget.
    constraints = [Constraint(expr({"x": 1, "y": 1}, -1), ">=")]
    with pytest.raises(ResourceLimit):
        check_integer_feasibility(constraints, max_nodes=0, omega=False)


def test_gcd_tightening_of_inequalities():
    # 2x - 2y <= -1 and 2y - 2x <= 0 have rational but no integer solutions.
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 2, "y": -2}, 1), "<="),
            Constraint(expr({"x": -2, "y": 2}), "<="),
        ]
    )
    assert not outcome.feasible


def test_bound_implied_equality_enables_gcd_conflict():
    # g is forced to 1 by two inequalities; then 3x - 3y + 2g = 0 is a mod-3 conflict.
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"g": 1}, -1), "<="),
            Constraint(expr({"g": 1}, -1), ">="),
            Constraint(expr({"x": 3, "y": -3, "g": 2}), "=="),
        ]
    )
    assert not outcome.feasible


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-5, max_value=5),
            st.sampled_from(["<=", ">=", "=="]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_simplex_agrees_with_small_grid_search(rows):
    """The simplex verdict must agree with brute force over a small integer grid
    whenever brute force finds a solution (soundness of UNSAT over Q ⊇ Z)."""
    constraints = [
        Constraint(expr({"x": a, "y": b}, -c), rel)
        for a, b, c, rel in rows
        if a != 0 or b != 0
    ]
    if not constraints:
        return
    result = check_constraints(constraints)

    def holds(x, y):
        for a, b, c, rel in rows:
            if a == 0 and b == 0:
                continue
            value = a * x + b * y - c
            if rel == "<=" and not value <= 0:
                return False
            if rel == ">=" and not value >= 0:
                return False
            if rel == "==" and value != 0:
                return False
        return True

    grid_solution = any(holds(x, y) for x in range(-8, 9) for y in range(-8, 9))
    if grid_solution:
        assert result.feasible
    if result.feasible:
        # The rational model must satisfy every constraint exactly.
        model = result.model
        for a, b, c, rel in rows:
            if a == 0 and b == 0:
                continue
            value = a * model.get("x", 0) + b * model.get("y", 0) - c
            if rel == "<=":
                assert value <= 0
            elif rel == ">=":
                assert value >= 0
            else:
                assert value == 0


def test_a_step_budget_stops_a_pivot_heavy_check():
    from repro.budget import Budget, BudgetExceeded

    def staircase():
        # x_{i+1} >= x_i + 1 with x_0 >= 0: every row needs its own pivot
        simplex = Simplex()
        for i in range(40):
            simplex.add_constraint(Constraint(expr({f"x{i + 1}": 1, f"x{i}": -1}, -1), ">="))
        simplex.add_constraint(Constraint(expr({"x0": 1}), ">="))
        return simplex

    simplex = staircase()
    budget = Budget(None, max_steps=10)
    with pytest.raises(BudgetExceeded) as raised:
        with budget.activate():
            simplex.check()
    assert raised.value.reason.stage == "lia.simplex"
    assert simplex.pivots == 10

    simplex = staircase()
    budget = Budget(None, max_steps=1000)
    with budget.activate():
        assert simplex.check().feasible
    assert simplex.pivots == 40
    assert budget.steps == simplex.pivots + 1  # one charge per pass of the loop
