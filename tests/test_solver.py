"""Solver checks against enumeration oracles and hand-worked instances."""

import itertools
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import cityalloc.solver
from cityalloc import (
    BASIS_AT_LOWER,
    BASIS_AT_UPPER,
    BASIS_BASIC,
    EQ,
    GE,
    LE,
    LinearProgram,
    MixedIntegerProgram,
    solve_integer,
    solve_lp,
    solve_milp,
)
from cityalloc.solver import Master

from oracles import milp_enumerate, scipy_lp, vertex_enumerate


def anchored_lp(rng, n, m, box=4.0):
    """Random dense LP guaranteed feasible (anchor point) and bounded (box)."""
    x0 = rng.uniform(0.5, 2.0, n)
    a = rng.normal(0.0, 1.0, (m, n))
    b = a @ x0 + rng.uniform(0.1, 1.0, m)
    c = rng.normal(0.0, 1.0, n)
    hi = np.full(n, box)
    lp = LinearProgram("max", c, a, [LE] * m, b, upper=hi)
    return lp, (c, a, b, np.zeros(n), hi)


def kept(lp, column_status, row_status):
    """A Master of `lp` that keeps the given basis (BASIS_* codes per
    column and per row) as a solve would leave it: nonbasic columns at
    the bound their code names, basic values from a fresh factorization."""
    master = Master(lp)
    assert master.keep.all()
    status = np.concatenate([column_status, np.asarray(row_status)[master.ineq_rows]])
    master.x = np.where(status == BASIS_AT_UPPER, master.hi,
                        np.where(status == BASIS_AT_LOWER, master.lo, 0.0))
    fixed = (status != BASIS_BASIC) & (master.lo == master.hi)
    master.status = np.where(fixed, cityalloc.solver._FIXED, status).astype(np.int8)
    master.basis = np.nonzero(status == BASIS_BASIC)[0]
    master._refactor()
    return master


def test_single_variable_corner():
    lp = LinearProgram("max", [1.0], [[1.0]], [LE], [3.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.primal_values[0] - 3.0) <= 1e-9
    assert abs(res.objective_value - 3.0) <= 1e-9


def test_degenerate_face_objective():
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 1.0]], [LE], [1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.objective_value - 1.0) <= 1e-9
    # any optimal vertex accepted; it must still be a feasible point
    assert res.primal_values.sum() <= 1.0 + 1e-9
    assert np.all(res.primal_values >= -1e-9)


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 8))
        lp, (c, a, b, lo, hi) = anchored_lp(rng, n, m)
        res = solve_lp(lp)
        assert res.status == "optimal"
        status, ref, _ = vertex_enumerate(c, a, b, lo, hi)
        assert status == "optimal"
        assert abs(res.objective_value - ref) <= 1e-6 * (1 + abs(ref))
        # primal feasibility at stated tolerances
        assert np.all(a @ res.primal_values <= b + 1e-7 * (1 + np.abs(b)))
        assert np.all(res.primal_values >= lo - 1e-9)
        assert np.all(res.primal_values <= hi + 1e-9)


def test_larger_lps_match_scipy():
    # sizes near the top of the supported range; statuses are known
    # (feasible by anchor, bounded by box) so the reference is trusted
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(8, 21))
        lp, (c, a, b, lo, hi) = anchored_lp(rng, n, m)
        res = solve_lp(lp)
        assert res.status == "optimal"
        status, ref, _ = scipy_lp(c, a, b, bounds=list(zip(lo, hi)))
        assert status == "optimal"
        assert abs(res.objective_value - ref) <= 1e-6 * (1 + abs(ref))


def test_mixed_relations_and_free_variables():
    # min x + 2y - z  s.t.  x + y >= 2,  y + z = 3,  z <= 2,  y free
    lp = LinearProgram(
        "min", [1.0, 2.0, -1.0],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        [GE, EQ, LE], [2.0, 3.0, 2.0],
        lower=[0.0, -np.inf, 0.0], upper=[np.inf, np.inf, np.inf])
    res = solve_lp(lp)
    assert res.status == "optimal"
    # z -> 2 (cheap), y = 1, x >= 1 -> x = 1: objective 1 + 2 - 2 = 1
    assert abs(res.objective_value - 1.0) <= 1e-7
    assert np.allclose(res.primal_values, [1.0, 1.0, 2.0], atol=1e-7)


def test_known_dual_values():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: classic corner (2, 6)
    lp = LinearProgram("max", [3.0, 5.0],
                       [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                       [LE, LE, LE], [4.0, 12.0, 18.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.objective_value - 36.0) <= 1e-8
    assert np.allclose(res.dual_values, [0.0, 1.5, 1.0], atol=1e-8)

    # max x + y s.t. x + 2y <= 4, 3x + y <= 6: duals solve A' u = c
    lp2 = LinearProgram("max", [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]],
                        [LE, LE], [4.0, 6.0])
    res2 = solve_lp(lp2)
    assert np.allclose(res2.dual_values, [0.4, 0.2], atol=1e-8)


def test_infeasible_detected():
    lp = LinearProgram("max", [1.0], [[1.0], [-1.0]], [LE, LE], [1.0, -2.0])
    assert solve_lp(lp).status == "infeasible"
    # contradictory equalities
    lp2 = LinearProgram("min", [1.0, 1.0],
                        [[1.0, 1.0], [1.0, 1.0]], [EQ, EQ], [1.0, 2.0])
    assert solve_lp(lp2).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram("max", [1.0], np.zeros((0, 1)), [], [])
    assert solve_lp(lp).status == "unbounded"
    # unbounded ray inside a feasible cone
    lp2 = LinearProgram("max", [1.0, 1.0], [[1.0, -1.0]], [LE], [1.0])
    assert solve_lp(lp2).status == "unbounded"


def test_malformed_problems_rejected():
    with pytest.raises(ValueError):
        LinearProgram("max", [np.nan], [[1.0]], [LE], [1.0])
    with pytest.raises(ValueError):
        LinearProgram("max", [1.0], [[1.0]], [LE], [np.inf])
    with pytest.raises(ValueError):
        LinearProgram("max", [1.0, 1.0], [[1.0]], [LE], [1.0])
    with pytest.raises(ValueError):
        LinearProgram("best", [1.0], [[1.0]], [LE], [1.0])
    with pytest.raises(ValueError):
        LinearProgram("max", [1.0], [[1.0]], ["<>"], [1.0])
    with pytest.raises(ValueError):
        LinearProgram("max", [1.0], [[1.0]], [LE], [1.0], lower=[2.0], upper=[1.0])


def test_determinism_bit_identical():
    rng = np.random.default_rng(23)
    lp, _ = anchored_lp(rng, 8, 12)
    r1 = solve_lp(lp)
    r2 = solve_lp(lp)
    assert r1.objective_value == r2.objective_value
    assert np.array_equal(r1.primal_values, r2.primal_values)
    assert r1.iteration_count == r2.iteration_count


def test_scale_invariance():
    rng = np.random.default_rng(29)
    lp, (c, a, b, lo, hi) = anchored_lp(rng, 5, 7)
    base = solve_lp(lp)
    for scale in (2.0, 10.0, 0.25):
        scaled = LinearProgram("max", scale * c, a, [LE] * len(b), b, upper=hi)
        res = solve_lp(scaled)
        assert abs(res.objective_value - scale * base.objective_value) \
            <= 1e-7 * (1 + abs(scale * base.objective_value))
        # the unscaled optimum stays optimal for the scaled problem
        assert scale * (c @ base.primal_values) >= res.objective_value - 1e-6


def test_no_feasible_perturbation_improves():
    rng = np.random.default_rng(31)
    for _ in range(10):
        lp, (c, a, b, lo, hi) = anchored_lp(rng, 6, 9)
        res = solve_lp(lp)
        x = res.primal_values
        for _ in range(40):
            step = rng.normal(0.0, 0.05, 6)
            cand = np.clip(x + step, lo, hi)
            if np.all(a @ cand <= b + 1e-12):
                assert c @ cand <= res.objective_value + 1e-6


def test_milp_two_item_knapsack():
    lp = LinearProgram("max", [3.0, 4.0], [[2.0, 3.0]], [LE], [3.0],
                       upper=[1.0, 1.0])
    res = solve_milp(MixedIntegerProgram(lp, [0, 1]))
    assert res.status == "optimal"
    assert abs(res.objective_value - 4.0) <= 1e-9
    assert abs(res.primal_values[1] - 1.0) <= 1e-6


def test_milp_three_item_knapsack_regression():
    # max 3x+2y+2z s.t. 2x+y+2z <= 3: optimum picks x and y for 5,
    # not the greedy-by-ratio 4; guards a pricing defect caught once
    lp = LinearProgram("max", [3.0, 2.0, 2.0], [[2.0, 1.0, 2.0]], [LE], [3.0],
                       upper=[1.0, 1.0, 1.0])
    res = solve_milp(MixedIntegerProgram(lp, [0, 1, 2]))
    assert res.status == "optimal"
    assert abs(res.objective_value - 5.0) <= 1e-9
    assert np.allclose(res.primal_values, [1.0, 1.0, 0.0], atol=1e-6)


def test_milp_fixed_binaries_equals_lp():
    rng = np.random.default_rng(37)
    lp, (c, a, b, lo, hi) = anchored_lp(rng, 5, 6)
    hi2 = hi.copy()
    lo2 = lo.copy()
    lo2[:2] = 1.0
    hi2[:2] = 1.0
    pinned = LinearProgram("max", c, a, [LE] * len(b), b, lower=lo2, upper=hi2)
    milp = solve_milp(MixedIntegerProgram(pinned, [0, 1]))
    plain = solve_lp(pinned)
    assert milp.status == plain.status == "optimal"
    assert abs(milp.objective_value - plain.objective_value) <= 1e-9


def test_milp_matches_pattern_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n_bin = int(rng.integers(1, 9))
        n_cont = int(rng.integers(0, 4))
        n = n_bin + n_cont
        m = int(rng.integers(2, 7))
        a = rng.normal(0.0, 1.0, (m, n))
        x0 = np.concatenate([rng.integers(0, 2, n_bin).astype(float),
                             rng.uniform(0.2, 1.5, n_cont)])
        b = a @ x0 + rng.uniform(0.05, 0.8, m)
        c = rng.normal(0.0, 1.0, n)
        hi = np.concatenate([np.ones(n_bin), np.full(n_cont, 3.0)])
        lp = LinearProgram("max", c, a, [LE] * m, b, upper=hi)
        mine = solve_milp(MixedIntegerProgram(lp, range(n_bin)))
        assert mine.status == "optimal"
        status, ref, _ = milp_enumerate(
            c, a, b, np.zeros(n), hi,
            np.arange(n) < n_bin)
        assert status == "optimal"
        assert abs(mine.objective_value - ref) <= 1e-6 * (1 + abs(ref))
        bins = mine.primal_values[:n_bin]
        assert np.all(np.abs(bins - np.round(bins)) <= 1e-6)


def test_milp_bounded_by_relaxation():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 6))
        a = rng.normal(0.0, 1.0, (m, n))
        b = a @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.05, 0.5, m)
        c = rng.normal(0.0, 1.0, n)
        lp = LinearProgram("max", c, a, [LE] * m, b, upper=np.ones(n))
        relax = solve_lp(lp)
        mixed = solve_milp(MixedIntegerProgram(lp, range(n)))
        if mixed.status == "optimal":
            assert mixed.objective_value <= relax.objective_value + 1e-7


def test_integer_knapsack_matches_enumeration():
    # bounded integer knapsacks against exhaustive value enumeration
    rng = np.random.default_rng(91)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        hi = rng.integers(1, 5, n).astype(float)
        w = rng.uniform(0.5, 2.0, n)
        c = rng.uniform(0.1, 3.0, n)
        cap = float(rng.uniform(1.0, 0.8 * w @ hi))
        lp = LinearProgram("max", c, w[None, :], [LE], [cap], upper=hi)
        res = solve_integer(lp, range(n))
        assert res.status == "optimal"
        best = 0.0
        for combo in itertools.product(*(range(int(h) + 1) for h in hi)):
            v = np.array(combo, dtype=float)
            if w @ v <= cap + 1e-12:
                best = max(best, float(c @ v))
        assert res.objective_value == pytest.approx(best, abs=1e-9)
        assert np.all(np.abs(res.primal_values - np.round(res.primal_values)) < 1e-9)


def test_integer_requires_finite_integral_bounds():
    lp_inf = LinearProgram("max", [1.0], [[1.0]], [LE], [3.0])
    with pytest.raises(ValueError):
        solve_integer(lp_inf, [0])
    lp_frac = LinearProgram("max", [1.0], [[1.0]], [LE], [3.0], upper=[2.5])
    with pytest.raises(ValueError):
        solve_integer(lp_frac, [0])


def test_milp_infeasible():
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]],
                       [LE, LE], [0.4, -0.3], upper=[1.0, 1.0])
    # relaxation allows sums in [0.3, 0.4] but binaries only reach 0, 1, 2
    assert solve_lp(lp).status == "optimal"
    res = solve_milp(MixedIntegerProgram(lp, [0, 1]))
    assert res.status == "infeasible"


def test_warm_start_same_problem_is_free():
    # re-solving an optimal master pivots nowhere and refactors nothing:
    # both counts are per solve, never cumulative
    rng = np.random.default_rng(47)
    lp, _ = anchored_lp(rng, 8, 12)
    master = Master(lp)
    cold = solve_lp(master)
    warm = solve_lp(master)
    assert warm.status == "optimal"
    assert warm.warm_started and not cold.warm_started
    assert cold.iteration_count > 0 and cold.refactorizations > 0
    assert warm.iteration_count == 0 and warm.refactorizations == 0
    assert abs(warm.objective_value - cold.objective_value) <= 1e-12


def test_warm_start_after_perturbation_agrees_with_cold():
    rng = np.random.default_rng(53)
    for _ in range(20):
        lp, (c, a, b, lo, hi) = anchored_lp(rng, 6, 9)
        base = solve_lp(lp)
        c2 = c + rng.normal(0.0, 0.05, 6)
        bumped = LinearProgram("max", c2, a, [LE] * len(b), b, upper=hi)
        warm = solve_lp(kept(bumped, base.column_status, base.row_status))
        cold = solve_lp(bumped)
        assert warm.status == cold.status == "optimal"
        assert abs(warm.objective_value - cold.objective_value) \
            <= 1e-7 * (1 + abs(cold.objective_value))


def test_warm_start_with_added_columns():
    # mimic delayed column generation: extend a solved master with a
    # fresh column entering at its lower bound
    master = Master(LinearProgram("max", [1.0, 0.5], [[1.0, 1.0]], [LE], [2.0]))
    assert solve_lp(master).status == "optimal"
    master.append_columns([[1.0]], [2.0])
    warm = solve_lp(master)
    assert warm.status == "optimal"
    assert warm.warm_started
    assert abs(warm.objective_value - 4.0) <= 1e-9


def test_master_edits_match_one_shot_and_oracle():
    # after each in-place edit the master's optimum equals a one-shot
    # solve of the same LP and the HiGHS optimum
    rng = np.random.default_rng(227)
    for _ in range(10):
        a = rng.normal(0.0, 1.0, (8, 12))
        b = rng.uniform(1.0, 2.0, 8)  # x = 0 stays feasible under every edit
        c = rng.normal(0.0, 1.0, 12)
        upper = np.full(12, 4.0)
        cols = np.arange(6)

        def lp():
            return LinearProgram("max", c[cols], a[:, cols], [LE] * 8, b, upper=upper[cols])

        def check():
            res = solve_lp(master)
            _, ref, _ = scipy_lp(c[cols], a[:, cols], b,
                                 bounds=[(0.0, u) for u in upper[cols]])
            for value in (res.objective_value, solve_lp(lp()).objective_value):
                assert abs(value - ref) <= 1e-9 * abs(ref)
            return res

        master = Master(lp())
        check()
        master.append_columns(a[:, 6:], c[6:])
        master.set_bounds(np.arange(6, 12), 0.0, upper[6:])
        cols = np.arange(12)
        assert check().warm_started
        upper[cols] = rng.uniform(0.5, 4.0, cols.size)
        master.set_bounds(np.arange(cols.size), 0.0, upper[cols])
        check()


def basis_is_primal_infeasible(a, b, upper, start):
    """Whether the basic values of `start` on the LE rows a x <= b, with
    0 <= x <= upper, leave their bounds (dense reference computation)."""
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])
    status = np.concatenate([start.column_status, start.row_status])
    lo = np.zeros(n + m)
    hi = np.concatenate([upper, np.full(m, np.inf)])
    basic = status == BASIS_BASIC
    x = np.where(status == BASIS_AT_UPPER, hi, lo)
    x[basic] = 0.0
    xb = np.linalg.solve(full[:, basic], b - full @ x)
    return bool(np.any(xb < lo[basic] - 1e-7) or np.any(xb > hi[basic] + 1e-7))


def shifted_bound_reentries(rng, count, copies=1):
    """(master, (c, a, b, upper)): the solved master of an anchored LP with
    `copies` copies of each column, whose upper bounds then shrink so that
    its optimal basis leaves them, primal infeasible."""
    found = 0
    while found < count:
        lp, (c, a, b, _, hi) = anchored_lp(rng, 6, 9)
        c, a = np.tile(c, copies), np.tile(a, copies)
        master = Master(LinearProgram("max", c, a, [LE] * 9, b, upper=np.tile(hi, copies)))
        base = solve_lp(master)
        upper = rng.uniform(2.0, 4.0, c.size)  # the anchor stays feasible
        if basis_is_primal_infeasible(a, b, upper, base):
            found += 1
            master.set_bounds(np.arange(c.size), 0.0, upper)
            yield master, (c, a, b, upper)


def check_reentry(master, data):
    c, a, b, upper = data
    warm = solve_lp(master)
    cold = solve_lp(LinearProgram("max", c, a, [LE] * len(b), b, upper=upper))
    _, ref, _ = scipy_lp(c, a, b, bounds=[(0.0, u) for u in upper])
    assert warm.status == cold.status == "optimal"
    assert warm.warm_started and warm.iteration_count > 0
    for value in (warm.objective_value, cold.objective_value):
        assert abs(value - ref) <= 1e-7 * (1 + abs(ref))


def test_dual_reentry_after_bound_shift():
    # a bound change keeps the old optimal basis dual feasible; the start
    # re-enters through the dual simplex instead of solving cold
    rng = np.random.default_rng(61)
    for master, data in shifted_bound_reentries(rng, 20):
        check_reentry(master, data)


def test_dual_reentry_under_lowest_index_rule(monkeypatch):
    # repeated columns tie reduced costs at zero, so without the cost
    # perturbation dual steps are degenerate; with no stall allowance
    # both loops then run lowest-index
    monkeypatch.setattr(cityalloc.solver, "_PERTURB", 0.0)
    monkeypatch.setattr(cityalloc.solver.Master, "_stall_limit", lambda self: 0)
    rng = np.random.default_rng(71)
    for master, data in shifted_bound_reentries(rng, 20, copies=3):
        check_reentry(master, data)


def test_primal_lowest_index_ratio_test(monkeypatch):
    # rows through the origin make the first pivots degenerate; with no
    # stall allowance the primal loop switches to the lowest-index ratio
    # test at once, and ties on theta reach its choice of row
    monkeypatch.setattr(cityalloc.solver.Master, "_stall_limit", lambda self: 0)
    ties = []
    lowest = Master._lowest_basic
    monkeypatch.setattr(Master, "_lowest_basic",
                        lambda self, rows: ties.append(rows.size) or lowest(self, rows))
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(0.0, 1.0, (7, 4))
        b = np.concatenate([np.zeros(4), rng.uniform(0.5, 1.5, 3)])
        c, hi = rng.normal(0.0, 1.0, 4), np.full(4, 3.0)
        res = solve_lp(LinearProgram("max", c, a, [LE] * 7, b, upper=hi))
        status, ref, _ = vertex_enumerate(c, a, b, np.zeros(4), hi)
        assert res.status == status == "optimal"
        assert abs(res.objective_value - ref) <= 1e-9 * (1 + abs(ref))
    assert len(ties) >= 5 and max(ties) > 1


def test_dual_ratio_test_enters_a_free_column(monkeypatch):
    # f (column 3) is free with zero cost and stays nonbasic at the
    # optimum; raising x3's lower bound breaks rows 2 and 3, and the dual
    # ratio test takes f (zero reduced cost, so a zero ratio) to mend them
    c = [1.0, 1.0, -1.0, 0.0]
    a = [[1.0, 2.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0]]
    b = [4.0, 6.0, 10.0, 10.0]
    master = Master(LinearProgram("max", c, a, [LE] * 4, b, lower=[0.0, 0.0, 0.0, -np.inf],
                                  upper=[5.0, 5.0, 30.0, np.inf]))
    assert solve_lp(master).column_status[3] == cityalloc.BASIS_FREE
    master.set_bounds([2], 20.0, 30.0)
    entering = []
    column = Master._column
    monkeypatch.setattr(Master, "_column",
                        lambda self, j: entering.append(self.status[j]) or column(self, j))
    res = solve_lp(master)
    assert res.warm_started and res.dual_iterations == res.iteration_count == 1
    assert entering == [cityalloc.BASIS_FREE]
    _, ref, _ = scipy_lp(c, a, b, bounds=[(0.0, 5.0), (0.0, 5.0), (20.0, 30.0), (None, None)])
    assert res.status == "optimal" and abs(res.objective_value - ref) <= 1e-9 * abs(ref)


def test_bad_warm_starts_degrade_to_cold():
    rng = np.random.default_rng(59)
    lp, (c, a, b, _, hi) = anchored_lp(rng, 5, 7)
    cold = solve_lp(lp)
    # edits that do not fit the problem raise
    master = Master(lp)
    with pytest.raises(ValueError):
        master.append_columns(np.ones((3, 1)), [1.0])
    with pytest.raises(ValueError):
        master.set_bounds([5], 0.0, 1.0)
    # every column at its upper bound and every slack basic is neither
    # primal nor dual feasible: the kept basis is dropped for a cold solve
    assert np.any(a @ hi > b) and np.any(c < 0.0)
    junk = kept(lp, np.full(5, BASIS_AT_UPPER, np.int8), np.full(7, BASIS_BASIC, np.int8))
    res = solve_lp(junk)
    assert res.status == "optimal"
    assert not res.warm_started
    assert abs(res.objective_value - cold.objective_value) <= 1e-9


def test_basis_start_unavailable_on_failure():
    lp = LinearProgram("max", [1.0], np.zeros((0, 1)), [], [])
    res = solve_lp(lp)
    assert res.status == "unbounded"
    assert res.column_status is None and res.row_status is None


def test_failed_reentry_falls_back_to_cold(monkeypatch):
    def singular(self, cost, z):
        raise cityalloc.solver.SolverError("basis factorization failed")

    monkeypatch.setattr(cityalloc.solver.Master, "_dual_optimize", singular)
    master, (c, a, b, upper) = next(shifted_bound_reentries(np.random.default_rng(73), 1))
    res = solve_lp(master)
    assert res.status == "optimal" and not res.warm_started
    cold = solve_lp(LinearProgram("max", c, a, [LE] * len(b), b, upper=upper))
    assert abs(res.objective_value - cold.objective_value) <= 1e-9


def test_roundoff_reduced_costs_do_not_pivot(monkeypatch):
    # the decile-level planner LP of a panel in large units (outputs
    # near 1e9), with an optimal start: its reduced costs are roundoff
    # near -1e-7, and pivoting on them alternated between two bases
    # until the iteration limit
    d = np.load(pathlib.Path(__file__).parent / "data" / "roundoff_reduced_costs_lp.npz")
    rows = sp.csr_matrix((d["data"], d["indices"], d["indptr"]), shape=tuple(d["shape"]))
    lp = LinearProgram("min", d["objective"], rows, d["relations"], d["rhs"])
    monkeypatch.setattr(cityalloc.solver, "_MAX_ITERS", 1000)
    warm = solve_lp(kept(lp, d["column_status"], d["row_status"]))
    cold = solve_lp(lp)
    assert warm.status == cold.status == "optimal" and warm.warm_started
    assert abs(warm.objective_value - cold.objective_value) <= 1e-9 * abs(cold.objective_value)


def eta_master(rng, m=30, n=40):
    """A Master over a random sparse LE system whose basis starts as the
    slacks and then takes `m` random pivots before a refactorization, so
    B0 is a random sparse basis."""
    a = sp.random(m, n, density=0.2, random_state=rng, data_rvs=lambda k: rng.normal(0.0, 1.0, k))
    master = Master(LinearProgram("max", np.ones(n), a.tocsr(), [LE] * m, np.ones(m)))
    master.basis = np.arange(n, n + m)
    master._refactor()
    for _ in range(m):
        eta_pivot(master, rng)
    master._refactor()
    return master


def eta_pivot(master, rng, row=None):
    """Pivot a random nonbasic column into `row` (default: the row of its
    largest entry, for a well-conditioned basis), as the simplex loops
    do; returns the pivot row."""
    nonbasic = np.setdiff1d(np.arange(master.n_ext), master.basis)
    for q in rng.permutation(nonbasic):
        d = master._ftran(master._column(int(q)))
        r = int(np.argmax(np.abs(d))) if row is None else row
        if abs(d[r]) >= 0.5 * np.abs(d).max() > 1e-3:
            master._push_eta(r, d)
            master.basis[r] = q
            return r
    raise AssertionError("no usable entering column")


def check_inverse(master, rng):
    """_ftran, _btran and _btran_unit against a dense inverse of the
    current basis; _btran_unit(r) is also exactly _btran(e_r)."""
    binv = np.linalg.inv(master.A_ext[:, master.basis].toarray())
    for _ in range(3):
        v = rng.normal(0.0, 1.0, master.m)
        for got, want in ((master._ftran(v), binv @ v), (master._btran(v), binv.T @ v)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    for r in (0, int(rng.integers(master.m)), master.m - 1):
        got, want = master._btran_unit(r), binv.T[:, r]
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(got, master._btran(np.eye(master.m)[r]))


def test_eta_block_matches_dense_inverse():
    # 0, 1 and _REFACTOR_EVERY - 1 etas on random sparse bases, a row that
    # pivots twice, and the state right after a refactorization
    rng = np.random.default_rng(83)
    for _ in range(5):
        master = eta_master(rng)
        assert master.n_eta == 0
        check_inverse(master, rng)
        rows = [eta_pivot(master, rng)]
        check_inverse(master, rng)
        rows.append(eta_pivot(master, rng, row=rows[0]))
        check_inverse(master, rng)
        while master.n_eta < cityalloc.solver._REFACTOR_EVERY - 1:
            rows.append(eta_pivot(master, rng))
            if master.n_eta % 8 == 0:
                check_inverse(master, rng)
        check_inverse(master, rng)
        assert rows[0] == rows[1]
        master._refactor()
        assert master.n_eta == 0
        check_inverse(master, rng)


def test_primal_and_dual_loops_run_past_the_eta_buffer():
    # more pivots than the eta buffer holds, in the primal loop (a cold
    # solve) and in the dual loop (a re-entry after tighter upper bounds):
    # both refactorize before the buffer fills
    limit = cityalloc.solver._REFACTOR_EVERY
    rng = np.random.default_rng(0)
    lp, (c, a, b, _, _) = anchored_lp(rng, 150, 200)
    master = Master(lp)
    cold = solve_lp(master)
    assert cold.iteration_count > limit and cold.dual_iterations == 0
    upper = rng.uniform(2.0, 2.2, 150)  # the anchor stays feasible
    master.set_bounds(np.arange(150), 0.0, upper)
    warm = solve_lp(master)
    assert warm.warm_started and warm.dual_iterations > limit
    for res, hi in ((cold, np.full(150, 4.0)), (warm, upper)):
        _, ref, _ = scipy_lp(c, a, b, bounds=[(0.0, u) for u in hi])
        assert res.status == "optimal"
        assert abs(res.objective_value - ref) <= 1e-9 * abs(ref)


def test_dual_iterations_count_the_reentry():
    # a set_bounds re-entry reports its dual pivots as part of its
    # iteration count; a cold solve and an unchanged re-solve report none
    rng = np.random.default_rng(89)
    for master, (c, a, b, upper) in shifted_bound_reentries(rng, 5):
        warm = solve_lp(master)
        assert warm.warm_started
        assert 0 < warm.dual_iterations <= warm.iteration_count
        assert solve_lp(master).dual_iterations == 0
        cold = solve_lp(LinearProgram("max", c, a, [LE] * len(b), b, upper=upper))
        assert cold.dual_iterations == 0


def test_failed_solve_reports_its_refactorizations():
    # shrinking the upper bounds of a solved master makes it infeasible;
    # the failed re-solve still reports the factorizations it did
    rng = np.random.default_rng(0)
    lp, _ = anchored_lp(rng, 60, 80)
    master = Master(lp)
    assert solve_lp(master).status == "optimal"
    master.set_bounds(np.arange(60), 0.0, rng.uniform(0.5, 2.0, 60))
    res = solve_lp(master)
    assert res.status == "infeasible"
    assert res.refactorizations == master.refactors > 0
