"""A stateful property test of the warm simplex Master.

Nearly every LP the pipeline solves re-enters a kept basis after an
edit: a new tau moves bounds, a generation round appends columns, a
scenario takes new costs, a branch-and-bound node moves integer bounds.
The machine below interleaves those edits at random on one small LP and
its Master, and after every solve compares the Master with a cold solve
of the same LP and with HiGHS.
"""

import numpy as np
import scipy.optimize
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from cityalloc import EQ, GE, LE, LinearProgram, solve_integer, solve_lp
from cityalloc.solver import LP_TOLERANCE, Master

from oracles import scipy_lp

MAX_ROWS, MAX_COLS = 6, 8
COEF = 3  # coefficients, costs and finite bounds are integers in [-COEF, COEF]

ints = st.integers(-COEF, COEF)


@st.composite
def boxes(draw):
    """(lower, upper) of a column: boxed, fixed, free or one-sided,
    boxed most often, so that fewer LPs are unbounded."""
    a, b = sorted((draw(ints), draw(ints)))
    kind = draw(st.sampled_from(("boxed",) * 4 + ("fixed", "free", "lower", "upper")))
    return {"boxed": (a, b), "fixed": (a, a), "free": (-np.inf, np.inf),
            "lower": (a, np.inf), "upper": (-np.inf, b)}[kind]


def matrices(rows, cols):
    return st.lists(st.lists(ints, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda v: np.array(v, dtype=np.float64).reshape(rows, cols))


@st.composite
def programs(draw):
    """A small LP (sense, c, a, relations, b, lower, upper): LE, GE and
    EQ rows, now and then one with no coefficients, over boxed, fixed,
    free and one-sided columns.  An integer point inside the bounds
    satisfies the rows, each inequality with a slack of 0-2, so the LP
    starts feasible."""
    m = draw(st.integers(1, MAX_ROWS))
    n = draw(st.integers(1, MAX_COLS - 2))
    a = draw(matrices(m, n))
    if draw(st.integers(0, 4)) == 0:
        a[draw(st.integers(0, m - 1))] = 0.0  # a constant row
    bounds = np.array([draw(boxes()) for _ in range(n)], dtype=np.float64)
    anchor = np.array([draw(st.integers(int(max(lo, -COEF)), int(min(hi, COEF))))
                       for lo, hi in bounds], dtype=np.float64)
    rel = np.array(draw(st.lists(st.sampled_from((LE, GE, EQ)), min_size=m, max_size=m)))
    slack = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    return (draw(st.sampled_from(("min", "max"))),
            np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.float64),
            a, rel, a @ anchor + np.where(rel == LE, slack, np.where(rel == GE, -slack, 0.0)),
            bounds[:, 0], bounds[:, 1])


def close(value, ref, tol=1e-9):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


class WarmMaster(RuleBasedStateMachine):
    """One LP and the Master that every edit goes to; the LP's own
    arrays mirror the edits, for the cold solve and the oracle."""

    @initialize(lp=programs())
    def build(self, lp):
        self.sense, self.c, self.a, self.rel, self.b, self.lo, self.hi = lp
        # every coefficient, appended ones included, is at most COEF
        self.master = Master(self.program(), row_norm=np.full(len(self.b), float(COEF)))

    def program(self):
        return LinearProgram(self.sense, self.c, self.a, self.rel, self.b, self.lo, self.hi)

    @property
    def n(self):
        return self.c.size

    # -- edits ------------------------------------------------------------------

    @rule(data=st.data())
    def set_costs(self, data):
        self.c = np.array(data.draw(st.lists(ints, min_size=self.n, max_size=self.n)),
                          dtype=np.float64)
        self.master.set_costs(self.c)

    @rule(data=st.data())
    def set_bounds(self, data):
        cols = data.draw(st.lists(st.integers(0, self.n - 1), min_size=1, unique=True))
        lo, hi = np.array([data.draw(boxes()) for _ in cols], dtype=np.float64).T
        self.master.set_bounds(cols, lo, hi)
        self.lo[cols], self.hi[cols] = lo, hi

    @precondition(lambda self: self.n < MAX_COLS)
    @rule(data=st.data())
    def append_columns(self, data):
        k = data.draw(st.integers(1, MAX_COLS - self.n))
        cols = data.draw(matrices(len(self.b), k))
        cost = np.array(data.draw(st.lists(ints, min_size=k, max_size=k)), dtype=np.float64)
        self.master.append_columns(cols, cost)
        self.a = np.hstack([self.a, cols])
        self.c = np.concatenate([self.c, cost])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.hi = np.concatenate([self.hi, np.full(k, np.inf)])

    # -- solves -----------------------------------------------------------------

    def relaxation(self):
        """(status, objective) of the LP by HiGHS; a feasibility solve
        first, since its presolve may call an unbounded LP infeasible."""
        le, ge, eq = self.rel == LE, self.rel == GE, self.rel == EQ
        rows = dict(a_ub=np.vstack([self.a[le], -self.a[ge]]),
                    b_ub=np.concatenate([self.b[le], -self.b[ge]]),
                    a_eq=self.a[eq], b_eq=self.b[eq],
                    bounds=np.column_stack([self.lo, self.hi]), sense=self.sense)
        if scipy_lp(np.zeros(self.n), **rows)[0] == "infeasible":
            return "infeasible", None
        status, value, _ = scipy_lp(self.c, **rows)
        return ("optimal", value) if status == "optimal" else ("unbounded", None)

    def check_point(self, res):
        x = res.primal_values
        assert np.all(self.lo <= x) and np.all(x <= self.hi)
        resid = self.a @ x - self.b
        viol = np.where(self.rel == LE, resid, np.where(self.rel == GE, -resid, np.abs(resid)))
        assert viol.max() <= COEF * LP_TOLERANCE

    @rule()
    def solve_lp(self):
        warm, cold = solve_lp(self.master), solve_lp(self.program())
        status, ref = self.relaxation()
        assert warm.status == cold.status == status
        if status == "optimal":
            assert close(warm.objective_value, ref) and close(cold.objective_value, ref)
            self.check_point(warm)

    @precondition(lambda self: np.any(np.isfinite(self.lo) & np.isfinite(self.hi)))
    @rule()
    def solve_integer(self):
        integer = np.isfinite(self.lo) & np.isfinite(self.hi)  # the bounds are integral
        cols = np.nonzero(integer)[0]
        warm, cold = solve_integer(self.master, cols), solve_integer(self.program(), cols)
        assert np.array_equal(self.master.lo[: self.n], self.lo)
        assert np.array_equal(self.master.hi[: self.n], self.hi)
        assert warm.status == cold.status
        if warm.status == "unbounded":  # the root is the relaxation
            assert self.relaxation()[0] == "unbounded"
            return
        sign = -1.0 if self.sense == "max" else 1.0
        rows = scipy.optimize.LinearConstraint(
            self.a, np.where(self.rel == LE, -np.inf, self.b),
            np.where(self.rel == GE, np.inf, self.b))
        ref = scipy.optimize.milp(sign * self.c, integrality=integer.astype(int),
                                  bounds=scipy.optimize.Bounds(self.lo, self.hi),
                                  constraints=rows)
        assert warm.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if warm.status == "optimal":
            # HiGHS holds a MIP's rows to its 1e-6 feasibility tolerance, so
            # its optimum may lie that far past the vertex optimum
            assert close(warm.objective_value, cold.objective_value)
            assert close(warm.objective_value, sign * ref.fun, tol=1e-6)
            self.check_point(warm)


WarmMaster.TestCase.settings = settings(
    max_examples=100, stateful_step_count=12, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow])
TestWarmMaster = WarmMaster.TestCase
