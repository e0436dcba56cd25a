"""Deterministic LP and integer-program solving.

The LP path is a bounded-variable revised simplex: the basis is held as
a sparse LU factorization (SuperLU) refreshed every few dozen pivots.
The pivots in between form a dense block (their entering columns, pivot
rows and a small lower-triangular matrix), so a solve with the basis is
one LU solve, one triangular solve and one dense product, with no loop
over the pivots (Bisschop & Meeraus 1977).  Every row has a logical
column, its slack or, on an equality row, one fixed at zero; a row with
no coefficients keeps only its logical, and a row-free LP runs the same
loops on an empty basis.  A cold start crashes a basis by a
singleton-column pass and a greedy triangular pass, and each row they
leave uncovered takes its logical, so the basis factors and no
artificial column is ever built.  Pricing is devex
(reference-weight steepest-edge estimates) with reduced costs updated
incrementally from the pivot row; whenever the objective stalls on
degenerate pivots the rule switches to Bland's, which rules out
cycling, and every remaining tie is broken by lowest column index, so
repeated solves of the same problem are bit-identical.
The ratio test is a two-pass bound-relaxation test that prefers large
pivot elements.  Pricing and the ratio tests run over candidate sets
only (the improving columns, the blocking rows or columns), drawn from
masks of the columns free to rise or fall that the loops keep pivot by
pivot.  A Master keeps the scaled problem, the basis and its factors
between solves, so it appends columns, moves bounds or takes new costs
in place and re-solves without a rebuild.
A kept or crashed basis whose values leave their bounds has each dual
infeasible column's cost shifted to a zero reduced cost (the dual
phase 1 of Koberstein & Suhl 2007), then re-enters through a bounded
dual simplex, with a Harris ratio test and a small deterministic cost
perturbation against degeneracy, until it is primal feasible; the
primal loop then finishes on the true costs.  A kept basis prices its
rows by exact dual steepest edge (Forrest & Goldfarb 1992): the
weights start from the norms of B^-1's rows on fresh factors, and each
pivot updates them from a second right-hand side solved with the
entering column.  A crash's re-entry prices by dual devex from unit
weights, which is cheaper on the planner's crashed LPs.  A
pivot row that no column can mend proves the LP infeasible, and the
basis stays for the next solve.  Integer programs run depth-first
branch and bound on one Master, bounding with the relaxation
objective: each node moves the integer columns' bounds and re-solves
warm from the basis the last node left, an infeasible one's included,
and a Master already solved enters the root warm too; a search that
passes a fixed node count raises instead of running on.
Every solve holds rows and reduced costs to one tolerance,
``LP_TOLERANCE``, which the callers' certificates read too.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsm, dtrsv
from scipy.sparse.linalg import splu

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)

# Nonbasic/basic variable states.  The first four double as the public
# basis codes of SolveResult.*_status; _FIXED is internal and reported
# as at-lower.
BASIS_BASIC = _BASIC = 0
BASIS_AT_LOWER = _AT_LOWER = 1
BASIS_AT_UPPER = _AT_UPPER = 2
BASIS_FREE = _FREE = 3
_FIXED = 4

# Primal and dual feasibility tolerance of every solve, after row scaling
LP_TOLERANCE = 1e-7
_REFACTOR_EVERY = 64
_PIVOT_TOL = 1e-9
_MAX_ITERS = 500_000
_MAX_NODES = 5_000  # branch-and-bound nodes before solve_integer gives up
_STALL_MIN = 100  # see Master._stall_limit
_COST_ROUNDOFF = 1e-13  # relative roundoff floor on reduced costs
_PERTURB = 1e-3  # dual-loop cost shift, as a share of the cost scale
_GOLDEN = 0.6180339887498949  # spreads the shifts over [1, 2) by column


class SolverError(Exception):
    """Numerical failure or malformed problem inside the solver."""


def _as_matrix(rows, n: int) -> sp.csr_matrix:
    if sp.issparse(rows):
        mat = rows.tocsr().astype(np.float64, copy=False)
    else:
        arr = np.asarray(rows, dtype=np.float64)
        if arr.size == 0:
            return sp.csr_matrix((0, n))
        mat = sp.csr_matrix(np.atleast_2d(arr))
    if mat.shape[0] == 0:
        return sp.csr_matrix((0, n))
    if mat.shape[1] != n:
        raise ValueError(f"constraint matrix has {mat.shape[1]} columns, expected {n}")
    return mat


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable LP in the form sense c'x subject to rows and bounds.

    ``relations`` holds one of '<=', '=', '>=' per row.  Bounds default
    to x >= 0; use -inf/inf for free or one-sided variables.
    """

    sense: str
    objective: np.ndarray
    rows: sp.csr_matrix
    relations: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, sense, objective, rows, relations, rhs, lower=None, upper=None):
        c = np.asarray(objective, dtype=np.float64).ravel()
        n = c.size
        mat = _as_matrix(rows, n)
        rel = np.asarray(relations, dtype="U2").ravel()
        b = np.asarray(rhs, dtype=np.float64).ravel()
        lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64).ravel()
        hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=np.float64).ravel()
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        if mat.shape[0] != rel.size or rel.size != b.size:
            raise ValueError("rows, relations and rhs disagree on the row count")
        if lo.size != n or hi.size != n:
            raise ValueError("bound arrays must match the variable count")
        bad = [r for r in rel if r not in _RELATIONS]
        if bad:
            raise ValueError(f"unknown relation {bad[0]!r}")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise ValueError("constraint coefficients must be finite")
        if not np.all(np.isfinite(b)):
            raise ValueError("constraint right-hand sides must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds may be infinite but not NaN")
        if np.any(lo > hi):
            j = int(np.argmax(lo > hi))
            raise ValueError(f"empty bound interval on variable {j}")
        for name, value in (("sense", sense), ("objective", c), ("rows", mat),
                            ("relations", rel), ("rhs", b), ("lower", lo), ("upper", hi)):
            object.__setattr__(self, name, value)
        for arr in (c, rel, b, lo, hi):
            arr.setflags(write=False)

    @property
    def n_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver outcome.

    ``dual_values`` holds one multiplier per constraint row, oriented so
    that it approximates the change in ``objective_value`` per unit
    increase of that row's right-hand side (None for integer programs
    and non-optimal statuses).  ``column_status``/``row_status`` give the
    optimal basis in BASIS_* codes for LPs (None otherwise); a row with
    no coefficients reads basic, its logical being its only column.
    ``warm_started`` is True when the solve began from a Master's kept
    basis (directly or through a dual re-entry) rather than from a cold
    crash.  ``iteration_count`` and ``refactorizations`` count this
    solve's own pivots and basis factorizations (an integer program's
    sum them over its nodes); ``dual_iterations`` is the part of
    ``iteration_count`` spent in the dual simplex, whether it re-entered
    from a kept basis or from a cold crash (which leaves
    ``warm_started`` False), a kept basis's re-entry that fell back to a
    cold start included.  A row-free LP counts its bound flips.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    primal_values: np.ndarray
    objective_value: float
    iteration_count: int
    dual_values: np.ndarray | None = None
    column_status: np.ndarray | None = None
    row_status: np.ndarray | None = None
    warm_started: bool = False
    refactorizations: int = 0
    dual_iterations: int = 0

    def __post_init__(self):
        self.primal_values.setflags(write=False)
        for arr in (self.dual_values, self.column_status, self.row_status):
            if arr is not None:
                arr.setflags(write=False)


def _failed(status: str, n: int, iters: int, dual_iters: int = 0,
            refactors: int = 0, warm: bool = False) -> SolveResult:
    return SolveResult(status, np.full(n, np.nan), np.nan, iters, warm_started=warm,
                       refactorizations=refactors, dual_iterations=dual_iters)


class Master:
    """A scaled LP whose simplex state lives on between solves.

    It keeps the row-scaled CSC matrix [A | logicals], one logical per
    row (the inequality slacks, then a logical fixed at zero for each
    equality row), bounds, costs, the basis, x
    and its factors: the LU of the last refactorized basis and the dense
    eta block of the pivots since then (see ``_ftran``).
    ``solve_lp(master)`` resumes from the basis the previous
    solve left; ``append_columns``, ``set_bounds`` and ``set_costs`` edit
    it in place and keep basis and factors valid.  Each row is scaled
    once, to unit max-norm: by ``row_norm`` when given (the largest
    |a_ij| the row will ever hold, appended columns included), else by
    the rows of ``lp``.  A row with no coefficients gets scale 1 and
    only its logical; no column can mend it, so a violated one is infeasible.
    """

    def __init__(self, lp: LinearProgram, row_norm=None):
        self.n = lp.n_variables
        self.sense_sign = 1.0 if lp.sense == "min" else -1.0
        rows = lp.rows.tocsr()
        if row_norm is None:
            row_norm = np.zeros(rows.shape[0])
            if rows.nnz:
                row_norm = np.asarray(abs(rows).max(axis=1).todense()).ravel()
        norms = np.asarray(row_norm, dtype=np.float64)
        self.rel = lp.relations
        self.m = self.rel.size
        # feasibility tolerances apply after the scale; a constant row keeps 1
        self.scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
        self.b = self.scale * lp.rhs

        # logical k sits on row logical_rows[k]: the slacks in row order,
        # then the equality rows' logicals, so no slack's index moved
        eq = self.rel == EQ
        logical_rows = np.concatenate([np.nonzero(~eq)[0], np.nonzero(eq)[0]])
        self.row_logical = np.argsort(logical_rows)  # row i's logical is n + row_logical[i]
        sign = np.where(self.rel[logical_rows] == GE, -1.0, 1.0)
        logicals = sp.csc_matrix((sign, (logical_rows, np.arange(self.m))),
                                 shape=(self.m, self.m))
        self.A = sp.hstack([self._scaled(rows), logicals], format="csc")
        self.AT = self.A.T  # CSR over the same arrays
        self.lo = np.concatenate([lp.lower, np.zeros(self.m)])
        self.hi = np.concatenate([lp.upper, np.where(eq[logical_rows], 0.0, np.inf)])
        self.cost = np.concatenate([self.sense_sign * lp.objective, np.zeros(self.m)])
        self._at_bounds()
        self.basis = None  # none kept: the next solve starts cold
        self.iters = self.dual_iters = self.refactors = 0
        # the eta file since the last refactorization (see _ftran)
        self.eta_d = np.zeros((_REFACTOR_EVERY, self.m))
        self.eta_r = np.zeros(_REFACTOR_EVERY, dtype=np.int64)
        self.eta_l = np.zeros((_REFACTOR_EVERY, _REFACTOR_EVERY))
        self.n_eta = 0

    def _scaled(self, cols) -> sp.csc_matrix:
        """Columns given over the LP's rows, scaled."""
        cols = sp.csc_matrix(cols, dtype=np.float64, copy=True)
        cols.data *= self.scale[cols.indices]
        cols.eliminate_zeros()
        return cols

    # -- in-place edits ----------------------------------------------------------

    def append_columns(self, cols, cost):
        """Add structural columns after the last one, with bounds [0, inf),
        nonbasic at zero.  ``cols`` has one row per row of the original
        LP.  The kept basis, its values and its factors stay valid; the
        row scale does not change."""
        at, A, new = self.n, self.A, self._scaled(cols)
        k, cost = new.shape[1], np.asarray(cost, dtype=np.float64).ravel()
        if new.shape[0] != self.m or cost.size != k or not np.all(np.isfinite(cost)):
            raise ValueError("appended columns must match the rows and have finite costs")
        p = A.indptr[at]  # splice the new columns in before the logicals
        self.A = sp.csc_matrix((
            np.concatenate([A.data[:p], new.data, A.data[p:]]),
            np.concatenate([A.indices[:p], new.indices, A.indices[p:]]),
            np.concatenate([A.indptr[:at], p + new.indptr, A.indptr[at + 1:] + new.nnz])),
            shape=(self.m, A.shape[1] + k))
        self.AT = self.A.T
        for name, vals in (("lo", 0.0), ("hi", np.inf), ("cost", self.sense_sign * cost),
                           ("x", 0.0), ("status", _AT_LOWER)):
            setattr(self, name, np.insert(getattr(self, name), at, np.broadcast_to(vals, k)))
        self.n += k
        if self.basis is not None:
            self.basis[self.basis >= at] += k

    def set_bounds(self, cols, lower, upper):
        """New bounds on structural columns ``cols``.  A nonbasic one
        whose value is one of its new bounds stays there (a fixed column
        relaxed to a range holding its value does not move); any other
        moves to the matching bound.  The basic values follow through
        the kept factors; the next solve re-enters from there."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), cols.shape)
        upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), cols.shape)
        if np.any((cols < 0) | (cols >= self.n)) or np.any(np.isnan(lower)) \
                or np.any(np.isnan(upper)) or np.any(lower > upper):
            raise ValueError("bounds must be ordered, not NaN and on existing columns")
        self.lo[cols] = lower
        self.hi[cols] = upper
        st, x = self.status[cols], self.x[cols]
        lo_f, hi_f = np.isfinite(lower), np.isfinite(upper)
        up = (x == upper) | ((x != lower) & hi_f & ((st == _AT_UPPER) | ~lo_f))
        new = np.where(lower == upper, _FIXED,
                       np.where(up, _AT_UPPER, np.where(lo_f, _AT_LOWER, _FREE)))
        new = np.where(st == _BASIC, _BASIC, new)
        self.status[cols] = new
        self.x[cols] = np.where(new == _BASIC, self.x[cols],
                                np.where(new == _AT_UPPER, upper,
                                         np.where(new == _FREE, 0.0, lower)))
        self._recompute_basics()

    def set_costs(self, cost):
        """New costs, in the LP's sense, one per structural column.  The
        basis, its values and its factors stay, so a kept basis stays
        primal feasible and the next solve re-prices it in the primal loop."""
        cost = np.asarray(cost, dtype=np.float64).ravel()
        if cost.size != self.n or not np.all(np.isfinite(cost)):
            raise ValueError(f"costs must be finite, one per structural column ({self.n})")
        self.cost[: self.n] = self.sense_sign * cost

    # -- basis linear algebra ------------------------------------------------

    def _refactor(self):
        B = self.A[:, self.basis]
        try:
            self.lu = splu(B.tocsc())
        except RuntimeError as exc:  # singular basis: numerical breakdown
            raise SolverError(f"basis factorization failed: {exc}") from None
        self.refactors += 1
        self.n_eta = 0
        self.flipped = False  # a bound flip moves x without adding an eta
        # Recompute basic values from scratch to shed accumulated drift.
        self._recompute_basics()

    def _recompute_basics(self):
        """Basic values from the nonbasic ones, through the current factors."""
        if self.basis is None:
            return
        vals = self.x.copy()
        vals[self.basis] = 0.0
        self.x[self.basis] = self._ftran(self.b - self.A @ vals)

    def _push_eta(self, r: int, d: np.ndarray):
        """Record a pivot on row r whose entering column is d = B^-1 a_q."""
        k = self.n_eta
        self.eta_d[k] = d
        self.eta_d[k, r] -= 1.0
        self.eta_l[k, :k] = self.eta_d[:k, r]
        self.eta_l[k, k] = d[r]
        self.eta_r[k] = r
        self.n_eta = k + 1

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v for the current basis B = B0 E_1 ... E_k; v is one
        right-hand side, or an (m, p) block of them solved together.

        Eta j is E_j = I + w_j e_(r_j)^T, where d_j = B_(j-1)^-1 a_q is
        its entering column and w_j = d_j - e_(r_j) is row j of D
        (``eta_d``); ``eta_r`` holds the pivot rows r_j.  Applying
        E_1^-1, ..., E_k^-1 in turn to y = B0^-1 v subtracts s_j w_j,
        where s solves the lower-triangular system L s = y[r] with
        L[j, i] = w_i[r_j] for i < j and L[j, j] = d_j[r_j] (``eta_l``).
        So B^-1 = (I - D^T L^-1 P) B0^-1, with P picking the pivot rows;
        ``_btran`` applies its transpose.
        """
        x = self.lu.solve(v)
        k = self.n_eta
        if k:
            low, at = self.eta_l[:k, :k], x[self.eta_r[:k]]
            if x.ndim == 1:
                x -= dtrsv(low, at, lower=1) @ self.eta_d[:k]
            else:
                x -= self.eta_d[:k].T @ dtrsm(1.0, low, at, lower=1)
        return x

    def _btran(self, c: np.ndarray) -> np.ndarray:
        """B^-T c; see _ftran.  A row may pivot twice, so the pivot rows'
        updates are summed with subtract.at."""
        u = c.astype(np.float64, copy=True)
        k = self.n_eta
        if k:
            s = dtrsv(self.eta_l[:k, :k], self.eta_d[:k] @ u, lower=1, trans=1)
            np.subtract.at(u, self.eta_r[:k], s)
        return self.lu.solve(u, trans="T")

    def _btran_unit(self, r: int) -> np.ndarray:
        """B^-T e_r, the pivot row's multipliers: _btran of e_r, whose eta
        product D e_r is exactly column r of D."""
        u = np.zeros(self.m)
        u[r] = 1.0
        k = self.n_eta
        if k:
            s = dtrsv(self.eta_l[:k, :k], self.eta_d[:k, r], lower=1, trans=1)
            np.subtract.at(u, self.eta_r[:k], s)
        return self.lu.solve(u, trans="T")

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        a, bb = self.A.indptr[j], self.A.indptr[j + 1]
        col[self.A.indices[a:bb]] = self.A.data[a:bb]
        return col

    # -- starting bases ----------------------------------------------------------

    def _at_bounds(self):
        """Every column nonbasic at its lower bound, else its upper one,
        else free at zero."""
        lo, hi = self.lo, self.hi
        self.x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        self.status = np.where(np.isfinite(lo), _AT_LOWER,
                               np.where(np.isfinite(hi), _AT_UPPER, _FREE)).astype(np.int8)
        self.status[np.isfinite(lo) & (lo == hi)] = _FIXED

    def _take(self, basis: np.ndarray):
        """Make ``basis`` the basis, each row it leaves open (-1) taking
        its own logical."""
        open_rows = basis < 0
        basis[open_rows] = self.n + self.row_logical[open_rows]
        self.status[basis] = _BASIC
        self.basis = basis

    def _crash(self):
        """A singleton pass, then a triangular one; every row they leave
        uncovered takes its logical."""
        self._at_bounds()
        lo, hi, x, status, A = self.lo, self.hi, self.x, self.status, self.A
        resid = self.b - A @ x

        # Columns touching exactly one row can absorb that row's residual
        # directly. Mostly these are logicals: a frontier master's u and w
        # columns carry d+1 and 2(d+1) nonzeros, so the pass places its beta
        # rows' slacks and leaves its alpha rows, whose logicals are fixed,
        # to the triangular pass; a counts LP's only structural singletons
        # are its totals t_r, fixed, and its slacks s_r, fixed at 0 under
        # perfect and imperfect.
        nnz_per_col = np.diff(A.indptr)
        singleton_rows: dict[int, list[tuple[int, float]]] = {}
        for j in np.nonzero(nnz_per_col == 1)[0]:
            p = A.indptr[j]
            singleton_rows.setdefault(int(A.indices[p]), []).append(
                (int(j), float(A.data[p])))

        basis = np.full(self.m, -1, dtype=np.int64)
        for i in range(self.m):
            for j, a_ij in singleton_rows.get(i, ()):
                if status[j] == _BASIC or status[j] == _FIXED:
                    continue
                v = x[j] + resid[i] / a_ij
                if lo[j] - 1e-12 <= v <= hi[j] + 1e-12:
                    basis[i] = j
                    x[j] = min(max(v, lo[j]), hi[j])
                    status[j] = _BASIC
                    break

        self._triangular_extend(status, basis)
        self._take(basis)

    def _triangular_extend(self, status, basis):
        """Pivot columns into uncovered rows while the basis stays triangular.

        A column qualifies once it has exactly one nonzero left in
        uncovered rows; taking it keeps the basis permuted-triangular,
        so LU factorization is cheap and exact.  The cheapest qualifying
        column goes first, ties to the lowest index, so a row that many
        columns could cover takes its cheapest one and the basis tends
        to price dual feasible.  Values are not assigned here: the
        refactor pass solves for all basics jointly, and the caller
        deals with any basic that lands outside its bounds.
        """
        A = self.A
        covered = basis >= 0
        mask = ~covered[A.indices]
        cs = np.concatenate([[0], np.cumsum(mask)])
        uncov = cs[A.indptr[1:]] - cs[A.indptr[:-1]]
        A_csr = A.tocsr()

        usable = (status != _BASIC) & (status != _FIXED)
        cost = self.cost
        heap = [(cost[j], int(j)) for j in np.nonzero((uncov == 1) & usable)[0]]
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)[1]
            if uncov[j] != 1 or not usable[j]:
                continue
            a0, a1 = A.indptr[j], A.indptr[j + 1]
            rows_j = A.indices[a0:a1]
            vals_j = A.data[a0:a1]
            open_pos = np.nonzero(~covered[rows_j])[0]
            i = int(rows_j[open_pos[0]])
            if abs(vals_j[open_pos[0]]) < 1e-2:
                continue  # rows are unit max-norm; refuse small triangular pivots
            basis[i] = j
            covered[i] = True
            status[j] = _BASIC
            usable[j] = False
            b0, b1 = A_csr.indptr[i], A_csr.indptr[i + 1]
            for j2 in A_csr.indices[b0:b1]:
                uncov[j2] -= 1
                if uncov[j2] == 1 and usable[j2]:
                    heapq.heappush(heap, (cost[j2], int(j2)))

    def _reenter(self, steepest: bool) -> str:
        """Drive the current basis, kept (``steepest``) or crashed, to
        primal feasibility: "feasible", "infeasible" or "unsafe" (see
        ``_dual_optimize``; a failed factorization is unsafe too).

        A basis whose values lie inside their bounds is taken as it is.
        Otherwise each nonbasic column whose reduced cost has the wrong
        sign for its bound has its cost shifted to a zero reduced cost
        (an optimal basis after a bound change needs none), and the dual
        simplex runs on those costs; the primal loop then finishes on the
        true ones.  An exhausted iteration limit raises.
        """
        if not self._infeasible_rows()[0].size:
            return "feasible"
        cost = self.cost
        z = self._reduced_costs(cost)
        wrong = self._movers(z, *self._movable(), self._dual_tol(cost))
        if wrong.size:
            cost = cost.copy()
            cost[wrong] -= z[wrong]
            z[wrong] = 0.0
        try:
            return self._dual_optimize(cost, z, steepest)
        except SolverError:
            if self.iters >= _MAX_ITERS:
                raise
            return "unsafe"

    def _cold_start(self) -> str:
        """Crash a basis and re-enter from it: "feasible" or "infeasible".

        The crash assigns basic values only through the factorization, so
        some may land outside their bounds.  A crash that is singular, or
        whose re-entry is unsafe, falls back to the all-logical basis,
        which always factors.
        """
        self._crash()
        try:
            self._refactor()
        except SolverError:  # a singular crash
            state = "unsafe"
        else:
            state = self._reenter(steepest=False)
        if state == "unsafe":
            self._at_bounds()
            self._take(np.full(self.m, -1, dtype=np.int64))
            self._refactor()
            state = self._reenter(steepest=False)
        if state == "unsafe":
            raise SolverError("the dual simplex found no safe pivot from the logical basis")
        return state

    # -- core iteration --------------------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = self._btran(cost[self.basis])
        return cost - self.AT @ y

    def _stall_limit(self) -> int:
        """Degenerate pivots in a row after which the primal and the dual
        loop alike switch to their lowest-index rule."""
        return max(_STALL_MIN, self.m)

    def _dual_tol(self, cost: np.ndarray) -> float:
        """Reduced costs within this of zero count as zero.

        It is LP_TOLERANCE, or the costs' roundoff floor when larger: with
        costs near 1e9 a reduced cost at the tolerance is noise, and pivoting on
        noise can alternate between two bases for ever.
        """
        return max(LP_TOLERANCE, _COST_ROUNDOFF * float(np.abs(cost).max(initial=0.0)))

    def _movable(self):
        """Masks of the columns that may rise (at lower or free) and that
        may fall (at upper or free); the loops keep them in step."""
        st = self.status
        return (st == _AT_LOWER) | (st == _FREE), (st == _AT_UPPER) | (st == _FREE)

    @staticmethod
    def _movers(v: np.ndarray, rise, fall, tol: float) -> np.ndarray:
        """Sorted indices j that may rise with v_j < -tol or may fall with
        v_j > tol: with v = z the dual infeasible (improving) columns,
        with v = ±(pivot row) the ones that block a dual step."""
        return ((rise & (v < -tol)) | (fall & (v > tol))).nonzero()[0]

    def _infeasible_rows(self):
        """Basic rows whose value lies more than LP_TOLERANCE outside its
        bounds, and by how much more."""
        xb = self.x[self.basis]
        infeas = np.maximum(self.lo[self.basis] - xb, xb - self.hi[self.basis]) - LP_TOLERANCE
        rows = (infeas > 0.0).nonzero()[0]
        return rows, infeas[rows]

    def _lowest_basic(self, rows: np.ndarray) -> int:
        """Position in ``rows`` of the row whose basic column has the lowest index."""
        return int(self.basis[rows].argmin())

    def _set_status(self, j: int, s: int, rise, fall):
        """Set column j's status; the loop's masks follow."""
        self.status[j] = s
        rise[j] = s == _AT_LOWER or s == _FREE
        fall[j] = s == _AT_UPPER or s == _FREE

    def _pivot(self, r: int, q: int, d: np.ndarray, theta: float, lower: bool, rise, fall):
        """Column q, d = B^-1 a_q, enters on row r, moving by theta and the
        basics by -theta d; row r's column leaves at lower, else upper."""
        j = int(self.basis[r])
        self.x[self.basis] -= theta * d
        self.x[j] = self.lo[j] if lower else self.hi[j]
        s = _AT_LOWER if lower else _AT_UPPER
        self._set_status(j, _FIXED if self.lo[j] == self.hi[j] else s, rise, fall)
        self.x[q] += theta
        self._set_status(q, _BASIC, rise, fall)
        self.basis[r] = q
        self._push_eta(r, d)
        self.iters += 1

    @staticmethod
    def _devex(weight: np.ndarray, v: np.ndarray, pivot: float, src: int, dst: int):
        """Devex weights after a pivot, v its row (the primal loop) or
        column (a crash's dual re-entry); past 1e8 all reset to 1, a new
        reference framework."""
        w = weight[src]
        grow = v / pivot
        np.square(grow, out=grow)
        grow *= w
        np.maximum(weight, grow, out=weight)
        weight[dst] = max(w / (pivot * pivot), 1.0)
        if weight.max() > 1e8:
            weight[:] = 1.0

    def _optimize(self, cost: np.ndarray) -> str:
        bland = False
        stall = 0
        stall_limit = self._stall_limit()
        dtol = self._dual_tol(cost)
        rise, fall = self._movable()
        z = self._reduced_costs(cost)
        z_fresh = self.n_eta == 0
        weight = np.ones(self.cost.size)  # devex reference weights
        while True:
            if self.iters >= _MAX_ITERS:
                raise SolverError("iteration limit exceeded")
            if self.n_eta >= _REFACTOR_EVERY:
                self._refactor()
                z = self._reduced_costs(cost)
                z_fresh = True
            if bland:
                # Bland's rule needs reduced costs consistent with the
                # current basis, so skip the incremental shortcut here.
                z = self._reduced_costs(cost)

            cols = self._movers(z, rise, fall, dtol)
            if not cols.size:
                if z_fresh or bland:
                    return "optimal"
                # Optimality seen on incrementally updated costs: refactor,
                # reprice exactly, and only then trust the verdict.
                self._refactor()
                z = self._reduced_costs(cost)
                z_fresh = True
                continue

            if bland:
                q = int(cols[0])
            else:
                zc = z[cols]
                q = int(cols[(zc * zc / weight[cols]).argmax()])
            delta = 1.0 if z[q] < 0.0 else -1.0

            d = self._ftran(self._column(q))
            eff = delta * d
            xB = self.x[self.basis]
            blk = (np.abs(eff) > _PIVOT_TOL).nonzero()[0]
            e, xb, bb = eff[blk], xB[blk], self.basis[blk]
            dist = np.maximum(np.where(e > 0.0, xb - self.lo[bb], self.hi[bb] - xb), 0.0)
            aeff = np.abs(e)
            theta = dist / aeff
            theta_basic = theta.min(initial=np.inf)
            flip_range = self.hi[q] - self.lo[q]

            if not np.isfinite(min(theta_basic, flip_range)):
                return "unbounded"

            if flip_range <= theta_basic + 1e-12:
                # Bound flip: the entering variable crosses its own range
                # first.  No basis change, so costs and weights stand.
                self.x[self.basis] = xB - flip_range * eff
                self.x[q] = self.hi[q] if delta > 0 else self.lo[q]
                self._set_status(q, _AT_UPPER if delta > 0 else _AT_LOWER, rise, fall)
                self.flipped = True
                self.iters += 1
                continue

            if bland:
                sel = (theta <= theta_basic + 1e-12).nonzero()[0]
                i = int(sel[self._lowest_basic(blk[sel])])
            else:
                # Two-pass ratio test: relax each blocking bound by a hair,
                # then take the largest pivot element among the survivors.
                sel = (theta <= ((dist + 1e-9) / aeff).min()).nonzero()[0]
                i = int(sel[np.lexsort((bb[sel], -aeff[sel]))[0]])
            r, leaving, step = int(blk[i]), int(bb[i]), theta[i]

            # Pivot row through the current basis inverse, shared by the
            # devex weight update and the incremental reduced-cost update.
            alpha_row = self.AT @ self._btran_unit(r)
            self._pivot(r, q, d, delta * step, e[i] > 0.0, rise, fall)
            self._devex(weight, alpha_row, d[r], q, leaving)
            alpha_row *= z[q] / d[r]
            z -= alpha_row
            z[q] = 0.0
            z_fresh = False

            stall = stall + 1 if step <= 1e-12 else 0
            bland = stall > stall_limit

    def _steepest_edge(self, weight: np.ndarray, d: np.ndarray, tau: np.ndarray, r: int,
                       rho_sq: float):
        """Dual steepest-edge weights w_i = ||e_i^T B^-1||^2 after a pivot on
        row r (Forrest & Goldfarb 1992), from d = B^-1 a_q, tau = B^-1 rho
        and rho_sq = ||rho||^2, rho = B^-T e_r being the old basis's row r.
        Row r takes rho_sq / d_r^2 and every other row
        w_i - 2 (d_i/d_r) tau_i + (d_i/d_r)^2 rho_sq, held at 1/m or more:
        a basic column's entries are at most 1 (the rows have unit
        max-norm), and e_i^T B^-1 times row i's own column is 1."""
        ratio = d / d[r]
        weight += ratio * (ratio * rho_sq - 2.0 * tau)
        np.maximum(weight, 1.0 / self.m, out=weight)
        weight[r] = rho_sq / (d[r] * d[r])

    def _dual_optimize(self, cost: np.ndarray, z: np.ndarray, steepest: bool) -> str:
        """Bounded dual simplex from a dual feasible basis to a primal feasible one.

        Runs on slightly perturbed costs (``_PERTURB``).  The leaving row
        is the largest infeasibility^2 / w_r.  On a kept basis
        (``steepest``) w_r is the exact dual steepest edge ||e_r^T B^-1||^2
        (Forrest & Goldfarb 1992; Koberstein 2008): it starts from one
        solve of B^T against the identity, on fresh factors, and each
        pivot updates it through tau = B^-1 rho_r, solved together with
        the entering column (``_steepest_edge``).  A crash's re-entry
        prices by dual devex from unit weights instead: on the crashed
        300-row per-city rows LPs of the planner benchmark (seed 1)
        steepest edge took 1,455 dual pivots where devex takes 1,403,
        and its start and second solve raised the round's run time by
        a fifth.  The ratio test is Harris's two-pass test preferring the
        largest |alpha_rj|, ties to the lowest index.  After the shared
        stall count of degenerate steps both choices switch to lowest
        index.  Returns "feasible"; or "infeasible" when a pivot row has
        no usable entering column on fresh factors, a Farkas proof; or
        "unsafe" for any other pivot it cannot take.
        """
        # Shift each nonbasic cost away from its bound's zero reduced cost,
        # the way that keeps it dual feasible: ties in the ratio test break,
        # so fewer steps are degenerate.  The primal loop that takes over
        # prices with the true costs.
        side = np.where(self.status == _AT_LOWER, 1.0,
                        np.where(self.status == _AT_UPPER, -1.0, 0.0))
        spread = 1.0 + (_GOLDEN * np.arange(cost.size)) % 1.0
        size = np.abs(cost)
        shift = side * _PERTURB * spread * (size + size.max())
        cost = cost + shift
        z = z + shift
        bland = False
        stall = 0
        stall_limit = self._stall_limit()
        rise, fall = self._movable()
        if steepest:
            if self.n_eta:  # an infeasible solve's etas
                self._refactor()
            inv_t = self.lu.solve(np.eye(self.m), trans="T")  # column i: B^-T e_i
            weight = np.einsum("ij,ij->j", inv_t, inv_t)
        else:
            weight = np.ones(self.m)  # dual devex reference weights
        while True:
            if self.iters >= _MAX_ITERS:
                raise SolverError("iteration limit exceeded")
            if self.n_eta >= _REFACTOR_EVERY:
                self._refactor()
                z = self._reduced_costs(cost)
            rows, infeas = self._infeasible_rows()
            if not rows.size:
                return "feasible"
            if bland:
                k = self._lowest_basic(rows)
            else:
                gap = infeas + LP_TOLERANCE
                k = int((gap * gap / weight[rows]).argmax())
            r = int(rows[k])
            leaving = int(self.basis[r])
            to_lower = self.x[leaving] < self.lo[leaving]
            sign = 1.0 if to_lower else -1.0

            # Moving the duals along row r changes z_j by sign * t * alpha_rj;
            # the leaving column's own reduced cost becomes sign * t.
            rho = self._btran_unit(r)
            alpha_row = self.AT @ rho
            sa = sign * alpha_row
            cols = self._movers(sa, rise, fall, _PIVOT_TOL)
            if not cols.size:
                if self.n_eta:
                    self._refactor()  # judge the row on fresh factors
                    z = self._reduced_costs(cost)
                    continue
                # Farkas: every column that would help the row beyond the
                # pivot tolerance (sa_j < 0 rising, sa_j > 0 falling) sits
                # at the bound it would have to leave.  Smaller entries are
                # roundoff to the loops, also on columns of unbounded range.
                return "infeasible"
            zc = z[cols]
            slack = np.maximum(np.where(sa[cols] < 0.0, zc, -zc), 0.0)
            aabs = np.abs(alpha_row[cols])
            ratio = slack / aabs
            if bland:
                i = int((ratio <= ratio.min() + 1e-12).argmax())
            else:
                sel = (ratio <= ((slack + 1e-9) / aabs).min()).nonzero()[0]
                i = int(sel[np.lexsort((cols[sel], -aabs[sel]))[0]])
            q, step = int(cols[i]), ratio[i]

            if steepest:
                d, tau = self._ftran(np.column_stack([self._column(q), rho])).T
            else:
                d = self._ftran(self._column(q))
            pivot = d[r]
            if abs(pivot) < _PIVOT_TOL or pivot * alpha_row[q] <= 0.0:
                if not self.n_eta:
                    return "unsafe"
                self._refactor()  # row and column disagree: shed the etas
                z = self._reduced_costs(cost)
                continue

            target = self.lo[leaving] if to_lower else self.hi[leaving]
            self._pivot(r, q, d, (self.x[leaving] - target) / pivot, to_lower, rise, fall)
            self.dual_iters += 1
            if steepest:
                self._steepest_edge(weight, d, tau, r, rho @ rho)
            else:
                self._devex(weight, d, pivot, r, r)
            alpha_row *= sign * step
            z += alpha_row
            z[q] = 0.0
            z[leaving] = sign * step

            stall = stall + 1 if step <= 1e-12 else 0
            bland = stall > stall_limit

    # -- driver -----------------------------------------------------------------

    def solve(self) -> SolveResult:
        """One solve, from the kept basis when there is one."""
        self.iters = self.dual_iters = self.refactors = 0
        warm = self.basis is not None and (state := self._reenter(steepest=True)) != "unsafe"
        if not warm:
            state = self._cold_start()
        if state == "infeasible":  # the basis stays for the next solve
            return _failed("infeasible", self.n, self.iters, self.dual_iters, self.refactors,
                           warm)
        if self._optimize(self.cost) == "unbounded":
            self.basis = None
            return _failed("unbounded", self.n, self.iters, self.dual_iters, self.refactors)

        if self.n_eta or self.flipped:
            self._refactor()
        x = self.x[: self.n].copy()
        lo, hi = self.lo[: self.n], self.hi[: self.n]
        drift = float(np.maximum(lo - x, x - hi).max(initial=0.0))
        if drift > 1e-6:
            raise SolverError(f"basic variable left its bounds by {drift:.2e}")
        np.clip(x, lo, hi, out=x)
        self._verify(x)
        objective = self.sense_sign * float(self.cost[: self.n] @ x)
        y = self._btran(self.cost[self.basis])
        stat = np.where(self.status == _FIXED, _AT_LOWER, self.status).astype(np.int8)
        return SolveResult("optimal", x, objective, self.iters, self.sense_sign * self.scale * y,
                           stat[: self.n], stat[self.n + self.row_logical],
                           warm, self.refactors, self.dual_iters)

    def _verify(self, x: np.ndarray):
        resid = self.A[:, : self.n] @ x - self.b
        viol = np.where(self.rel == LE, resid, np.where(self.rel == GE, -resid, np.abs(resid)))
        worst = float(viol.max(initial=0.0))
        if not worst <= LP_TOLERANCE + 1e-9:  # NaN fails too
            raise SolverError(f"optimal basis violates a row by {worst:.2e} after scaling")


def solve_lp(problem: LinearProgram | Master) -> SolveResult:
    """Solve an LP to a vertex optimum; statuses are returned, never raised.

    A LinearProgram is solved once, cold.  A Master is re-solved from the
    basis its last solve left, after whatever edits were made since.
    ``iteration_count`` counts this solve's dual and primal pivots alike.
    """
    master = problem if isinstance(problem, Master) else Master(problem)
    return master.solve()


def solve_integer(problem: LinearProgram | Master, integer_indices) -> SolveResult:
    """Depth-first branch and bound over general integer variables.

    Every node is one Master with new bounds on the integer columns
    (``Master.set_bounds``): a LinearProgram's own, or the Master given,
    whose costs and bounds are the problem's and whose kept basis the
    root re-enters warm, as ``solve_lp`` would.  So a node re-enters
    from the basis the previous node left, through the dual simplex when
    the bound change cut its vertex off; an infeasible node keeps the
    basis its proof ended on, so the next node re-enters from it too.
    The search ends with the root's bounds back on the Master and the
    last node's basis kept.  The result sums every node's iterations,
    dual iterations and refactorizations.  Nodes are bounded by
    their LP relaxation and pruned against the incumbent; branching
    picks the most fractional variable, tightens its bounds to the floor
    or ceiling, and explores the nearer side first.  Every integer
    variable needs finite bounds that are already integral, which also
    bounds the search depth.  A search past ``_MAX_NODES`` nodes raises
    SolverError with the root's bounds back on the Master: where the
    relaxation bound cannot prune, as among nearly equal planner
    deciles, a search can otherwise pass tens of thousands of nodes.
    """
    master = problem if isinstance(problem, Master) else Master(problem)
    ints = np.array(sorted(int(j) for j in integer_indices), dtype=np.int64)
    n = master.n
    if np.any((ints < 0) | (ints >= n)):
        raise ValueError(f"integer indices must lie in [0, {n})")
    if np.any(ints[1:] == ints[:-1]):
        raise ValueError("duplicate integer indices")
    root = master.lo[ints].copy(), master.hi[ints].copy()
    lo, hi = root
    for j, lo_j, hi_j in zip(ints, lo, hi):
        if not (np.isfinite(lo_j) and np.isfinite(hi_j)):
            raise ValueError(f"integer variable {j} needs finite bounds")
        if abs(lo_j - round(lo_j)) > 1e-9 or abs(hi_j - round(hi_j)) > 1e-9:
            raise ValueError(f"integer variable {j} needs integral bounds")
    sign = master.sense_sign  # scores are minimized

    total_iters = total_dual = total_refactors = 0
    incumbent = None
    incumbent_score = np.inf
    saw_unbounded = False

    stack = [(lo, hi)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _MAX_NODES:
            master.set_bounds(ints, *root)
            raise SolverError(f"branch and bound passed {_MAX_NODES:,} nodes unfinished")
        lo, hi = stack.pop()
        master.set_bounds(ints, lo, hi)
        res = solve_lp(master)
        total_iters += res.iteration_count
        total_dual += res.dual_iterations
        total_refactors += res.refactorizations
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            saw_unbounded = True
            break
        score = sign * res.objective_value
        if score >= incumbent_score - 1e-12:
            continue
        xb = res.primal_values[ints]
        frac = np.abs(xb - np.round(xb))
        if frac.max(initial=0.0) <= 1e-9:
            incumbent = res
            incumbent_score = score
            continue
        k = int(np.argmax(frac))
        v = xb[k]
        down_hi, up_lo = hi.copy(), lo.copy()
        down_hi[k], up_lo[k] = np.floor(v), np.ceil(v)
        down, up = (lo, down_hi), (up_lo, hi)
        near, far = (up, down) if v - np.floor(v) >= 0.5 else (down, up)
        stack.append(far)
        stack.append(near)

    master.set_bounds(ints, *root)
    if saw_unbounded or incumbent is None:
        return _failed("unbounded" if saw_unbounded else "infeasible", n, total_iters,
                       total_dual, total_refactors)
    x = incumbent.primal_values.copy()
    x[ints] = np.round(x[ints])
    return SolveResult("optimal", x, sign * float(master.cost[:n] @ x), total_iters,
                       refactorizations=total_refactors, dual_iterations=total_dual)
