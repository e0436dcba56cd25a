"""Deterministic LP and integer-program solving.

The LP path is a bounded-variable revised simplex: the basis is held as
a sparse LU factorization (SuperLU) refreshed every few dozen pivots.
The pivots in between form a dense block (their entering columns, pivot
rows and a small lower-triangular matrix), so a solve with the basis is
one LU solve, one triangular solve and one dense product, with no loop
over the pivots (Bisschop & Meeraus 1977).  The starting basis comes
from a singleton-column crash extended by a greedy triangular pass, so
slack-rich and network-like problems begin without artificial
variables.  Pricing is devex (reference-weight steepest-edge estimates)
with reduced costs updated incrementally from the pivot row; whenever
the objective stalls on degenerate pivots the rule switches to Bland's,
which rules out cycling, and every remaining tie is broken by lowest
column index, so repeated solves of the same problem are bit-identical.
The ratio test is a two-pass bound-relaxation test that prefers large
pivot elements.  Pricing and the ratio tests run over candidate sets
only (the improving columns, the blocking rows or columns), drawn from
masks of the columns free to rise or fall that the loops keep pivot by
pivot.  A Master keeps the scaled problem, the basis and its factors
between solves, so delayed column generation appends columns or moves
bounds in place and re-solves without a rebuild.
A kept basis that is primal infeasible but dual feasible (an optimal
basis after its bounds moved) re-enters through a bounded dual simplex,
with dual devex row pricing, a Harris ratio test and a small
deterministic cost perturbation against degeneracy, until it is primal
feasible; the primal loop then finishes on the true costs.
Integer programs run depth-first branch and bound on top of the LP,
bounding with the relaxation objective.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
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

_REFACTOR_EVERY = 64
_PIVOT_TOL = 1e-9
_MAX_ITERS = 500_000
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

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True, eq=False)
class MixedIntegerProgram:
    """LP plus a set of variable indices restricted to {0, 1}."""

    lp: LinearProgram
    binary_indices: tuple[int, ...]

    def __init__(self, lp: LinearProgram, binary_indices):
        idx = tuple(sorted(int(j) for j in binary_indices))
        n = lp.n_variables
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate binary indices")
        for j in idx:
            if not 0 <= j < n:
                raise ValueError(f"binary index {j} out of range")
            if lp.lower[j] < -1e-12 or lp.upper[j] > 1 + 1e-12:
                raise ValueError(f"binary variable {j} must have bounds within [0, 1]")
        object.__setattr__(self, "lp", lp)
        object.__setattr__(self, "binary_indices", idx)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver outcome.

    ``dual_values`` holds one multiplier per constraint row, oriented so
    that it approximates the change in ``objective_value`` per unit
    increase of that row's right-hand side (None for integer programs
    and non-optimal statuses).  ``column_status``/``row_status`` give the
    optimal basis in BASIS_* codes for LPs (None otherwise).
    ``warm_started`` is True when the solve began from a Master's kept
    basis (directly or through a dual re-entry) rather than from a cold
    crash.  ``iteration_count`` and ``refactorizations`` count this
    solve's own pivots and basis factorizations; ``dual_iterations`` is
    the part of ``iteration_count`` spent in the dual simplex re-entry.
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
            refactors: int = 0) -> SolveResult:
    return SolveResult(status, np.full(n, np.nan), np.nan, iters,
                       refactorizations=refactors, dual_iterations=dual_iters)


class Master:
    """A scaled LP whose simplex state lives on between solves.

    It keeps the row-scaled CSC matrix [A | slacks] (plus the last cold
    start's artificials while one is basic), bounds, costs, the basis, x
    and its factors: the LU of the last refactorized basis and the dense
    eta block of the pivots since then (see ``_ftran``).
    ``solve_lp(master, tolerance)`` resumes from the basis the previous
    solve left; ``append_columns`` and ``set_bounds`` edit it in place
    and keep basis and factors valid.  Each row is scaled once, to unit
    max-norm: by ``row_norm`` when given (the largest |a_ij| the row
    will ever hold, appended columns included), else by the rows of
    ``lp``.  Rows with no coefficients are constant assertions, checked
    at solve time and otherwise dropped.
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
        keep = norms > 0.0
        rel, b = lp.relations[~keep], lp.rhs[~keep]
        self.empty_violation = float(np.max(
            np.where(rel == LE, -b, np.where(rel == GE, b, np.abs(b))), initial=0.0))
        self.n_rows_orig = rows.shape[0]
        self.keep = keep
        self.rel, b = lp.relations[keep], lp.rhs[keep]
        self.m = self.rel.size
        self.scale = 1.0 / norms[keep]  # feasibility tolerances apply after it
        self.b = self.scale * b

        ineq = np.nonzero(self.rel != EQ)[0]
        slack_sign = np.where(self.rel[ineq] == LE, 1.0, -1.0)
        self.ineq_rows = ineq
        self.n_slack = ineq.size
        slack_mat = sp.csc_matrix((slack_sign, (ineq, np.arange(ineq.size))),
                                  shape=(self.m, ineq.size))
        # [A | slacks], the columns every starting basis draws from
        self.core = sp.hstack([self._scaled(rows), slack_mat], format="csc")
        # bounds, costs, x and status run over [A | slacks | artificials]
        self.lo = np.concatenate([lp.lower, np.zeros(self.n_slack)])
        self.hi = np.concatenate([lp.upper, np.full(self.n_slack, np.inf)])
        self.cost = np.concatenate([self.sense_sign * lp.objective, np.zeros(self.n_slack)])
        self.x = np.zeros(self.lo.size)
        self.status = np.full(self.lo.size, _AT_LOWER, dtype=np.int8)
        self.basis = None  # none kept: the next solve starts cold
        self.iters = self.refactors = 0
        # the eta file since the last refactorization (see _ftran)
        self.eta_d = np.zeros((_REFACTOR_EVERY, self.m))
        self.eta_r = np.zeros(_REFACTOR_EVERY, dtype=np.int64)
        self.eta_l = np.zeros((_REFACTOR_EVERY, _REFACTOR_EVERY))
        self.n_eta = 0
        self._extend(None)

    @property
    def n_core(self) -> int:
        return self.n + self.n_slack

    def _scaled(self, cols) -> sp.csc_matrix:
        """Columns given over the LP's rows, on the kept rows, scaled."""
        if not self.keep.all():
            cols = sp.csr_matrix(cols)[self.keep]
        cols = sp.csc_matrix(cols, dtype=np.float64, copy=True)
        cols.data *= self.scale[cols.indices]
        cols.eliminate_zeros()
        return cols

    def _extend(self, art):
        """Set [A | slacks | artificials] and its row-major transpose."""
        self.art = art
        self.A_ext = self.core if art is None else sp.hstack([self.core, art], format="csc")
        self.AT = self.A_ext.T  # CSR over the same arrays
        self.n_ext = self.A_ext.shape[1]

    def _drop_artificials(self):
        """Forget the last cold start's artificials once none is basic, so
        later edits stop re-stacking them."""
        if self.art is None or (self.basis >= self.n_core).any():
            return
        for name in ("lo", "hi", "cost", "x", "status"):
            setattr(self, name, getattr(self, name)[: self.n_core])
        self._extend(None)

    # -- in-place edits ----------------------------------------------------------

    def append_columns(self, cols, cost):
        """Add structural columns after the last one, with bounds [0, inf),
        nonbasic at zero.  ``cols`` has one row per row of the original
        LP.  The kept basis, its values and its factors stay valid; the
        row scale does not change."""
        at, core, new = self.n, self.core, self._scaled(cols)
        k, cost = new.shape[1], np.asarray(cost, dtype=np.float64).ravel()
        if new.shape[0] != self.m or cost.size != k or not np.all(np.isfinite(cost)):
            raise ValueError("appended columns must match the rows and have finite costs")
        p = core.indptr[at]  # splice the new columns in before the slacks
        self.core = sp.csc_matrix((
            np.concatenate([core.data[:p], new.data, core.data[p:]]),
            np.concatenate([core.indices[:p], new.indices, core.indices[p:]]),
            np.concatenate([core.indptr[:at], p + new.indptr, core.indptr[at + 1:] + new.nnz])),
            shape=(self.m, core.shape[1] + k))
        for name, vals in (("lo", 0.0), ("hi", np.inf), ("cost", self.sense_sign * cost),
                           ("x", 0.0), ("status", _AT_LOWER)):
            setattr(self, name, np.insert(getattr(self, name), at, np.broadcast_to(vals, k)))
        self.n += k
        self._extend(self.art)
        if self.basis is not None:
            self.basis[self.basis >= at] += k

    def set_bounds(self, cols, lower, upper):
        """New bounds on structural columns ``cols``.  Nonbasic ones move
        to the matching bound and the basic values follow through the
        kept factors; the next solve re-enters from there."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), cols.shape)
        upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), cols.shape)
        if np.any((cols < 0) | (cols >= self.n)) or np.any(np.isnan(lower)) \
                or np.any(np.isnan(upper)) or np.any(lower > upper):
            raise ValueError("bounds must be ordered, not NaN and on existing columns")
        self.lo[cols] = lower
        self.hi[cols] = upper
        st = self.status[cols]
        lo_f, hi_f = np.isfinite(lower), np.isfinite(upper)
        new = np.where(lower == upper, _FIXED,
                       np.where(hi_f & ((st == _AT_UPPER) | ~lo_f), _AT_UPPER,
                                np.where(lo_f, _AT_LOWER, _FREE)))
        new = np.where(st == _BASIC, _BASIC, new)
        self.status[cols] = new
        self.x[cols] = np.where(new == _BASIC, self.x[cols],
                                np.where(new == _AT_UPPER, upper,
                                         np.where(new == _FREE, 0.0, lower)))
        self._recompute_basics()

    # -- basis linear algebra ------------------------------------------------

    def _refactor(self):
        B = self.A_ext[:, self.basis]
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
        self.x[self.basis] = self._ftran(self.b - self.A_ext @ vals)

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
        """B^-1 v for the current basis B = B0 E_1 ... E_k.

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
            s = dtrsv(self.eta_l[:k, :k], x[self.eta_r[:k]], lower=1)
            x -= s @ self.eta_d[:k]
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
        a, bb = self.A_ext.indptr[j], self.A_ext.indptr[j + 1]
        col[self.A_ext.indices[a:bb]] = self.A_ext.data[a:bb]
        return col

    # -- crash basis and artificials ------------------------------------------

    def _crash(self, triangular: bool = True):
        n_core = self.n_core
        lo, hi = self.lo[:n_core], self.hi[:n_core]
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        status = np.where(np.isfinite(lo), _AT_LOWER,
                          np.where(np.isfinite(hi), _AT_UPPER, _FREE)).astype(np.int8)
        status[np.isfinite(lo) & np.isfinite(hi) & (lo == hi)] = _FIXED

        core = self.core
        resid = self.b - core @ x

        # Columns touching exactly one row can absorb that row's residual
        # directly; quantile-regression deviation variables and plain slacks
        # both land here, so those problems start primal feasible.
        nnz_per_col = np.diff(core.indptr)
        singleton_rows: dict[int, list[tuple[int, float]]] = {}
        for j in np.nonzero(nnz_per_col == 1)[0]:
            p = core.indptr[j]
            singleton_rows.setdefault(int(core.indices[p]), []).append(
                (int(j), float(core.data[p])))

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

        if triangular:
            self._triangular_extend(core, x, status, basis)

        art_rows = [i for i in range(self.m) if basis[i] < 0]
        art_signs = [1.0 if resid[i] >= 0 else -1.0 for i in art_rows]
        n_art = len(art_rows)
        self._extend(sp.csc_matrix((art_signs, (art_rows, np.arange(n_art))),
                                   shape=(self.m, n_art)) if n_art else None)
        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        self.cost = np.concatenate([self.cost[:n_core], np.zeros(n_art)])
        self.x = np.concatenate([x, np.zeros(n_art)])
        self.status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
        for k, i in enumerate(art_rows):
            basis[i] = n_core + k
            self.x[n_core + k] = abs(resid[i])
        self.basis = basis

    def _triangular_extend(self, core: sp.csc_matrix, x, status, basis):
        """Pivot columns into uncovered rows while the basis stays triangular.

        A column qualifies once it has exactly one nonzero left in
        uncovered rows; taking it keeps the basis permuted-triangular,
        so LU factorization is cheap and exact.  Values are not assigned
        here: the refactor pass solves for all basics jointly, and the
        caller falls back to a singleton-plus-artificial start if any
        basic lands outside its bounds.
        """
        covered = basis >= 0
        mask = ~covered[core.indices]
        cs = np.concatenate([[0], np.cumsum(mask)])
        uncov = cs[core.indptr[1:]] - cs[core.indptr[:-1]]
        core_csr = core.tocsr()

        usable = (status != _BASIC) & (status != _FIXED)
        heap = [int(j) for j in np.nonzero((uncov == 1) & usable)[0]]
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)
            if uncov[j] != 1 or not usable[j]:
                continue
            a0, a1 = core.indptr[j], core.indptr[j + 1]
            rows_j = core.indices[a0:a1]
            vals_j = core.data[a0:a1]
            open_pos = np.nonzero(~covered[rows_j])[0]
            i = int(rows_j[open_pos[0]])
            if abs(vals_j[open_pos[0]]) < 1e-2:
                continue  # rows are unit max-norm; refuse small triangular pivots
            basis[i] = j
            covered[i] = True
            status[j] = _BASIC
            usable[j] = False
            b0, b1 = core_csr.indptr[i], core_csr.indptr[i + 1]
            for j2 in core_csr.indices[b0:b1]:
                uncov[j2] -= 1
                if uncov[j2] == 1 and usable[j2]:
                    heapq.heappush(heap, int(j2))

    def _reenter(self) -> bool:
        """Resume from the kept basis; False means start cold instead.

        A basis whose values lie inside their bounds is taken as it is.
        One outside them that prices dual feasible (the old optimal basis
        after a bound change, say) re-enters through the bounded dual
        simplex until it is primal feasible; one that is neither, or that
        goes singular on the way, is dropped, at the cost of a pricing
        pass.  A cold start keeps the iterations spent, so an exhausted
        iteration limit still raises.
        """
        if not self._infeasible_rows()[0].size:
            return True
        z = self._reduced_costs(self.cost)
        if self._movers(z, *self._movable(), self._dual_tol(self.cost)).size:
            return False
        try:
            return self._dual_optimize(self.cost, z)
        except SolverError:
            return False

    def _cold_start(self) -> bool:
        """Crash a basis and drive its artificials out; False means the LP
        is infeasible."""
        # Triangular crash first; it assigns basic values only via the
        # factorization, so fall back to the always-feasible singleton
        # start if any basic lands outside its bounds (or the basis is bad).
        self._crash(triangular=True)
        try:
            self._refactor()
            xb = self.x[self.basis]
            bad = np.any(xb < self.lo[self.basis] - self.tol) \
                or np.any(xb > self.hi[self.basis] + self.tol)
        except SolverError:
            bad = True
        if bad:
            self._crash(triangular=False)
            self._refactor()
        if self.n_ext == self.n_core:
            return True
        c1 = np.zeros(self.n_ext)
        c1[self.n_core:] = 1.0
        if self._optimize(c1) != "optimal":
            raise SolverError("phase-1 subproblem reported unbounded")
        if float(self.x[self.n_core:].sum()) > self.tol:
            return False
        self.lo[self.n_core:] = 0.0
        self.hi[self.n_core:] = 0.0
        art = self.status[self.n_core:]
        self.x[self.n_core:][art != _BASIC] = 0.0
        art[art != _BASIC] = _FIXED
        return True

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

        It is tol, or the roundoff floor of the costs when that is larger:
        with costs near 1e9 a reduced cost of 1e-7 is noise, and pivoting
        on noise can alternate between two bases for ever.
        """
        return max(self.tol, _COST_ROUNDOFF * float(np.abs(cost).max(initial=0.0)))

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
        """Basic rows whose value lies more than tol outside its bounds,
        and by how much more."""
        xb = self.x[self.basis]
        infeas = np.maximum(self.lo[self.basis] - xb, xb - self.hi[self.basis]) - self.tol
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

    def _leave(self, j: int, lower: bool, rise, fall):
        """Basic column j leaves at its lower bound, else its upper one."""
        self.x[j] = self.lo[j] if lower else self.hi[j]
        s = _AT_LOWER if lower else _AT_UPPER
        self._set_status(j, _FIXED if self.lo[j] == self.hi[j] else s, rise, fall)

    def _optimize(self, cost: np.ndarray) -> str:
        bland = False
        stall = 0
        stall_limit = self._stall_limit()
        dtol = self._dual_tol(cost)
        rise, fall = self._movable()
        z = self._reduced_costs(cost)
        z_fresh = self.n_eta == 0
        weight = np.ones(self.n_ext)  # devex reference weights
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

            self.x[self.basis] = xB - step * eff
            self._leave(leaving, e[i] > 0.0, rise, fall)
            self.x[q] = self.x[q] + delta * step

            # Pivot row through the current basis inverse, shared by the
            # devex weight update and the incremental reduced-cost update.
            alpha_row = self.AT @ self._btran_unit(r)
            pivot = d[r]
            w_enter = weight[q]
            grow = alpha_row / pivot
            np.square(grow, out=grow)
            grow *= w_enter
            np.maximum(weight, grow, out=weight)
            weight[leaving] = max(w_enter / (pivot * pivot), 1.0)
            if weight.max() > 1e8:
                weight[:] = 1.0  # reset the reference framework
            alpha_row *= z[q] / pivot
            z -= alpha_row
            z[q] = 0.0
            z_fresh = False

            self._set_status(q, _BASIC, rise, fall)
            self.basis[r] = q
            self._push_eta(r, d)
            self.iters += 1

            if step <= 1e-12:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False

    def _dual_optimize(self, cost: np.ndarray, z: np.ndarray) -> bool:
        """Bounded dual simplex from a dual feasible basis to a primal feasible one.

        Runs on slightly perturbed costs (``_PERTURB``).  The leaving row
        is the largest infeasibility^2 / w_r under dual devex reference
        weights; the ratio test is Harris's two-pass test preferring the
        largest |alpha_rj|, ties to the lowest index.  After the shared
        stall count of degenerate steps both choices switch to lowest
        index.  False means the pivot row had no usable entering
        column (the LP looks primal infeasible, or the pivot is
        numerically unsafe); the caller then solves cold.
        """
        # Shift each nonbasic cost away from its bound's zero reduced cost,
        # the way that keeps it dual feasible: ties in the ratio test break,
        # so fewer steps are degenerate.  The primal loop that takes over
        # prices with the true costs.
        side = np.where(self.status == _AT_LOWER, 1.0,
                        np.where(self.status == _AT_UPPER, -1.0, 0.0))
        spread = 1.0 + (_GOLDEN * np.arange(self.n_ext)) % 1.0
        size = np.abs(cost)
        shift = side * _PERTURB * spread * (size + size.max())
        cost = cost + shift
        z = z + shift
        bland = False
        stall = 0
        stall_limit = self._stall_limit()
        rise, fall = self._movable()
        weight = np.ones(self.m)  # dual devex reference weights, one per row
        while True:
            if self.iters >= _MAX_ITERS:
                raise SolverError("iteration limit exceeded")
            if self.n_eta >= _REFACTOR_EVERY:
                self._refactor()
                z = self._reduced_costs(cost)
            rows, infeas = self._infeasible_rows()
            if not rows.size:
                return True
            if bland:
                r = int(rows[self._lowest_basic(rows)])
            else:
                gap = infeas + self.tol
                r = int(rows[(gap * gap / weight[rows]).argmax()])
            leaving = int(self.basis[r])
            to_lower = self.x[leaving] < self.lo[leaving]
            sign = 1.0 if to_lower else -1.0

            # Moving the duals along row r changes z_j by sign * t * alpha_rj;
            # the leaving column's own reduced cost becomes sign * t.
            alpha_row = self.AT @ self._btran_unit(r)
            sa = sign * alpha_row
            cols = self._movers(sa, rise, fall, _PIVOT_TOL)
            if not cols.size:
                return False
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

            d = self._ftran(self._column(q))
            pivot = d[r]
            if abs(pivot) < _PIVOT_TOL or pivot * alpha_row[q] <= 0.0:
                if not self.n_eta:
                    return False
                self._refactor()  # row and column disagree: shed the etas
                z = self._reduced_costs(cost)
                continue

            target = self.lo[leaving] if to_lower else self.hi[leaving]
            theta = (self.x[leaving] - target) / pivot
            self.x[self.basis] -= theta * d
            self._leave(leaving, to_lower, rise, fall)
            self.x[q] += theta

            w_leave = weight[r]
            grow = d / pivot
            np.square(grow, out=grow)
            grow *= w_leave
            np.maximum(weight, grow, out=weight)
            weight[r] = max(w_leave / (pivot * pivot), 1.0)
            if weight.max() > 1e8:
                weight[:] = 1.0  # reset the reference framework
            alpha_row *= sign * step
            z += alpha_row
            z[q] = 0.0
            z[leaving] = sign * step

            self._set_status(q, _BASIC, rise, fall)
            self.basis[r] = q
            self._push_eta(r, d)
            self.iters += 1

            if step <= 1e-12:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False

    # -- driver -----------------------------------------------------------------

    def solve(self, tolerance: float) -> SolveResult:
        """One solve, from the kept basis when there is one."""
        self.tol = float(tolerance)
        self.iters = self.refactors = 0
        if self.empty_violation > self.tol:
            return _failed("infeasible", self.n, 0)
        if self.m == 0:
            return self._solve_unconstrained()
        warm = self.basis is not None and self._reenter()
        dual_iters = self.iters  # kept when the re-entry gave up for a cold start
        if not warm and not self._cold_start():
            self.basis = None
            return _failed("infeasible", self.n, self.iters, dual_iters, self.refactors)
        if self._optimize(self.cost) == "unbounded":
            self.basis = None
            return _failed("unbounded", self.n, self.iters, dual_iters, self.refactors)
        self._drop_artificials()

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
        duals = np.zeros(self.n_rows_orig)
        duals[self.keep] = self.sense_sign * self.scale * y
        col_stat = self.status[: self.n].astype(np.int8, copy=True)
        col_stat[col_stat == _FIXED] = _AT_LOWER
        slack_stat = self.status[self.n: self.n_core].astype(np.int8, copy=True)
        slack_stat[slack_stat == _FIXED] = _AT_LOWER
        row_stat = np.full(self.n_rows_orig, _AT_LOWER, dtype=np.int8)
        row_stat[np.nonzero(self.keep)[0][self.ineq_rows]] = slack_stat
        return SolveResult("optimal", x, objective, self.iters, duals, col_stat, row_stat,
                           warm, self.refactors, dual_iters)

    def _verify(self, x: np.ndarray):
        resid = self.A_ext[:, : self.n] @ x - self.b
        ok = np.ones(self.m, dtype=bool)
        le = self.rel == LE
        ge = self.rel == GE
        eq = self.rel == EQ
        tol = self.tol + 1e-9
        ok[le] = resid[le] <= tol
        ok[ge] = resid[ge] >= -tol
        ok[eq] = np.abs(resid[eq]) <= tol
        if not ok.all():
            worst = float(np.max(np.abs(resid[~ok])))
            raise SolverError(f"optimal basis violates a row by {worst:.2e} after scaling")

    def _solve_unconstrained(self) -> SolveResult:
        c = self.cost[: self.n]
        lo, hi = self.lo[: self.n], self.hi[: self.n]
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        take_hi = c < 0
        x[take_hi] = hi[take_hi]
        if np.any((c < 0) & ~np.isfinite(hi)) or np.any((c > 0) & ~np.isfinite(lo)):
            return _failed("unbounded", self.n, 0)
        x = np.where(np.isfinite(x), x, 0.0)
        col_stat = np.where(np.isfinite(lo), _AT_LOWER,
                            np.where(np.isfinite(hi), _AT_UPPER, _FREE)).astype(np.int8)
        col_stat[take_hi & np.isfinite(hi)] = _AT_UPPER
        return SolveResult("optimal", x, self.sense_sign * float(c @ x), 0,
                           np.zeros(self.n_rows_orig),
                           col_stat, np.full(self.n_rows_orig, _AT_LOWER, dtype=np.int8))


def solve_lp(problem: LinearProgram | Master, tolerance: float = 1e-7) -> SolveResult:
    """Solve an LP to a vertex optimum; statuses are returned, never raised.

    A LinearProgram is solved once, cold.  A Master is re-solved from the
    basis its last solve left, after whatever edits were made since.
    ``iteration_count`` counts this solve's dual and primal pivots alike.
    """
    master = problem if isinstance(problem, Master) else Master(problem)
    return master.solve(tolerance)


def _delayed_generation(master: Master, solve, tolerance: float, price,
                        max_rounds: int) -> SolveResult:
    """Re-solve ``master`` until ``price`` has nothing left to add.

    Each round is one ``solve(master, tolerance)`` call; the caller passes
    its own module's ``solve_lp``, so a solve is counted where it is made.
    ``price(result)`` edits the master in place and returns True once
    nothing is violated; that result is returned.  A master that is not
    optimal, or ``max_rounds`` solves without convergence, raise
    ``SolverError``.
    """
    for _ in range(max_rounds):
        res = solve(master, tolerance)
        if res.status != "optimal":
            raise SolverError(f"generation master came back {res.status}")
        if price(res):
            return res
    raise SolverError(f"delayed generation did not converge within {max_rounds} rounds")


def _node_lp(lp: LinearProgram, tight: dict[int, tuple[float, float]]) -> LinearProgram:
    if not tight:
        return lp
    lo = lp.lower.copy()
    hi = lp.upper.copy()
    for j, (a, b) in tight.items():
        lo[j] = a
        hi[j] = b
    return LinearProgram(lp.sense, lp.objective, lp.rows, lp.relations, lp.rhs, lo, hi)


def solve_integer(lp: LinearProgram, integer_indices, tolerance: float = 1e-7) -> SolveResult:
    """Depth-first branch and bound over general integer variables.

    Nodes are bounded by their LP relaxation and pruned against the
    incumbent; branching picks the most fractional variable, tightens
    its bounds to the floor or ceiling, and explores the nearer side
    first.  Every integer variable needs finite bounds that are already
    integral, which also bounds the search depth.
    """
    ints = np.array(sorted(int(j) for j in integer_indices), dtype=np.int64)
    for j in ints:
        lo_j, hi_j = lp.lower[j], lp.upper[j]
        if not (np.isfinite(lo_j) and np.isfinite(hi_j)):
            raise ValueError(f"integer variable {j} needs finite bounds")
        if abs(lo_j - round(lo_j)) > 1e-9 or abs(hi_j - round(hi_j)) > 1e-9:
            raise ValueError(f"integer variable {j} needs integral bounds")
    sign = 1.0 if lp.sense == "min" else -1.0  # scores are minimized

    total_iters = 0
    incumbent = None
    incumbent_score = np.inf
    saw_unbounded = False

    stack: list[dict[int, tuple[float, float]]] = [{}]
    while stack:
        tight = stack.pop()
        res = solve_lp(_node_lp(lp, tight), tolerance)
        total_iters += res.iteration_count
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            saw_unbounded = True
            break
        score = sign * res.objective_value
        if score >= incumbent_score - 1e-12:
            continue
        xb = res.primal_values[ints] if ints.size else np.zeros(0)
        frac = np.abs(xb - np.round(xb))
        if ints.size == 0 or frac.max() <= 1e-9:
            incumbent = res
            incumbent_score = score
            continue
        j = int(ints[np.argmax(frac)])
        v = res.primal_values[j]
        lo_j, hi_j = tight.get(j, (lp.lower[j], lp.upper[j]))
        down = (lo_j, np.floor(v))
        up = (np.ceil(v), hi_j)
        near, far = (up, down) if v - np.floor(v) >= 0.5 else (down, up)
        stack.append({**tight, j: far})
        stack.append({**tight, j: near})

    n = lp.n_variables
    if saw_unbounded:
        return _failed("unbounded", n, total_iters)
    if incumbent is None:
        return _failed("infeasible", n, total_iters)
    x = incumbent.primal_values.copy()
    x[ints] = np.round(x[ints])
    return SolveResult("optimal", x, float(lp.objective @ x), total_iters)


def solve_milp(problem: MixedIntegerProgram, tolerance: float = 1e-7) -> SolveResult:
    """Depth-first branch and bound over the binary variables.

    Binaries are integer variables with [0, 1] bounds; see
    ``solve_integer`` for the search itself.
    """
    return solve_integer(problem.lp, problem.binary_indices, tolerance)

