"""Shape-constrained quantile production frontiers.

Fits, for one cross-section of observations, a monotone concave
piecewise-linear quantile frontier: every observation carries its own
supporting hyperplane (alpha_i, beta_i >= 0), cross-observation rows
alpha_i + beta_i.x_i <= alpha_h + beta_h.x_i force the planes to
envelope a common concave surface, and the pinball loss
tau*sum(eps+) + (1-tau)*sum(eps-) is minimized.

The full program has N^2 cross rows but only a handful bind at the
optimum, and the binding rows join nearby observations. So the solve
runs on the LP dual with delayed generation: start from the cross rows
between each observation and its nearest neighbours (Lee, Johnson,
Moreno-Centeno & Kuosmanen 2013), append the columns of the most
violated cross rows in batches to one persistent master, and re-solve
it from its kept basis until no violation exceeds 1e-6. Generated
columns are never dropped: the working set only grows, so generation
ends within the N(N-1) cross rows.

A grid of taus is fitted in ascending order on that one master, each
fit carrying the previous one's working set and final basis (Koenker &
d'Orey 1987 solve linear quantile regression parametrically in tau the
same way). A new tau moves only the box bounds of the dual's u block in
place, so the old basis stays dual feasible and the solver re-enters it
through the dual simplex; only the first tau of a grid starts cold.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .solver import (
    EQ,
    LE,
    LinearProgram,
    Master,
    _delayed_generation,
    solve_lp,
)

DEFAULT_QUANTILES = np.arange(1, 20, 2) / 20.0

_VIOL_TOL = 1e-6
_MAX_ROUNDS = 5000   # master solves per fit before giving up
_DEDUP_TOL = 1e-6    # coefficient distance at which two planes are one


@dataclass(frozen=True, eq=False)
class QuantileFit:
    """One fitted frontier: per-observation hyperplanes plus residual split."""

    year: int
    tau: float
    alpha: np.ndarray
    beta: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray
    crs: bool = False
    objective: float = 0.0

    @property
    def n_obs(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.beta.shape[1]

    def frontier(self, x) -> np.ndarray:
        """Lower envelope min_h(alpha_h + beta_h.x) at the given inputs."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.min(self.alpha[None, :] + x @ self.beta.T, axis=1)


@dataclass(frozen=True, eq=False)
class DecileAssignment:
    """Efficiency deciles for one year; decile d pairs with tau=(2d-1)/20."""

    year: int
    city_id: np.ndarray
    decile: np.ndarray
    score: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.decile, minlength=11)[1:]

    def members(self, d: int) -> np.ndarray:
        """Positional indices of decile d, ascending score order preserved."""
        idx = np.nonzero(self.decile == d)[0]
        order = np.lexsort((self.city_id[idx], self.score[idx]))
        return idx[order]


def _check_inputs(x, y, tau, weights):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d array, one row per observation")
    if y.shape != (x.shape[0],):
        raise ValueError("y length does not match x rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    weights = np.ones(len(y)) if weights is None else np.asarray(
        weights, dtype=float)
    if weights.shape != y.shape:
        raise ValueError("weights length does not match observations")
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0.0)):
        raise ValueError("weights must be finite and positive")
    return x, y, weights


def _neighbour_pairs(x):
    """Cross pairs (i, h) from each observation to its K nearest neighbours.

    Distances are Euclidean on z-scored inputs (a constant column is
    divided by 1); ties go to the lower index. K = min(n - 1,
    max(10, ceil(sqrt(n)))).
    """
    n = len(x)
    k = min(n - 1, max(10, math.ceil(math.sqrt(n))))
    if k <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    sd = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(sd > 0.0, sd, 1.0)
    dist = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    near = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.column_stack([np.repeat(np.arange(n), k), near.ravel()])


def _dual_master(x, y, tau, weights, pairs, crs):
    """Restricted dual of the frontier LP, as a Master.

    Dual variables: u_i in [-(1-tau)k_i, tau*k_i] for the regression
    equalities, k_i being observation i's weight in the pinball loss,
    and w >= 0, one per generated cross row (i, h). Row blocks: one
    equality per alpha_i (absent under crs) and one inequality per
    beta_{i,f}. Primal planes are read back off the row duals. Each row
    is scaled by the largest coefficient any w column can put in it: 1
    on the alpha rows, max_i x[i, f] on beta row (h, f).
    """
    n, d = x.shape
    base = 0 if crs else n
    rows = [base + np.arange(n * d)] + ([] if crs else [np.arange(n)])
    cols = [np.repeat(np.arange(n), d)] + ([] if crs else [np.arange(n)])
    vals = [x.ravel()] + ([] if crs else [np.ones(n)])
    a = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(base + n * d, n),
    )
    lp = LinearProgram("max", y, a, [EQ] * base + [LE] * (n * d),
                       np.zeros(base + n * d), lower=-(1.0 - tau) * weights,
                       upper=tau * weights)
    norm = np.concatenate([np.ones(base), np.tile(np.abs(x).max(axis=0), n)])
    master = Master(lp, row_norm=norm)
    _add_pairs(master, x, pairs, crs)
    return master


def _add_pairs(master, x, pairs, crs):
    """Append the w columns of cross rows (i, h) at zero."""
    n, d = x.shape
    base = 0 if crs else n
    i, h = pairs[:, 0], pairs[:, 1]
    rows = [base + i[:, None] * d + np.arange(d), base + h[:, None] * d + np.arange(d)]
    vals = [-x[i], x[i]]
    if not crs:
        rows += [i[:, None], h[:, None]]
        vals += [np.full((len(i), 1), -1.0), np.ones((len(i), 1))]
    rows, vals = np.hstack(rows), np.hstack(vals)
    cols = np.repeat(np.arange(len(i)), rows.shape[1])
    master.append_columns(
        sp.csc_matrix((vals.ravel(), (rows.ravel(), cols)), shape=(base + n * d, len(i))),
        np.zeros(len(i)))


def _violated_pairs(viol, per_obs, cap):
    """The next cross rows (i, h) to add, at most ``cap`` of them.

    ``viol[i, h]`` is by how much row (i, h) is violated. Observation by
    observation, its ``per_obs`` most violated rows beyond _VIOL_TOL enter
    by falling violation (ties in argpartition's order), each followed by
    its reverse (h, i) when that is violated too: cross rows tend to bind
    in groups sharing a plane. A pair enters once, where it first appears.
    """
    n = viol.shape[1]
    k = min(per_obs, n - 1)
    top = np.argpartition(viol, -k, axis=1)[:, n - k:]
    order = np.argsort(-np.take_along_axis(viol, top, axis=1), axis=1, kind="stable")
    h = np.take_along_axis(top, order, axis=1)
    i = np.broadcast_to(np.arange(len(viol))[:, None], h.shape)
    fwd = viol[i, h] > _VIOL_TOL
    keep = np.stack([fwd, fwd & (viol[h, i] > _VIOL_TOL)], axis=2).ravel()
    cand = np.stack([np.stack([i, h], axis=2), np.stack([h, i], axis=2)], axis=2)
    cand = cand.reshape(-1, 2)[keep]
    first = np.unique(cand[:, 0] * n + cand[:, 1], return_index=True)[1]
    return cand[np.sort(first)[:cap]]


@dataclass(eq=False)
class _Carry:
    """The master and working set that the previous fit of a tau sweep left."""

    pairs: np.ndarray | None = None
    master: Master | None = None


def _generate(x, y, tau, weights, crs, tolerance, carry=None):
    """Delayed cross-row generation; returns (alpha, beta, objective).

    Each round appends the most violated cross rows to the master and
    none ever leaves it. With a ``carry`` holding an earlier fit's
    master, this fit moves the u bounds to its tau and resumes from the
    master's basis and working set, which already holds the seed pairs;
    the carry then receives the master for the next tau.
    """
    n, d = x.shape
    base = 0 if crs else n
    if carry is not None and carry.master is not None:
        master, pairs = carry.master, carry.pairs
        master.set_bounds(np.arange(n), -(1.0 - tau) * weights, tau * weights)
    else:
        pairs = _neighbour_pairs(x)
        master = _dual_master(x, y, tau, weights, pairs, crs)

    def planes(res):
        alpha = np.zeros(n) if crs else res.dual_values[:n]
        return alpha, res.dual_values[base:].reshape(n, d)

    def price(res):
        nonlocal pairs
        alpha, beta = planes(res)
        fit_at = alpha[None, :] + x @ beta.T
        viol = fit_at.diagonal()[:, None] - fit_at
        np.fill_diagonal(viol, 0.0)
        if len(pairs):
            viol[pairs[:, 0], pairs[:, 1]] = -np.inf
        if not (viol > _VIOL_TOL).any():
            if carry is not None:
                carry.pairs, carry.master = pairs, master
            return True
        batch = _violated_pairs(viol, 3, 5 * n)
        _add_pairs(master, x, batch, crs)
        pairs = np.vstack([pairs, batch])
        return False

    res = _delayed_generation(master, solve_lp, tolerance, price, _MAX_ROUNDS)
    return (*planes(res), res.objective_value)


def fit_cqr(x, y, tau, crs=False, year=0, tolerance=1e-7,
            weights=None, *, _carry=None) -> QuantileFit:
    """Fit the shape-constrained quantile frontier for one year.

    Parameters
    ----------
    x : (n, d) array of positive inputs, one row per observation.
    y : (n,) array of outputs.
    tau : quantile level in (0, 1).
    crs : force constant returns to scale (all intercepts zero).
    year : label stamped on the result.
    weights : (n,) positive weights on the pinball loss, default all 1.
        The loss is additive, so an observation of weight k fits as k
        copies of itself: a resample fits on its distinct rows with
        their multiplicities.

    Returns a QuantileFit whose planes satisfy every cross-observation
    inequality to within 1e-6 and whose residual split reproduces the
    (weighted) pinball objective. ``_carry`` is fit_all_quantiles'
    hand-over of the previous tau's master and working set.
    """
    x, y, weights = _check_inputs(x, y, tau, weights)
    alpha, beta, obj = _generate(x, y, tau, weights, crs, tolerance, _carry)
    beta = np.clip(beta, 0.0, None)  # scrub dual roundoff at the sign bound
    resid = y - (alpha + np.sum(x * beta, axis=1))
    return QuantileFit(
        year=year,
        tau=float(tau),
        alpha=alpha,
        beta=beta,
        eps_plus=np.clip(resid, 0.0, None),
        eps_minus=np.clip(-resid, 0.0, None),
        crs=bool(crs),
        objective=float(obj),
    )


def _as_grid(quantile_grid):
    """The grid as a float array, default 0.05, 0.15, ..., 0.95; raises
    ValueError unless it is nonempty, 1-d and strictly increasing in (0, 1)."""
    grid = DEFAULT_QUANTILES if quantile_grid is None else np.asarray(
        quantile_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("quantile grid must be a nonempty 1-d sequence")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0) or np.any(np.diff(grid) <= 0):
        raise ValueError("quantile grid must be strictly increasing within (0, 1)")
    return grid


def fit_all_quantiles(x, y, quantile_grid=None, crs=False, year=0,
                      tolerance=1e-7, weights=None):
    """Fit one frontier per grid value; default grid 0.05, 0.15, ..., 0.95.

    The fits run in ascending tau on one master. The first starts cold
    from the nearest-neighbour seed; each later one moves the u bounds
    to its tau and resumes from the previous fit's final working set
    and basis, which the solver re-enters through the dual simplex.
    """
    grid = _as_grid(quantile_grid)
    carry = _Carry()
    return [fit_cqr(x, y, t, crs=crs, year=year, tolerance=tolerance,
                    weights=weights, _carry=carry)
            for t in grid]


def assign_deciles(x, y, median_fit: QuantileFit, city_id=None,
                   year=None) -> DecileAssignment:
    """Rank cities by residual efficiency and cut into ten deciles.

    Score is y_i minus the median-frontier envelope at x_i; ranking is
    ascending with ties broken by city_id ascending. Decile sizes differ
    by at most one, the leftover observations going to the low deciles.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if city_id is None:
        city_id = np.arange(n)
    city_id = np.asarray(city_id)
    if len(city_id) != n:
        raise ValueError("city_id length does not match observations")
    score = y - median_fit.frontier(x)
    order = np.lexsort((city_id, score))
    decile = np.empty(n, dtype=np.int64)
    for d, chunk in enumerate(np.array_split(order, 10), start=1):
        decile[chunk] = d
    return DecileAssignment(
        year=median_fit.year if year is None else year,
        city_id=city_id,
        decile=decile,
        score=score,
    )


def dedup_hyperplanes(alpha, beta):
    """Collapse planes equal within _DEDUP_TOL in every coefficient.

    Greedy first-occurrence pass; order is deterministic. The envelope
    is unchanged, only duplicates handed to downstream row builders go.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    coef = np.column_stack([alpha, beta])
    keep = []
    for i, row in enumerate(coef):
        if not any(np.max(np.abs(row - coef[j])) <= _DEDUP_TOL for j in keep):
            keep.append(i)
    return alpha[keep], beta[keep].reshape(len(keep), -1)


def fits_to_csv(fits, path):
    """Write fitted planes to CSV, one row per (year, tau, observation).

    Header: year,tau,obs_index,alpha,beta_1..beta_d,eps_plus,eps_minus.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to write")
    d = fits[0].n_inputs
    if any(f.n_inputs != d for f in fits):
        raise ValueError("fits mix input dimensions")
    cols = ["year", "tau", "obs_index", "alpha"]
    cols += [f"beta_{f + 1}" for f in range(d)]
    cols += ["eps_plus", "eps_minus"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for fit in fits:
            for i in range(fit.n_obs):
                row = [str(fit.year), repr(float(fit.tau)), str(i),
                       repr(float(fit.alpha[i]))]
                row += [repr(float(b)) for b in fit.beta[i]]
                row += [repr(float(fit.eps_plus[i])),
                        repr(float(fit.eps_minus[i]))]
                fh.write(",".join(row) + "\n")


def fits_from_csv(path):
    """Reload fits written by fits_to_csv, grouped by (year, tau).

    The table does not carry the returns-to-scale flag; reloaded fits
    report crs=False. Objectives are rebuilt from the residual columns.
    """
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    names = data.dtype.names
    d = sum(1 for nm in names if nm.startswith("beta_"))
    if d == 0:
        raise ValueError("no beta columns found")
    fits = []
    keys = np.unique(np.column_stack([data["year"], data["tau"]]), axis=0)
    for yr, tau in keys:
        sel = data[(data["year"] == yr) & (data["tau"] == tau)]
        sel = sel[np.argsort(sel["obs_index"])]
        beta = np.column_stack([sel[f"beta_{f + 1}"] for f in range(d)])
        ep, em = sel["eps_plus"], sel["eps_minus"]
        fits.append(QuantileFit(
            year=int(yr),
            tau=float(tau),
            alpha=np.asarray(sel["alpha"], dtype=float),
            beta=beta,
            eps_plus=np.asarray(ep, dtype=float),
            eps_minus=np.asarray(em, dtype=float),
            crs=False,
            objective=float(tau * ep.sum() + (1 - tau) * em.sum()),
        ))
    fits.sort(key=lambda f: (f.year, f.tau))
    return fits
