"""Counterfactual factor-reallocation planner over decile technologies.

Each performance decile carries a piecewise-linear concave technology
(the lower envelope of supporting hyperplanes, typically taken from a
quantile frontier fit).  A planner reassigns aggregate factor supplies
across pseudo-cities to maximize total output under one of several
regimes: frictionless reallocation, iceberg frictions on capital and
depletion on labor, single-factor reallocation with the remaining
factors pinned in place, per-decile (local) resource caps, and an
entry/exit variant where pseudo-cities may deactivate entirely.

Every regime is one linear program over per-city outputs and inputs,
with integral activity counts under entry/exit.  A friction only
shrinks its factor's total, to T_r / (1 + friction_r), so every
strategy below sees frictionless totals.  Three exact solution
strategies split the work:

* every pin-free regime solves one LP over per-decile aggregates
  (pseudo-cities within a decile are identical, so an equal split of
  the active ones is optimal by concavity): outputs, inputs and
  activity counts, the counts fixed at the decile sizes unless
  entry/exit makes them integers that branch and bound settles, and
  local caps as bounds on the inputs, exact at any size;
* a single reallocated factor with the others pinned makes the problem
  separable and concave in one dimension per city, solved by filling
  the steepest envelope segments first;
* everything else runs the per-city LP through its dual, built whole
  (one column per city and plane).

All three land on one post-solve certificate, ``certify``, which
``cityalloc validate`` also runs on every written allocation (envelope,
resource rows, pinned factors, idle cities at rest).

Scenarios solved on one ``masters`` list, as an estimation unit's
are, share their LPs: one with the same rows as an earlier one
re-solves that Master warm after a change of costs and bounds.  So
``perfect``, ``imperfect``, ``entry_exit``, ``local`` and
``local_entry_exit`` share one aggregate LP whose modes differ only in
bounds, and pinned ``perfect`` and ``imperfect`` one per-city LP whose
costs differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .cqr import QuantileFit, dedup_hyperplanes
from .solver import EQ, GE, LE, LP_TOLERANCE, LinearProgram, Master, solve_integer, solve_lp

# unused here: kept only for perfbench/trace.py, which patches
# cityalloc.planner.solve_milp, until ROADMAP item 10 drops that site
solve_milp = solve_integer

MODES = ("perfect", "imperfect", "entry_exit", "local", "local_entry_exit")
ENTRY_MODES = ("entry_exit", "local_entry_exit")
LOCAL_MODES = ("local", "local_entry_exit")

_LOCAL_SHARES = 10  # local caps are literal tenths of each total

_ENVELOPE_TOL = 1e-6   # post-solve certificate slack, relative to the data
_IDLE_TOL = 1e-9       # an inactive pseudo-city's allocation is an exact zero


class PlannerError(ValueError):
    """Raised for ill-posed or unsolvable scenarios."""


@dataclass(frozen=True, eq=False)
class DecileTechnology:
    """One decile's technology: deduplicated hyperplanes plus its size.

    Output of any pseudo-city in the decile is capped by every plane,
    y <= alpha[h] + beta[h] . x, so the attainable frontier is the lower
    envelope ``envelope``.  Slopes must be nonnegative.
    """

    decile: int
    tau: float
    alpha: np.ndarray
    beta: np.ndarray
    pseudo_city_count: int

    def __init__(self, decile, tau, alpha, beta, pseudo_city_count):
        a = np.asarray(alpha, dtype=np.float64).ravel()
        b = np.atleast_2d(np.asarray(beta, dtype=np.float64))
        if a.size == 0:
            raise PlannerError("a technology needs at least one hyperplane")
        if b.shape[0] != a.size:
            raise PlannerError("alpha and beta disagree on the hyperplane count")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise PlannerError("hyperplane coefficients must be finite")
        if b.min(initial=0.0) < -1e-9:
            raise PlannerError(f"negative slope in decile {decile} technology")
        b = np.maximum(b, 0.0)
        if not pseudo_city_count >= 1:
            raise PlannerError("pseudo_city_count must be at least 1")
        for name, value in (("decile", int(decile)), ("tau", float(tau)),
                            ("alpha", a), ("beta", b),
                            ("pseudo_city_count", int(pseudo_city_count))):
            object.__setattr__(self, name, value)
        a.setflags(write=False)
        b.setflags(write=False)

    @property
    def n_planes(self) -> int:
        return self.alpha.size

    @property
    def n_factors(self) -> int:
        return self.beta.shape[1]

    def envelope(self, x) -> np.ndarray:
        """Frontier output min_h(alpha_h + beta_h . x) at rows of x."""
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return (self.alpha[None, :] + pts @ self.beta.T).min(axis=1)


def technology_from_fit(fit: QuantileFit, decile: int,
                        pseudo_city_count: int) -> DecileTechnology:
    """Package a frontier fit as a decile technology, deduplicating planes."""
    alpha, beta = dedup_hyperplanes(fit.alpha, fit.beta)
    return DecileTechnology(decile, fit.tau, alpha, beta, pseudo_city_count)


@dataclass(frozen=True, eq=False)
class PlannerScenario:
    """Immutable description of one planner problem.

    ``factor_names`` orders the columns of every technology's beta.
    ``aggregate_resources`` maps factor name to its finite total supply.
    ``iceberg`` inflates the capital row to (1+iceberg).k and
    ``depletion`` the labor row to (1+depletion).l; both apply to the
    factors named "K" and "L" and other factors move freely.  Factors
    outside ``reallocated_factors`` are frozen at ``fixed_input_values``
    (one value per pseudo-city, deciles in order).
    """

    year: int
    mode: str
    technologies: tuple[DecileTechnology, ...]
    factor_names: tuple[str, ...]
    aggregate_resources: Mapping[str, float]
    reallocated_factors: tuple[str, ...]
    iceberg: float
    depletion: float
    fixed_input_values: Mapping[str, np.ndarray]

    def __init__(self, year, mode, technologies, factor_names,
                 aggregate_resources, reallocated_factors=None,
                 iceberg=0.0, depletion=0.0, fixed_input_values=None):
        if mode not in MODES:
            raise PlannerError(f"unknown mode {mode!r}")
        techs = tuple(technologies)
        if not 1 <= len(techs) <= 10:
            raise PlannerError("between 1 and 10 decile technologies required")
        names = tuple(str(f) for f in factor_names)
        if len(set(names)) != len(names) or not names:
            raise PlannerError("factor_names must be distinct and nonempty")
        for t in techs:
            if not isinstance(t, DecileTechnology):
                raise PlannerError("technologies must be DecileTechnology values")
            if t.n_factors != len(names):
                raise PlannerError("technology factor count does not match factor_names")
        deciles = [t.decile for t in techs]
        if sorted(set(deciles)) != deciles:
            raise PlannerError("technologies must be sorted by distinct decile")

        if reallocated_factors is None:
            realloc = names
        else:
            wanted = set(reallocated_factors)
            if not wanted or not wanted <= set(names):
                raise PlannerError("reallocated_factors must be a nonempty subset of factor_names")
            realloc = tuple(f for f in names if f in wanted)

        iceberg = float(iceberg)
        depletion = float(depletion)
        if not (iceberg >= 0.0 and depletion >= 0.0
                and np.isfinite(iceberg) and np.isfinite(depletion)):
            raise PlannerError("frictions must be finite and nonnegative")
        if mode == "perfect" and (iceberg or depletion):
            raise PlannerError("perfect mode is frictionless; use mode='imperfect'")
        if mode in ENTRY_MODES and len(realloc) != len(names):
            raise PlannerError("entry/exit requires every factor to be reallocated")

        totals = {}
        for f, v in dict(aggregate_resources).items():
            if f not in names:
                raise PlannerError(f"aggregate resource for unknown factor {f!r}")
            v = float(v)
            if not (np.isfinite(v) and v >= 0.0):
                raise PlannerError(f"aggregate resource for {f!r} must be finite and nonnegative")
            totals[f] = v
        for f in realloc:
            if f not in totals:
                raise PlannerError(f"missing aggregate resource for reallocated factor {f!r}")

        n = sum(t.pseudo_city_count for t in techs)
        frozen = tuple(f for f in names if f not in realloc)
        fixed = {}
        if frozen:
            if fixed_input_values is None:
                raise PlannerError("fixed_input_values required when some factors are not reallocated")
            given = dict(fixed_input_values)
            for f in frozen:
                if f not in given:
                    raise PlannerError(f"missing fixed values for factor {f!r}")
                v = np.asarray(given.pop(f), dtype=np.float64).ravel()
                if v.size != n:
                    raise PlannerError(f"fixed values for {f!r} need one entry per pseudo-city ({n})")
                if not np.all(np.isfinite(v)) or v.min(initial=0.0) < 0.0:
                    raise PlannerError(f"fixed values for {f!r} must be finite and nonnegative")
                v.setflags(write=False)
                fixed[f] = v
            if given:
                raise PlannerError(f"fixed values given for reallocated factor {sorted(given)[0]!r}")
        elif fixed_input_values:
            raise PlannerError("fixed_input_values given but every factor is reallocated")

        for name, value in (("year", int(year)), ("mode", mode),
                            ("technologies", techs), ("factor_names", names),
                            ("aggregate_resources", totals),
                            ("reallocated_factors", realloc),
                            ("iceberg", iceberg), ("depletion", depletion),
                            ("fixed_input_values", fixed)):
            object.__setattr__(self, name, value)

    @property
    def is_entry_exit(self) -> bool:
        return self.mode in ENTRY_MODES

    @property
    def is_local(self) -> bool:
        return self.mode in LOCAL_MODES

    def friction(self, factor: str) -> float:
        # iceberg rides the capital row, depletion the labor row
        if factor == "K":
            return self.iceberg
        if factor == "L":
            return self.depletion
        return 0.0


@dataclass(frozen=True, eq=False)
class AllocationSolution:
    """Optimal allocation: one row of arrays per pseudo-city.

    ``inputs`` has one column per scenario factor (fixed factors carry
    their pinned values), ``active`` the 0/1 activity indicator (all
    ones outside entry/exit), and ``efficient_output`` the optimal
    aggregate output.  Where the LP has an optimal face, ``inputs`` is
    the one vertex of it that the pivot path reached, not a rule's pick;
    so is ``active`` under entry/exit with planes through the origin,
    where an active pseudo-city with no inputs produces what an idle one
    does.
    """

    year: int
    mode: str
    factor_names: tuple[str, ...]
    decile: np.ndarray
    pseudo_city: np.ndarray
    inputs: np.ndarray
    output: np.ndarray
    active: np.ndarray
    efficient_output: float

    def __post_init__(self):
        for arr in (self.decile, self.pseudo_city, self.inputs,
                    self.output, self.active):
            arr.setflags(write=False)


class _Geo(NamedTuple):
    """Per-solve geometry shared by the builders."""

    counts: np.ndarray     # pseudo-cities per decile
    starts: np.ndarray     # decile offsets into the city axis
    rcols: np.ndarray      # beta columns of the reallocated factors
    totals: np.ndarray     # supply per reallocated factor, over (1+friction)
    alpha_eff: list        # per decile (n_d, H_d): intercept + fixed terms
    beta_r: list           # per decile (H_d, R): slopes on reallocated factors


def _geometry(scn: PlannerScenario) -> _Geo:
    names = scn.factor_names
    counts = np.array([t.pseudo_city_count for t in scn.technologies])
    starts = np.concatenate(([0], np.cumsum(counts)))
    rcols = np.array([names.index(f) for f in scn.reallocated_factors])
    totals = np.array([scn.aggregate_resources[f] / (1.0 + scn.friction(f))
                       for f in scn.reallocated_factors])
    fixed_cols = [j for j, f in enumerate(names) if f not in scn.reallocated_factors]
    alpha_eff, beta_r = [], []
    for d, t in enumerate(scn.technologies):
        a = np.tile(t.alpha, (counts[d], 1))
        if fixed_cols:
            fx = np.column_stack([scn.fixed_input_values[names[j]][starts[d]:starts[d + 1]]
                                  for j in fixed_cols])
            a = a + fx @ t.beta[:, fixed_cols].T
        alpha_eff.append(a)
        beta_r.append(t.beta[:, rcols])
    return _Geo(counts, starts, rcols, totals, alpha_eff, beta_r)


def certify(scenario: PlannerScenario, inputs, output, active,
            tolerance: float = 0.0) -> list:
    """Problems with an allocation of ``scenario``; empty when it holds.

    ``inputs`` is laid out as AllocationSolution.inputs. Active outputs
    lie on or under their decile's envelope, each reallocated factor
    within its (1+friction)-weighted total (its tenth per decile when
    local), pinned factors exactly at ``fixed_input_values`` and idle
    pseudo-cities at zero. Slacks scale with the values compared, but a
    resource row's never falls below what the solver's ``tolerance``
    (zero for a written allocation) may leave over.
    """
    names = scenario.factor_names
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(output, dtype=np.float64)
    on = np.asarray(active) > 0.5
    starts = np.cumsum([0] + [t.pseudo_city_count for t in scenario.technologies])
    n = int(starts[-1])
    if x.shape != (n, len(names)) or y.shape != (n,) or on.shape != (n,):
        return [f"allocation does not have {n} pseudo-cities by {len(names)} factors"]
    deciles = [(t, slice(lo, hi)) for t, lo, hi
               in zip(scenario.technologies, starts[:-1], starts[1:])]
    env_tol = _ENVELOPE_TOL * (1.0 + np.abs(y).max(initial=0.0))
    problems = [f"decile {t.decile} output above its envelope" for t, rows in deciles
                if np.any(y[rows][on[rows]] > t.envelope(x[rows][on[rows]]) + env_tol)]
    for f in scenario.reallocated_factors:
        w = 1.0 + scenario.friction(f)
        loads = w * x[:, names.index(f)]
        cap = scenario.aggregate_resources[f] / (_LOCAL_SHARES if scenario.is_local else 1)
        spans = [(f"decile {t.decile} over its tenth of {f}", rows) for t, rows in deciles] \
            if scenario.is_local else [(f"factor {f} over budget", slice(None))]
        # the solver may leave a row over by its tolerance, and by that
        # again per city whose row dual just below zero became a zero input
        problems += [msg for msg, rows in spans if loads[rows].sum() > cap + max(
            cap * _ENVELOPE_TOL, tolerance * (1.0 + w * loads[rows].size))]
    problems += [f"pinned factor {f} moved" for f, pinned in scenario.fixed_input_values.items()
                 if not np.array_equal(x[:, names.index(f)], pinned)]
    if max(np.abs(x[~on]).max(initial=0.0), np.abs(y[~on]).max(initial=0.0)) > _IDLE_TOL:
        problems.append("inactive city holds resources")
    return problems


def _build_solution(scn, geo, y, x, b, objective) -> AllocationSolution:
    n = int(geo.counts.sum())
    deciles = np.repeat([t.decile for t in scn.technologies], geo.counts)
    within = np.concatenate([np.arange(1, c + 1) for c in geo.counts])
    inputs = np.zeros((n, len(scn.factor_names)))
    inputs[:, geo.rcols] = x
    for j, f in enumerate(scn.factor_names):
        if f in scn.fixed_input_values:
            inputs[:, j] = scn.fixed_input_values[f]
    return AllocationSolution(
        year=scn.year, mode=scn.mode, factor_names=scn.factor_names,
        decile=deciles.astype(np.int64), pseudo_city=within.astype(np.int64),
        inputs=inputs, output=np.asarray(y, dtype=np.float64).copy(),
        active=(np.asarray(b) > 0.5).astype(np.int8),
        efficient_output=float(objective))


def _solve_rows(scn, geo, masters):
    """Per-city LP through its dual, built whole.

    The LP is max sum_i y_i over planes y_i - beta_h . x_i <= alpha_eff[i, h]
    and resource rows sum_i x_ir <= T_r (T_r / 10 per decile when
    local), x >= 0, with T_r the folded totals.  Its dual: min sum
    alpha_eff lambda + sum T mu over lambda, mu >= 0, with rows
    sum_h lambda_ih = 1 (dual of y_i) and mu_r - sum_h beta_hr lambda_ih
    >= 0 (dual of x_ir), one lambda column per (pseudo-city, plane); y
    and x are the row duals.  ``_rows_master`` picks the Master it is
    solved on.
    """
    n, nr = int(geo.counts.sum()), geo.rcols.size
    # one mu column per resource row, per decile when local
    spans = list(zip(geo.starts[:-1], geo.starts[1:])) if scn.is_local else [(0, n)]
    rows, cols, cost = [], [], []
    for r in range(nr):
        for lo, hi in spans:
            rows.append(n + np.arange(lo, hi) * nr + r)
            cols.append(np.full(hi - lo, len(cost)))
            cost.append(geo.totals[r] / (_LOCAL_SHARES if scn.is_local else 1))
    vals = [np.ones(n * nr)]
    city = np.concatenate([np.repeat(np.arange(geo.starts[d], geo.starts[d + 1]),
                                     a.shape[1]) for d, a in enumerate(geo.alpha_eff)])
    beta = np.concatenate([np.tile(b, (c, 1)) for b, c in zip(geo.beta_r, geo.counts)])
    lam = len(cost) + np.arange(city.size)
    rows += [city, (n + city[:, None] * nr + np.arange(nr)).ravel()]
    cols += [lam, np.repeat(lam, nr)]
    vals += [np.ones(city.size), -beta.ravel()]
    cost = np.concatenate([cost] + [a.ravel() for a in geo.alpha_eff])
    m = n * (1 + nr)
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(m, cost.size))
    lp = LinearProgram("min", cost, mat, [EQ] * n + [GE] * (m - n),
                       np.concatenate([np.ones(n), np.zeros(m - n)]))
    res = solve_lp(_rows_master(lp, masters))
    if res.status != "optimal":
        raise PlannerError(f"scenario solve failed with status {res.status!r}")
    y = res.dual_values[:n]
    x = np.maximum(res.dual_values[n:].reshape(n, nr), 0.0)
    return y, x, np.ones(n), res.objective_value


def _rows_master(lp, masters):
    """What the planner solves for ``lp``: a Master in ``masters`` whose
    LP has the same sense, rows, relations and rhs, given ``lp``'s costs
    and then its bounds on the columns where they differ (each Master
    holds the bounds of the last LP it took), else ``lp`` on a new
    Master that joins the list."""
    for k, (old, master) in enumerate(masters):
        if (old.rows.shape == lp.rows.shape and (old.rows != lp.rows).nnz == 0
                and all(np.array_equal(getattr(old, a), getattr(lp, a))
                        for a in ("sense", "relations", "rhs"))):
            master.set_costs(lp.objective)
            moved = np.flatnonzero((old.lower != lp.lower) | (old.upper != lp.upper))
            if moved.size:
                master.set_bounds(moved, lp.lower[moved], lp.upper[moved])
            masters[k] = (lp, master)
            return master
    masters.append((lp, Master(lp)))
    return masters[-1][1]


def _solve_entry_counts(scn: PlannerScenario, geo: _Geo, masters):
    """Every pin-free scenario, as an LP (a MILP under entry/exit) over
    per-decile aggregates.

    Within a decile only the number of active pseudo-cities matters, so
    optimize per-decile aggregates: output Y_d, inputs X_dr and an
    activity count m_d, tied by the perspective rows
    Y_d <= alpha_h . m_d + beta_h . X_d of the scaled envelope and
    X_dr <= M_r . m_d, with M_r the unfolded total.  Each folded total
    is a column t_r fixed at T_r / (1 + friction_r), on the row
    sum_d X_dr + s_r - t_r = 0.  The modes differ in bounds alone, so
    a unit's scenarios share one Master (``_rows_master``), and branch
    and bound enters its root warm from the last LP solved on it:

    * outside entry/exit m_d is fixed at n_d: the per-city LP at one
      city per decile, intercepts scaled by n_d;
    * under entry/exit m_d is an integer in [0, n_d];
    * ``perfect`` and ``imperfect`` fix the slack s_r at 0, so every
      unit is used, which loses nothing as slopes are nonnegative and
      keeps the full-allocation corner; elsewhere s_r >= 0;
    * the local modes cap each X_dr at its tenth T_r / 10 by a column
      bound, which leaves part of each total unused under fewer than
      ten deciles;
    * two neighbouring deciles with equal planes are interchangeable,
      so a row keeps the larger's count at least the smaller's: it cuts
      only symmetric copies of an optimum, which branch and bound could
      not prune, and as it reads the technologies alone every mode
      shares it.

    Exact by concavity; active pseudo-cities split X_d evenly.
    """
    n_dec, nr = len(geo.counts), geo.rcols.size
    x_off, m_off = n_dec, n_dec + n_dec * nr
    t_off, s_off = m_off + n_dec, m_off + n_dec + nr
    ncols = s_off + nr
    entry = scn.is_entry_exit

    objective = np.zeros(ncols)
    objective[:n_dec] = 1.0
    lower = np.zeros(ncols)
    lower[:n_dec] = -np.inf
    upper = np.full(ncols, np.inf)
    upper[m_off:t_off] = geo.counts
    lower[t_off:s_off] = upper[t_off:s_off] = geo.totals
    if not entry:
        lower[m_off:t_off] = geo.counts
    if scn.mode in ("perfect", "imperfect"):
        upper[s_off:] = 0.0
    if scn.is_local:
        upper[x_off:m_off] = np.tile(geo.totals / _LOCAL_SHARES, n_dec)

    rows_i, cols, vals, rels = [], [], [], []

    def put(row_cols, row_vals, rel=LE):
        rows_i.extend([len(rels)] * len(row_cols))
        cols.extend(row_cols)
        vals.extend(row_vals)
        rels.append(rel)

    for d, t in enumerate(scn.technologies):
        alpha = geo.alpha_eff[d][0]
        for h in range(t.n_planes):
            put([d, m_off + d] + [x_off + d * nr + r for r in range(nr)],
                [1.0, -alpha[h]] + list(-geo.beta_r[d][h]))
    for r, f in enumerate(scn.reallocated_factors):
        for d in range(n_dec):
            put([x_off + d * nr + r, m_off + d], [1.0, -scn.aggregate_resources[f]])
    for r in range(nr):
        put([x_off + d * nr + r for d in range(n_dec)] + [s_off + r, t_off + r],
            [1.0] * n_dec + [1.0, -1.0], EQ)
    for d, (s, t) in enumerate(zip(scn.technologies, scn.technologies[1:])):
        if np.array_equal(s.alpha, t.alpha) and np.array_equal(s.beta, t.beta):
            few, many = (d, d + 1) if geo.counts[d] < geo.counts[d + 1] else (d + 1, d)
            put([m_off + few, m_off + many], [1.0, -1.0])

    lp = LinearProgram("max", objective,
                       sp.csr_matrix((vals, (rows_i, cols)), shape=(len(rels), ncols)),
                       rels, np.zeros(len(rels)), lower, upper)
    master = _rows_master(lp, masters)
    res = solve_integer(master, range(m_off, t_off)) if entry else solve_lp(master)
    if res.status != "optimal":
        raise PlannerError(f"scenario solve failed with status {res.status!r}")

    m = np.round(res.primal_values[m_off:t_off]).astype(np.int64)
    agg_x = res.primal_values[x_off:m_off].reshape(n_dec, nr)
    agg_y = res.primal_values[:n_dec]
    n = int(geo.counts.sum())
    y = np.zeros(n)
    x = np.zeros((n, nr))
    b = np.zeros(n)
    for d in range(n_dec):
        if m[d] == 0:
            continue
        lo = geo.starts[d]
        y[lo:lo + m[d]] = agg_y[d] / m[d]
        x[lo:lo + m[d]] = agg_x[d] / m[d]
        b[lo:lo + m[d]] = 1.0
    return y, x, b, res.objective_value


def _hull_1d(a, b):
    """Binding sequence of the concave envelope min_h(a_h + b_h * l) on
    l >= 0: returns (intercepts, slopes, starts) with slopes strictly
    decreasing and starts[0] = 0."""
    order = np.lexsort((a, -b))  # slope descending, intercept ascending
    ha, hb, hs = [], [], []
    last_b = None
    for h in order:
        if last_b is not None and b[h] == last_b:
            continue  # flatter copy of the same slope never improves
        last_b = b[h]
        while ha:
            cut = (a[h] - ha[-1]) / (hb[-1] - b[h])
            if cut <= hs[-1]:
                ha.pop(); hb.pop(); hs.pop()
            else:
                break
        if ha:
            ha.append(a[h]); hb.append(b[h]); hs.append(cut)
        else:
            ha.append(a[h]); hb.append(b[h]); hs.append(0.0)
    return ha, hb, hs


def _solve_separable(scn: PlannerScenario, geo: _Geo):
    """One reallocated factor: each pseudo-city's output is concave and
    piecewise linear in its own allocation, so the planner fills the
    steepest envelope segments first.  Local mode fills per decile."""
    n = int(geo.counts.sum())
    total = geo.totals[0]
    alloc = np.zeros(n)

    # (slope, decile, city, length) for every positive-slope segment
    segments = []
    for d in range(len(geo.counts)):
        bcol = geo.beta_r[d][:, 0]
        for local_i in range(geo.counts[d]):
            ha, hb, hs = _hull_1d(geo.alpha_eff[d][local_i], bcol)
            i = geo.starts[d] + local_i
            for seg in range(len(ha)):
                if hb[seg] <= 0.0:
                    break
                length = (hs[seg + 1] - hs[seg]) if seg + 1 < len(ha) else np.inf
                segments.append((hb[seg], d, i, length))

    budgets = {None: total}
    if scn.is_local:
        budgets = {d: total / _LOCAL_SHARES for d in range(len(geo.counts))}

    segments.sort(key=lambda s: (-s[0], s[2]))
    for slope, d, i, length in segments:
        key = d if scn.is_local else None
        room = budgets[key]
        if room <= 0.0:
            continue
        take = min(length, room)
        alloc[i] += take
        budgets[key] = room - take

    y = np.empty(n)
    for d in range(len(geo.counts)):
        lo, hi = geo.starts[d], geo.starts[d + 1]
        y[lo:hi] = (geo.alpha_eff[d]
                    + alloc[lo:hi, None] * geo.beta_r[d][:, 0][None, :]).min(axis=1)
    return y, alloc[:, None], np.ones(n), float(y.sum())


def solve_scenario(scenario: PlannerScenario,
                   masters: list | None = None) -> AllocationSolution:
    """Solve any scenario, dispatching on its shape: every pin-free
    scenario on ``_solve_entry_counts``' LP, one reallocated factor with
    the rest pinned by ``_solve_separable``, anything else pinned by
    ``_solve_rows``.

    ``masters``, one list passed to each scenario of an estimation unit
    in turn, keeps the LPs solved so far, so a later scenario whose LP
    has the rows of one of them re-solves it warm after new costs and
    bounds (see ``_rows_master``): all five pin-free modes share
    ``_solve_entry_counts``' LP, entry/exit's branch-and-bound root
    included.  None gives a fresh list.  The Masters live as long as
    the list.
    """
    masters = [] if masters is None else masters
    geo = _geometry(scenario)
    if not scenario.fixed_input_values:
        y, x, b, obj = _solve_entry_counts(scenario, geo, masters)
    elif geo.rcols.size == 1:
        y, x, b, obj = _solve_separable(scenario, geo)
    else:
        y, x, b, obj = _solve_rows(scenario, geo, masters)
    solution = _build_solution(scenario, geo, y, x, b, obj)
    problems = certify(scenario, solution.inputs, solution.output, solution.active, LP_TOLERANCE)
    if problems:
        raise PlannerError(problems[0])
    return solution
