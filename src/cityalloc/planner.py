"""Counterfactual factor-reallocation planner over decile technologies.

Each performance decile carries a piecewise-linear concave technology
(the lower envelope of supporting hyperplanes, typically taken from a
quantile frontier fit).  A planner reassigns aggregate factor supplies
across pseudo-cities to maximize total output under one of several
regimes: frictionless reallocation, iceberg frictions on capital and
depletion on labor, single-factor reallocation with the remaining
factors pinned in place, per-decile (local) resource caps, and an
entry/exit variant where pseudo-cities may deactivate entirely.

Every regime without entry/exit is one linear program over per-city
outputs and inputs.  Four exact solution strategies split the work:

* full reallocation collapses each decile to a single aggregate city
  (pseudo-cities within a decile are identical, so an equal split is
  optimal by concavity) and solves a tiny LP;
* a single reallocated factor makes the problem separable and concave
  in one dimension per city, solved by filling the steepest envelope
  segments first;
* entry/exit solves a small MILP over per-decile aggregates with an
  integral count of active pseudo-cities per decile, exact at any size
  by concavity;
* everything else runs the per-city LP with lazily generated
  technology rows, warm-starting each round from the previous basis.

All four land on the same post-solve certificate: outputs on or under
the envelope, resource rows honored, inactive cities at rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .cqr import QuantileFit, dedup_hyperplanes
from .solver import BASIS_BASIC, BasisStart, LinearProgram, solve_integer, solve_lp
# unused here; benchmark tracing still patches cityalloc.planner.solve_milp
from .solver import solve_milp  # noqa: F401

MODES = ("perfect", "imperfect", "entry_exit", "local", "local_entry_exit")

_ENTRY_MODES = ("entry_exit", "local_entry_exit")
_LOCAL_MODES = ("local", "local_entry_exit")
_LOCAL_SHARES = 10  # local caps are literal tenths of each total

_ENVELOPE_TOL = 1e-6   # post-solve certificate: y within this of the envelope
_GEN_TOL = 1e-7        # violation cutoff for lazy row generation
_CAP_GUARD = 1e-4      # big-M saturation detector, relative to M
_ZERO_SLOPE_TOL = 1e-9
_MAX_GEN_ROUNDS = 500


class PlannerError(ValueError):
    """Raised for ill-posed, unbounded, or unsolvable scenarios."""


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


def technology_from_fit(fit: QuantileFit, decile: int, pseudo_city_count: int,
                        tol: float = 1e-6) -> DecileTechnology:
    """Package a frontier fit as a decile technology, deduplicating planes."""
    alpha, beta = dedup_hyperplanes(fit.alpha, fit.beta, tol=tol)
    return DecileTechnology(decile, fit.tau, alpha, beta, pseudo_city_count)


@dataclass(frozen=True, eq=False)
class PlannerScenario:
    """Immutable description of one planner problem.

    ``factor_names`` orders the columns of every technology's beta.
    ``aggregate_resources`` maps factor name to its total supply; an
    infinite total drops the resource row, which is only sound when
    every decile has a zero-slope plane in that factor (checked before
    solving).  ``iceberg`` inflates the capital row to (1+iceberg).k and
    ``depletion`` the labor row to (1+depletion).l; both apply to the
    factors named "K" and "L" and other factors move freely.  Factors
    outside ``reallocated_factors`` are frozen at ``fixed_input_values``
    (one value per pseudo-city, deciles in order).  ``big_m`` bounds a
    single pseudo-city's allocation of a factor and is read only when an
    entry/exit scenario leaves that factor uncapped; such a scenario
    without ``big_m`` is rejected at solve time.
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
    big_m: float | None

    def __init__(self, year, mode, technologies, factor_names,
                 aggregate_resources, reallocated_factors=None,
                 iceberg=0.0, depletion=0.0, fixed_input_values=None,
                 big_m=None):
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
        if mode in _ENTRY_MODES and len(realloc) != len(names):
            raise PlannerError("entry/exit requires every factor to be reallocated")

        totals = {}
        for f, v in dict(aggregate_resources).items():
            if f not in names:
                raise PlannerError(f"aggregate resource for unknown factor {f!r}")
            v = float(v)
            if np.isnan(v) or v < 0.0:
                raise PlannerError(f"aggregate resource for {f!r} must be nonnegative")
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

        if big_m is not None:
            big_m = float(big_m)
            if not (np.isfinite(big_m) and big_m > 0.0):
                raise PlannerError("big_m must be positive and finite")

        for name, value in (("year", int(year)), ("mode", mode),
                            ("technologies", techs), ("factor_names", names),
                            ("aggregate_resources", totals),
                            ("reallocated_factors", realloc),
                            ("iceberg", iceberg), ("depletion", depletion),
                            ("fixed_input_values", fixed), ("big_m", big_m)):
            object.__setattr__(self, name, value)

    @property
    def n_pseudo_cities(self) -> int:
        return sum(t.pseudo_city_count for t in self.technologies)

    @property
    def is_entry_exit(self) -> bool:
        return self.mode in _ENTRY_MODES

    @property
    def is_local(self) -> bool:
        return self.mode in _LOCAL_MODES

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
    aggregate output.
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
    """Per-solve geometry shared by builders and the certificate."""

    counts: np.ndarray     # pseudo-cities per decile
    starts: np.ndarray     # decile offsets into the city axis
    rcols: np.ndarray      # beta columns of the reallocated factors
    weights: np.ndarray    # (1+friction) per reallocated factor
    totals: np.ndarray     # supply per reallocated factor
    alpha_eff: list        # per decile (n_d, H_d): intercept + fixed terms
    beta_r: list           # per decile (H_d, R): slopes on reallocated factors


def _geometry(scn: PlannerScenario) -> _Geo:
    names = scn.factor_names
    counts = np.array([t.pseudo_city_count for t in scn.technologies])
    starts = np.concatenate(([0], np.cumsum(counts)))
    rcols = np.array([names.index(f) for f in scn.reallocated_factors])
    weights = np.array([1.0 + scn.friction(f) for f in scn.reallocated_factors])
    totals = np.array([scn.aggregate_resources[f] for f in scn.reallocated_factors])
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
    return _Geo(counts, starts, rcols, weights, totals, alpha_eff, beta_r)


def _check_boundedness(scn: PlannerScenario, geo: _Geo):
    # an uncapped factor is safe only if every envelope flattens in it
    for r in range(geo.rcols.size):
        if np.isfinite(geo.totals[r]):
            continue
        for t in scn.technologies:
            if t.beta[:, geo.rcols[r]].min() > _ZERO_SLOPE_TOL:
                raise PlannerError(
                    f"factor {scn.reallocated_factors[r]!r} has no resource cap and "
                    f"decile {t.decile} has no zero-slope hyperplane in it; unbounded")


def _certify(scn, geo, y, x, b):
    """Feasibility certificate on the final point; raises on violation."""
    active = b > 0.5
    for d, t in enumerate(scn.technologies):
        lo, hi = geo.starts[d], geo.starts[d + 1]
        env = (geo.alpha_eff[d] + x[lo:hi] @ geo.beta_r[d].T).min(axis=1)
        act = active[lo:hi]
        if np.any(y[lo:hi][act] > env[act] + _ENVELOPE_TOL):
            raise PlannerError(f"decile {t.decile}: output above the envelope")
    if scn.is_entry_exit:
        idle = ~active
        if (np.abs(y[idle]).max(initial=0.0) > _ENVELOPE_TOL
                or np.abs(x[idle]).max(initial=0.0) > _ENVELOPE_TOL):
            raise PlannerError("inactive pseudo-city with nonzero allocation")
    for r in range(geo.rcols.size):
        if not np.isfinite(geo.totals[r]):
            continue
        loads = geo.weights[r] * x[:, r]
        if scn.is_local:
            cap = geo.totals[r] / _LOCAL_SHARES
            for d in range(len(geo.counts)):
                lo, hi = geo.starts[d], geo.starts[d + 1]
                if loads[lo:hi].sum() > cap + _ENVELOPE_TOL:
                    raise PlannerError("local resource row violated")
        elif loads.sum() > geo.totals[r] + _ENVELOPE_TOL:
            raise PlannerError("resource row violated")


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


class _Program:
    """Mutable row store for one per-city LP solve.

    Columns are fixed up front (y block, then per-city reallocated
    inputs); resource rows are written once and technology rows
    appended as generation discovers them.
    """

    def __init__(self, scn: PlannerScenario, geo: _Geo):
        self.scn = scn
        self.geo = geo
        self.n = int(geo.counts.sum())
        self.nr = geo.rcols.size

        n, nr = self.n, self.nr
        self.x_off = n
        self.ncols = n + n * nr
        self.objective = np.zeros(self.ncols)
        self.objective[:n] = 1.0
        self.lower = np.zeros(self.ncols)
        self.lower[:n] = -np.inf
        self.upper = np.full(self.ncols, np.inf)

        self._rows_i: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._rhs: list[float] = []
        self.n_rows = 0
        self._structural()
        self.added = [np.zeros((geo.counts[d], t.n_planes), dtype=bool)
                      for d, t in enumerate(scn.technologies)]

    def _xcol(self, i, r):
        return self.x_off + i * self.nr + r

    def _put(self, cols, vals, rhs):
        row = self.n_rows
        self._rows_i.extend([row] * len(cols))
        self._cols.extend(cols)
        self._vals.extend(vals)
        self._rhs.append(rhs)
        self.n_rows += 1

    def _structural(self):
        scn, geo = self.scn, self.geo
        for r in range(self.nr):
            if not np.isfinite(geo.totals[r]):
                continue
            if scn.is_local:
                for d in range(len(geo.counts)):
                    span = range(geo.starts[d], geo.starts[d + 1])
                    self._put([self._xcol(i, r) for i in span],
                              [geo.weights[r]] * len(span),
                              geo.totals[r] / _LOCAL_SHARES)
            else:
                self._put([self._xcol(i, r) for i in range(self.n)],
                          [geo.weights[r]] * self.n, geo.totals[r])

    def add_plane(self, d, local_i, h):
        geo = self.geo
        i = geo.starts[d] + local_i
        self._put([i] + [self._xcol(i, r) for r in range(self.nr)],
                  [1.0] + list(-geo.beta_r[d][h]),
                  geo.alpha_eff[d][local_i, h])
        self.added[d][local_i, h] = True

    def seed(self):
        # one plane per pseudo-city: the binding one at an equal share;
        # uncapped factors also get their flattest plane so no seeded
        # relaxation has an unbounded direction
        geo = self.geo
        share = np.where(np.isfinite(geo.totals),
                         geo.totals / max(self.n, 1), 0.0)
        flat = np.nonzero(~np.isfinite(geo.totals))[0]
        for d in range(len(geo.counts)):
            vals = geo.alpha_eff[d] + (geo.beta_r[d] @ share)[None, :]
            best = np.argmin(vals, axis=1)
            for local_i, h in enumerate(best):
                self.add_plane(d, local_i, int(h))
            for r in flat:
                h = int(np.argmin(geo.beta_r[d][:, r]))
                for local_i in range(geo.counts[d]):
                    if not self.added[d][local_i, h]:
                        self.add_plane(d, local_i, h)

    def lp(self) -> LinearProgram:
        mat = sp.csr_matrix(
            (self._vals, (self._rows_i, self._cols)),
            shape=(self.n_rows, self.ncols))
        return LinearProgram("max", self.objective, mat,
                             ["<="] * self.n_rows, self._rhs,
                             self.lower, self.upper)

    def split(self, pv):
        y = pv[:self.n]
        x = pv[self.x_off:self.x_off + self.n * self.nr].reshape(self.n, self.nr)
        return y, x

    def violations(self, y, x, tol):
        """New (decile, city, plane) rows violated at the current point,
        at most three per pseudo-city, worst first."""
        geo = self.geo
        out = []
        for d in range(len(geo.counts)):
            lo, hi = geo.starts[d], geo.starts[d + 1]
            gap = y[lo:hi, None] - (geo.alpha_eff[d] + x[lo:hi] @ geo.beta_r[d].T)
            gap[self.added[d]] = -np.inf
            for local_i in np.nonzero(gap.max(axis=1) > tol)[0]:
                row = gap[local_i]
                top = np.argsort(row)[::-1][:3]
                out.extend((d, int(local_i), int(h)) for h in top if row[h] > tol)
        return out


def _solve_rows(scn, geo, tolerance):
    """Per-city LP with lazily generated technology rows."""
    prog = _Program(scn, geo)
    prog.seed()
    basis = None
    for _ in range(_MAX_GEN_ROUNDS):
        res = solve_lp(prog.lp(), tolerance, basis)
        if res.status == "unbounded":
            raise PlannerError("scenario is unbounded; check resource caps")
        if res.status != "optimal":
            raise PlannerError(f"scenario solve failed with status {res.status!r}")
        y, x = prog.split(res.primal_values)
        new = prog.violations(y, x, _GEN_TOL)
        if not new:
            return y, x, np.ones(prog.n), res.objective_value
        n_before = prog.n_rows
        for d, local_i, h in new:
            prog.add_plane(d, local_i, h)
        basis = BasisStart(
            res.column_status,
            np.concatenate([res.row_status,
                            np.full(prog.n_rows - n_before, BASIS_BASIC,
                                    dtype=np.int8)]))
    raise PlannerError("technology row generation did not converge")


def _solve_entry_counts(scn: PlannerScenario, geo: _Geo, tolerance):
    """Entry/exit as a MILP over per-decile activity counts.

    Within a decile only the number of active pseudo-cities matters, so
    optimize per-decile aggregates: output Y_d, inputs X_d, and an
    integral activity count m_d in [0, n_d], tied by the perspective
    rows Y_d <= alpha_h . m_d + beta_h . X_d of the scaled envelope.
    Exact by concavity; active pseudo-cities split X_d evenly.  An
    uncapped factor needs ``scn.big_m`` as its per-city bound.
    """
    n_dec = len(geo.counts)
    nr = geo.rcols.size
    big_m = scn.big_m
    for r in range(nr):
        if not np.isfinite(geo.totals[r]) and big_m is None:
            raise PlannerError(
                f"entry/exit with uncapped factor {scn.reallocated_factors[r]!r} "
                f"needs big_m")
    x_off, m_off = n_dec, n_dec + n_dec * nr
    ncols = m_off + n_dec

    objective = np.zeros(ncols)
    objective[:n_dec] = 1.0
    lower = np.zeros(ncols)
    lower[:n_dec] = -np.inf
    upper = np.full(ncols, np.inf)
    upper[m_off:] = geo.counts

    rows_i, cols, vals, rhs = [], [], [], []

    def put(row_cols, row_vals, row_rhs):
        rows_i.extend([len(rhs)] * len(row_cols))
        cols.extend(row_cols)
        vals.extend(row_vals)
        rhs.append(row_rhs)

    for d, t in enumerate(scn.technologies):
        alpha = geo.alpha_eff[d][0]
        for h in range(t.n_planes):
            put([d, m_off + d] + [x_off + d * nr + r for r in range(nr)],
                [1.0, -alpha[h]] + list(-geo.beta_r[d][h]), 0.0)
    for r in range(nr):
        cap = geo.totals[r] / geo.weights[r] if np.isfinite(geo.totals[r]) else big_m
        for d in range(n_dec):
            put([x_off + d * nr + r, m_off + d], [1.0, -cap], 0.0)
        if not np.isfinite(geo.totals[r]):
            continue
        if scn.is_local:
            for d in range(n_dec):
                put([x_off + d * nr + r], [geo.weights[r]],
                    geo.totals[r] / _LOCAL_SHARES)
        else:
            put([x_off + d * nr + r for d in range(n_dec)],
                [geo.weights[r]] * n_dec, geo.totals[r])

    lp = LinearProgram("max", objective,
                       sp.csr_matrix((vals, (rows_i, cols)),
                                     shape=(len(rhs), ncols)),
                       ["<="] * len(rhs), rhs, lower, upper)
    res = solve_integer(lp, range(m_off, m_off + n_dec), tolerance)
    if res.status != "optimal":
        raise PlannerError(f"scenario solve failed with status {res.status!r}")

    m = np.round(res.primal_values[m_off:]).astype(np.int64)
    agg_x = res.primal_values[x_off:m_off].reshape(n_dec, nr)
    agg_y = res.primal_values[:n_dec]
    for r in range(nr):
        if not np.isfinite(geo.totals[r]):
            if np.any(agg_x[:, r] > big_m * np.maximum(m, 1) * (1.0 - _CAP_GUARD)):
                raise PlannerError(
                    f"big_m={big_m:g} saturated by an allocation; "
                    f"re-solve with big_m >= {4.0 * big_m:g}")
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


def _solve_aggregated(scn: PlannerScenario, tolerance: float):
    """Full reallocation without entry/exit: pseudo-cities in a decile are
    interchangeable, so solve one aggregate city per decile (output rows
    scale the intercepts by the city count) and split its allocation
    evenly.  Exact by concavity of the envelopes."""
    reduced_techs = [DecileTechnology(t.decile, t.tau,
                                      t.pseudo_city_count * t.alpha, t.beta, 1)
                     for t in scn.technologies]
    reduced = PlannerScenario(scn.year, scn.mode, reduced_techs,
                              scn.factor_names, scn.aggregate_resources,
                              iceberg=scn.iceberg, depletion=scn.depletion)
    agg = _solve(reduced, tolerance)
    counts = np.array([t.pseudo_city_count for t in scn.technologies])
    x_cols = [scn.factor_names.index(f) for f in scn.reallocated_factors]
    x = np.repeat(agg.inputs[:, x_cols] / counts[:, None], counts, axis=0)
    y = np.repeat(agg.output / counts, counts)
    return y, x, np.ones(int(counts.sum())), agg.efficient_output


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
    weight = geo.weights[0]
    total = geo.totals[0]
    alloc = np.zeros(n)

    # (slope, decile, city, length) for every positive-slope segment
    segments = []
    tail_slope = 0.0
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
                if not np.isfinite(length):
                    tail_slope = max(tail_slope, hb[seg])

    if np.isfinite(total):
        budgets = {None: total / weight}
        if scn.is_local:
            budgets = {d: total / _LOCAL_SHARES / weight
                       for d in range(len(geo.counts))}
    else:
        if tail_slope > _ZERO_SLOPE_TOL:
            raise PlannerError("scenario is unbounded; check resource caps")
        budgets = {None: np.inf} if not scn.is_local else \
            {d: np.inf for d in range(len(geo.counts))}

    segments.sort(key=lambda s: (-s[0], s[2]))
    for slope, d, i, length in segments:
        key = d if scn.is_local else None
        room = budgets[key]
        if room <= 0.0:
            continue
        take = min(length, room)
        if not np.isfinite(take):
            continue  # flat-tolerance tail under an uncapped total
        alloc[i] += take
        budgets[key] = room - take

    y = np.empty(n)
    for d in range(len(geo.counts)):
        lo, hi = geo.starts[d], geo.starts[d + 1]
        y[lo:hi] = (geo.alpha_eff[d]
                    + alloc[lo:hi, None] * geo.beta_r[d][:, 0][None, :]).min(axis=1)
    return y, alloc[:, None], np.ones(n), float(y.sum())


def _solve(scn: PlannerScenario, tolerance: float) -> AllocationSolution:
    geo = _geometry(scn)
    _check_boundedness(scn, geo)
    if scn.is_entry_exit:
        y, x, b, obj = _solve_entry_counts(scn, geo, tolerance)
    elif not scn.fixed_input_values and scn.n_pseudo_cities > len(scn.technologies):
        y, x, b, obj = _solve_aggregated(scn, tolerance)
    elif geo.rcols.size == 1:
        y, x, b, obj = _solve_separable(scn, geo)
    else:
        y, x, b, obj = _solve_rows(scn, geo, tolerance)
    _certify(scn, geo, y, x, b)
    return _build_solution(scn, geo, y, x, b, obj)


def solve_scenario(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Solve any scenario, dispatching on its mode."""
    return _solve(scenario, tolerance)


def _require(cond, message):
    if not cond:
        raise PlannerError(message)


def solve_perfect(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Frictionless reallocation of every factor."""
    _require(scenario.mode == "perfect", "solve_perfect needs mode='perfect'")
    _require(len(scenario.reallocated_factors) == len(scenario.factor_names),
             "solve_perfect reallocates the full factor set")
    return _solve(scenario, tolerance)


def solve_imperfect(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Full reallocation with iceberg/depletion frictions on the rows."""
    _require(scenario.mode == "imperfect", "solve_imperfect needs mode='imperfect'")
    _require(len(scenario.reallocated_factors) == len(scenario.factor_names),
             "solve_imperfect reallocates the full factor set")
    return _solve(scenario, tolerance)


def solve_single_factor(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Reallocate a strict subset of factors, the rest pinned per city."""
    _require(len(scenario.reallocated_factors) < len(scenario.factor_names),
             "solve_single_factor needs a strict subset of reallocated factors")
    _require(scenario.mode in ("perfect", "imperfect"),
             "solve_single_factor runs under mode 'perfect' or 'imperfect'")
    return _solve(scenario, tolerance)


def solve_entry_exit(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Reallocation where pseudo-cities may deactivate (b = 0)."""
    _require(scenario.mode == "entry_exit", "solve_entry_exit needs mode='entry_exit'")
    return _solve(scenario, tolerance)


def solve_local(scenario: PlannerScenario, tolerance: float = 1e-7) -> AllocationSolution:
    """Per-decile resource caps (tenths), optionally with entry/exit."""
    _require(scenario.mode in _LOCAL_MODES,
             "solve_local needs mode 'local' or 'local_entry_exit'")
    return _solve(scenario, tolerance)


def _solution_labels(sols, labels):
    if labels is None:
        return [s.mode for s in sols]
    labels = [str(v) for v in labels]
    if len(labels) != len(sols):
        raise ValueError("labels must pair one-to-one with solutions")
    return labels


def allocations_to_csv(solutions, path, labels=None) -> None:
    """Write per-pseudo-city allocations of one or more solutions.

    Columns: year, scenario, decile, pseudo_city, b, one lowercase
    column per factor, then y. The scenario column carries ``labels``
    when given (one per solution) and the mode otherwise.
    """
    sols = list(solutions)
    if not sols:
        raise ValueError("no solutions to write")
    names = sols[0].factor_names
    if any(s.factor_names != names for s in sols):
        raise ValueError("solutions disagree on factor names")
    labels = _solution_labels(sols, labels)
    header = "year,scenario,decile,pseudo_city,b," + ",".join(
        f.lower() for f in names) + ",y"
    lines = [header]
    for s, label in zip(sols, labels):
        for i in range(s.output.size):
            cells = [str(s.year), label, str(int(s.decile[i])),
                     str(int(s.pseudo_city[i])), str(int(s.active[i]))]
            cells += [repr(float(v)) for v in s.inputs[i]]
            cells.append(repr(float(s.output[i])))
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_to_csv(solutions, path, labels=None) -> None:
    """One line per solution: year, scenario, efficient aggregate output."""
    sols = list(solutions)
    if not sols:
        raise ValueError("no solutions to write")
    lines = ["year,scenario,Y_e"]
    lines += [f"{s.year},{label},{repr(float(s.efficient_output))}"
              for s, label in zip(sols, _solution_labels(sols, labels))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
