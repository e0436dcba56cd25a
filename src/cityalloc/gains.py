"""Aggregate output gains from planner counterfactuals.

Chains the estimation stack end to end: a constructed panel feeds
per-year quantile frontiers, cities are ranked into efficiency deciles,
each decile's frontier becomes a planner technology, and the solved
scenarios are reported as gain ratios Y_e / Y. Gains can be
bootstrapped at the city level with deterministic per-replicate seeds;
replicates re-run the entire chain so the intervals carry estimation
uncertainty, not just allocation noise.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cqr import (
    N_DECILES,
    DecileAssignment,
    QuantileFit,
    assign_deciles,
    fit_all_quantiles,
)
# Unused here: the benchmark's tracer (perfbench/trace.py, LAYER_SITES)
# looks this name up on cityalloc.gains.
from .cqr import fit_cqr  # noqa: F401
from .panel import POOLED_YEAR, Panel, fixed_effect_inputs
from .planner import (
    MODES,
    AllocationSolution,
    PlannerScenario,
    solve_scenario,
    technology_from_fit,
)


class GainError(ValueError):
    """Ill-posed gain computation or pipeline input."""


class PipelineError(GainError):
    """Failure inside one pipeline stage, annotated with its location."""

    def __init__(self, message, stage=None, year=None, replicate=None):
        super().__init__(message)
        self.stage = stage
        self.year = year
        self.replicate = replicate


@dataclass(frozen=True)
class ScenarioTemplate:
    """A planner scenario minus the per-year data.

    The pipeline completes the template with each year's estimated
    technologies, observed resource totals, and (for factors outside
    ``reallocated_factors``) the observed per-city values. ``label``
    names the scenario in results and defaults to the mode, suffixed
    with the reallocated factors when they are restricted.
    """

    mode: str
    reallocated_factors: tuple | None = None
    iceberg: float = 0.0
    depletion: float = 0.0
    label: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise GainError(f"unknown scenario mode {self.mode!r}")
        realloc = self.reallocated_factors
        if realloc is not None:
            realloc = tuple(str(f) for f in realloc)
            if not realloc or len(set(realloc)) != len(realloc):
                raise GainError("reallocated_factors must be distinct and nonempty")
            object.__setattr__(self, "reallocated_factors", realloc)
        for name in ("iceberg", "depletion"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v >= 0.0):
                raise GainError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)
        if self.label is None:
            label = self.mode
            if realloc is not None:
                label += "_" + "_".join(realloc)
            object.__setattr__(self, "label", label)


@dataclass(frozen=True)
class GainResult:
    """Gain ratio for one (year, scenario); year 0 is the pooled run."""

    year: int
    scenario: str
    gain: float
    actual_output: float
    efficient_output: float
    standard_error: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.actual_output) and self.actual_output > 0.0):
            raise GainError("actual aggregate output must be positive")
        want = self.efficient_output / self.actual_output
        if abs(self.gain - want) > 1e-12 * max(1.0, abs(want)):
            raise GainError("gain must equal efficient_output / actual_output")
        if (self.ci_low is None) != (self.ci_high is None):
            raise GainError("ci_low and ci_high come together")
        if self.ci_low is not None and not self.ci_low <= self.gain <= self.ci_high:
            raise GainError("interval must bracket the point estimate")
        if self.standard_error is not None and not self.standard_error >= 0.0:
            raise GainError("standard error must be nonnegative")

    @property
    def pooled(self) -> bool:
        return self.year == POOLED_YEAR


@dataclass(frozen=True)
class BootstrapConfig:
    """City-level resampling plan.

    A replicate draws n cities with replacement (each draw carries the
    city's full time series) and re-runs estimation, decile ranking,
    and allocation from scratch.
    """

    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.replicates >= 1:
            raise GainError("replicates must be at least 1")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class EstimationSettings:
    """How every estimation unit is fitted, as one hashable value.

    ``fixed_effects`` pools the panel into one unit of city time-means;
    ``crs`` fits constant-returns frontiers. Every unit fits the decile
    grid ``cqr.DEFAULT_QUANTILES`` and the median, and every LP solves
    to ``solver.LP_TOLERANCE``.
    """

    fixed_effects: bool = False
    crs: bool = False


@dataclass(frozen=True)
class PipelineAudit:
    """Intermediate artifacts of one estimation unit, kept for audit."""

    year: int
    fits: tuple
    median_fit: QuantileFit
    assignment: DecileAssignment
    technologies: tuple
    solutions: dict


def compute_gain(solution: AllocationSolution, observed_y,
                 label: str | None = None) -> GainResult:
    """Gain ratio of one solved scenario against observed outputs.

    ``observed_y`` holds the same year's city outputs, one entry per
    pseudo-city of the solution (any order; only the sum enters).
    """
    y = np.asarray(observed_y, dtype=np.float64).ravel()
    if y.size != solution.output.shape[0]:
        raise GainError("observed outputs do not match the solution's pseudo-cities")
    if not np.all(np.isfinite(y)):
        raise GainError("observed outputs must be finite")
    actual = float(y.sum())
    if actual <= 0.0:
        raise GainError("actual aggregate output must be positive")
    return GainResult(
        year=solution.year,
        scenario=solution.mode if label is None else str(label),
        gain=solution.efficient_output / actual,
        actual_output=actual,
        efficient_output=solution.efficient_output,
    )


# (low, high) modes, both reallocating every factor, where every allocation
# feasible to the low scenario is feasible to the high one
_DOMINATED = (("imperfect", "perfect"), ("local", "perfect"),
              ("perfect", "entry_exit"), ("local", "local_entry_exit"),
              ("local_entry_exit", "entry_exit"))


def _bounded_by(low, high):
    """Whether template ``low``'s optimum can never exceed ``high``'s:
    its mode is dominated, or it is perfect with some factors pinned,
    and ``high`` charges no larger friction."""
    if high.iceberg > low.iceberg or high.depletion > low.depletion:
        return False
    if high.reallocated_factors is not None:
        return False
    if low.reallocated_factors is None:
        return (low.mode, high.mode) in _DOMINATED
    return low.mode == high.mode == "perfect"


def order_problems(gains, templates, rtol=1e-9) -> list:
    """The ordering theorems that a set of gains breaks, one line each.

    Per year, a template whose feasible allocations all lie in another's
    (imperfect, local and perfect:F under perfect; perfect under
    entry_exit; local under local_entry_exit under entry_exit) must not
    gain more than it, beyond ``rtol`` of its gain. ``validate`` passes
    ``solver.LP_TOLERANCE``, on the assumption that a planner solved to
    tolerance t falls short of its optimum by no more than about that
    fraction; on the 284-city fixture years the tightest pairs tie to
    2.1e-16, so that slack has not been exercised.
    """
    templates = _as_templates(templates)
    by = {}
    for g in gains:
        by.setdefault(g.year, {})[g.scenario] = g.gain
    problems = []
    for year, here in sorted(by.items()):
        for low in templates:
            for high in templates:
                if low.label in here and high.label in here and _bounded_by(low, high) \
                        and here[low.label] - here[high.label] > rtol * abs(here[high.label]):
                    problems.append(f"{year}: {low.label} gain {here[low.label]!r} "
                                    f"above {high.label} {here[high.label]!r}")
    return problems


def _as_templates(templates):
    if isinstance(templates, ScenarioTemplate):
        templates = (templates,)
    templates = tuple(templates)
    for t in templates:
        if not isinstance(t, ScenarioTemplate):
            raise GainError("templates must be ScenarioTemplate values")
    labels = [t.label for t in templates]
    if len(set(labels)) != len(labels):
        raise GainError("scenario labels must be distinct")
    return templates


def _distinct_rows(x, y):
    """Distinct (x, y) rows: (first-occurrence indices, counts, row map).

    Row i of the data is row ``back[i]`` of ``x[keep]``; ``counts``
    holds each distinct row's multiplicity.
    """
    _, first, inverse, counts = np.unique(
        np.column_stack([x, y]), axis=0, return_index=True,
        return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order], np.argsort(order)[inverse.reshape(-1)]


def _expand(fit, back):
    """A fit on distinct rows, repeated back onto every data row."""
    return replace(fit, alpha=fit.alpha[back], beta=fit.beta[back],
                   eps_plus=fit.eps_plus[back], eps_minus=fit.eps_minus[back])


def unit_technologies(fits, assignment):
    """One unit's decile technologies: decile d from the d-th grid fit
    (tau ascending), with as many pseudo-cities as cities it ranks."""
    return tuple(technology_from_fit(f, d, int(assignment.sizes[d - 1]))
                 for d, f in enumerate(fits, start=1))


def unit_scenario(template, year, technologies, names, x, assignment):
    """The planner scenario of one template on one estimation unit.

    Totals are the observed input sums. Factors the template does not
    reallocate stay pinned at each city's observed value, pseudo-cities
    in decile order: deciles ascending, members in rank order inside.
    """
    moved = template.reallocated_factors or names
    order = np.concatenate([assignment.members(d) for d in range(1, N_DECILES + 1)])
    fixed = {f: x[order, names.index(f)] for f in names if f not in moved} or None
    return PlannerScenario(
        year, template.mode, technologies, names,
        {f: float(x[:, names.index(f)].sum()) for f in moved},
        reallocated_factors=template.reallocated_factors, iceberg=template.iceberg,
        depletion=template.depletion, fixed_input_values=fixed)


def _run_unit(x, y, city_id, year, names, templates, settings):
    """Estimate and solve one cross-section; returns (gains, audit).

    The decile grid and the median tau = .5 are fitted in one sweep from
    the top tau down, each fit warm-started from the previous one's
    working set and basis, so the one cold fit lands where it is
    cheapest (see ``cqr.fit_all_quantiles``). Identical (x, y) rows, as
    a resample holds, are fitted once with their multiplicity as weight;
    every fit is expanded back to all rows before ranking. The scenarios
    are solved in template order on one ``masters`` list, so an LP whose
    rows an earlier template solved re-solves that Master warm after new
    costs and bounds: the five pin-free modes share one, which only the
    first of them enters cold (see ``solve_scenario``).
    """
    n = len(y)
    if n < N_DECILES:
        raise PipelineError(f"year {year}: need at least {N_DECILES} cities, got {n}",
                            stage="ingest", year=year)
    keep, counts, back = _distinct_rows(x, y)
    xd, yd = x[keep], y[keep]
    try:
        swept = [_expand(f, back) for f in fit_all_quantiles(
            xd, yd, crs=settings.crs, year=year, weights=counts)]
    except Exception as exc:
        raise PipelineError(f"year {year}: quantile estimation failed: {exc}",
                            stage="estimate", year=year) from exc
    fits = [f for f in swept if f.tau != 0.5]

    try:
        median = next(f for f in swept if f.tau == 0.5)
        assignment = assign_deciles(x, y, median, city_id=city_id)
    except Exception as exc:
        raise PipelineError(f"year {year}: decile ranking failed: {exc}",
                            stage="deciles", year=year) from exc

    try:
        techs = unit_technologies(fits, assignment)
    except Exception as exc:
        raise PipelineError(f"year {year}: technology build failed: {exc}",
                            stage="technology", year=year) from exc

    gains, solutions, masters = [], {}, []
    for t in templates:
        try:
            scenario = unit_scenario(t, year, techs, names, x, assignment)
            solution = solve_scenario(scenario, masters)
            gains.append(compute_gain(solution, y, label=t.label))
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(f"year {year}, scenario {t.label}: {exc}",
                                stage="allocate", year=year) from exc
        solutions[t.label] = solution
    audit = PipelineAudit(year=year, fits=tuple(fits), median_fit=median,
                          assignment=assignment, technologies=techs,
                          solutions=solutions)
    return gains, audit


def _fan_out(fn, payloads, jobs):
    """[fn(*p) for p in payloads], run in up to ``jobs`` processes."""
    jobs = max(int(jobs), 1)
    if jobs == 1 or len(payloads) == 1:
        return [fn(*p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(fn, *zip(*payloads),
                             chunksize=max(1, len(payloads) // (4 * jobs))))


def estimation_units(panel: Panel, settings: EstimationSettings):
    """(input names, {year: (x, y, city_id)}) of the units a pipeline run
    estimates: one per year, or the pooled one under year 0."""
    if settings.fixed_effects:
        panel = fixed_effect_inputs(panel)
    return list(panel.input_names), {int(yr): panel.year_slice(yr) for yr in panel.years}


def run_pipeline(panel: Panel, templates,
                 settings: EstimationSettings = EstimationSettings(),
                 jobs: int = 1, audit=None) -> list:
    """One GainResult per estimation unit and scenario template.

    Yearly mode estimates and solves every year separately; with
    ``settings.fixed_effects`` the panel collapses to city time-means
    first and a single pooled unit runs (reported under year 0).
    ``templates`` is one ScenarioTemplate or a sequence; all scenarios
    in a unit share that unit's frontier fits; with no templates a run
    estimates only and returns no gains. ``audit``, when a list, receives
    one PipelineAudit per unit. Units run in up to ``jobs`` worker
    processes; results are identical to a serial run.
    """
    templates = _as_templates(templates)
    names, units = estimation_units(panel, settings)
    payloads = [(x, y, city_id, year, names, templates, settings)
                for year, (x, y, city_id) in units.items()]
    out = []
    for gains, unit_audit in _fan_out(_run_unit, payloads, jobs):
        out.extend(gains)
        if audit is not None:
            audit.append(unit_audit)
    return out


def _replicate_entry(panel, templates, seed, rep, settings):
    rng = np.random.default_rng([seed, rep])
    idx = rng.integers(0, panel.n_cities, panel.n_cities)
    try:
        gains = run_pipeline(panel.select_cities(idx), templates, settings)
    except Exception as exc:
        raise PipelineError(
            f"replicate {rep} failed: {exc}; resample indices {idx.tolist()}",
            stage="bootstrap", replicate=rep) from exc
    return rep, [g.gain for g in gains]


def bootstrap_gain(panel: Panel, templates, config: BootstrapConfig,
                   settings: EstimationSettings = EstimationSettings(),
                   jobs: int = 1, audit=None) -> list:
    """Point estimates with bootstrap spread attached.

    The returned gains are the original sample's pipeline results; each
    carries the sample standard deviation across replicates and the
    2.5/97.5 percentile interval (widened, if need be, to bracket the
    point estimate). Replicate r draws its resample from
    ``default_rng([seed, r])``, so results are reproducible and
    independent of execution order; a single replicate reports se 0.
    """
    templates = _as_templates(templates)
    point = run_pipeline(panel, templates, settings, jobs=jobs, audit=audit)
    payloads = [(panel, templates, config.seed, rep, settings)
                for rep in range(config.replicates)]
    draws = _fan_out(_replicate_entry, payloads, jobs)

    mat = np.array([gains for _, gains in sorted(draws)], dtype=np.float64)
    if mat.shape != (config.replicates, len(point)):
        raise PipelineError("replicate results lost alignment", stage="bootstrap")
    se = mat.std(axis=0, ddof=1) if config.replicates > 1 else np.zeros(len(point))
    lo = np.percentile(mat, 2.5, axis=0)
    hi = np.percentile(mat, 97.5, axis=0)
    return [replace(g, standard_error=float(se[k]),
                    ci_low=float(min(lo[k], g.gain)),
                    ci_high=float(max(hi[k], g.gain)))
            for k, g in enumerate(point)]


def gains_plot_payload(results) -> dict:
    """Plot data: one series per scenario with an optional CI band."""
    series = {}
    for g in results:
        point = {"year": g.year, "gain": g.gain}
        if g.standard_error is not None:
            point["se"] = g.standard_error
        if g.ci_low is not None:
            point["ci_low"] = g.ci_low
            point["ci_high"] = g.ci_high
        series.setdefault(g.scenario, []).append(point)
    return {"series": [{"scenario": label, "points": points}
                       for label, points in series.items()]}


def _delta_rows(gains):
    """Local-minus-nationwide gain differences per year (negative sign
    pattern: the nationwide planner dominates the tenths-constrained one)."""
    by = {}
    for g in gains:
        by.setdefault(g.year, {})[g.scenario] = g.gain
    pairs = (("delta1", "local", "perfect"),
             ("delta2", "local_entry_exit", "entry_exit"))
    rows = []
    for year in sorted(by):
        row = {"year": year}
        for name, local_label, wide_label in pairs:
            here = by[year]
            if local_label in here and wide_label in here:
                row[name] = here[local_label] - here[wide_label]
        if len(row) > 1:
            rows.append(row)
    return rows


def plot_payloads(gains, templates) -> dict:
    """A run's plot artifacts, by file name, built from its GainResults:
    the JSON payload of each .json file and the text of deltas.csv."""
    payloads = {"plot_gains.json": gains_plot_payload(gains)}
    restricted = [t.label for t in templates if t.reallocated_factors is not None]
    if restricted:
        full = [t.label for t in templates if t.reallocated_factors is None]
        payloads["plot_single_factor.json"] = {
            key: [{"scenario": lab, "points": [{"year": g.year, "gain": g.gain}
                                               for g in gains if g.scenario == lab]}
                  for lab in labels]
            for key, labels in (("series", restricted), ("reference", full))}
    rows = _delta_rows(gains)
    if rows:
        present = [n for n in ("delta1", "delta2") if any(n in r for r in rows)]
        lines = ["year," + ",".join(present)]
        for r in rows:
            cells = [str(r["year"])]
            cells += ["" if n not in r else repr(r[n]) for n in present]
            lines.append(",".join(cells))
        payloads["deltas.csv"] = "\n".join(lines) + "\n"
        payloads["plot_deltas.json"] = {
            "series": [{"name": n, "points": [{"year": r["year"], "delta": r[n]}
                                              for r in rows if n in r]}
                       for n in present]}
    return payloads
