"""Aggregate output gains from planner counterfactuals.

Chains the estimation stack end to end: a constructed panel feeds
per-year quantile frontiers, cities are ranked into efficiency deciles,
each decile's frontier becomes a planner technology, and the solved
scenarios are reported as gain ratios Y_e / Y. Gains can be
bootstrapped at the city level with deterministic per-replicate seeds;
replicates re-run the entire chain so the intervals carry estimation
uncertainty, not just allocation noise.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cqr import (
    DecileAssignment,
    QuantileFit,
    assign_deciles,
    fit_all_quantiles,
    fit_cqr,
)
from .panel import POOLED_YEAR, Panel, fixed_effect_inputs
from .planner import (
    MODES,
    AllocationSolution,
    PlannerScenario,
    solve_scenario,
    technology_from_fit,
)

_N_DECILES = 10


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

    @property
    def allocative_efficiency(self) -> float:
        """Reciprocal of the gain: observed share of attainable output."""
        return 1.0 / self.gain


@dataclass(frozen=True)
class BootstrapConfig:
    """City-level resampling plan.

    A replicate draws n cities with replacement (each draw carries the
    city's full time series) and re-runs estimation, decile ranking,
    and allocation from scratch. ``freeze_deciles`` is the sensitivity
    variant that lets resampled cities inherit the original sample's
    decile labels instead of re-ranking.
    """

    replicates: int = 1000
    seed: int = 0
    freeze_deciles: bool = False

    def __post_init__(self):
        if not self.replicates >= 1:
            raise GainError("replicates must be at least 1")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class PipelineAudit:
    """Intermediate artifacts of one estimation unit, kept for audit."""

    year: int
    fits: tuple
    median_fit: QuantileFit | None
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


def _as_templates(templates):
    if isinstance(templates, ScenarioTemplate):
        templates = (templates,)
    templates = tuple(templates)
    if not templates:
        raise GainError("at least one scenario template is required")
    for t in templates:
        if not isinstance(t, ScenarioTemplate):
            raise GainError("templates must be ScenarioTemplate values")
    labels = [t.label for t in templates]
    if len(set(labels)) != len(labels):
        raise GainError("scenario labels must be distinct")
    return templates


def _run_unit(x, y, city_id, year, names, templates, quantile_grid, crs,
              tolerance, frozen):
    """Estimate and solve one cross-section; returns (gains, audit)."""
    n = len(y)
    if n < _N_DECILES:
        raise PipelineError(f"year {year}: need at least {_N_DECILES} cities, got {n}",
                            stage="ingest", year=year)
    try:
        fits = fit_all_quantiles(x, y, quantile_grid, crs=crs, year=year,
                                 tolerance=tolerance)
    except Exception as exc:
        raise PipelineError(f"year {year}: quantile estimation failed: {exc}",
                            stage="estimate", year=year) from exc
    if len(fits) != _N_DECILES:
        raise PipelineError("decile matching needs a ten-point quantile grid",
                            stage="estimate", year=year)
    fits = sorted(fits, key=lambda f: f.tau)

    try:
        if frozen is None:
            median = fit_cqr(x, y, 0.5, crs=crs, year=year, tolerance=tolerance)
            assignment = assign_deciles(x, y, median, city_id=city_id)
        else:
            median = None
            assignment = DecileAssignment(year=year, city_id=np.asarray(city_id),
                                          decile=np.asarray(frozen, dtype=np.int64),
                                          score=np.zeros(n))
    except Exception as exc:
        raise PipelineError(f"year {year}: decile ranking failed: {exc}",
                            stage="deciles", year=year) from exc
    sizes = assignment.sizes
    if (sizes == 0).any():  # frozen resamples can starve a decile
        raise PipelineError(f"year {year}: a decile came out empty",
                            stage="deciles", year=year)

    try:
        techs = tuple(technology_from_fit(f, d, int(sizes[d - 1]))
                      for d, f in enumerate(fits, start=1))
    except Exception as exc:
        raise PipelineError(f"year {year}: technology build failed: {exc}",
                            stage="technology", year=year) from exc

    # pseudo-city order: deciles ascending, members in rank order inside
    order = np.concatenate([assignment.members(d)
                            for d in range(1, _N_DECILES + 1)])
    x_ord = x[order]

    gains, solutions = [], {}
    for t in templates:
        realloc = t.reallocated_factors
        active = names if realloc is None else realloc
        try:
            totals = {f: float(x[:, names.index(f)].sum()) for f in active}
            fixed = {f: x_ord[:, names.index(f)]
                     for f in names if f not in active} or None
            scenario = PlannerScenario(
                year, t.mode, techs, names, totals,
                reallocated_factors=realloc, iceberg=t.iceberg,
                depletion=t.depletion, fixed_input_values=fixed)
            solution = solve_scenario(scenario, tolerance)
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


def _unit_entry(payload):
    return _run_unit(*payload)


def _fan_units(panel, templates, fixed_effects, quantile_grid, crs,
               tolerance, jobs, frozen_deciles):
    if fixed_effects:
        panel = fixed_effect_inputs(panel)
    names = list(panel.input_names)
    frozen = dict(frozen_deciles) if frozen_deciles else {}
    payloads = []
    for year in (int(v) for v in panel.years):
        x, y, city_id = panel.year_slice(year)
        payloads.append((x, y, city_id, year, names, templates, quantile_grid,
                         crs, tolerance, frozen.get(year)))

    jobs = max(int(jobs), 1)
    if jobs == 1 or len(payloads) == 1:
        return [_unit_entry(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(_unit_entry, payloads))


def run_pipeline(panel: Panel, templates, fixed_effects: bool = False,
                 quantile_grid=None, crs: bool = False,
                 tolerance: float = 1e-7, jobs: int = 1, audit=None,
                 frozen_deciles=None) -> list:
    """One GainResult per estimation unit and scenario template.

    Yearly mode estimates and solves every year separately; with
    ``fixed_effects`` the panel collapses to city time-means first and a
    single pooled unit runs (reported under year 0). ``templates`` is
    one ScenarioTemplate or a sequence; all scenarios in a unit share
    that unit's frontier fits. ``audit``, when a list, receives one
    PipelineAudit per unit. ``frozen_deciles`` maps year to per-city
    decile labels and skips the ranking stage. Units run in up to
    ``jobs`` worker processes; results are identical to a serial run.
    """
    templates = _as_templates(templates)
    results = _fan_units(panel, templates, fixed_effects, quantile_grid, crs,
                         tolerance, jobs, frozen_deciles)
    out = []
    for gains, unit_audit in results:
        out.extend(gains)
        if audit is not None:
            audit.append(unit_audit)
    return out


def estimate_panel(panel: Panel, fixed_effects: bool = False,
                   quantile_grid=None, crs: bool = False,
                   tolerance: float = 1e-7, jobs: int = 1,
                   frozen_deciles=None) -> list:
    """Estimation-only pass: one PipelineAudit per unit, no scenarios.

    Runs the frontier fits, decile ranking, and technology build of
    run_pipeline but solves nothing; audits carry empty solution maps.
    """
    results = _fan_units(panel, (), fixed_effects, quantile_grid, crs,
                         tolerance, jobs, frozen_deciles)
    return [unit_audit for _, unit_audit in results]


def _replicate_entry(args):
    (panel, templates, seed, rep, fixed_effects, quantile_grid, crs,
     tolerance, frozen) = args
    rng = np.random.default_rng([seed, rep])
    idx = rng.integers(0, panel.n_cities, panel.n_cities)
    sub_frozen = None
    if frozen is not None:
        sub_frozen = {yr: labels[idx] for yr, labels in frozen.items()}
    try:
        gains = run_pipeline(panel.select_cities(idx), templates,
                             fixed_effects=fixed_effects,
                             quantile_grid=quantile_grid, crs=crs,
                             tolerance=tolerance, jobs=1,
                             frozen_deciles=sub_frozen)
    except Exception as exc:
        raise PipelineError(
            f"replicate {rep} failed: {exc}; resample indices {idx.tolist()}",
            stage="bootstrap", replicate=rep) from exc
    return rep, [g.gain for g in gains]


def bootstrap_gain(panel: Panel, templates, config: BootstrapConfig,
                   fixed_effects: bool = False, quantile_grid=None,
                   crs: bool = False, tolerance: float = 1e-7,
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
    point_audit = []
    point = run_pipeline(panel, templates, fixed_effects=fixed_effects,
                         quantile_grid=quantile_grid, crs=crs,
                         tolerance=tolerance, jobs=jobs, audit=point_audit)
    if audit is not None:
        audit.extend(point_audit)
    frozen = None
    if config.freeze_deciles:
        frozen = {a.year: a.assignment.decile for a in point_audit}

    payloads = [(panel, templates, config.seed, rep, fixed_effects,
                 quantile_grid, crs, tolerance, frozen)
                for rep in range(config.replicates)]
    jobs = max(int(jobs), 1)
    if jobs == 1 or len(payloads) == 1:
        draws = [_replicate_entry(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            draws = list(pool.map(_replicate_entry, payloads,
                                  chunksize=max(1, len(payloads) // (4 * jobs))))

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


def gains_to_csv(results, path) -> None:
    """Gain series CSV: year,scenario,gain,se,ci_low,ci_high (year 0 = pooled)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "scenario", "gain", "se", "ci_low", "ci_high"])
        for g in results:
            writer.writerow([
                g.year, g.scenario, repr(g.gain),
                "" if g.standard_error is None else repr(g.standard_error),
                "" if g.ci_low is None else repr(g.ci_low),
                "" if g.ci_high is None else repr(g.ci_high),
            ])


def gains_to_plot_json(results, path) -> None:
    """Plot-data JSON: one series per scenario with an optional CI band."""
    series = {}
    for g in results:
        point = {"year": g.year, "gain": g.gain}
        if g.standard_error is not None:
            point["se"] = g.standard_error
        if g.ci_low is not None:
            point["ci_low"] = g.ci_low
            point["ci_high"] = g.ci_high
        series.setdefault(g.scenario, []).append(point)
    payload = {"series": [{"scenario": label, "points": points}
                          for label, points in series.items()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
