"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), clears what an earlier round left in ``prepare``, runs one
round of calls into the program in ``run_round`` (timed), and checks a
round's outputs in ``check`` (not timed).  Every
call a round makes is one operation; ``check`` returns the problems per
operation.  ``digest`` reduces a round's outputs to exact values, so a
round whose digest equals an already checked round's needs no second
check: the solver is deterministic and the program must repeat itself.

``span(name, fn, *args)`` is how a round calls into the program: a
plain call when untraced, a recorded span when traced.
"""

import contextlib
import csv
import hashlib
import io
import os
import shutil
from dataclasses import dataclass

import numpy as np

import cityalloc.cli
import cityalloc.gains
import cityalloc.planner
from cityalloc.gains import BootstrapConfig, ScenarioTemplate
from cityalloc.panel import load_panel
from cityalloc.planner import DecileTechnology, PlannerScenario
from cityalloc.synth import SyntheticSpec, generate, rows_to_csv

from . import checks

# the economy of the program's synthetic fixture, at benchmark size
_EXPONENTS = (0.35, 0.45)
_WEDGE_SIGMA = 0.5
_NOISE_SIGMA = 0.1
# the default CLI frictions, applied to the imperfect scenario only
_ICEBERG = _DEPLETION = 0.05
_TAUS = tuple((2 * d - 1) / 20.0 for d in range(1, 11))


def _spec(cities, years, seed):
    return SyntheticSpec(city_count=cities, year_count=years, scale=1.0,
                         exponents=_EXPONENTS, wedge_sigma=_WEDGE_SIGMA,
                         noise_sigma=_NOISE_SIGMA, seed=seed)


def _quiet(fn, *args, **kwargs):
    """Call fn with the program's console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args, **kwargs)


def _unit_checks(year, x, y, cids, fits, labels, outputs, gain_of, fit_taus):
    """Checks shared by frontier and bootstrap for one estimation unit.

    fits: {tau: (alpha, beta)}; labels: the program's decile per city;
    outputs: {scenario: Y_e}; gain_of: {scenario: gain}; fit_taus: the
    taus whose fits are compared with the dense frontier LP.
    """
    problems = []
    for tau in fit_taus:
        problems += checks.check_fit(x, y, tau, *fits[tau],
                                     f"{year} tau={tau:g}")
    want = checks.decile_labels(x, y, cids, *fits[0.5])
    if not np.array_equal(want, labels):
        problems.append(f"{year}: decile labels differ from the median-fit ranking")
    order = np.argsort(want, kind="stable")
    dec = want[order]
    alpha_eff = [fits[_TAUS[d - 1]][0] for d in dec]
    beta_r = [fits[_TAUS[d - 1]][1] for d in dec]
    totals = x.sum(axis=0)
    setups = {
        "perfect": dict(weights=[1.0, 1.0]),
        "imperfect": dict(weights=[1.0 + _ICEBERG, 1.0 + _DEPLETION]),
        "local": dict(weights=[1.0, 1.0], local=True),
        "entry_exit": dict(weights=[1.0, 1.0], entry=True),
    }
    for label, kw in setups.items():
        want_out = checks.highs_output(alpha_eff, beta_r, dec, totals, **kw)
        problems += checks.check_output(outputs[label], want_out, f"{year} {label}")
        problems += checks.check_gain(gain_of[label], outputs[label], y.sum(),
                                      f"{year} {label}")
    problems += checks.check_order(gain_of, checks.DEFAULT_ORDER, str(year))
    return problems


class Frontier:
    """`cityalloc run` then `validate` through cli.main, in-process."""

    name = "frontier"
    ops_per_round = 2  # run, validate

    def __init__(self, seed, workdir, cities=40, years=6):
        self.seed = seed
        self.workdir = workdir
        self.spec = _spec(cities, years, seed)
        self.csv = os.path.join(workdir, "frontier_input.csv")

    def setup(self):
        self.rows, _ = generate(self.spec)
        rows_to_csv(self.rows, self.csv)

    def out_dir(self, k):
        return os.path.join(self.workdir, f"frontier_run{k}")

    def prepare(self, k):
        shutil.rmtree(self.out_dir(k), ignore_errors=True)

    def run_round(self, k, span):
        out = self.out_dir(k)
        rc_run = span("cli.run", _quiet, cityalloc.cli.main,
                      ["run", "--input", self.csv, "--out", out, "--jobs", "1"])
        rc_val = span("cli.validate", _quiet, cityalloc.cli.main,
                      ["validate", "--input", out])
        return rc_run, rc_val, out

    def digest(self, outputs):
        rc_run, rc_val, out = outputs
        h = hashlib.sha256(f"{rc_run} {rc_val}".encode())
        if os.path.isdir(out):
            # the manifest echoes the output path, which differs per round
            for name in sorted(os.listdir(out)):
                if name != "manifest.json":
                    with open(os.path.join(out, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
        return h.hexdigest()

    def check(self, outputs):
        rc_run, rc_val, out = outputs
        run_problems = [] if rc_run == 0 else [f"run exited {rc_run}"]
        val_problems = [] if rc_val == 0 else [f"validate exited {rc_val}"]
        if not run_problems:
            try:
                run_problems += self._check_run_dir(out)
            except (OSError, KeyError, ValueError) as exc:
                run_problems.append(f"unreadable run directory: {exc!r}")
        return [run_problems, val_problems]

    def _check_run_dir(self, out):
        def table(name):
            with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        fits = {}
        for r in table("fits.csv"):
            key = (int(r["year"]), round(float(r["tau"]), 6))
            fits.setdefault(key, []).append(
                (int(r["obs_index"]), float(r["alpha"]),
                 float(r["beta_1"]), float(r["beta_2"])))
        planes = {}
        for (year, tau), items in fits.items():
            items.sort()
            arr = np.array([it[1:] for it in items])
            planes.setdefault(year, {})[tau] = (arr[:, 0], arr[:, 1:])
        labels = {}
        for r in table("deciles.csv"):
            labels.setdefault(int(r["year"]), {})[r["city_id"]] = int(r["decile"])
        outputs = {(int(r["year"]), r["scenario"]): float(r["Y_e"])
                   for r in table("summary.csv")}
        gains = {(int(r["year"]), r["scenario"]): float(r["gain"])
                 for r in table("gains.csv")}

        problems = []
        observed = checks.observed_years(self.rows)
        first = min(observed)
        for year, (x, y, cids) in observed.items():
            taus = (_TAUS + (0.5,)) if year == first else ()
            lab = np.array([labels[year][c] for c in cids])
            out_y = {s: v for (yr, s), v in outputs.items() if yr == year}
            gain_y = {s: v for (yr, s), v in gains.items() if yr == year}
            problems += _unit_checks(year, x, y, cids, planes[year], lab,
                                     out_y, gain_y, taus)
        return problems


class Bootstrap:
    """gains.bootstrap_gain with a few replicates on a small panel, jobs=1.

    The panel is the same for every seed (the CLI fixture's generator
    seed); the seed draws the resamples.  With a seeded panel the point
    estimate and every replicate shared one data set's difficulty, and
    the LP work moved by about 12% between seeds.
    """

    name = "bootstrap"
    ops_per_round = 1
    PANEL_SEED = 7

    def __init__(self, seed, workdir, cities=30, years=2, replicates=4):
        self.seed = seed
        self.workdir = workdir
        self.spec = _spec(cities, years, self.PANEL_SEED)
        self.replicates = replicates
        self.csv = os.path.join(workdir, "bootstrap_input.csv")
        self.templates = (
            ScenarioTemplate("perfect"),
            ScenarioTemplate("imperfect", iceberg=_ICEBERG, depletion=_DEPLETION),
            ScenarioTemplate("entry_exit"),
            ScenarioTemplate("local"),
        )

    def setup(self):
        self.rows, _ = generate(self.spec)
        rows_to_csv(self.rows, self.csv)
        self.panel = load_panel(self.csv)

    def prepare(self, k):
        pass

    def run_round(self, k, span):
        audit = []
        config = BootstrapConfig(replicates=self.replicates, seed=self.seed)
        results = span("gains.bootstrap", cityalloc.gains.bootstrap_gain,
                       self.panel, self.templates, config, jobs=1, audit=audit)
        return results, audit

    def digest(self, outputs):
        results, _ = outputs
        return tuple((g.year, g.scenario, g.gain, g.standard_error,
                      g.ci_low, g.ci_high) for g in results)

    def check(self, outputs):
        results, audit = outputs
        problems = []
        for g in results:
            if not g.ci_low <= g.gain <= g.ci_high:
                problems.append(f"{g.year} {g.scenario}: interval misses the estimate")
            if not g.standard_error >= 0.0:
                problems.append(f"{g.year} {g.scenario}: negative standard error")
        observed = checks.observed_years(self.rows)
        by_year = {a.year: a for a in audit}
        for year, (x, y, cids) in observed.items():
            unit = by_year[year]
            fits = {round(f.tau, 6): (f.alpha, f.beta) for f in unit.fits}
            fits[0.5] = (unit.median_fit.alpha, unit.median_fit.beta)
            outputs_y = {s: sol.efficient_output for s, sol in unit.solutions.items()}
            gain_y = {g.scenario: g.gain for g in results if g.year == year}
            problems += _unit_checks(year, x, y, cids, fits,
                                     unit.assignment.decile, outputs_y, gain_y,
                                     _TAUS + (0.5,))
        return [problems]


@dataclass(frozen=True)
class _Case:
    label: str
    mode: str
    realloc: tuple | None   # None: every factor moves
    iceberg: float = 0.0
    depletion: float = 0.0


class Planner:
    """planner.solve_scenario on tangent-plane technologies, no CQR.

    Decile d's technology is the set of tangent planes of
    A_d K^.30 L^.35 H^.20 - F_d at fixed points, log-uniform per factor
    on [e^-1.5, e^2.5]: concave, with negative intercepts where the fixed
    cost F_d outweighs the curvature, so entry/exit has cities to close.
    The technologies do not depend on the seed; the seed draws each
    unit's pinned L and H per pseudo-city, so the LP work changes little
    from seed to seed.  A round solves every case on ``units`` draws.
    """

    name = "planner"
    _EXP = np.array([0.30, 0.35, 0.20])
    _NAMES = ("K", "L", "H")
    CASES = (
        _Case("perfect", "perfect", None),                     # aggregated
        _Case("perfect_K_L", "perfect", ("K", "L")),           # rows, H pinned
        _Case("imperfect_K_L", "imperfect", ("K", "L"), _ICEBERG, _DEPLETION),
        _Case("local", "local", None),                         # rows at 10 cities
        _Case("entry_exit", "entry_exit", None),               # counts MILP
        _Case("perfect_K", "perfect", ("K",)),                 # separable
    )
    ORDER = (("imperfect_K_L", "perfect_K_L"), ("perfect_K", "perfect_K_L"),
             ("perfect_K_L", "perfect"), ("local", "perfect"),
             ("perfect", "entry_exit"))
    TECH_SEED = 20241007
    FIXED_COST = 0.1                # F_d as a share of A_d
    LOG_POINTS = (-1.5, 2.5)        # tangent points: log-uniform per factor

    def __init__(self, seed, workdir, per_decile=10, planes=5, units=4):
        self.seed = seed
        self.workdir = workdir
        self.per_decile = per_decile
        self.planes = planes
        self.units = units
        self.ops_per_round = units * len(self.CASES)

    def setup(self):
        rng = np.random.default_rng(self.TECH_SEED)
        s = self._EXP.sum()
        techs = []
        for d in range(1, 11):
            scale = 0.6 + 0.08 * d
            pts = np.exp(rng.uniform(*self.LOG_POINTS, (self.planes, 3)))
            f = scale * np.prod(pts ** self._EXP, axis=1)
            beta = f[:, None] * self._EXP[None, :] / pts
            alpha = f * (1.0 - s) - self.FIXED_COST * scale
            techs.append(DecileTechnology(d, _TAUS[d - 1], alpha, beta,
                                          self.per_decile))
        self.techs = tuple(techs)
        n = 10 * self.per_decile
        rng = np.random.default_rng(self.seed)
        self.cases = []   # (unit, case, pinned, totals, scenario)
        for unit in range(self.units):
            labor = np.exp(rng.normal(0.0, 0.5, n))
            pinned = {"L": n * labor / labor.sum(),
                      "H": np.exp(rng.normal(0.0, 0.5, n))}
            totals = {"K": float(n), "L": float(n), "H": float(pinned["H"].sum())}
            for case in self.CASES:
                moving = self._NAMES if case.realloc is None else case.realloc
                fixed = {f: pinned[f] for f in self._NAMES if f not in moving} or None
                scn = PlannerScenario(
                    2003 + unit, case.mode, self.techs, self._NAMES,
                    {f: totals[f] for f in moving},
                    reallocated_factors=case.realloc, iceberg=case.iceberg,
                    depletion=case.depletion, fixed_input_values=fixed)
                self.cases.append((unit, case, pinned, totals, scn))

    def prepare(self, k):
        pass

    def run_round(self, k, span):
        results = []
        for _, _, _, _, scn in self.cases:
            try:
                # looked up per call so a traced run sees its wrapper
                results.append(cityalloc.planner.solve_scenario(scn))
            except Exception as exc:  # one failed operation, the round goes on
                results.append(exc)
        return results

    def digest(self, outputs):
        return tuple(repr(s) if isinstance(s, Exception) else
                     (s.efficient_output, s.inputs.tobytes(), s.output.tobytes(),
                      s.active.tobytes())
                     for s in outputs)

    def check(self, outputs):
        per_op = []
        values = {}
        for (unit, case, pinned, totals, scn), sol in zip(self.cases, outputs):
            label = f"{scn.year} {case.label}"
            if isinstance(sol, Exception):
                per_op.append([f"{label}: {sol!r}"])
                continue
            values.setdefault(unit, {})[case.label] = sol.efficient_output
            per_op.append(self._check_solution(label, scn, pinned, totals, sol))
        for unit, vals in values.items():
            order = checks.check_order(vals, self.ORDER, f"unit {unit}")
            if order:
                per_op[unit * len(self.CASES)] += order
        return per_op

    def _check_solution(self, label, scn, pinned, all_totals, sol):
        problems = []
        names = list(self._NAMES)
        moving = [names.index(f) for f in scn.reallocated_factors]
        fixed = [j for j in range(3) if j not in moving]
        weights = np.array([1.0 + scn.friction(names[j]) for j in moving])
        totals = np.array([all_totals[names[j]] for j in moving])
        n = 10 * self.per_decile
        decile = np.repeat(np.arange(1, 11), self.per_decile)
        tech = [self.techs[d - 1] for d in decile]
        alpha_eff = [t.alpha + t.beta[:, fixed] @ np.array(
            [pinned[names[j]][i] for j in fixed]) for i, t in enumerate(tech)]
        beta_r = [t.beta[:, moving] for t in tech]
        x = sol.inputs[:, moving]
        for j in fixed:
            if not np.array_equal(sol.inputs[:, j], pinned[names[j]]):
                problems.append(f"{label}: pinned factor {names[j]} moved")
        active = sol.active.astype(bool)
        env = np.array([np.min(alpha_eff[i] + beta_r[i] @ x[i]) for i in range(n)])
        slack = 1e-6 * (1.0 + np.abs(sol.output).max())
        if np.any(sol.output[active] > env[active] + slack):
            problems.append(f"{label}: output above the recomputed envelope")
        if np.any(np.abs(sol.output[~active]) > slack) or np.any(x[~active] != 0.0):
            problems.append(f"{label}: an idle pseudo-city holds resources")
        if (x < 0.0).any():
            problems.append(f"{label}: negative allocation")
        loads = x * weights[None, :]
        caps = totals * (1.0 + 1e-9)
        if scn.is_local:
            for d in range(1, 11):
                if np.any(loads[decile == d].sum(axis=0) > caps / 10.0):
                    problems.append(f"{label}: decile {d} over its tenth")
        elif np.any(loads.sum(axis=0) > caps):
            problems.append(f"{label}: resource row violated")
        if abs(sol.output.sum() - sol.efficient_output) > 1e-9 * abs(sol.efficient_output):
            problems.append(f"{label}: Y_e is not the sum of city outputs")
        want = checks.highs_output(alpha_eff, beta_r, decile, totals, weights,
                                   local=scn.is_local, entry=scn.is_entry_exit)
        problems += checks.check_output(sol.efficient_output, want, label)
        return problems


WORKLOADS = {w.name: w for w in (Frontier, Bootstrap, Planner)}
