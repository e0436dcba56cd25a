"""Simplex work of the pipeline at paper scale, by kind of pivot.

    PYTHONPATH=src python3 scripts/paper_sweep.py [--cities N]

Draws the CLI fixture's economy (``cli._FIXTURE``: 284 cities,
Cobb-Douglas .35/.45, wedge sigma .5, noise sigma .1, seed 7) with two
years, loads it with ``load_panel(base_year=2003)`` and runs the
pipeline with the four default scenarios (``perfect``, ``imperfect``,
``entry_exit``, ``local``): each year on its own, then one bootstrap
replicate over both years, the resample drawn from
``default_rng([1, 0])`` as ``gains.bootstrap_gain`` draws replicate 0
of seed 1.  It prints one JSON line per year and one for the
replicate.

Each line splits the frontier fits' simplex pivots by kind, read off
every ``SolveResult`` that ``cqr`` gets back:

- ``cold``: solves that started from a crash (``warm_started`` False),
  the crash's own dual pivots included;
- ``rounds``: warm solves with no dual pivot, the generation rounds
  after new columns;
- ``reentry_dual`` and ``reentry_primal``: warm solves with dual
  pivots, the re-entries after a new tau's bounds, split into the dual
  pivots and the primal clean-up after them.

It adds the fits' master solves, the planner's pivots and solves (its
branch-and-bound nodes summed per call), the objective of each tau's
fit, the gains and the wall time.  The counts repeat exactly from run
to run; the wall time drifts with the host, so compare it only between
runs made in one window.  ``--cities`` draws a smaller economy, for a
quick check that the tool runs.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

import cityalloc.cqr
import cityalloc.planner
from cityalloc import cli
from cityalloc.gains import run_pipeline
from cityalloc.panel import Panel, load_panel
from cityalloc.synth import generate, rows_to_csv


class Counts:
    """Pivots by kind over the solves made while it is installed."""

    def __init__(self):
        self.cqr = dict(cold=0, rounds=0, reentry_dual=0, reentry_primal=0, master_solves=0)
        self.planner = dict(pivots=0, solves=0)
        self.objectives = {}

    def _fit(self, solve):
        def counted(problem):
            res = solve(problem)
            c = self.cqr
            c["master_solves"] += 1
            if not res.warm_started:
                c["cold"] += res.iteration_count
            elif res.dual_iterations:
                c["reentry_dual"] += res.dual_iterations
                c["reentry_primal"] += res.iteration_count - res.dual_iterations
            else:
                c["rounds"] += res.iteration_count
            return res
        return counted

    def _planner(self, solve):
        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            self.planner["pivots"] += res.iteration_count
            self.planner["solves"] += 1
            return res
        return counted

    def _tau(self, fit):
        def recorded(*args, **kwargs):
            out = fit(*args, **kwargs)
            self.objectives[f"{out.year}:{out.tau:g}"] = out.objective
            return out
        return recorded

    def run(self, fn, *args):
        """fn(*args) with the counting wrappers in place at the sites
        where cqr and the planner look the solver up."""
        sites = [(cityalloc.cqr, "solve_lp", self._fit),
                 (cityalloc.cqr, "fit_cqr", self._tau),
                 (cityalloc.planner, "solve_lp", self._planner),
                 (cityalloc.planner, "solve_integer", self._planner)]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in sites]
        for mod, name, wrap in sites:
            setattr(mod, name, wrap(getattr(mod, name)))
        try:
            return fn(*args)
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)


def measure(label, panel, templates):
    """One JSON line: the pipeline on ``panel``, its pivots by kind and time."""
    counts = Counts()
    start = time.perf_counter()
    gains = counts.run(run_pipeline, panel, templates)
    wall = time.perf_counter() - start
    line = {"unit": label, "cities": panel.n_cities, **counts.cqr,
            "pivots": sum(v for k, v in counts.cqr.items() if k != "master_solves"),
            "planner_pivots": counts.planner["pivots"],
            "planner_solves": counts.planner["solves"],
            "wall_s": round(wall, 3), "objectives": counts.objectives,
            "gains": {f"{g.year}:{g.scenario}": g.gain for g in gains}}
    print(json.dumps(line), flush=True)


def year_panel(panel, year):
    t = panel.year_index(year)
    return Panel(panel.city_id, panel.years[t:t + 1], panel.y[:, t:t + 1],
                 {n: b[:, t:t + 1] for n, b in panel.inputs.items()})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--cities", type=int, default=cli._FIXTURE.city_count)
    args = p.parse_args(argv)
    spec = dataclasses.replace(cli._FIXTURE, city_count=args.cities, year_count=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        rows_to_csv(generate(spec)[0], path)
        panel = load_panel(path, base_year=2003)
    templates = cli.scenario_templates(cli.RunConfig())
    for year in panel.years:
        measure(int(year), year_panel(panel, year), templates)
    idx = np.random.default_rng([1, 0]).integers(0, panel.n_cities, panel.n_cities)
    measure("replicate", panel.select_cities(idx), templates)
    return 0


if __name__ == "__main__":
    sys.exit(main())
