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

Each line reads from the audit (``run_pipeline(..., audit=[])``) the
frontier fits' master solves and pivots by kind, as ``cqr.FitWork``
splits them (cold, generation rounds, re-entry dual pivots and their
primal clean-up), the planner's pivots and solves (each
``AllocationSolution``'s ``iteration_count`` and ``solve_count``,
branch-and-bound nodes included), the objective of each tau's fit, the
gains and the wall time.  The counts repeat exactly from run
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

from cityalloc import cli
from cityalloc.cqr import FitWork
from cityalloc.gains import run_pipeline
from cityalloc.panel import Panel, load_panel
from cityalloc.synth import generate, rows_to_csv


def measure(label, panel, templates):
    """One JSON line: the pipeline on ``panel``, its pivots by kind and time."""
    audit = []
    start = time.perf_counter()
    gains = run_pipeline(panel, templates, audit=audit)
    wall = time.perf_counter() - start
    fits = [f for a in audit for f in sorted(a.fits + (a.median_fit,), key=lambda f: -f.tau)]
    work = FitWork(*map(sum, zip(*(f.work for f in fits))))
    solutions = [s for a in audit for s in a.solutions.values()]
    line = {"unit": label, "cities": panel.n_cities, **work._asdict(), "pivots": work.pivots,
            "planner_pivots": sum(s.iteration_count for s in solutions),
            "planner_solves": sum(s.solve_count for s in solutions),
            "wall_s": round(wall, 3),
            "objectives": {f"{f.year}:{f.tau:g}": f.objective for f in fits},
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
