"""Counting and tracing wrappers around the program's layer boundaries.

Each wrapper replaces a public function under the name its caller looks
it up by (``cityalloc.cqr.solve_lp``, not only ``cityalloc.solver.solve_lp``),
so no code under ``src/`` changes.  Patches are undone on exit.

``Counter`` adds one Python call per LP solve and sums
``SolveResult.iteration_count``; it runs in every measured round.
``Tracer`` records a span (name, start, end, parent) at every boundary,
keeps the spans in memory and reduces them to per-layer self times and
counts.
"""

import contextlib
import json
import time

import cityalloc.cli
import cityalloc.cqr
import cityalloc.gains
import cityalloc.planner
import cityalloc.solver

# Every module attribute through which an LP solve is reached.  solve_integer
# and solve_milp look solve_lp up in cityalloc.solver, so branch-and-bound
# nodes are counted one solve each.
LP_SITES = (
    (cityalloc.solver, "solve_lp"),
    (cityalloc.cqr, "solve_lp"),
    (cityalloc.planner, "solve_lp"),
)

# (span name, module, attribute) for every traced boundary besides LP solves.
LAYER_SITES = (
    ("solver.integer", cityalloc.planner, "solve_integer"),
    ("solver.integer", cityalloc.planner, "solve_milp"),
    ("cqr.fit", cityalloc.cqr, "fit_cqr"),
    ("cqr.fit", cityalloc.gains, "fit_cqr"),
    ("planner.solve", cityalloc.gains, "solve_scenario"),
    ("planner.solve", cityalloc.planner, "solve_scenario"),
    ("gains.unit", cityalloc.gains, "_run_unit"),
    ("gains.replicate", cityalloc.gains, "_replicate_entry"),
    ("panel.load", cityalloc.cli, "load_panel"),
    ("cli.write", cityalloc.cli, "panel_to_csv"),
    ("cli.write", cityalloc.cli, "gains_to_csv"),
    ("cli.write", cityalloc.cli, "_write_estimates"),
    ("cli.write", cityalloc.cli, "_write_solutions"),
    ("cli.write", cityalloc.cli, "_write_plots"),
)


@contextlib.contextmanager
def _patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Counter:
    """LP solves and simplex iterations summed over every solve_lp call."""

    def __init__(self):
        self.solves = 0
        self.iters = 0

    def installed(self):
        original = cityalloc.solver.solve_lp

        def counted(*args, **kwargs):
            res = original(*args, **kwargs)
            self.solves += 1
            self.iters += res.iteration_count
            return res

        return _patched([(mod, attr, counted) for mod, attr in LP_SITES])


class Tracer:
    """In-memory spans at the layer boundaries.

    A span is [name, start, end, parent, iterations]; parent is the index
    of the enclosing span or -1, iterations is set on LP solves only.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        idx = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, 0]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            res = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()
        if name == "solver.lp":
            record[4] = res.iteration_count
        return res

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def installed(self):
        reps = [(mod, attr, self._wrap("solver.lp", cityalloc.solver.solve_lp))
                for mod, attr in LP_SITES]
        reps += [(mod, attr, self._wrap(name, getattr(mod, attr)))
                 for name, mod, attr in LAYER_SITES]
        return _patched(reps)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, iters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "iters": iters}) + "\n")


# units of the metrics layer_metrics returns
LAYER_UNITS = {
    "panel.load_s": "s", "cqr.fit_s": "s", "cqr.lp_solves": "count",
    "cqr.lp_iters": "count", "solver.lp_s": "s", "solver.lp_solves": "count",
    "solver.lp_iters": "count", "solver.us_per_iter": "us",
    "solver.ms_per_solve": "ms", "solver.bb_nodes": "count",
    "planner.solve_s": "s", "planner.lp_solves": "count",
    "planner.lp_iters": "count", "gains.replicate_s": "s", "gains.self_s": "s",
    "cli.write_s": "s", "cli.validate_s": "s",
}


def layer_metrics(spans):
    """Per-layer self times (s) and counts from one round's spans.

    A span's self time is its duration minus the durations of its direct
    children.  LP solves are attributed to the nearest enclosing cqr.fit
    or planner.solve span; solves under solver.integer are B&B nodes.
    """
    self_time = {}
    for name, start, end, _, _ in spans:
        self_time[name] = self_time.get(name, 0.0) + (end - start)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            pname = spans[parent][0]
            self_time[pname] -= end - start

    def owner(idx):
        while idx >= 0:
            if spans[idx][0] in ("cqr.fit", "planner.solve"):
                return spans[idx][0]
            idx = spans[idx][3]
        return None

    counts = {"cqr": [0, 0], "planner": [0, 0]}
    solves = iters = bb_nodes = 0
    for name, _, _, parent, it in spans:
        if name != "solver.lp":
            continue
        solves += 1
        iters += it
        if parent >= 0 and spans[parent][0] == "solver.integer":
            bb_nodes += 1
        who = owner(parent)
        if who is not None:
            layer = counts[who.split(".")[0]]
            layer[0] += 1
            layer[1] += it
    replicates = [end - start for name, start, end, _, _ in spans
                  if name == "gains.replicate"]
    lp_s = self_time.get("solver.lp", 0.0)
    get = self_time.get
    return {
        "panel.load_s": get("panel.load", 0.0),
        "cqr.fit_s": get("cqr.fit", 0.0),
        "cqr.lp_solves": counts["cqr"][0],
        "cqr.lp_iters": counts["cqr"][1],
        "solver.lp_s": lp_s,
        "solver.lp_solves": solves,
        "solver.lp_iters": iters,
        "solver.us_per_iter": 1e6 * lp_s / iters if iters else 0.0,
        "solver.ms_per_solve": 1e3 * lp_s / solves if solves else 0.0,
        "solver.bb_nodes": bb_nodes,
        "planner.solve_s": get("planner.solve", 0.0),
        "planner.lp_solves": counts["planner"][0],
        "planner.lp_iters": counts["planner"][1],
        "gains.replicate_s": (sum(replicates) / len(replicates)
                              if replicates else 0.0),
        "gains.self_s": sum((v for k, v in self_time.items()
                             if k.startswith("gains.")), 0.0),
        "cli.write_s": get("cli.write", 0.0),
        "cli.validate_s": get("cli.validate", 0.0),
    }
