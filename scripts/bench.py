"""Run benchmark workloads and append tagged entries to BENCH_<tag>.json.

    python3 scripts/bench.py --tag persistent_master --workloads frontier,bootstrap,planner \
        --seeds 1,2,3 [--checkout DIR] [--seconds 10] [--trace]

Each (workload, seed) runs ``python3 perfbench/run.py`` once in the
checkout (default: this repository) and appends one entry to
``BENCH_<tag>.json`` at the root of this repository: the tag, the
checkout's commit and whether its tree had uncommitted changes, the
workload, the seed, ``lp_iters``, ``run_s``, ``setup_s``,
``peak_rss_mb``, ``correct`` and ``failed``.  With ``--trace`` a second,
traced run adds per-layer counts (``solver.lp_solves``,
``solver.ms_per_solve``, ``solver.us_per_iter``, ``solver.bb_nodes``,
``cqr.lp_solves``, ``cqr.lp_iters``, ``planner.lp_solves``,
``planner.lp_iters``), so an entry shows which layer a change of
``lp_iters`` sits in, and ``correct`` and ``failed`` cover both runs.
``lp_iters`` and the solve counts repeat value for value and are the
figures to compare; wall times and memory are reported as measured on
the host that ran them.  The run ends with one summary line per
workload: the sum, mean, min and max ``lp_iters`` over the seeds it
ran, since vertex choice alone moves one seed by several percent; the
sum is the figure to quote for a before/after pair of runs.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("lp_iters", "run_s", "setup_s", "peak_rss_mb")
LAYERS = ("solver.lp_solves", "solver.ms_per_solve", "solver.us_per_iter", "solver.bb_nodes",
          "cqr.lp_solves", "cqr.lp_iters", "planner.lp_solves", "planner.lp_iters")


def _git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _perfbench(checkout, workload, seed, seconds, trace):
    """The result line of one perfbench run in `checkout`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_entry(tag, checkout, workload, seed, seconds, trace=False):
    """One perfbench run in `checkout`, plus a traced one with `trace`,
    reduced to a BENCH entry."""
    result = _perfbench(checkout, workload, seed, seconds, 0)
    entry = {"tag": tag, "commit": _git(checkout, "rev-parse", "HEAD"),
             "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
             "workload": workload, "seed": seed}
    entry.update({m: result["metrics"][m]["value"] for m in METRICS})
    entry.update(correct=result["correct"], failed=result["failed"])
    if trace:
        traced = _perfbench(checkout, workload, seed, seconds, 1)
        entry.update({m: traced["metrics"][m]["value"] for m in LAYERS})
        entry.update(correct=entry["correct"] and traced["correct"],
                     failed=entry["failed"] + traced["failed"])
    return entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--workloads", default="frontier,bootstrap,planner")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--checkout", default=ROOT)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true",
                   help="add per-layer counts from a second, traced run")
    args = p.parse_args(argv)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    seeds = [int(s) for s in args.seeds.split(",")]
    iters = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            entry = run_entry(args.tag, os.path.abspath(args.checkout), workload,
                              seed, args.seconds, args.trace)
            entries.append(entry)
            iters.setdefault(workload, []).append(entry["lp_iters"])
            print(json.dumps(entry))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entries, fh, indent=1)
                fh.write("\n")
    for workload, values in iters.items():
        print(json.dumps({"workload": workload, "seeds": seeds,
                          "lp_iters_sum": sum(values),
                          "lp_iters_mean": sum(values) / len(values),
                          "lp_iters_min": min(values), "lp_iters_max": max(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
