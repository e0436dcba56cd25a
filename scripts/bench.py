"""Run benchmark workloads and append tagged entries to BENCH_<tag>.json.

    python3 scripts/bench.py --tag tau_carry --workloads frontier,bootstrap,planner \
        --seeds 1,2,3 [--checkout DIR] [--seconds 10]

Each (workload, seed) runs ``python3 perfbench/run.py`` once in the
checkout (default: this repository) and appends one entry to
``BENCH_<tag>.json`` at the root of this repository: the tag, the
checkout's commit and whether its tree had uncommitted changes, the
workload, the seed, ``lp_iters``, ``run_s``, ``setup_s``,
``peak_rss_mb``, ``correct`` and ``failed``.  ``lp_iters`` repeats
value for value and is the figure to compare; wall times and memory
are reported as measured on the host that ran them.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("lp_iters", "run_s", "setup_s", "peak_rss_mb")


def _git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_entry(tag, checkout, workload, seed, seconds):
    """One perfbench run in `checkout`, reduced to a BENCH entry."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    entry = {"tag": tag, "commit": _git(checkout, "rev-parse", "HEAD"),
             "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
             "workload": workload, "seed": seed}
    entry.update({m: result["metrics"][m]["value"] for m in METRICS})
    entry.update(correct=result["correct"], failed=result["failed"])
    return entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--workloads", default="frontier,bootstrap,planner")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--checkout", default=ROOT)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            entry = run_entry(args.tag, os.path.abspath(args.checkout), workload,
                              seed, args.seconds)
            entries.append(entry)
            print(json.dumps(entry))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entries, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
