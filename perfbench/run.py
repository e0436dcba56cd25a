"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
The run repeats whole rounds of the workload until ``--seconds`` have
passed (at least one round), then checks each round's outputs against
references computed apart from the program.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced rounds alternate and the metrics
are the per-layer ones, plus the tracing overhead, and the spans are
written to a trace file.
"""

import os

# one thread per BLAS pool: the run is one process (jobs=1), and BLAS
# threads would compete with it for the host's two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 5
# what a user's process imports before the first call into the program
_IMPORTS = "import numpy, scipy.sparse, cityalloc, cityalloc.cli"

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cityalloc", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench import trace, workloads
    return trace, workloads


def _import_seconds():
    """Median import time of the program in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); " + _IMPORTS
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _setup_seconds(workload):
    """Imports plus the median of repeated input builds (the last one is kept)."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - t0)
    return _import_seconds() + statistics.median(builds)


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _rounds(workload, seconds, with_trace, trace):
    """Run whole rounds, at least one, until `seconds` have passed.

    Untraced rounds count LP work; with tracing, untraced and traced
    rounds alternate and each traced round keeps its own tracer.
    Returns [(traced, wall_s, tracer or counter, outputs or exception)].
    """
    done = []
    t_start = time.perf_counter()
    k = 0
    # a traced run ends on a traced round, so each untraced one has a pair
    while (not done or time.perf_counter() - t_start < seconds
           or (with_trace and k % 2 == 1)):
        traced = bool(with_trace) and k % 2 == 1
        workload.prepare(k)
        probe = trace.Tracer() if traced else trace.Counter()
        span = probe.span if traced else _plain
        with probe.installed():
            t0 = time.perf_counter()
            try:
                outputs = workload.run_round(k, span)
            except Exception as exc:  # the round's operations all failed
                traceback.print_exc(file=sys.stderr)
                outputs = exc
            t1 = time.perf_counter()
        done.append((traced, t1 - t0, probe, outputs))
        k += 1
    return done


def _check_rounds(workload, done):
    """Failed operations per round; equal digests share one verdict."""
    verdicts = {}
    failed = 0
    for k, (_, _, _, outputs) in enumerate(done):
        if isinstance(outputs, Exception):
            failed += workload.ops_per_round
            continue
        key = workload.digest(outputs)
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(outputs)
            except Exception:  # a check that cannot run is a failed check
                traceback.print_exc(file=sys.stderr)
                verdicts[key] = [["check raised"]] * workload.ops_per_round
            for problems in verdicts[key]:
                for p in problems[:10]:
                    print(f"perfbench: round {k}: {p}", file=sys.stderr)
        failed += sum(1 for problems in verdicts[key] if problems)
    return failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse(argv)
    trace, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup_s = _setup_seconds(workload)
    done = _rounds(workload, args.seconds, args.trace, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = _check_rounds(workload, done)

    plain = [d for d in done if not d[0]]
    iters = {d[2].iters for d in plain}
    correct = failed == 0 and len(iters) == 1  # LP work repeats exactly
    if len(iters) != 1:
        print(f"perfbench: simplex iterations differ between rounds: {sorted(iters)}",
              file=sys.stderr)
    lp_iters = plain[0][2].iters
    run_s = statistics.median(d[1] for d in plain)
    print(f"perfbench: {args.workload} seed {args.seed}: rounds "
          + " ".join(f"{d[1]:.3f}{'t' if d[0] else ''}" for d in done)
          + f" s; run_s {run_s:.3f} s; setup_s {setup_s:.3f} s", file=sys.stderr)

    if args.trace:
        traced = [d for d in done if d[0]]
        layers = [trace.layer_metrics(d[2].spans) for d in traced]
        metrics = {name: _metric(statistics.median(lm[name] for lm in layers), unit)
                   for name, unit in trace.LAYER_UNITS.items()}
        overhead = statistics.median(d[1] for d in traced) - run_s
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        for lm in layers:
            if lm["solver.lp_iters"] != lp_iters:
                correct = False
                print(f"perfbench: traced iterations {lm['solver.lp_iters']} "
                      f"!= untraced {lp_iters}", file=sys.stderr)
        traced[-1][2].write(os.path.join(
            ROOT, RUNS_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            "run_s": _metric(run_s, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
            "lp_iters": _metric(lp_iters, "count"),
        }
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": len(done) * workload.ops_per_round,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
