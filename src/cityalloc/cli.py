"""Command-line entry point.

Commands: ingest, estimate, run, synth, validate. Each pipeline command
writes its tables (ingest the panel, estimate the fits and deciles too,
run all) and a manifest.json over them, which ``validate`` checks.
Global flags: --input, --out, --seed, --jobs, --config. Values resolve
as explicit flags over config-file entries over built-in defaults; the
config file is plain ``key = value`` text with # comments. The decile
grid (``cqr.DEFAULT_QUANTILES``, plus the median) and the LP tolerance
(``solver.LP_TOLERANCE``) are fixed, not options.

Exit codes: 0 success, 2 validation failure, 3 solver failure,
4 I/O failure. Artifacts are staged in a temporary directory and moved
into --out only when the whole command succeeds, so a failed run leaves
no partial outputs.

The CLI owns the run directory: its file names, and the one format of
its tables (``_write_csv``): floats as their repr, None as an empty
cell, csv quoting where a cell needs it, LF line ends. ``validate``
reads the same tables back. Each ``allocations_*.csv`` is one optimal
vertex, the one the simplex reached: where the planner's LP has an
optimal face, another vertex at the same Y_e is as optimal. Under
--crs, ``allocations_entry_exit.csv``'s ``b`` is the solver's pick among
tied optima too: an active pseudo-city with no inputs produces nothing.
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .cqr import DEFAULT_QUANTILES, N_DECILES, DecileAssignment, QuantileFit
from .gains import (
    BootstrapConfig,
    EstimationSettings,
    GainError,
    GainResult,
    ScenarioTemplate,
    bootstrap_gain,
    estimation_units,
    order_problems,
    plot_payloads,
    run_pipeline,
    unit_scenario,
    unit_technologies,
)
from .panel import CAPITAL_VARIANTS, CapitalRule, Panel, load_panel
from .planner import ENTRY_MODES, certify
from .solver import LP_TOLERANCE, SolverError
from .synth import SyntheticSpec, generate, rows_to_csv, truth_to_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_REFERENCE_REPLICATES = 1000
_SYNTHETIC_PANEL = "synthetic_panel.csv"

# --synthetic default and the synth command defaults are the same economy
_FIXTURE = SyntheticSpec(city_count=284, year_count=17, scale=1.0,
                         exponents=(0.35, 0.45), wedge_sigma=0.5,
                         noise_sigma=0.1, seed=7)

_AFRIAT_TOL = 1e-6  # floor of the concavity slack, 1e-12 of max|y| above it


@dataclass(frozen=True)
class RunConfig:
    """Resolved CLI configuration; defaults mirror the reference setup."""

    input: str | None = None
    out: str | None = None
    synthetic: str | None = None
    base_year: int = 2003
    capital_rule: str = "baseline"
    crs: bool = False
    scenarios: tuple = ("perfect", "imperfect", "entry_exit", "local")
    iceberg: float = 0.05
    depletion: float = 0.05
    inputs: tuple = ("K", "L")
    fixed_effects: bool = False
    bootstrap: int = 0
    seed: int = 7
    jobs: int = 0

    def __post_init__(self):
        if self.capital_rule not in CAPITAL_VARIANTS:
            raise ValueError(f"unknown capital rule {self.capital_rule!r}")
        ins = tuple(str(f) for f in self.inputs)
        if ins[:2] != ("K", "L") or len(set(ins)) != len(ins) \
                or any(f not in ("K", "L", "H", "D") for f in ins):
            raise ValueError("inputs must be K,L optionally followed by H and/or D")
        object.__setattr__(self, "inputs", ins)
        for name in ("iceberg", "depletion"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)
        for name in ("base_year", "bootstrap", "seed", "jobs"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.bootstrap < 0:
            raise ValueError("bootstrap replicates cannot be negative")
        if self.jobs < 0:
            raise ValueError("jobs cannot be negative")
        object.__setattr__(self, "scenarios",
                           tuple(str(s) for s in self.scenarios))
        if not self.scenarios:
            raise ValueError("at least one scenario is required")

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    @property
    def estimation(self) -> EstimationSettings:
        return EstimationSettings(self.fixed_effects, self.crs)


def scenario_templates(config: RunConfig) -> list:
    """Expand the scenario list into templates.

    Each entry is ``mode``, or ``mode:F`` / ``mode:F+G`` to reallocate
    only the named factors; the suffix is the one way to restrict them,
    and entry modes reallocate every factor. Frictions attach to the
    imperfect mode only.
    """
    templates = []
    for item in config.scenarios:
        mode, _, suffix = item.partition(":")
        factors = tuple(suffix.split("+")) if suffix else None
        if factors is not None:
            bad = [f for f in factors if f not in config.inputs]
            if bad:
                raise ValueError(f"scenario {item!r} reallocates unknown factor {bad[0]!r}")
            if set(factors) == set(config.inputs):
                factors = None
        if mode in ENTRY_MODES and factors is not None:
            raise ValueError(f"{mode} requires every factor to be reallocated")
        frictions = {"iceberg": config.iceberg, "depletion": config.depletion} \
            if mode == "imperfect" else {}
        templates.append(ScenarioTemplate(mode, reallocated_factors=factors,
                                          **frictions))
    return templates


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_tuple(text):
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


_FIELD_PARSERS = {
    "input": str, "out": str, "synthetic": str, "capital_rule": str,
    "base_year": int, "bootstrap": int, "seed": int, "jobs": int,
    "iceberg": float, "depletion": float,
    "crs": _parse_bool, "fixed_effects": _parse_bool,
    "scenarios": _parse_tuple, "inputs": _parse_tuple,
}


def _read_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input panel CSV (or run directory for validate)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--jobs", type=int, help="worker processes (0 = all cores)")
    common.add_argument("--config", help="key = value config file")

    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--synthetic", metavar="PRESET",
                          help="generate the input panel ('default' = synth defaults)")
    pipeline.add_argument("--base-year", type=int)
    pipeline.add_argument("--capital-rule", choices=sorted(CAPITAL_VARIANTS))
    pipeline.add_argument("--crs", action=argparse.BooleanOptionalAction,
                          default=None, help="constant returns to scale")
    pipeline.add_argument("--scenarios", type=_parse_tuple,
                          metavar="MODE[:F+G],...",
                          help="scenarios to solve; a :F+G suffix is the one way "
                               "to reallocate only factors F and G")
    pipeline.add_argument("--iceberg", type=float, metavar="LAMBDA")
    pipeline.add_argument("--depletion", type=float, metavar="KAPPA")
    pipeline.add_argument("--inputs", type=_parse_tuple, metavar="K,L[,H][,D]")
    pipeline.add_argument("--fixed-effects", action=argparse.BooleanOptionalAction,
                          default=None)
    pipeline.add_argument("--bootstrap", type=int, nargs="?",
                          const=100, metavar="N",
                          help="bootstrap replicates (bare flag: 100)")

    parser = argparse.ArgumentParser(
        prog="cityalloc",
        description="Quantile production frontiers and planner reallocation gains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common, pipeline],
                   help="build and echo the constructed panel")
    sub.add_parser("estimate", parents=[common, pipeline],
                   help="fit quantile frontiers and rank deciles")
    sub.add_parser("run", parents=[common, pipeline],
                   help="full pipeline with plot data and manifest")
    synth = sub.add_parser("synth", parents=[common],
                           help="generate a synthetic economy fixture")
    synth.add_argument("--cities", type=int, default=_FIXTURE.city_count)
    synth.add_argument("--years", type=int, default=_FIXTURE.year_count)
    synth.add_argument("--scale", type=float, default=_FIXTURE.scale)
    synth.add_argument("--exponents",
                       type=lambda t: tuple(float(v) for v in _parse_tuple(t)),
                       default=_FIXTURE.exponents, metavar="A1,A2")
    synth.add_argument("--wedge-sigma", type=float, default=_FIXTURE.wedge_sigma)
    synth.add_argument("--noise-sigma", type=float, default=_FIXTURE.noise_sigma)
    sub.add_parser("validate", parents=[common],
                   help="re-check invariants of a completed run directory")
    return parser


def _make_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for field in fields(RunConfig):
        given = getattr(args, field.name, None)
        if given is not None:
            values[field.name] = given
    return RunConfig(**values)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require_out(config) -> str:
    if not config.out:
        raise ValueError("an --out directory is required")
    return config.out


@contextlib.contextmanager
def _staged_outputs(out_dir):
    """Yield a staging directory whose files move into out_dir on success."""
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        yield staging
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _resolve_input(config):
    """The --input path, or None when the panel is the synthetic preset."""
    if config.synthetic is not None:
        if config.synthetic != "default":
            raise ValueError(f"unknown synthetic preset {config.synthetic!r}")
        if config.input:
            raise ValueError("--input and --synthetic are mutually exclusive")
        return None
    if not config.input:
        raise ValueError("an --input panel is required (or --synthetic default)")
    return config.input


def _write_csv(path, header, rows):
    """Write one run-directory table: floats as their repr, None as an
    empty cell, anything else as text, quoted where csv needs it, LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float)
                          else "" if v is None else str(v) for v in row]
                         for row in rows)


def panel_to_csv(panel: Panel, path):
    """Echo the constructed panel: city_id,year,y,K,L[,H,D]."""
    names = panel.input_names
    _write_csv(path, ["city_id", "year", "y", *names],
               ([cid, int(yr), panel.y[i, t], *(panel.inputs[n][i, t] for n in names)]
                for i, cid in enumerate(panel.city_id)
                for t, yr in enumerate(panel.years)))


def fits_to_csv(fits, path):
    """Write fitted planes, one row per (year, tau, observation).

    Header: year,tau,obs_index,alpha,beta_1..beta_d,eps_plus,eps_minus.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to write")
    d = fits[0].n_inputs
    if any(f.n_inputs != d for f in fits):
        raise ValueError("fits mix input dimensions")
    header = ["year", "tau", "obs_index", "alpha",
              *(f"beta_{k + 1}" for k in range(d)), "eps_plus", "eps_minus"]
    _write_csv(path, header,
               ([fit.year, fit.tau, i, a, *b, ep, em]
                for fit in fits
                for i, (a, b, ep, em) in enumerate(zip(
                    fit.alpha.tolist(), fit.beta.tolist(),
                    fit.eps_plus.tolist(), fit.eps_minus.tolist()))))


def fits_from_csv(path):
    """Reload fits written by fits_to_csv, grouped by (year, tau).

    Objectives are rebuilt from the residual columns. A blank cell reads
    as NaN.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = [nm.strip() for nm in next(reader, [])]
        table = np.array([[float(c) if c.strip() else math.nan for c in row]
                          for row in reader if row], dtype=float).reshape(-1, len(names))
    col = {nm: table[:, k] for k, nm in enumerate(names)}
    d = sum(1 for nm in names if nm.startswith("beta_"))
    if d == 0:
        raise ValueError("no beta columns found")
    # rows grouped by (year, tau), each group in observation order
    order = np.lexsort((col["obs_index"], col["tau"], col["year"]))
    col = {nm: v[order] for nm, v in col.items()}
    year, tau = col["year"], col["tau"]
    first = np.ones(year.size, dtype=bool)
    first[1:] = (year[1:] != year[:-1]) | (tau[1:] != tau[:-1])
    starts = np.flatnonzero(first)
    fits = []
    for a, b in zip(starts, np.r_[starts[1:], year.size]):
        ep, em = col["eps_plus"][a:b], col["eps_minus"][a:b]
        fits.append(QuantileFit(
            year=int(year[a]),
            tau=float(tau[a]),
            alpha=col["alpha"][a:b],
            beta=np.column_stack([col[f"beta_{f + 1}"][a:b] for f in range(d)]),
            eps_plus=ep,
            eps_minus=em,
            objective=float(tau[a] * ep.sum() + (1 - tau[a]) * em.sum()),
        ))
    return fits


def gains_to_csv(results, path) -> None:
    """Gain series: year,scenario,gain,se,ci_low,ci_high (year 0 = pooled)."""
    _write_csv(path, ["year", "scenario", "gain", "se", "ci_low", "ci_high"],
               ([g.year, g.scenario, g.gain, g.standard_error, g.ci_low, g.ci_high]
                for g in results))


def _write_estimates(audits, staging):
    flat = []
    for a in audits:
        flat.extend(sorted(a.fits + (a.median_fit,), key=lambda f: f.tau))
    fits_to_csv(flat, os.path.join(staging, "fits.csv"))
    _write_csv(os.path.join(staging, "deciles.csv"), ["year", "city_id", "decile", "score"],
               ([a.year, cid, int(dec), score]
                for a in audits
                for cid, dec, score in zip(a.assignment.city_id, a.assignment.decile,
                                           a.assignment.score)))


def _write_solutions(audits, templates, staging):
    """allocations_<label>.csv per template: one row per pseudo-city, with
    b, one lowercase column per factor, then y; and summary.csv, one
    Y_e row per unit and template."""
    names = [f.lower() for f in audits[0].solutions[templates[0].label].factor_names]
    for t in templates:
        _write_csv(os.path.join(staging, f"allocations_{t.label}.csv"),
                   ["year", "scenario", "decile", "pseudo_city", "b", *names, "y"],
                   ([s.year, t.label, int(d), int(c), int(b), *x, y]
                    for s in (a.solutions[t.label] for a in audits)
                    for d, c, b, x, y in zip(s.decile.tolist(), s.pseudo_city.tolist(),
                                             s.active.tolist(), s.inputs.tolist(),
                                             s.output.tolist())))
    _write_csv(os.path.join(staging, "summary.csv"), ["year", "scenario", "Y_e"],
               ([a.solutions[t.label].year, t.label, a.solutions[t.label].efficient_output]
                for a in audits for t in templates))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plots(gains, templates, staging):
    for name, payload in plot_payloads(gains, templates).items():
        path = os.path.join(staging, name)
        if isinstance(payload, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            _write_json(path, payload)


def _config_echo(config) -> dict:
    echo = asdict(config)
    for key, value in echo.items():
        if isinstance(value, tuple):
            echo[key] = list(value)
    return echo


def _config_from_echo(echo) -> RunConfig:
    """The RunConfig a manifest's config echo records. Older manifests
    echo ``quantiles`` and ``tolerance`` too, which must be the fixed
    decile grid and LP tolerance."""
    echo = dict(echo)
    for key, fixed in (("quantiles", DEFAULT_QUANTILES.tolist()), ("tolerance", LP_TOLERANCE)):
        if key in echo and echo.pop(key) != fixed:
            raise ValueError(f"manifest config: {key} is not the fixed {fixed!r}")
    unknown = sorted(set(echo) - set(_FIELD_PARSERS))
    if unknown:
        raise ValueError(f"manifest config: unknown key {unknown[0]!r}")
    for key, value in echo.items():
        if isinstance(value, list):
            echo[key] = tuple(value)
    return RunConfig(**echo)


def cmd_pipeline(config: RunConfig, command: str) -> int:
    out_dir = _require_out(config)
    jobs = config.effective_jobs
    input_path = _resolve_input(config)
    settings = config.estimation
    templates = scenario_templates(config)
    with _staged_outputs(out_dir) as staging:
        recorded = input_path
        if input_path is None:
            # staged like any artifact: the manifest names its home in --out
            input_path = os.path.join(staging, _SYNTHETIC_PANEL)
            recorded = os.path.join(out_dir, _SYNTHETIC_PANEL)
            rows_to_csv(generate(_FIXTURE)[0], input_path)
        rule = CapitalRule(config.capital_rule)
        panel = load_panel(input_path, base_year=config.base_year,
                           capital_rule=rule,
                           with_human_capital="H" in config.inputs,
                           with_land="D" in config.inputs)
        panel_to_csv(panel, os.path.join(staging, "panel.csv"))

        if command == "ingest":
            print(f"ingest: {panel.n_cities} cities x {len(panel.years)} years")
        else:
            if command == "estimate":
                templates = ()
            audits = []
            if templates and config.bootstrap > 0:
                if config.bootstrap < _REFERENCE_REPLICATES:
                    print(f"note: {config.bootstrap} bootstrap replicates "
                          f"(reference configuration: {_REFERENCE_REPLICATES})",
                          file=sys.stderr)
                gains = bootstrap_gain(panel, templates,
                                       BootstrapConfig(replicates=config.bootstrap,
                                                       seed=config.seed),
                                       settings, jobs=jobs, audit=audits)
            else:
                gains = run_pipeline(panel, templates, settings, jobs=jobs, audit=audits)
            _write_estimates(audits, staging)
            if templates:
                _write_solutions(audits, templates, staging)
                gains_to_csv(gains, os.path.join(staging, "gains.csv"))
                _write_plots(gains, templates, staging)
                for g in gains:
                    print(f"{g.year} {g.scenario}: gain {g.gain:.4f}")
            else:
                print(f"estimate: {len(audits)} units x {N_DECILES + 1} fits")
        _write_json(os.path.join(staging, "manifest.json"), {
            "version": __version__,
            "config": _config_echo(config),
            "seed": config.seed,
            "input": {"path": os.fspath(recorded),
                      "sha256": _sha256(input_path)},
            "artifacts": {name: _sha256(os.path.join(staging, name))
                          for name in sorted(os.listdir(staging))},
        })
        print(f"wrote {out_dir}")
    return EXIT_OK


def cmd_synth(config: RunConfig, args) -> int:
    out_dir = _require_out(config)
    spec = SyntheticSpec(city_count=args.cities, year_count=args.years,
                         scale=args.scale, exponents=args.exponents,
                         wedge_sigma=args.wedge_sigma,
                         noise_sigma=args.noise_sigma, seed=config.seed)
    rows, truth = generate(spec)
    with _staged_outputs(out_dir) as staging:
        rows_to_csv(rows, os.path.join(staging, "synthetic_panel.csv"))
        truth_to_json(truth, os.path.join(staging, "ground_truth.json"))
    print(f"synth: {spec.city_count} cities x {spec.year_count} years "
          f"-> {out_dir}")
    return EXIT_OK


def _read_csv_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_panel(run_dir) -> Panel:
    """The constructed panel, rebuilt bit for bit from its echo."""
    rows = _read_csv_rows(os.path.join(run_dir, "panel.csv"))
    cities = list(dict.fromkeys(r["city_id"] for r in rows))
    years = sorted({int(r["year"]) for r in rows})
    if [(r["city_id"], int(r["year"])) for r in rows] \
            != [(c, yr) for c in cities for yr in years]:
        raise ValueError("panel.csv is not one row per city and year, city-major")

    def block(col):
        return np.array([float(r[col]) for r in rows]).reshape(len(cities), len(years))

    return Panel(np.array(cities, dtype=object), np.array(years), block("y"),
                 {f: block(f) for f in rows[0] if f not in ("city_id", "year", "y")})


def _report(checks) -> int:
    """Run (name, check) pairs, printing PASS or FAIL and the first
    problems of each; a check that raises on a broken artifact fails."""
    width = max(len(name) for name, _ in checks)
    failed = False
    for name, check in checks:
        try:
            problems = check()
        except Exception as exc:  # a broken artifact is a failed check
            problems = [f"{type(exc).__name__}: {exc}"]
        print(f"{name.ljust(width)}  {'FAIL' if problems else 'PASS'}")
        for p in problems[:5]:
            print(f"{' ' * width}  - {p}")
        failed = failed or bool(problems)
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    run_dir = config.input
    if not run_dir:
        raise ValueError("validate needs --input pointing at a run directory")
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    run_config = _config_from_echo(manifest["config"])
    templates = scenario_templates(run_config)

    # artifacts that several checks read are read once; a broken one
    # fails each check that reads it
    @functools.cache
    def units():
        return estimation_units(_read_panel(run_dir), run_config.estimation)

    @functools.cache
    def fits():
        return fits_from_csv(os.path.join(run_dir, "fits.csv"))

    @functools.cache
    def gain_results():
        # gains.csv rows as GainResults, and the problems of rows that make none
        blocks = units()[1]
        summary = {(int(r["year"]), r["scenario"]): float(r["Y_e"])
                   for r in _read_csv_rows(os.path.join(run_dir, "summary.csv"))}
        results, problems = [], []
        for r in _read_csv_rows(os.path.join(run_dir, "gains.csv")):
            year, label = int(r["year"]), r["scenario"]
            if year not in blocks or (year, label) not in summary:
                problems.append(f"{label} {year}: no matching unit or summary row")
                continue
            spread = [float(r[k]) if r[k] else None for k in ("se", "ci_low", "ci_high")]
            try:
                results.append(GainResult(year, label, float(r["gain"]),
                                          float(blocks[year][1].sum()),
                                          summary[year, label], *spread))
            except GainError as exc:
                problems.append(f"{label} {year}: {exc}")
        return results, problems

    def check_hashes():
        problems = []
        for name, want in manifest["artifacts"].items():
            path = os.path.join(run_dir, name)
            if not os.path.exists(path):
                problems.append(f"missing artifact {name}")
            elif _sha256(path) != want:
                problems.append(f"hash mismatch for {name}")
        return problems

    def check_afriat():
        problems = []
        blocks = units()[1]
        for fit in fits():
            x, y, _ = blocks[fit.year]
            if fit.n_obs != len(y):
                problems.append(f"fit {fit.year}/{fit.tau}: row count mismatch")
                continue
            planes = fit.alpha[None, :] + x @ fit.beta.T
            tol = max(_AFRIAT_TOL, 1e-12 * float(np.abs(y).max(initial=0.0)))
            viol = float(np.max(planes.diagonal()[:, None] - planes))
            if viol > tol:
                problems.append(
                    f"fit {fit.year}/{fit.tau}: concavity violated by {viol:.2e}")
            resid = y - planes.diagonal()
            gap = np.max(np.abs(resid - (fit.eps_plus - fit.eps_minus)))
            if gap > tol or min(fit.eps_plus.min(), fit.eps_minus.min()) < -1e-9:
                problems.append(f"fit {fit.year}/{fit.tau}: residual split broken")
        return problems

    def check_resources():
        # each unit's scenarios rebuilt as the pipeline built them, then
        # the planner's own certificate on every written allocation
        names, blocks = units()
        ranks = _read_csv_rows(os.path.join(run_dir, "deciles.csv"))
        written = {t.label: _read_csv_rows(os.path.join(run_dir, f"allocations_{t.label}.csv"))
                   for t in templates}
        problems = []
        for year, (x, _, _) in blocks.items():
            rank = [r for r in ranks if int(r["year"]) == year]
            assignment = DecileAssignment(
                year, np.array([r["city_id"] for r in rank], dtype=object),
                np.array([int(r["decile"]) for r in rank]),
                np.array([float(r["score"]) for r in rank]))
            techs = unit_technologies(
                [f for f in fits() if f.year == year and f.tau in DEFAULT_QUANTILES], assignment)
            for t in templates:
                rows = [r for r in written[t.label] if int(r["year"]) == year]
                found = certify(unit_scenario(t, year, techs, names, x, assignment),
                                [[float(r[f.lower()]) for f in names] for r in rows],
                                [float(r["y"]) for r in rows],
                                [int(r["b"]) for r in rows])
                problems += [f"{t.label} {year}: {p}" for p in found]
        return problems

    def check_plots():
        # every plot artifact equals what the writer builds from gains.csv
        problems = []
        for name, want in plot_payloads(gain_results()[0], templates).items():
            path = os.path.join(run_dir, name)
            if not os.path.exists(path):
                problems.append(f"missing artifact {name}")
                continue
            with open(path, encoding="utf-8") as fh:
                got = fh.read() if isinstance(want, str) else json.load(fh)
            if got != want:
                series = got.get("series", []) if isinstance(got, dict) else []
                problems += [f"{name} series {s.get('scenario', s.get('name'))}: "
                             "differs from gains.csv"
                             for s in series if s not in want["series"]] \
                    or [f"{name} differs from gains.csv"]
        return problems

    checks = [("artifact-hashes", check_hashes)]
    if "fits.csv" in manifest["artifacts"]:
        checks.append(("afriat-rows", check_afriat))
    if "summary.csv" in manifest["artifacts"]:
        checks.append(("resource-rows", check_resources))
    if os.path.exists(os.path.join(run_dir, "gains.csv")):
        checks.append(("gain-arithmetic", lambda: gain_results()[1]))
        checks.append(("order", lambda: order_problems(
            gain_results()[0], templates, LP_TOLERANCE)))
    if os.path.exists(os.path.join(run_dir, "plot_gains.json")):
        checks.append(("plot-data", check_plots))
    return _report(checks)


def _classify(exc) -> int:
    seen = set()
    node = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, SolverError):
            return EXIT_SOLVER
        node = node.__cause__ or node.__context__
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, (ValueError, KeyError)):
        return EXIT_VALIDATION
    raise exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _make_config(args)
        if args.command == "synth":
            return cmd_synth(config, args)
        if args.command == "validate":
            return cmd_validate(config)
        return cmd_pipeline(config, args.command)
    except Exception as exc:
        code = _classify(exc)
        kind = {EXIT_VALIDATION: "validation", EXIT_SOLVER: "solver",
                EXIT_IO: "i/o"}[code]
        print(f"cityalloc {args.command}: {kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
