"""Command-line entry point.

Commands: ingest, estimate, allocate, gain, run, synth, validate.
Global flags: --input, --out, --seed, --jobs, --config. Values resolve
as explicit flags over config-file entries over built-in defaults; the
config file is plain ``key = value`` text with # comments.

Exit codes: 0 success, 2 validation failure, 3 solver failure,
4 I/O failure. Artifacts are staged in a temporary directory and moved
into --out only when the whole command succeeds, so a failed run leaves
no partial outputs.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .cqr import DEFAULT_QUANTILES, fits_from_csv, fits_to_csv
from .gains import (
    BootstrapConfig,
    ScenarioTemplate,
    bootstrap_gain,
    estimate_panel,
    gains_to_csv,
    gains_to_plot_json,
    run_pipeline,
)
from .panel import CAPITAL_VARIANTS, CapitalRule, load_panel, panel_to_csv
from .planner import allocations_to_csv, summary_to_csv
from .solver import SolverError
from .synth import SyntheticSpec, generate, rows_to_csv, truth_to_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_STAGE = {"ingest": 0, "estimate": 1, "allocate": 2, "gain": 3, "run": 4}
_ENTRY_MODES = ("entry_exit", "local_entry_exit")
_REFERENCE_REPLICATES = 1000
_SYNTHETIC_PANEL = "synthetic_panel.csv"

# --synthetic default and the synth command defaults are the same economy
_FIXTURE = SyntheticSpec(city_count=284, year_count=17, scale=1.0,
                         exponents=(0.35, 0.45), wedge_sigma=0.5,
                         noise_sigma=0.1, seed=7)

_AFRIAT_TOL = 1e-6
_RESOURCE_TOL = 1e-6
_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Resolved CLI configuration; defaults mirror the reference setup."""

    input: str | None = None
    out: str | None = None
    synthetic: str | None = None
    base_year: int = 2003
    capital_rule: str = "baseline"
    quantiles: tuple = tuple(float(q) for q in DEFAULT_QUANTILES)
    crs: bool = False
    scenarios: tuple = ("perfect", "imperfect", "entry_exit", "local")
    iceberg: float = 0.05
    depletion: float = 0.05
    factors: tuple | None = None
    inputs: tuple = ("K", "L")
    fixed_effects: bool = False
    entry_exit: bool = False
    local: bool = False
    bootstrap: int = 0
    seed: int = 7
    jobs: int = 0
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.capital_rule not in CAPITAL_VARIANTS:
            raise ValueError(f"unknown capital rule {self.capital_rule!r}")
        q = tuple(float(v) for v in self.quantiles)
        if not q or any(not 0.0 < v < 1.0 for v in q) or list(q) != sorted(set(q)):
            raise ValueError("quantiles must be strictly increasing within (0, 1)")
        object.__setattr__(self, "quantiles", q)
        ins = tuple(str(f) for f in self.inputs)
        if ins[:2] != ("K", "L") or len(set(ins)) != len(ins) \
                or any(f not in ("K", "L", "H", "D") for f in ins):
            raise ValueError("inputs must be K,L optionally followed by H and/or D")
        object.__setattr__(self, "inputs", ins)
        if self.factors is not None:
            fac = tuple(str(f) for f in self.factors)
            if not fac or any(f not in ins for f in fac):
                raise ValueError("factors must be a nonempty subset of the inputs")
            object.__setattr__(self, "factors", fac)
        for name in ("iceberg", "depletion", "tolerance"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0 or (name == "tolerance" and v == 0.0):
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

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


def scenario_templates(config: RunConfig) -> list:
    """Expand the scenario list into templates.

    Each entry is ``mode`` or ``mode:F`` / ``mode:F+G`` restricting the
    reallocated factors; unsuffixed non-entry modes inherit --factors.
    Frictions attach to the imperfect mode only.
    """
    specs = list(config.scenarios)
    if config.entry_exit and not any(s.split(":")[0] == "entry_exit" for s in specs):
        specs.append("entry_exit")
    if config.local and not any(s.split(":")[0] == "local" for s in specs):
        specs.append("local")
    templates = []
    for item in specs:
        mode, _, suffix = item.partition(":")
        factors = tuple(suffix.split("+")) if suffix else config.factors
        if factors is not None:
            bad = [f for f in factors if f not in config.inputs]
            if bad:
                raise ValueError(f"scenario {item!r} reallocates unknown factor {bad[0]!r}")
            if set(factors) == set(config.inputs):
                factors = None
        if mode in _ENTRY_MODES and factors is not None:
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
    "iceberg": float, "depletion": float, "tolerance": float,
    "crs": _parse_bool, "fixed_effects": _parse_bool,
    "entry_exit": _parse_bool, "local": _parse_bool,
    "scenarios": _parse_tuple, "factors": _parse_tuple, "inputs": _parse_tuple,
    "quantiles": lambda text: tuple(float(v) for v in _parse_tuple(text)),
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
    pipeline.add_argument("--quantiles", type=_FIELD_PARSERS["quantiles"],
                          metavar="Q1,Q2,...")
    pipeline.add_argument("--crs", action=argparse.BooleanOptionalAction,
                          default=None, help="constant returns to scale")
    pipeline.add_argument("--scenarios", type=_parse_tuple,
                          metavar="MODE[:F+G],...")
    pipeline.add_argument("--iceberg", type=float, metavar="LAMBDA")
    pipeline.add_argument("--depletion", type=float, metavar="KAPPA")
    pipeline.add_argument("--factors", type=_parse_tuple, metavar="F,G")
    pipeline.add_argument("--inputs", type=_parse_tuple, metavar="K,L[,H][,D]")
    pipeline.add_argument("--fixed-effects", action=argparse.BooleanOptionalAction,
                          default=None)
    pipeline.add_argument("--entry-exit", action=argparse.BooleanOptionalAction,
                          default=None, help="add the entry_exit scenario")
    pipeline.add_argument("--local", action=argparse.BooleanOptionalAction,
                          default=None, help="add the local scenario")
    pipeline.add_argument("--bootstrap", type=int, nargs="?",
                          const=100, metavar="N",
                          help="bootstrap replicates (bare flag: 100)")
    pipeline.add_argument("--tolerance", type=float)

    parser = argparse.ArgumentParser(
        prog="cityalloc",
        description="Quantile production frontiers and planner reallocation gains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common, pipeline],
                   help="build and echo the constructed panel")
    sub.add_parser("estimate", parents=[common, pipeline],
                   help="fit quantile frontiers and rank deciles")
    sub.add_parser("allocate", parents=[common, pipeline],
                   help="solve the planner scenarios")
    sub.add_parser("gain", parents=[common, pipeline],
                   help="compute gain ratios (optionally bootstrapped)")
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


def _write_deciles_csv(audits, path):
    lines = ["year,city_id,decile,score"]
    for a in audits:
        for cid, dec, score in zip(a.assignment.city_id, a.assignment.decile,
                                   a.assignment.score):
            lines.append(f"{a.year},{cid},{int(dec)},{repr(float(score))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_estimates(audits, staging):
    flat = []
    for a in audits:
        unit = list(a.fits) + ([a.median_fit] if a.median_fit is not None else [])
        flat.extend(sorted(unit, key=lambda f: f.tau))
    fits_to_csv(flat, os.path.join(staging, "fits.csv"))
    _write_deciles_csv(audits, os.path.join(staging, "deciles.csv"))


def _write_solutions(audits, templates, staging):
    for t in templates:
        sols = [a.solutions[t.label] for a in audits]
        allocations_to_csv(sols, os.path.join(staging, f"allocations_{t.label}.csv"),
                           labels=[t.label] * len(sols))
    sols, labels = [], []
    for a in audits:
        for t in templates:
            sols.append(a.solutions[t.label])
            labels.append(t.label)
    summary_to_csv(sols, os.path.join(staging, "summary.csv"), labels=labels)


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


def _write_plots(gains, templates, staging):
    written = []
    gains_to_plot_json(gains, os.path.join(staging, "plot_gains.json"))
    written.append("plot_gains.json")

    restricted = [t.label for t in templates if t.reallocated_factors is not None]
    if restricted:
        full = [t.label for t in templates if t.reallocated_factors is None]
        payload = {
            "series": [{"scenario": lab,
                        "points": [{"year": g.year, "gain": g.gain}
                                   for g in gains if g.scenario == lab]}
                       for lab in restricted],
            "reference": [{"scenario": lab,
                           "points": [{"year": g.year, "gain": g.gain}
                                      for g in gains if g.scenario == lab]}
                          for lab in full],
        }
        with open(os.path.join(staging, "plot_single_factor.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append("plot_single_factor.json")

    rows = _delta_rows(gains)
    if rows:
        names = ["delta1", "delta2"]
        present = [n for n in names if any(n in r for r in rows)]
        lines = ["year," + ",".join(present)]
        for r in rows:
            cells = [str(r["year"])]
            cells += ["" if n not in r else repr(r[n]) for n in present]
            lines.append(",".join(cells))
        with open(os.path.join(staging, "deltas.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        payload = {"series": [{"name": n,
                               "points": [{"year": r["year"], "delta": r[n]}
                                          for r in rows if n in r]}
                              for n in present]}
        with open(os.path.join(staging, "plot_deltas.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written += ["deltas.csv", "plot_deltas.json"]
    return written


def _config_echo(config) -> dict:
    echo = asdict(config)
    for key, value in echo.items():
        if isinstance(value, tuple):
            echo[key] = list(value)
    return echo


def cmd_pipeline(config: RunConfig, stage: int) -> int:
    out_dir = _require_out(config)
    jobs = config.effective_jobs
    input_path = _resolve_input(config)
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
        grid = np.asarray(config.quantiles)

        if stage == _STAGE["ingest"]:
            print(f"ingest: {panel.n_cities} cities x {len(panel.years)} years")
            return EXIT_OK
        if stage == _STAGE["estimate"]:
            audits = estimate_panel(panel, fixed_effects=config.fixed_effects,
                                    quantile_grid=grid, crs=config.crs,
                                    tolerance=config.tolerance, jobs=jobs)
            _write_estimates(audits, staging)
            print(f"estimate: {len(audits)} units x {len(grid) + 1} fits")
            return EXIT_OK

        templates = scenario_templates(config)
        audits = []
        if stage >= _STAGE["gain"] and config.bootstrap > 0:
            if config.bootstrap < _REFERENCE_REPLICATES:
                print(f"note: {config.bootstrap} bootstrap replicates "
                      f"(reference configuration: {_REFERENCE_REPLICATES})",
                      file=sys.stderr)
            gains = bootstrap_gain(panel, templates,
                                   BootstrapConfig(replicates=config.bootstrap,
                                                   seed=config.seed),
                                   fixed_effects=config.fixed_effects,
                                   quantile_grid=grid, crs=config.crs,
                                   tolerance=config.tolerance, jobs=jobs,
                                   audit=audits)
        else:
            gains = run_pipeline(panel, templates,
                                 fixed_effects=config.fixed_effects,
                                 quantile_grid=grid, crs=config.crs,
                                 tolerance=config.tolerance, jobs=jobs,
                                 audit=audits)
        _write_estimates(audits, staging)
        _write_solutions(audits, templates, staging)
        if stage >= _STAGE["gain"]:
            gains_to_csv(gains, os.path.join(staging, "gains.csv"))
        if stage >= _STAGE["run"]:
            _write_plots(gains, templates, staging)
            artifacts = {name: _sha256(os.path.join(staging, name))
                         for name in sorted(os.listdir(staging))}
            manifest = {
                "version": __version__,
                "config": _config_echo(config),
                "seed": config.seed,
                "input": {"path": os.fspath(recorded),
                          "sha256": _sha256(input_path)},
                "artifacts": artifacts,
            }
            with open(os.path.join(staging, "manifest.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        for g in gains if stage >= _STAGE["gain"] else []:
            print(f"{g.year} {g.scenario}: gain {g.gain:.4f}")
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
    import csv as _csv
    with open(path, newline="", encoding="utf-8") as fh:
        return list(_csv.DictReader(fh))


def _panel_arrays(run_dir, input_names):
    """Rebuild per-year observation blocks from the panel echo."""
    rows = _read_csv_rows(os.path.join(run_dir, "panel.csv"))
    years = sorted({int(r["year"]) for r in rows})
    data = {}
    for year in years:
        sub = [r for r in rows if int(r["year"]) == year]
        x = np.array([[float(r[f]) for f in input_names] for r in sub])
        y = np.array([float(r["y"]) for r in sub])
        data[year] = (x, y, [r["city_id"] for r in sub])
    return data


def _pooled_unit(data):
    """Pooled cross-section from the yearly blocks (city time-means)."""
    years = sorted(data)
    xs = np.mean([data[y][0] for y in years], axis=0)
    ys = np.mean([data[y][1] for y in years], axis=0)
    return xs, ys, data[years[0]][2]


class _Validator:
    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.results = []

    def check(self, name, fn):
        try:
            problems = fn()
        except Exception as exc:  # a broken artifact is a failed check
            problems = [f"{type(exc).__name__}: {exc}"]
        self.results.append((name, problems))

    def report(self) -> int:
        width = max(len(name) for name, _ in self.results)
        failed = False
        for name, problems in self.results:
            status = "PASS" if not problems else "FAIL"
            print(f"{name.ljust(width)}  {status}")
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
    echo = dict(manifest["config"])
    for key, value in echo.items():
        if isinstance(value, list):
            echo[key] = tuple(value)
    run_config = RunConfig(**echo)
    templates = scenario_templates(run_config)
    input_names = list(run_config.inputs)
    data = _panel_arrays(run_dir, input_names)
    v = _Validator(run_dir)

    def check_hashes():
        problems = []
        for name, want in manifest["artifacts"].items():
            path = os.path.join(run_dir, name)
            if not os.path.exists(path):
                problems.append(f"missing artifact {name}")
            elif _sha256(path) != want:
                problems.append(f"hash mismatch for {name}")
        return problems

    def unit_block(year):
        if year in data:
            return data[year]
        return _pooled_unit(data)

    def check_afriat():
        problems = []
        fits = fits_from_csv(os.path.join(run_dir, "fits.csv"))
        for fit in fits:
            x, y, _ = unit_block(fit.year)
            if fit.n_obs != len(y):
                problems.append(f"fit {fit.year}/{fit.tau}: row count mismatch")
                continue
            planes = fit.alpha[None, :] + x @ fit.beta.T
            viol = float(np.max(planes.diagonal()[:, None] - planes))
            if viol > _AFRIAT_TOL:
                problems.append(
                    f"fit {fit.year}/{fit.tau}: concavity violated by {viol:.2e}")
            resid = y - planes.diagonal()
            gap = np.max(np.abs(resid - (fit.eps_plus - fit.eps_minus)))
            if gap > _AFRIAT_TOL or min(fit.eps_plus.min(), fit.eps_minus.min()) < -1e-9:
                problems.append(f"fit {fit.year}/{fit.tau}: residual split broken")
        return problems

    def check_resources():
        problems = []
        for t in templates:
            rows = _read_csv_rows(os.path.join(run_dir, f"allocations_{t.label}.csv"))
            by_year = {}
            for r in rows:
                by_year.setdefault(int(r["year"]), []).append(r)
            realloc = t.reallocated_factors or tuple(input_names)
            local = t.mode in ("local", "local_entry_exit")
            entry = t.mode in _ENTRY_MODES
            for year, sub in by_year.items():
                x_obs, _, _ = unit_block(year)
                for f in input_names:
                    col = np.array([float(r[f.lower()]) for r in sub])
                    total = float(x_obs[:, input_names.index(f)].sum())
                    cap = total * (1.0 + _RESOURCE_TOL)
                    if f not in realloc:
                        if abs(col.sum() - total) > _RESOURCE_TOL * (1.0 + total):
                            problems.append(
                                f"{t.label} {year}: fixed factor {f} total moved")
                        continue
                    rate = {"K": t.iceberg, "L": t.depletion}.get(f, 0.0)
                    charged = col.sum() * (1.0 + rate)
                    if charged > cap:
                        problems.append(f"{t.label} {year}: factor {f} over budget")
                    if local:
                        deciles = np.array([int(r["decile"]) for r in sub])
                        for d in range(1, 11):
                            share = col[deciles == d].sum() * (1.0 + rate)
                            if share > cap / 10.0 + _RESOURCE_TOL:
                                problems.append(
                                    f"{t.label} {year}: decile {d} over its tenth of {f}")
                if entry:
                    for r in sub:
                        if r["b"] == "0":
                            vals = [float(r[f.lower()]) for f in input_names]
                            if any(abs(vv) > 1e-9 for vv in vals) or abs(float(r["y"])) > 1e-9:
                                problems.append(
                                    f"{t.label} {year}: inactive city holds resources")
        return problems

    def check_gains():
        problems = []
        gains = _read_csv_rows(os.path.join(run_dir, "gains.csv"))
        summary = {(int(r["year"]), r["scenario"]): float(r["Y_e"])
                   for r in _read_csv_rows(os.path.join(run_dir, "summary.csv"))}
        actual = {year: float(block[1].sum()) for year, block in data.items()}
        pooled = float(np.mean(list(actual.values())))
        for r in gains:
            year, label = int(r["year"]), r["scenario"]
            base = actual.get(year, pooled)
            key = (year, label)
            if key not in summary:
                problems.append(f"{label} {year}: no matching summary row")
                continue
            want = summary[key] / base
            gain = float(r["gain"])
            if abs(gain - want) > _GAIN_TOL * max(1.0, abs(want)):
                problems.append(f"{label} {year}: gain != Y_e / Y")
            if r["ci_low"]:
                if not float(r["ci_low"]) <= gain <= float(r["ci_high"]):
                    problems.append(f"{label} {year}: interval misses the estimate")
        return problems

    def check_plots():
        problems = []
        path = os.path.join(run_dir, "plot_gains.json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        gains = _read_csv_rows(os.path.join(run_dir, "gains.csv"))
        n_years = len({r["year"] for r in gains})
        for series in payload["series"]:
            if len(series["points"]) != n_years:
                problems.append(f"series {series['scenario']}: wrong length")
            for p in series["points"]:
                if "ci_low" in p and not p["ci_low"] <= p["gain"] <= p["ci_high"]:
                    problems.append(f"series {series['scenario']}: band misses point")
        return problems

    v.check("artifact-hashes", check_hashes)
    v.check("afriat-rows", check_afriat)
    v.check("resource-rows", check_resources)
    if os.path.exists(os.path.join(run_dir, "gains.csv")):
        v.check("gain-arithmetic", check_gains)
    if os.path.exists(os.path.join(run_dir, "plot_gains.json")):
        v.check("plot-data", check_plots)
    return v.report()


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
        return cmd_pipeline(config, _STAGE[args.command])
    except Exception as exc:
        code = _classify(exc)
        kind = {EXIT_VALIDATION: "validation", EXIT_SOLVER: "solver",
                EXIT_IO: "i/o"}[code]
        print(f"cityalloc {args.command}: {kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
