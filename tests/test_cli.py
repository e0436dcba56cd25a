"""Command-line commands and exit codes, run in-process through cli.main."""

import csv
import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from cityalloc import cli
from cityalloc.cli import fits_from_csv, fits_to_csv
from cityalloc.gains import ScenarioTemplate
from cityalloc.planner import DecileTechnology, PlannerScenario, solve_scenario
from cityalloc.solver import SolverError


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    synth_out = str(base / "synth")
    run_out = str(base / "run")
    assert cli.main(["synth", "--cities", "20", "--years", "2",
                     "--out", synth_out]) == cli.EXIT_OK
    panel = os.path.join(synth_out, "synthetic_panel.csv")
    assert cli.main(["run", "--input", panel, "--out", run_out, "--jobs", "1",
                     "--scenarios", "perfect,imperfect,entry_exit,local,perfect:K"]
                    ) == cli.EXIT_OK
    return run_out


def test_ingest_synthetic_default(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["ingest", "--synthetic", "default", "--out", out]) == cli.EXIT_OK
    rows = _rows(os.path.join(out, "panel.csv"))
    assert len({r["city_id"] for r in rows}) == 284
    assert len({r["year"] for r in rows}) == 17
    assert len(rows) == 284 * 17


def test_synth_run_validate(run_dir):
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert os.path.exists(manifest["input"]["path"])
    assert {"gains.csv", "summary.csv", "plot_gains.json"} <= set(manifest["artifacts"])
    assert cli.main(["validate", "--input", run_dir]) == cli.EXIT_OK


def test_validate_detects_corrupted_artifact(run_dir, tmp_path, capsys):
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    with open(os.path.join(copy, "gains.csv"), "a", encoding="utf-8") as fh:
        fh.write("2099,perfect,1.0,1.0,1.0,,,\n")
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    assert "hash mismatch for gains.csv" in capsys.readouterr().out


def test_run_in_large_output_units_validates(tmp_path):
    # validate's concavity slack is relative to the outputs: in grdp x 1e8
    # a cross row the solver holds to 1e-14 of the outputs missed by
    # 1.03e-6 against an absolute 1e-6
    synth_out = str(tmp_path / "synth")
    assert cli.main(["synth", "--cities", "30", "--years", "2", "--seed", "7",
                     "--out", synth_out]) == cli.EXIT_OK
    rows = _rows(os.path.join(synth_out, "synthetic_panel.csv"))
    for r in rows:
        r["grdp"] = repr(float(r["grdp"]) * 1e8)
    panel = str(tmp_path / "large.csv")
    with open(panel, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--input", panel, "--out", out, "--jobs", "1"]) == cli.EXIT_OK
    assert cli.main(["validate", "--input", out]) == cli.EXIT_OK


def _lift_a_plane(run_dir):
    """Raise the first fit's plane i until one cross row misses by 1e-5,
    keeping the residual split intact; returns the fit."""
    fits = fits_from_csv(os.path.join(run_dir, "fits.csv"))
    fit = fits[0]
    x = cli._read_panel(run_dir).year_slice(fit.year)[0]
    planes = fit.alpha[None, :] + x @ fit.beta.T
    gap = planes - planes.diagonal()[:, None]  # cross-row slack, row i, plane h
    np.fill_diagonal(gap, np.inf)
    i, h = np.unravel_index(np.argmin(gap), gap.shape)
    shift = gap[i, h] + 1e-5
    fit.alpha[i] += shift
    resid = fit.eps_plus[i] - fit.eps_minus[i] - shift
    fit.eps_plus[i], fit.eps_minus[i] = max(resid, 0.0), max(-resid, 0.0)
    fits_to_csv(fits, os.path.join(run_dir, "fits.csv"))
    return fit


def test_validate_rejects_a_unit_scale_cross_row_miss(run_dir, tmp_path, capsys):
    # at unit scale the relative slack is still 1e-6: a plane raised until
    # one cross row misses by 1e-5 fails, with the residual split intact
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    fit = _lift_a_plane(copy)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    report = capsys.readouterr().out
    status = next(line for line in report.splitlines() if line.startswith("afriat-rows"))
    assert status.split()[-1] == "FAIL"
    assert f"fit {fit.year}/{fit.tau}: concavity violated by 1.00e-05" in report
    assert "residual split broken" not in report


def test_missing_input_is_io_error_with_no_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--input", str(tmp_path / "absent.csv"),
                     "--out", str(out), "--jobs", "1"])
    assert code == cli.EXIT_IO
    assert not out.exists() or not os.listdir(out)


def test_unknown_config_key_is_validation_error(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("seed = 3\nno_such_key = 1\n", encoding="utf-8")
    code = cli.main(["ingest", "--synthetic", "default",
                     "--out", str(tmp_path / "out"), "--config", str(config)])
    assert code == cli.EXIT_VALIDATION


def test_config_precedence_flag_over_file_over_default(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("# file values\nseed = 11\niceberg = 0.1\n", encoding="utf-8")
    args = cli._build_parser().parse_args(
        ["run", "--config", str(config), "--seed", "13"])
    resolved = cli._make_config(args)
    assert resolved.seed == 13                      # flag over file
    assert resolved.iceberg == 0.1                  # file over default
    assert resolved.depletion == cli.RunConfig().depletion  # default


@pytest.mark.parametrize("argv, message", [
    (["run", "--synthetic", "default"], "an --out directory is required"),
    (["run", "--synthetic", "other", "--out", "out"], "unknown synthetic preset 'other'"),
    (["run", "--synthetic", "default", "--input", "panel.csv", "--out", "out"],
     "--input and --synthetic are mutually exclusive"),
    (["run", "--out", "out"], "an --input panel is required"),
    (["validate", "--out", "out"], "validate needs --input"),
], ids=["no_out", "unknown_preset", "input_and_synthetic", "no_input",
        "validate_without_input"])
def test_input_errors_exit_2_with_no_outputs(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(argv + ["--jobs", "1"]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("line, value, flag", [
    ("crs = yes", True, "--crs"),
    ("crs = off", False, "--no-crs"),
])
def test_config_booleans_resolve_as_flags_do(tmp_path, line, value, flag):
    config = tmp_path / "run.conf"
    config.write_text(line + "\n", encoding="utf-8")
    assert cli._read_config_file(config) == {"crs": value}
    parser = cli._build_parser()
    assert cli._make_config(parser.parse_args(["run", "--config", str(config)])) \
        == cli._make_config(parser.parse_args(["run", flag]))


def test_config_bad_boolean_names_its_line(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed = 3\ncrs = maybe\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["ingest", "--synthetic", "default", "--out", str(out),
                     "--config", str(config)]) == cli.EXIT_VALIDATION
    assert f"{config}:2: expected a boolean, got 'maybe'" in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_is_exit_3_with_no_outputs(tmp_path, monkeypatch, capsys):
    synth_out = str(tmp_path / "synth")
    assert cli.main(["synth", "--cities", "12", "--years", "2",
                     "--out", synth_out]) == cli.EXIT_OK

    def broken_fit(*args, **kwargs):
        raise SolverError("iteration limit exceeded")

    monkeypatch.setattr("cityalloc.gains.fit_all_quantiles", broken_fit)
    out = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["run", "--input", os.path.join(synth_out, "synthetic_panel.csv"),
                     "--out", str(out), "--jobs", "1"])
    assert code == cli.EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_validate_rejects_unknown_manifest_key(run_dir, tmp_path, capsys):
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"]["freeze_deciles"] = True
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    assert "unknown key 'freeze_deciles'" in capsys.readouterr().err


def test_validate_rejects_a_manifest_with_no_scenarios(run_dir, tmp_path, capsys):
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"]["scenarios"] = []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    assert "at least one scenario is required" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, code", [
    (None, None, cli.EXIT_OK),
    ("quantiles", [0.05, 0.15, 0.25, 0.35, 0.5, 0.55, 0.65, 0.75, 0.85, 0.95],
     cli.EXIT_VALIDATION),
    ("tolerance", 1e-8, cli.EXIT_VALIDATION),
], ids=["fixed_values", "other_grid", "other_tolerance"])
def test_validate_reads_an_echoed_grid_and_tolerance(run_dir, tmp_path, capsys,
                                                      key, value, code):
    # a manifest written when the grid and the LP tolerance were options
    # echoes both; it validates only when they hold the values now fixed
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"].update(
        quantiles=[0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95],
        tolerance=1e-7)
    if key is not None:
        manifest["config"][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == code
    if key is not None:
        assert f"manifest config: {key}" in capsys.readouterr().err


def _edit_rows(path, edit):
    """Rewrite the CSV at `path` after `edit(rows)` changed its rows in place."""
    rows = _rows(path)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _over_budget(rows):
    # one city takes the whole year's capital on top of its own
    year = [r for r in rows if r["year"] == rows[0]["year"]]
    year[0]["k"] = repr(sum(float(r["k"]) for r in year) + float(year[0]["k"]))


def _decile_over_tenth(rows):
    # decile 1 hands its capital to decile 2: the total stays in budget
    year = [r for r in rows if r["year"] == rows[0]["year"]]
    first = [r for r in year if r["decile"] == "1"]
    second = next(r for r in year if r["decile"] == "2")
    second["k"] = repr(float(second["k"]) + sum(float(r["k"]) for r in first))
    for r in first:
        r["k"] = "0.0"


def _idle_city_holds(rows):
    held = next(r for r in rows if float(r["l"]) > 0.0)
    held["b"] = "0"


def _output_above_envelope(rows):
    # the first pseudo-city of decile 1 sits on its envelope at the optimum
    rows[0]["y"] = repr(float(rows[0]["y"]) * 1.01)


def _pinned_swapped(rows):
    # two pseudo-cities trade their pinned L: the L total stays put
    year = [r for r in rows if r["year"] == rows[0]["year"]]
    year[0]["l"], year[-1]["l"] = year[-1]["l"], year[0]["l"]


def _blank_fit_cell(rows):
    # fits_from_csv reads a blank cell as NaN; the decile 1 fit comes first
    rows[0]["alpha"] = ""


def _gain_off(rows):
    rows[0]["gain"] = repr(float(rows[0]["gain"]) * 1.01)


def _band_misses(payload):
    point = payload["series"][0]["points"][0]
    point["ci_low"], point["ci_high"] = point["gain"] + 0.1, point["gain"] + 0.2


@pytest.mark.parametrize("artifact, edit, check, message", [
    ("allocations_perfect.csv", _over_budget, "resource-rows", "factor K over budget"),
    ("allocations_local.csv", _decile_over_tenth, "resource-rows",
     "decile 2 over its tenth of K"),
    ("allocations_entry_exit.csv", _idle_city_holds, "resource-rows",
     "inactive city holds resources"),
    ("allocations_perfect.csv", _output_above_envelope, "resource-rows",
     "decile 1 output above its envelope"),
    ("allocations_perfect_K.csv", _pinned_swapped, "resource-rows",
     "pinned factor L moved"),
    ("fits.csv", _blank_fit_cell, "resource-rows",
     "hyperplane coefficients must be finite"),
    ("gains.csv", _gain_off, "gain-arithmetic",
     "gain must equal efficient_output / actual_output"),
    ("plot_gains.json", _band_misses, "plot-data",
     "series perfect: differs from gains.csv"),
])
def test_validate_fails_the_named_check(run_dir, tmp_path, capsys,
                                        artifact, edit, check, message):
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, artifact)
    if artifact.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        edit(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    else:
        _edit_rows(path, edit)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    report = capsys.readouterr().out
    status = next(line for line in report.splitlines() if line.startswith(check))
    assert status.split()[-1] == "FAIL"
    assert message in report


def _raise_plot_delta(payload):
    payload["series"][0]["points"][0]["delta"] += 0.5


def _raise_csv_delta(text):
    header, first, *rest = text.splitlines()
    year, delta, *others = first.split(",")
    return "\n".join([header, ",".join([year, repr(float(delta) + 0.5), *others]), *rest]) + "\n"


def _raise_single_factor_gain(payload):
    payload["series"][0]["points"][0]["gain"] += 0.5


@pytest.mark.parametrize("artifact, edit", [
    ("plot_deltas.json", _raise_plot_delta),
    ("deltas.csv", _raise_csv_delta),
    ("plot_single_factor.json", _raise_single_factor_gain),
])
def test_validate_checks_the_derived_plots(run_dir, tmp_path, capsys, artifact, edit):
    # an edited plot artifact whose manifest hash was rewritten to match
    # still fails: validate rebuilds each plot from gains.csv
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    path = os.path.join(copy, artifact)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if artifact.endswith(".json"):
        payload = json.loads(text)
        edit(payload)
        text = json.dumps(payload)
    else:
        text = edit(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["artifacts"][artifact] = cli._sha256(path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    report = capsys.readouterr().out
    assert next(line for line in report.splitlines()
                if line.startswith("artifact-hashes")).split()[-1] == "PASS"
    status = next(line for line in report.splitlines() if line.startswith("plot-data"))
    assert status.split()[-1] == "FAIL"
    assert artifact in report and "differs from gains.csv" in report


def test_validate_rejects_a_run_degraded_below_its_optimum(run_dir, tmp_path, capsys):
    # every perfect output cut by 10%, with Y_e, the gains, the plots and
    # the manifest hashes rewritten to match: every allocation stays
    # feasible and every artifact agrees with the others, but perfect no
    # longer bounds the scenarios that reallocate within its constraints
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)

    def cut(column):
        def edit(rows):
            for r in rows:
                if r["scenario"] == "perfect":
                    r[column] = repr(float(r[column]) * 0.9)
        return edit

    for name, column in (("allocations_perfect.csv", "y"), ("summary.csv", "Y_e"),
                         ("gains.csv", "gain")):
        _edit_rows(os.path.join(copy, name), cut(column))
    gains = [SimpleNamespace(year=int(r["year"]), scenario=r["scenario"],
                             gain=float(r["gain"]), standard_error=None,
                             ci_low=None, ci_high=None)
             for r in _rows(os.path.join(copy, "gains.csv"))]
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = cli._config_from_echo(manifest["config"])
    cli._write_plots(gains, cli.scenario_templates(config), copy)
    for name in manifest["artifacts"]:
        manifest["artifacts"][name] = cli._sha256(os.path.join(copy, name))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    status = dict(line.split() for line in capsys.readouterr().out.splitlines()
                  if not line.startswith(" "))
    assert status.pop("order") == "FAIL"
    assert set(status.values()) == {"PASS"}


def test_synth_panel_bootstraps_and_validates(tmp_path):
    # the CI smoke run: the fixture economy at 30 cities x 2 years,
    # bootstrapped end to end
    synth_out = str(tmp_path / "synth")
    assert cli.main(["synth", "--cities", "30", "--years", "2",
                     "--out", synth_out]) == cli.EXIT_OK
    out = str(tmp_path / "out")
    assert cli.main(["run", "--input", os.path.join(synth_out, "synthetic_panel.csv"),
                     "--bootstrap", "2", "--jobs", "1", "--out", out]) == cli.EXIT_OK
    rows = _rows(os.path.join(out, "panel.csv"))
    assert len({r["city_id"] for r in rows}) == 30
    assert {r["year"] for r in rows} == {"2003", "2004"}
    assert all(r["se"] for r in _rows(os.path.join(out, "gains.csv")))
    assert cli.main(["validate", "--input", out]) == cli.EXIT_OK


@pytest.mark.parametrize("artifact, check", [
    ("panel.csv", "afriat-rows"),
    ("fits.csv", "resource-rows"),
    ("deciles.csv", "resource-rows"),
    ("summary.csv", "gain-arithmetic"),
])
def test_validate_missing_artifact_fails_its_check(run_dir, tmp_path, capsys,
                                                   artifact, check):
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    os.remove(os.path.join(copy, artifact))
    capsys.readouterr()
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_VALIDATION
    report = capsys.readouterr().out
    status = next(line for line in report.splitlines() if line.startswith(check))
    assert status.split()[-1] == "FAIL"
    assert f"missing artifact {artifact}" in report


@pytest.fixture(scope="module")
def small_panel(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("small"))
    assert cli.main(["synth", "--cities", "12", "--years", "3", "--seed", "7",
                     "--out", out]) == cli.EXIT_OK
    return os.path.join(out, "synthetic_panel.csv")


@pytest.mark.parametrize("argv, checks", [
    (["ingest"], ["artifact-hashes"]),
    (["estimate"], ["artifact-hashes", "afriat-rows"]),
    (["run", "--bootstrap", "2"], None),
    (["run", "--fixed-effects"], None),
    (["run", "--scenarios", "perfect,local:L,imperfect:K"], None),
], ids=["ingest", "estimate", "bootstrap", "fixed_effects", "single_factor"])
def test_command_paths_complete_and_validate(small_panel, tmp_path, capsys, argv, checks):
    # every command's manifest lists what it wrote, and validate runs the
    # checks whose tables it lists (all six after run)
    out = str(tmp_path / "out")
    assert cli.main(argv + ["--input", small_panel, "--out", out,
                            "--jobs", "1"]) == cli.EXIT_OK
    written = set(os.listdir(out))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert set(json.load(fh)["artifacts"]) == written - {"manifest.json"}
    if argv[0] == "ingest":
        assert written == {"panel.csv", "manifest.json"}
    if argv[0] == "estimate":
        assert written == {"panel.csv", "fits.csv", "deciles.csv", "manifest.json"}
    if "--scenarios" in argv:
        assert "plot_single_factor.json" in written
    capsys.readouterr()
    assert cli.main(["validate", "--input", out]) == cli.EXIT_OK
    ran = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert ran == (checks or ["artifact-hashes", "afriat-rows", "resource-rows",
                              "gain-arithmetic", "order", "plot-data"])


def _raise_first_output(run_dir):
    _edit_rows(os.path.join(run_dir, "panel.csv"),
               lambda rows: rows[0].update(y=repr(float(rows[0]["y"]) * 1.01)))
    return "artifact-hashes", "hash mismatch for panel.csv"


def _lift_a_plane_rehashed(run_dir):
    fit = _lift_a_plane(run_dir)
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["artifacts"]["fits.csv"] = cli._sha256(os.path.join(run_dir, "fits.csv"))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return "afriat-rows", f"fit {fit.year}/{fit.tau}: concavity violated by 1.00e-05"


@pytest.mark.parametrize("command, corrupt", [
    ("ingest", _raise_first_output),
    ("estimate", _lift_a_plane_rehashed),
])
def test_validate_fails_a_corrupted_partial_run(small_panel, tmp_path, capsys,
                                                command, corrupt):
    out = str(tmp_path / "out")
    assert cli.main([command, "--input", small_panel, "--out", out,
                     "--jobs", "1"]) == cli.EXIT_OK
    check, message = corrupt(out)
    capsys.readouterr()
    assert cli.main(["validate", "--input", out]) == cli.EXIT_VALIDATION
    report = capsys.readouterr().out
    status = dict(line.split() for line in report.splitlines() if not line.startswith(" "))
    assert status.pop(check) == "FAIL"
    assert set(status.values()) <= {"PASS"}
    assert message in report


def test_branch_and_bound_past_its_node_cap_is_exit_3(tmp_path, monkeypatch, capsys):
    # on noise-free output less a fixed cost the ten decile technologies
    # are equal; with the node cap lowered the search reaches it and the
    # run fails as a solver error instead of running on
    synth_out = str(tmp_path / "synth")
    assert cli.main(["synth", "--cities", "20", "--years", "2", "--noise-sigma", "0",
                     "--out", synth_out]) == cli.EXIT_OK
    panel = os.path.join(synth_out, "synthetic_panel.csv")
    _edit_rows(panel, lambda rows: [r.update(grdp=repr(float(r["grdp"]) - 0.25))
                                    for r in rows])
    monkeypatch.setattr("cityalloc.solver._MAX_NODES", 5)
    out = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["run", "--input", panel, "--scenarios", "entry_exit",
                     "--out", str(out), "--jobs", "1"])
    assert code == cli.EXIT_SOLVER
    assert "scenario entry_exit: branch and bound passed 5 nodes" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_estimate_writes_the_tables_run_writes(small_panel, tmp_path):
    outs = {command: tmp_path / command for command in ("estimate", "run")}
    for command, out in outs.items():
        assert cli.main([command, "--input", small_panel, "--out", str(out),
                         "--jobs", "1"]) == cli.EXIT_OK
    for name in ("panel.csv", "fits.csv", "deciles.csv"):
        assert (outs["estimate"] / name).read_bytes() == (outs["run"] / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["--scenarios", "perfect:Z"],
    ["--scenarios", "entry_exit:K"],
], ids=["unknown_factor", "restricted_entry_mode"])
def test_config_errors_exit_2_before_any_fit(small_panel, tmp_path, monkeypatch, argv):
    fitted = []
    monkeypatch.setattr("cityalloc.gains.fit_all_quantiles",
                        lambda *args, **kwargs: fitted.append(args))
    out = tmp_path / "out"
    code = cli.main(["run", "--input", small_panel, "--out", str(out),
                     "--jobs", "1"] + argv)
    assert code == cli.EXIT_VALIDATION
    assert not out.exists() or not os.listdir(out)
    assert fitted == []


@pytest.mark.parametrize("flag, line", [
    ("--factors=K", "factors = K"),
    ("--entry-exit", "entry_exit = true"),
    ("--local", "local = true"),
    ("--tolerance=1e-8", "tolerance = 1e-8"),
    ("--quantiles=0.1,0.3,0.5,0.7,0.9", "quantiles = 0.1,0.3,0.5,0.7,0.9"),
])
def test_scenario_knobs_besides_scenarios_are_gone(tmp_path, capsys, flag, line):
    with pytest.raises(SystemExit) as err:
        cli._build_parser().parse_args(["run", flag])
    assert err.value.code == 2
    config = tmp_path / "run.conf"
    config.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["ingest", "--synthetic", "default", "--out", str(tmp_path / "out"),
                     "--config", str(config)]) == cli.EXIT_VALIDATION
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err


def test_allocate_and_gain_are_folded_into_run():
    # run writes every table the two commands wrote
    for command in ("allocate", "gain"):
        with pytest.raises(SystemExit) as err:
            cli._build_parser().parse_args([command])
        assert err.value.code == 2


def test_crs_run_fits_through_the_origin_and_validates(small_panel, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--crs", "--input", small_panel, "--out", out,
                     "--jobs", "1"]) == cli.EXIT_OK
    assert all(float(r["alpha"]) == 0.0 for r in _rows(os.path.join(out, "fits.csv")))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh)["config"]["crs"] is True
    assert cli.main(["validate", "--input", out]) == cli.EXIT_OK


def test_write_solutions_tables(tmp_path):
    # one allocations table per template, one summary row per unit and template
    techs = [DecileTechnology(d, (2 * d - 1) / 20, [0.5 * d, 4.0 + d],
                              [[1.0, 2.0], [0.0, 0.0]], d) for d in (1, 2, 3)]
    solutions = {mode: solve_scenario(PlannerScenario(2015, mode, techs, ("K", "L"),
                                                      {"K": 3.0, "L": 4.0}))
                 for mode in ("perfect", "local")}
    templates = [ScenarioTemplate("perfect"), ScenarioTemplate("local")]
    cli._write_solutions([SimpleNamespace(solutions=solutions)], templates, str(tmp_path))
    for t in templates:
        header, *lines = (tmp_path / f"allocations_{t.label}.csv").read_text().splitlines()
        assert header == "year,scenario,decile,pseudo_city,b,k,l,y"
        assert len(lines) == 1 + 2 + 3
        first = lines[0].split(",")
        assert first[:5] == ["2015", t.label, "1", "1", "1"]
        assert float(first[-1]) == solutions[t.label].output[0]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "year,scenario,Y_e"
    assert [line.split(",")[1] for line in summary[1:]] == ["perfect", "local"]
    assert float(summary[1].split(",")[2]) == solutions["perfect"].efficient_output


def test_comma_city_id_runs_and_validates(small_panel, tmp_path):
    # a quoted city id holding a comma is legal input: every table quotes
    # it, and no table ends its lines in CRLF
    with open(small_panel, newline="", encoding="utf-8") as fh:
        rows = [["C,001" if cell == "C001" else cell for cell in row]
                for row in csv.reader(fh)]
    panel = str(tmp_path / "comma.csv")
    with open(panel, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--input", panel, "--out", out, "--jobs", "1"]) == cli.EXIT_OK
    assert cli.main(["validate", "--input", out]) == cli.EXIT_OK
    assert "C,001" in {r["city_id"] for r in _rows(os.path.join(out, "deciles.csv"))}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            assert b"\r" not in fh.read(), name


def test_validate_reads_crlf_tables(run_dir, tmp_path):
    # directories written before every table went through one writer end
    # the lines of gains.csv and panel.csv in CRLF
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name in ("gains.csv", "panel.csv"):
        path = os.path.join(copy, name)
        with open(path, "rb") as fh:
            text = fh.read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b"\n", b"\r\n"))
        manifest["artifacts"][name] = cli._sha256(path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    assert cli.main(["validate", "--input", copy]) == cli.EXIT_OK
