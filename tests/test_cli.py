"""Command-line commands and exit codes, run in-process through cli.main."""

import csv
import json
import os
import shutil

import pytest

from cityalloc import cli


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
    assert cli.main(["run", "--input", panel, "--out", run_out,
                     "--jobs", "1"]) == cli.EXIT_OK
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
