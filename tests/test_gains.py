"""Gain pipeline and bootstrap checks."""

import numpy as np
import pytest

from cityalloc import (
    BootstrapConfig,
    GainError,
    GainResult,
    Panel,
    PipelineError,
    ScenarioTemplate,
    bootstrap_gain,
    compute_gain,
    gains_to_csv,
    gains_to_plot_json,
    generate,
    load_panel,
    run_pipeline,
    rows_to_csv,
    solve_perfect,
    SyntheticSpec,
)
from cityalloc.planner import DecileTechnology, PlannerScenario


@pytest.fixture(scope="module")
def fixture_panel(tmp_path_factory):
    spec = SyntheticSpec(14, 3, 1.4, (0.35, 0.45), 0.5, 0.1, 77)
    rows, truth = generate(spec)
    path = tmp_path_factory.mktemp("gains") / "panel.csv"
    rows_to_csv(rows, path)
    return load_panel(path, base_year=2003), truth


def solved_solution():
    tech = DecileTechnology(1, 0.5, [0.0, 5.0], [[1.0, 0.5], [0.0, 0.0]], 3)
    scn = PlannerScenario(2010, "perfect", [tech], ("K", "L"),
                          {"K": 3.0, "L": 3.0})
    return solve_perfect(scn)


def test_template_validation_and_labels():
    assert ScenarioTemplate("perfect").label == "perfect"
    assert ScenarioTemplate("local", reallocated_factors=("L",)).label == "local_L"
    assert ScenarioTemplate("perfect", label="base").label == "base"
    with pytest.raises(GainError):
        ScenarioTemplate("optimal")
    with pytest.raises(GainError):
        ScenarioTemplate("perfect", reallocated_factors=("L", "L"))
    with pytest.raises(GainError):
        ScenarioTemplate("imperfect", iceberg=-0.1)


def test_gain_result_invariants():
    g = GainResult(2005, "perfect", 1.349, 1000.0, 1349.0)
    assert g.allocative_efficiency == pytest.approx(1.0 / 1.349, abs=1e-15)
    assert not g.pooled
    assert GainResult(0, "perfect", 1.0, 2.0, 2.0).pooled
    with pytest.raises(GainError):
        GainResult(2005, "perfect", 1.4, 1000.0, 1349.0)
    with pytest.raises(GainError):
        GainResult(2005, "perfect", 1.0, 0.0, 0.0)
    with pytest.raises(GainError):
        GainResult(2005, "perfect", 1.0, 2.0, 2.0, ci_low=0.9)
    with pytest.raises(GainError):
        GainResult(2005, "perfect", 1.0, 2.0, 2.0, ci_low=1.1, ci_high=1.2)
    with pytest.raises(GainError):
        BootstrapConfig(replicates=0)


def test_compute_gain_ratio_examples():
    sol = solved_solution()
    y = np.full(3, sol.efficient_output / 1.349 / 3.0)
    g = compute_gain(sol, y)
    assert g.gain == pytest.approx(sol.efficient_output / y.sum(), abs=1e-15)
    assert g.scenario == "perfect" and g.year == 2010
    even = np.full(3, sol.efficient_output / 3.0)
    assert compute_gain(sol, even, label="base").gain == pytest.approx(1.0)
    with pytest.raises(GainError):
        compute_gain(sol, np.zeros(3))
    with pytest.raises(GainError):
        compute_gain(sol, np.ones(4))


def test_yearly_cardinality_and_order(fixture_panel):
    panel, _ = fixture_panel
    gains = run_pipeline(panel, ScenarioTemplate("perfect"))
    assert [g.year for g in gains] == [2003, 2004, 2005]
    assert all(g.scenario == "perfect" for g in gains)


def test_scenario_ordering_chain(fixture_panel):
    panel, _ = fixture_panel
    templates = [ScenarioTemplate("perfect"),
                 ScenarioTemplate("imperfect", iceberg=0.05, depletion=0.05),
                 ScenarioTemplate("local"),
                 ScenarioTemplate("entry_exit"),
                 ScenarioTemplate("perfect", reallocated_factors=("L",))]
    gains = run_pipeline(panel, templates)
    by = {}
    for g in gains:
        by.setdefault(g.year, {})[g.scenario] = g.gain
    for d in by.values():
        assert d["imperfect"] <= d["perfect"] + 1e-9
        assert d["local"] <= d["perfect"] + 1e-9
        assert d["perfect"] <= d["entry_exit"] + 1e-9
        assert d["perfect_L"] <= d["perfect"] + 1e-9


def test_pooled_run_on_constant_panel_matches_yearly(fixture_panel):
    panel, _ = fixture_panel
    x, y, _ = panel.year_slice(2003)
    const = Panel(panel.city_id, panel.years, np.tile(y[:, None], (1, 3)),
                  {n: np.tile(panel.inputs[n][:, [0]], (1, 3))
                   for n in panel.inputs})
    pooled = run_pipeline(const, ScenarioTemplate("perfect"), fixed_effects=True)
    yearly = run_pipeline(const, ScenarioTemplate("perfect"))
    assert len(pooled) == 1 and pooled[0].pooled
    assert pooled[0].gain == pytest.approx(yearly[0].gain, abs=1e-9)


def test_noise_free_identical_cities_gain_one(tmp_path):
    rows, truth = generate(SyntheticSpec(20, 2, 1.2, (0.35, 0.45), 0.0, 0.0, 5))
    path = tmp_path / "flat.csv"
    rows_to_csv(rows, path)
    panel = load_panel(path, base_year=2003)
    gains = run_pipeline(panel, ScenarioTemplate("perfect"))
    assert np.allclose(truth.true_gain, 1.0)
    for g in gains:
        assert abs(g.gain - 1.0) < 1e-2


def test_parallel_matches_serial(fixture_panel):
    panel, _ = fixture_panel
    templates = [ScenarioTemplate("perfect"), ScenarioTemplate("local")]
    serial = run_pipeline(panel, templates)
    para = run_pipeline(panel, templates, jobs=2)
    assert [g.gain for g in serial] == [g.gain for g in para]


def test_audit_retains_artifacts(fixture_panel):
    panel, _ = fixture_panel
    audit = []
    run_pipeline(panel, ScenarioTemplate("perfect"), audit=audit)
    assert [a.year for a in audit] == [2003, 2004, 2005]
    for a in audit:
        assert len(a.fits) == 10 and len(a.technologies) == 10
        assert a.median_fit is not None
        assert set(a.solutions) == {"perfect"}
        assert a.assignment.sizes.sum() == panel.n_cities


def test_bootstrap_determinism_and_point_match(fixture_panel):
    panel, _ = fixture_panel
    cfg = BootstrapConfig(replicates=4, seed=9)
    a = bootstrap_gain(panel, ScenarioTemplate("perfect"), cfg)
    b = bootstrap_gain(panel, ScenarioTemplate("perfect"), cfg)
    point = run_pipeline(panel, ScenarioTemplate("perfect"))
    for ga, gb, gp in zip(a, b, point):
        assert (ga.gain, ga.standard_error, ga.ci_low, ga.ci_high) == \
               (gb.gain, gb.standard_error, gb.ci_low, gb.ci_high)
        assert ga.gain == gp.gain
        assert ga.standard_error > 0.0
        assert ga.ci_low <= ga.gain <= ga.ci_high
    c = bootstrap_gain(panel, ScenarioTemplate("perfect"), cfg, jobs=2)
    assert [g.standard_error for g in c] == [g.standard_error for g in a]


def test_single_replicate_reports_zero_se(fixture_panel):
    panel, _ = fixture_panel
    out = bootstrap_gain(panel, ScenarioTemplate("perfect"),
                         BootstrapConfig(replicates=1, seed=3))
    for g in out:
        assert g.standard_error == 0.0
        assert g.ci_low <= g.gain <= g.ci_high


def test_frozen_deciles_reproduce_own_run(fixture_panel):
    # feeding a run its own labels skips ranking but changes nothing else
    panel, _ = fixture_panel
    audit = []
    point = run_pipeline(panel, ScenarioTemplate("perfect"), audit=audit)
    frozen = {a.year: a.assignment.decile for a in audit}
    redo_audit = []
    redo = run_pipeline(panel, ScenarioTemplate("perfect"),
                        frozen_deciles=frozen, audit=redo_audit)
    assert [g.gain for g in redo] == [g.gain for g in point]
    assert all(a.median_fit is None for a in redo_audit)


def test_replicate_failure_is_annotated(tmp_path):
    # ten cities, one per decile: almost every resample starves a decile
    rows, _ = generate(SyntheticSpec(10, 2, 1.0, (0.35, 0.45), 0.4, 0.1, 8))
    path = tmp_path / "ten.csv"
    rows_to_csv(rows, path)
    panel = load_panel(path, base_year=2003)
    cfg = BootstrapConfig(replicates=20, seed=0, freeze_deciles=True)
    with pytest.raises(PipelineError) as err:
        bootstrap_gain(panel, ScenarioTemplate("perfect"), cfg)
    assert err.value.stage == "bootstrap"
    assert err.value.replicate is not None
    assert "resample indices" in str(err.value)


def test_pipeline_stage_errors(fixture_panel):
    panel, _ = fixture_panel
    small = panel.select_cities(np.arange(8))
    with pytest.raises(PipelineError) as err:
        run_pipeline(small, ScenarioTemplate("perfect"))
    assert err.value.stage == "ingest"
    with pytest.raises(PipelineError) as err:
        run_pipeline(panel, ScenarioTemplate("perfect"),
                     quantile_grid=[0.25, 0.5, 0.75])
    assert err.value.stage == "estimate"
    with pytest.raises(GainError):
        run_pipeline(panel, [])
    with pytest.raises(GainError):
        run_pipeline(panel, [ScenarioTemplate("perfect"),
                             ScenarioTemplate("perfect")])


def test_gains_csv_and_plot_json(tmp_path, fixture_panel):
    panel, _ = fixture_panel
    gains = bootstrap_gain(panel, ScenarioTemplate("perfect"),
                           BootstrapConfig(replicates=2, seed=1))
    csv_path = tmp_path / "gains.csv"
    gains_to_csv(gains, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "year,scenario,gain,se,ci_low,ci_high"
    assert len(lines) == 1 + len(gains)
    first = lines[1].split(",")
    assert first[0] == "2003" and first[1] == "perfect"
    assert float(first[2]) == gains[0].gain

    plain = run_pipeline(panel, ScenarioTemplate("perfect"))
    gains_to_csv(plain, csv_path)
    row = csv_path.read_text().splitlines()[1].split(",")
    assert row[3] == "" and row[4] == "" and row[5] == ""

    import json
    json_path = tmp_path / "gains.json"
    gains_to_plot_json(gains, json_path)
    payload = json.loads(json_path.read_text())
    assert len(payload["series"]) == 1
    series = payload["series"][0]
    assert series["scenario"] == "perfect"
    assert [p["year"] for p in series["points"]] == [2003, 2004, 2005]
    assert all("ci_low" in p and "se" in p for p in series["points"])
