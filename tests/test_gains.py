"""Gain pipeline and bootstrap checks."""

from dataclasses import replace

import numpy as np
import pytest

import cityalloc.cqr
import cityalloc.gains
import cityalloc.planner
import oracles
from cityalloc import (
    BootstrapConfig,
    EstimationSettings,
    GainError,
    GainResult,
    Panel,
    PipelineError,
    ScenarioTemplate,
    bootstrap_gain,
    compute_gain,
    plot_payloads,
    generate,
    load_panel,
    run_pipeline,
    solve_scenario,
    rows_to_csv,
    SyntheticSpec,
    fit_cqr,
)
from cityalloc import cli
from cityalloc.cli import gains_to_csv
from cityalloc.gains import order_problems
from cityalloc.planner import DecileTechnology, PlannerScenario
from cityalloc.solver import solve_lp


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
    return solve_scenario(scn)


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
    assert len(gains) == 3 * len(templates)
    assert order_problems(gains, templates) == []


def test_pooled_run_on_constant_panel_matches_yearly(fixture_panel):
    panel, _ = fixture_panel
    x, y, _ = panel.year_slice(2003)
    const = Panel(panel.city_id, panel.years, np.tile(y[:, None], (1, 3)),
                  {n: np.tile(panel.inputs[n][:, [0]], (1, 3))
                   for n in panel.inputs})
    pooled = run_pipeline(const, ScenarioTemplate("perfect"),
                          EstimationSettings(fixed_effects=True))
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


# largest relative gap |gain / true_gain - 1| of noise-free perfect runs
# over seeds 7-16 (the sweep in CHANGES.md), rounded up: 3.4e-3 at 120
# cities, 8.0e-4 at 284
RECOVERY_BOUND = {120: 4e-3, 284: 1e-3}


@pytest.mark.parametrize("cities", [120, 284])
@pytest.mark.parametrize("seed", [7, 8])
def test_noise_free_perfect_gain_recovers_the_truth(tmp_path, cities, seed):
    # with no output noise every city has the one technology, so the
    # wedges are all the misallocation and perfect reallocation reaches the
    # closed-form efficient output (ROADMAP item 11; at noise 0 every truth
    # of item 23 equals true_gain)
    spec = replace(cli._FIXTURE, noise_sigma=0.0, year_count=2, city_count=cities, seed=seed)
    rows, truth = generate(spec)
    rows_to_csv(rows, tmp_path / "panel.csv")
    gains = run_pipeline(load_panel(tmp_path / "panel.csv", base_year=2003),
                         ScenarioTemplate("perfect"))
    assert [g.year for g in gains] == truth.years.tolist()
    gap = np.abs(np.array([g.gain for g in gains]) / truth.true_gain - 1.0)
    assert gap.max() <= RECOVERY_BOUND[cities]


def test_parallel_matches_serial(fixture_panel):
    panel, _ = fixture_panel
    templates = [ScenarioTemplate("perfect"), ScenarioTemplate("local")]
    serial = run_pipeline(panel, templates)
    para = run_pipeline(panel, templates, jobs=2)
    assert [g.gain for g in serial] == [g.gain for g in para]


def test_unit_scenarios_share_their_rows_master(fixture_panel, monkeypatch):
    # the five pin-free modes build one counts LP but for its bounds, so
    # each unit solves them all on one Master: its first solve starts cold
    # and every later one, branch-and-bound nodes included, re-enters
    # warm; gains do not depend on the order or on the company of another
    # template
    panel, _ = fixture_panel
    templates = (ScenarioTemplate("perfect"),
                 ScenarioTemplate("imperfect", iceberg=0.05, depletion=0.05),
                 ScenarioTemplate("entry_exit"), ScenarioTemplate("local"),
                 ScenarioTemplate("local_entry_exit"))
    calls = []

    def recording(problem):
        calls.append((problem, solve_lp(problem)))
        return calls[-1][1]

    # planner.solve_lp takes the LPs, solver.solve_lp the branch-and-bound nodes
    monkeypatch.setattr("cityalloc.planner.solve_lp", recording)
    monkeypatch.setattr("cityalloc.solver.solve_lp", recording)
    runs = {}
    for order in (templates, templates[::-1]):
        calls.clear()
        runs[order[0].label] = run_pipeline(panel, order)
        masters = list(dict.fromkeys(problem for problem, _ in calls))
        assert len(masters) == len(panel.years)
        for master in masters:
            warm = [res.warm_started for problem, res in calls if problem is master]
            assert len(warm) >= len(templates) and warm == [False] + [True] * (len(warm) - 1)
    runs["alone"] = [g for t in templates for g in run_pipeline(panel, t)]
    gains = {k: {(g.year, g.scenario): g.gain for g in v} for k, v in runs.items()}
    want = gains["alone"]
    assert len(want) == len(templates) * len(panel.years)
    for got in gains.values():
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-9 * want[k] for k in want)


def test_pin_free_gains_do_not_depend_on_template_order(fixture_panel):
    # the five pin-free modes share Masters in whatever order they come,
    # entry/exit bounds before or after the fixed counts, and land on the
    # same gains either way
    panel, _ = fixture_panel
    templates = (ScenarioTemplate("perfect"),
                 ScenarioTemplate("imperfect", iceberg=0.05, depletion=0.05),
                 ScenarioTemplate("entry_exit"), ScenarioTemplate("local"),
                 ScenarioTemplate("local_entry_exit"))
    forward = run_pipeline(panel, templates)
    backward = run_pipeline(panel, templates[::-1])
    assert order_problems(forward, templates) == order_problems(backward, templates) == []
    want = {(g.year, g.scenario): g.gain for g in forward}
    got = {(g.year, g.scenario): g.gain for g in backward}
    assert got.keys() == want.keys() and len(want) == len(templates) * len(panel.years)
    assert all(abs(got[k] - want[k]) <= 1e-9 * want[k] for k in want)


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
    # with no templates a run estimates only: the same fits and deciles,
    # no gains and no solutions
    estimated = []
    assert run_pipeline(panel, [], audit=estimated) == []
    for a, e in zip(audit, estimated, strict=True):
        assert e.solutions == {}
        for fa, fe in zip(a.fits + (a.median_fit,), e.fits + (e.median_fit,), strict=True):
            assert np.array_equal(fa.alpha, fe.alpha) and np.array_equal(fa.beta, fe.beta)
        assert np.array_equal(a.assignment.decile, e.assignment.decile)


def split_pivots(results):
    """A fit's master solves and their pivots by kind, split as
    scripts/paper_sweep.py split them when it wrapped cqr.solve_lp: the
    reference that cqr.FitWork must equal."""
    work = dict(cold=0, rounds=0, reentry_dual=0, reentry_primal=0,
                master_solves=len(results))
    for res in results:
        if not res.warm_started:
            work["cold"] += res.iteration_count
        elif res.dual_iterations:
            work["reentry_dual"] += res.dual_iterations
            work["reentry_primal"] += res.iteration_count - res.dual_iterations
        else:
            work["rounds"] += res.iteration_count
    return work


def test_audit_records_each_fit_and_scenario_work(tmp_path, monkeypatch):
    # each fit's record equals the split of the solves a wrapped
    # cqr.solve_lp sees during its fit_cqr call, and each scenario's the
    # pivots and calls a wrapped planner.solve_lp / solve_integer sees
    # during its solve_scenario call; the separable perfect:K solves none
    rows, _ = generate(replace(cli._FIXTURE, city_count=40, year_count=2))
    rows_to_csv(rows, tmp_path / "panel.csv")
    year = load_panel(tmp_path / "panel.csv", base_year=2003)
    panel = Panel(year.city_id, year.years[:1], year.y[:, :1],
                  {f: v[:, :1] for f, v in year.inputs.items()})
    results, per_fit, per_scenario = [], {}, []

    def recording(solve):
        def recorded(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]
        return recorded

    def delimiting(call, store):
        def delimited(*args, **kwargs):
            results.clear()
            out = call(*args, **kwargs)
            store(out, list(results))
            return out
        return delimited

    monkeypatch.setattr(cityalloc.cqr, "solve_lp", recording(cityalloc.cqr.solve_lp))
    monkeypatch.setattr(cityalloc.planner, "solve_lp", recording(cityalloc.planner.solve_lp))
    monkeypatch.setattr(cityalloc.planner, "solve_integer",
                        recording(cityalloc.planner.solve_integer))
    monkeypatch.setattr(cityalloc.cqr, "fit_cqr", delimiting(
        cityalloc.cqr.fit_cqr, lambda fit, res: per_fit.__setitem__(fit.tau, res)))
    monkeypatch.setattr(cityalloc.gains, "solve_scenario", delimiting(
        cityalloc.gains.solve_scenario, lambda _, res: per_scenario.append(res)))
    templates = cli.scenario_templates(cli.RunConfig(
        scenarios=("perfect", "imperfect", "entry_exit", "local", "perfect:K")))
    audit = []
    run_pipeline(panel, templates, audit=audit)
    (unit,) = audit
    fits = unit.fits + (unit.median_fit,)
    assert sorted(f.tau for f in fits) == sorted(per_fit)
    for fit in fits:
        assert fit.work._asdict() == split_pivots(per_fit[fit.tau])
    total = [sum(col) for col in zip(*(f.work for f in fits))]
    assert min(total) > 0 and total[-1] > len(fits)  # every kind of pivot, and rounds
    got = [(s.iteration_count, s.solve_count) for s in unit.solutions.values()]
    assert got == [(sum(r.iteration_count for r in res), len(res)) for res in per_scenario]
    assert got[-1] == (0, 0) and all(pivots > 0 for pivots, _ in got[:-1])


def test_repeated_cities_fit_as_expanded_rows(fixture_panel):
    # a resample's repeated cities are fitted once, with their multiplicity
    # as weight, and must reproduce the fit on every row
    panel, _ = fixture_panel
    idx = np.array([0, 1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0])
    sub = panel.select_cities(idx)
    audit = []
    run_pipeline(sub, ScenarioTemplate("perfect"), audit=audit)
    for a in audit:
        x, y, _ = sub.year_slice(a.year)
        for fit in a.fits + (a.median_fit,):
            ref = fit_cqr(x, y, fit.tau)
            assert fit.n_obs == len(idx)
            assert abs(fit.objective - ref.objective) <= 1e-9 * abs(ref.objective)
            got = fit.alpha + np.sum(x * fit.beta, axis=1)
            want = ref.alpha + np.sum(x * ref.beta, axis=1)
            assert np.max(np.abs(got - want)) <= 1e-7
        sizes = a.assignment.sizes
        assert sorted(sizes.tolist()) == [1] * 2 + [2] * 8
        assert [t.pseudo_city_count for t in a.technologies] == sizes.tolist()


def test_shared_city_id_with_different_data_is_not_merged(fixture_panel):
    # rows are collapsed on their data, never on the city id
    panel, _ = fixture_panel
    ids = panel.city_id.copy()
    ids[1] = ids[0]
    shared = Panel(ids, panel.years, panel.y, panel.inputs)
    base_audit, shared_audit = [], []
    run_pipeline(panel, ScenarioTemplate("perfect"), audit=base_audit)
    run_pipeline(shared, ScenarioTemplate("perfect"), audit=shared_audit)
    for a, b in zip(base_audit, shared_audit):
        for fa, fb in zip(a.fits + (a.median_fit,), b.fits + (b.median_fit,)):
            assert np.array_equal(fa.alpha, fb.alpha)
            assert np.array_equal(fa.beta, fb.beta)
            assert fa.objective == fb.objective


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


def test_replicate_failure_is_annotated(tmp_path, monkeypatch):
    # ten cities; a resample that loses one is too small to rank
    rows, _ = generate(SyntheticSpec(10, 2, 1.0, (0.35, 0.45), 0.4, 0.1, 8))
    path = tmp_path / "ten.csv"
    rows_to_csv(rows, path)
    panel = load_panel(path, base_year=2003)
    select = Panel.select_cities
    monkeypatch.setattr(Panel, "select_cities",
                        lambda self, idx: select(self, np.asarray(idx)[1:]))
    cfg = BootstrapConfig(replicates=2, seed=0)
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
    with pytest.raises(GainError):
        run_pipeline(panel, [ScenarioTemplate("perfect"),
                             ScenarioTemplate("perfect")])


def test_allocate_failures_name_the_year_and_scenario(fixture_panel, monkeypatch):
    panel, _ = fixture_panel
    template = ScenarioTemplate("perfect", label="base")

    def infeasible(scenario, masters):
        raise ValueError("no feasible allocation")

    monkeypatch.setattr("cityalloc.gains.solve_scenario", infeasible)
    with pytest.raises(PipelineError) as err:
        run_pipeline(panel, template)
    assert (err.value.stage, err.value.year) == ("allocate", 2003)
    assert str(err.value) == "year 2003, scenario base: no feasible allocation"
    assert isinstance(err.value.__cause__, ValueError)

    # a failure already classified passes through as it was raised
    classified = PipelineError("technology build failed", stage="technology", year=2003)

    def annotated(scenario, masters):
        raise classified

    monkeypatch.setattr("cityalloc.gains.solve_scenario", annotated)
    with pytest.raises(PipelineError) as err:
        run_pipeline(panel, template)
    assert err.value is classified


def test_estimation_settings_are_one_checked_value():
    plain = EstimationSettings()
    assert plain == EstimationSettings(False, False) and hash(plain) == hash(EstimationSettings())
    assert plain != EstimationSettings(crs=True) and plain != EstimationSettings(True)


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

    payload = plot_payloads(gains, [ScenarioTemplate("perfect")])["plot_gains.json"]
    assert len(payload["series"]) == 1
    series = payload["series"][0]
    assert series["scenario"] == "perfect"
    assert [p["year"] for p in series["points"]] == [2003, 2004, 2005]
    assert all("ci_low" in p and "se" in p for p in series["points"])


def test_rescaled_units_complete_and_agree(tmp_path):
    # the CLI fixture's economy at 30 cities x 2 years, rescaled after
    # loading to large output and input units
    rows, _ = generate(SyntheticSpec(30, 2, 1.0, (0.35, 0.45), 0.5, 0.1, 7))
    path = tmp_path / "panel.csv"
    rows_to_csv(rows, path)
    panel = load_panel(path, base_year=2003)
    scaled = Panel(panel.city_id, panel.years, panel.y * 1e8,
                   {"K": panel.inputs["K"] * 1e5, "L": panel.inputs["L"] * 1e3})
    templates = [ScenarioTemplate("perfect"),
                 ScenarioTemplate("imperfect", iceberg=0.05, depletion=0.05),
                 ScenarioTemplate("entry_exit"), ScenarioTemplate("local")]
    base = run_pipeline(panel, templates)
    moved = run_pipeline(scaled, templates)
    assert [(g.year, g.scenario) for g in moved] == [(g.year, g.scenario) for g in base]
    # Rescaling moves which optimal frontier vertex the simplex returns,
    # so gains agree only approximately; exact unit invariance needs a
    # unique counterfactual technology (ROADMAP open item 4).
    for g, ref in zip(moved, base):
        assert abs(g.gain - ref.gain) <= 2e-3 * ref.gain


def test_entry_exit_ends_on_interchangeable_deciles(tmp_path, monkeypatch):
    # noise-free output less a fixed cost: every decile fits the one
    # frontier, so all ten technologies are equal, and without rows that
    # order their counts the branch and bound explores every symmetric
    # copy of the fractional unit (past 2,000 nodes in one year)
    rows, _ = generate(SyntheticSpec(20, 2, 1.0, (0.35, 0.45), 0.5, 0.0, 7))
    for r in rows:
        r["grdp"] -= 0.25
    rows_to_csv(rows, tmp_path / "panel.csv")
    panel = load_panel(tmp_path / "panel.csv", base_year=2003)
    nodes = []

    def counted(problem):
        nodes.append(problem)
        if len(nodes) > 300:
            raise RuntimeError("branch and bound passed 300 nodes")
        return solve_lp(problem)

    monkeypatch.setattr("cityalloc.solver.solve_lp", counted)
    audit = []
    run_pipeline(panel, ScenarioTemplate("entry_exit"), audit=audit)
    for unit in audit:
        techs = unit.technologies
        assert all(np.array_equal(t.alpha, techs[0].alpha)
                   and np.array_equal(t.beta, techs[0].beta) for t in techs)
        want = oracles.planner_entry_milp([(t.alpha, t.beta) for t in techs],
                                          [t.pseudo_city_count for t in techs],
                                          panel.year_slice(unit.year)[0].sum(axis=0))
        got = unit.solutions["entry_exit"].efficient_output
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
