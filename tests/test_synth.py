"""Synthetic generator and grid-oracle checks."""

import json

import numpy as np
import pytest

import oracles
from cityalloc import (
    CapitalRule,
    DecileTechnology,
    GroundTruth,
    NOISY_COVERAGE_SPEC,
    PlannerScenario,
    SyntheticSpec,
    analytic_efficient_output,
    generate,
    load_panel,
    rows_to_csv,
    solve_perfect,
    truth_from_json,
    truth_to_json,
)


def random_envelope_tech(rng, decile, count, n_planes=4):
    alpha = rng.uniform(-1.0, 2.0, n_planes)
    beta = rng.uniform(0.05, 1.2, (n_planes, 2))
    alpha = np.append(alpha, alpha.max() + 1.0)
    beta = np.vstack([beta, [0.0, 0.0]])
    return DecileTechnology(decile, 0.5, alpha, beta, count)


def test_spec_validation():
    ok = dict(city_count=4, year_count=2, scale=1.0, exponents=(0.4, 0.5),
              wedge_sigma=0.3, noise_sigma=0.0, seed=1)
    SyntheticSpec(**ok)
    for bad in (dict(city_count=0), dict(year_count=1), dict(scale=0.0),
                dict(exponents=(0.4, -0.1)), dict(exponents=(0.6, 0.6)),
                dict(exponents=()), dict(wedge_sigma=-1.0),
                dict(noise_sigma=-0.5)):
        with pytest.raises(ValueError):
            SyntheticSpec(**{**ok, **bad})


def test_sigma_zero_gain_is_one():
    spec = SyntheticSpec(6, 3, 2.0, (0.4, 0.5), 0.0, 0.0, 11)
    rows, truth = generate(spec)
    assert np.allclose(truth.true_gain, 1.0, atol=1e-12)
    # every city holds the same mix
    emp = sorted(set(round(r["employment"], 12) for r in rows))
    assert len(emp) == 1


def test_crs_aggregation_closed_form():
    spec = SyntheticSpec(2, 2, 1.0, (0.5, 0.5), 0.0, 0.0, 1)
    assert analytic_efficient_output(spec, [4.0, 4.0]) == pytest.approx(4.0)
    solo = SyntheticSpec(1, 2, 3.0, (0.3, 0.6), 0.0, 0.0, 1)
    want = 3.0 * 2.0 ** 0.3 * 5.0 ** 0.6
    assert analytic_efficient_output(solo, [2.0, 5.0]) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_efficient_output(spec, [4.0])


def test_crs_wedges_leave_efficient_output_fixed():
    # under constant returns the efficient aggregate ignores wedges
    spec = SyntheticSpec(2, 2, 1.3, (0.45, 0.55), 0.8, 0.0, 7)
    _, truth = generate(spec)
    want = 1.3 * 2.0 ** 0.45 * 2.0 ** 0.55
    assert truth.efficient_output == pytest.approx(want, rel=1e-12)


def test_equal_split_matches_cobb_douglas_grid():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.uniform(0.2, 0.45, 2)
        scale = float(rng.uniform(0.5, 3.0))
        totals = rng.uniform(1.0, 6.0, 2)
        spec = SyntheticSpec(2, 2, scale, tuple(a), 0.0, 0.0, 1)
        got = analytic_efficient_output(spec, totals)
        want = oracles.cobb_douglas_grid_two(scale, a, totals, 1e-3)
        assert abs(got - want) < 1e-3 * (1.0 + abs(want))
    # random generated economy, decreasing returns
    spec = SyntheticSpec(2, 3, 1.7, (0.35, 0.4), 0.6, 0.0, 31)
    _, truth = generate(spec)
    want = oracles.cobb_douglas_grid_two(1.7, (0.35, 0.4), [2.0, 2.0], 1e-3)
    assert abs(truth.efficient_output - want) < 1e-3 * (1.0 + abs(want))


def test_generate_is_deterministic():
    a, ta = generate(NOISY_COVERAGE_SPEC)
    b, tb = generate(NOISY_COVERAGE_SPEC)
    assert a == b
    assert np.array_equal(ta.actual_output, tb.actual_output)
    assert ta.efficient_output == tb.efficient_output


def test_actual_never_exceeds_efficient_when_noise_free():
    rng = np.random.default_rng(41)
    for seed in rng.integers(0, 2 ** 31, 10):
        spec = SyntheticSpec(12, 2, 1.0, (0.35, 0.5), 0.7, 0.0, int(seed))
        _, truth = generate(spec)
        assert np.all(truth.true_gain >= 1.0 - 1e-12)


def test_panel_round_trip_reconstructs_capital(tmp_path):
    spec = SyntheticSpec(8, 5, 1.5, (0.35, 0.45), 0.5, 0.1, 42)
    rows, truth = generate(spec)
    path = tmp_path / "panel.csv"
    rows_to_csv(rows, path)
    panel = load_panel(path, base_year=2003, capital_rule=CapitalRule())
    assert panel.n_cities == 8
    assert np.array_equal(panel.years, truth.years)
    delta = CapitalRule().delta
    intended = {}
    for r in rows:
        intended.setdefault(r["city_id"], {})[r["year"]] = r["investment"] / delta
    for i, cid in enumerate(panel.city_id):
        for t, yr in enumerate(panel.years):
            want = intended[cid][int(yr)]
            assert panel.inputs["K"][i, t] == pytest.approx(want, rel=1e-12)
    got_actual = panel.y.sum(axis=0)
    assert np.allclose(got_actual, truth.actual_output, rtol=1e-12)


def test_truth_json_round_trip(tmp_path):
    _, truth = generate(SyntheticSpec(5, 3, 1.1, (0.3, 0.55), 0.4, 0.05, 9))
    path = tmp_path / "truth.json"
    truth_to_json(truth, path)
    back = truth_from_json(path)
    assert isinstance(back, GroundTruth)
    assert np.array_equal(back.years, truth.years)
    assert back.efficient_output == truth.efficient_output
    assert np.array_equal(back.true_gain, truth.true_gain)
    payload = json.loads(path.read_text())
    assert set(payload) == {"years", "endowments", "actual_output",
                            "efficient_output", "true_gain"}


def test_grid_single_city_is_direct_evaluation():
    rng = np.random.default_rng(51)
    tech = random_envelope_tech(rng, 1, 2)
    totals = [3.0, 4.0]
    got = oracles.brute_force_allocate([tech], totals, 1e-3)
    want = 2.0 * float(tech.envelope(np.array(totals) / 2.0)[0])
    assert got == pytest.approx(want, rel=1e-12)


def test_grid_two_identical_cities_split_evenly():
    rng = np.random.default_rng(53)
    tech_planes = random_envelope_tech(rng, 1, 1)
    techs = [tech_planes,
             DecileTechnology(2, 0.6, tech_planes.alpha, tech_planes.beta, 1)]
    totals = np.array([2.0, 5.0])
    got = oracles.brute_force_allocate(techs, totals, 1e-3)
    want = 2.0 * float(tech_planes.envelope(totals / 2.0)[0])
    # the optimum sits within one grid step of the symmetric split
    assert got <= want + 1e-9
    assert want - got < 2e-3 * (1.0 + abs(want))


def test_grid_matches_planner_lp():
    rng = np.random.default_rng(57)
    for _ in range(6):
        techs = [random_envelope_tech(rng, 1, 2), random_envelope_tech(rng, 2, 2)]
        totals = {"K": float(rng.uniform(1, 6)), "L": float(rng.uniform(1, 6))}
        lp = solve_perfect(PlannerScenario(2015, "perfect", techs, ("K", "L"),
                                           totals)).efficient_output
        grid = oracles.brute_force_allocate(techs, [totals["K"], totals["L"]],
                                            1e-3)
        assert grid <= lp + 1e-9
        assert lp - grid <= 5e-3 * (1.0 + abs(lp))


def test_grid_refuses_beyond_oracle_scale():
    rng = np.random.default_rng(59)
    big = [random_envelope_tech(rng, 1, 3), random_envelope_tech(rng, 2, 2)]
    with pytest.raises(ValueError, match="4 pseudo-cities"):
        oracles.brute_force_allocate(big, [1.0, 1.0], 0.01)
    tech3 = DecileTechnology(1, 0.5, [1.0], [[0.1, 0.2, 0.3]], 1)
    with pytest.raises(ValueError, match="2 factors"):
        oracles.brute_force_allocate([tech3], [1.0, 1.0, 1.0], 0.01)
    four = [random_envelope_tech(rng, d + 1, 1) for d in range(4)]
    with pytest.raises(ValueError, match="grid too fine"):
        oracles.brute_force_allocate(four, [1.0, 1.0], 1e-3)


def test_requires_two_inputs_for_panel_generation():
    spec = SyntheticSpec(3, 2, 1.0, (0.9,), 0.2, 0.0, 3)
    with pytest.raises(ValueError, match="two inputs"):
        generate(spec)
