"""Planner scenarios against grid, enumeration, and scipy oracles."""

import itertools

import numpy as np
import pytest

import cityalloc.planner
import oracles
from cityalloc.planner import (
    AllocationSolution,
    DecileTechnology,
    PlannerError,
    PlannerScenario,
    certify,
    solve_scenario,
    technology_from_fit,
)
from cityalloc.cqr import fit_cqr
from cityalloc.gains import GainResult, ScenarioTemplate, order_problems
from cityalloc.solver import solve_lp


def random_tech(rng, n_factors=2, n_planes=4, alpha_lo=-1.0, cap=None):
    """Random concave technology with a flat top plane so it is bounded."""
    beta = rng.uniform(0.1, 3.0, size=(n_planes, n_factors))
    alpha = rng.uniform(alpha_lo, 2.0, size=n_planes)
    beta = np.vstack([beta, np.zeros(n_factors)])
    alpha = np.append(alpha, rng.uniform(3.0, 9.0) if cap is None else cap)
    return alpha, beta


def random_scenario(rng, mode="perfect", n_deciles=3, max_cities=3, **kw):
    techs = []
    for d in range(n_deciles):
        alpha, beta = random_tech(rng)
        techs.append(DecileTechnology(d + 1, (2 * d + 1) / 20, alpha, beta,
                                      int(rng.integers(1, max_cities + 1))))
    totals = {"K": float(rng.uniform(1.0, 8.0)), "L": float(rng.uniform(1.0, 8.0))}
    return PlannerScenario(2015, mode, techs, ("K", "L"), totals, **kw)


def remodel(scn, mode, **kw):
    """Same technologies and totals under a different mode."""
    return PlannerScenario(scn.year, mode, scn.technologies, scn.factor_names,
                           scn.aggregate_resources, **kw)


def test_single_city_envelope():
    tech = DecileTechnology(1, 0.5, [1.0, 10.0], [[2.0, 3.0], [0.0, 0.0]], 1)
    scn = PlannerScenario(2015, "perfect", [tech], ("K", "L"), {"K": 2.0, "L": 2.0})
    sol = solve_scenario(scn)
    assert abs(sol.efficient_output - 10.0) < 1e-9
    assert np.allclose(sol.inputs, [[2.0, 2.0]], atol=1e-8)
    assert sol.active.tolist() == [1]
    assert sol.decile.tolist() == [1] and sol.pseudo_city.tolist() == [1]


def test_symmetric_replication():
    rng = np.random.default_rng(11)
    alpha, beta = random_tech(rng)
    one = PlannerScenario(2010, "perfect",
                          [DecileTechnology(1, 0.5, alpha, beta, 1)],
                          ("K", "L"), {"K": 0.7, "L": 1.3})
    ten = PlannerScenario(2010, "perfect",
                          [DecileTechnology(d + 1, 0.5, alpha, beta, 1)
                           for d in range(10)],
                          ("K", "L"), {"K": 7.0, "L": 13.0})
    lone = solve_scenario(one).efficient_output
    assert abs(solve_scenario(ten).efficient_output - 10.0 * lone) < 1e-8 * (1 + lone)


def test_matches_scipy_dense_lp():
    rng = np.random.default_rng(21)
    for _ in range(30):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)))
        got = solve_scenario(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"]])
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def test_matches_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a1, b1 = random_tech(rng, alpha_lo=0.0)
        a2, b2 = random_tech(rng, alpha_lo=0.0)
        kt, lt = rng.uniform(1.0, 4.0, size=2)
        scn = PlannerScenario(2015, "perfect",
                              [DecileTechnology(1, 0.25, a1, b1, 2),
                               DecileTechnology(2, 0.75, a2, b2, 2)],
                              ("K", "L"), {"K": kt, "L": lt})
        got = solve_scenario(scn).efficient_output
        want = oracles.two_decile_grid((a1, b1), (a2, b2), 2, 2, kt, lt, step=1e-3)
        # the grid undershoots by at most its resolution
        assert want <= got + 1e-9
        assert got - want <= 5e-3 * (1.0 + abs(got))


def test_imperfect_zero_friction_reduces_to_perfect():
    rng = np.random.default_rng(41)
    scn = random_scenario(rng)
    base = solve_scenario(scn)
    iced = solve_scenario(remodel(scn, "imperfect"))
    assert iced.efficient_output == base.efficient_output
    assert np.array_equal(iced.inputs, base.inputs)
    assert np.array_equal(iced.output, base.output)


def test_imperfect_scaled_corner():
    tech = DecileTechnology(1, 0.5, [1.0, 10.0], [[2.0, 3.0], [0.0, 0.0]], 1)
    scn = PlannerScenario(2015, "imperfect", [tech], ("K", "L"),
                          {"K": 2.0, "L": 2.0}, iceberg=0.05, depletion=0.05)
    sol = solve_scenario(scn)
    assert abs(sol.efficient_output - 10.0) < 1e-9
    assert np.allclose(sol.inputs, [[2.0 / 1.05, 2.0 / 1.05]], atol=1e-8)


def test_friction_rescaling_identity():
    rng = np.random.default_rng(51)
    for _ in range(10):
        scn = random_scenario(rng)
        iced = solve_scenario(remodel(scn, "imperfect", iceberg=0.05, depletion=0.05))
        shrunk = PlannerScenario(
            scn.year, "perfect", scn.technologies, scn.factor_names,
            {f: v / 1.05 for f, v in scn.aggregate_resources.items()})
        assert abs(iced.efficient_output - solve_scenario(shrunk).efficient_output) < 1e-8


def test_imperfect_matches_scipy_weights():
    rng = np.random.default_rng(61)
    for _ in range(10):
        scn = random_scenario(rng, mode="imperfect",
                              iceberg=float(rng.uniform(0, 0.3)),
                              depletion=float(rng.uniform(0, 0.3)))
        got = solve_scenario(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"]],
            weights=[1.0 + scn.iceberg, 1.0 + scn.depletion])
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def observed_inputs(rng, scn):
    """A feasible 'observed' allocation exhausting each total."""
    n = sum(t.pseudo_city_count for t in scn.technologies)
    out = {}
    for f in scn.factor_names:
        shares = rng.dirichlet(np.ones(n))
        out[f] = shares * scn.aggregate_resources[f]
    return out


def test_single_factor_one_dimensional():
    tech = DecileTechnology(1, 0.5, [0.5, 6.0], [[2.0, 1.5], [0.0, 0.0]], 1)
    scn = PlannerScenario(2015, "perfect", [tech], ("K", "L"),
                          {"K": 1.0, "L": 2.0}, reallocated_factors=("L",),
                          fixed_input_values={"K": [1.0]})
    sol = solve_scenario(scn)
    # monotone envelope: the optimum sits at l = L-bar
    want = tech.envelope([[1.0, 2.0]])[0]
    assert abs(sol.efficient_output - want) < 1e-9


def test_single_factor_attains_full_optimum_at_optimal_fix():
    rng = np.random.default_rng(71)
    for _ in range(5):
        scn = random_scenario(rng)
        full = solve_scenario(scn)
        pinned = PlannerScenario(
            scn.year, "perfect", scn.technologies, scn.factor_names,
            scn.aggregate_resources, reallocated_factors=("L",),
            fixed_input_values={"K": full.inputs[:, 0]})
        got = solve_scenario(pinned).efficient_output
        assert abs(got - full.efficient_output) < 1e-7 * (1.0 + abs(full.efficient_output))


def test_single_factor_never_beats_full():
    rng = np.random.default_rng(81)
    for _ in range(200):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)), max_cities=2)
        fixed = observed_inputs(rng, scn)
        full = solve_scenario(scn).efficient_output
        for keep in ("K", "L"):
            other = "L" if keep == "K" else "K"
            sub = PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                scn.aggregate_resources, reallocated_factors=(keep,),
                fixed_input_values={other: fixed[other]})
            part = solve_scenario(sub).efficient_output
            assert part <= full + 1e-7 * (1.0 + abs(full))


def test_single_factor_matches_scipy():
    rng = np.random.default_rng(91)
    for _ in range(10):
        scn = random_scenario(rng)
        fixed = observed_inputs(rng, scn)
        for mode in ("perfect", "local"):
            sub = PlannerScenario(
                scn.year, mode, scn.technologies, scn.factor_names,
                scn.aggregate_resources, reallocated_factors=("L",),
                fixed_input_values={"K": fixed["K"]})
            got = solve_scenario(sub).efficient_output
            want = oracles.planner_lp(
                [(t.alpha, t.beta) for t in scn.technologies],
                [t.pseudo_city_count for t in scn.technologies],
                [np.inf, scn.aggregate_resources["L"]],
                local=sub.is_local, fixed={0: fixed["K"]})
            assert abs(got - want) < 1e-6 * (1.0 + abs(want)), mode


def test_entry_exit_all_positive_matches_perfect():
    # nonnegative intercepts: deactivation can never help
    rng = np.random.default_rng(101)
    for _ in range(5):
        techs = []
        for d in range(2):
            alpha, beta = random_tech(rng, alpha_lo=0.0)
            techs.append(DecileTechnology(d + 1, 0.5, alpha, beta, 2))
        totals = {"K": float(rng.uniform(1, 5)), "L": float(rng.uniform(1, 5))}
        perfect = solve_scenario(PlannerScenario(2015, "perfect", techs,
                                                 ("K", "L"), totals))
        entry = solve_scenario(PlannerScenario(2015, "entry_exit", techs,
                                               ("K", "L"), totals))
        assert abs(entry.efficient_output - perfect.efficient_output) \
            < 1e-7 * (1.0 + abs(perfect.efficient_output))


def test_entry_exit_drops_negative_city():
    good = DecileTechnology(1, 0.5, [0.0, 8.0], [[3.0, 1.0], [0.0, 0.0]], 2)
    bad = DecileTechnology(2, 0.5, [-5.0, 2.0], [[1.0, 1.0], [0.0, 0.0]], 1)
    totals = {"K": 3.0, "L": 3.0}
    perfect = solve_scenario(PlannerScenario(2015, "perfect", [good, bad],
                                             ("K", "L"), totals))
    entry = solve_scenario(PlannerScenario(2015, "entry_exit", [good, bad],
                                           ("K", "L"), totals))
    assert entry.efficient_output > perfect.efficient_output + 1.0
    assert entry.active.tolist() == [1, 1, 0]
    assert np.all(np.abs(entry.output[entry.active == 0]) <= 1e-6)
    assert np.all(np.abs(entry.inputs[entry.active == 0]) <= 1e-6)


def test_entry_exit_matches_pattern_enumeration():
    rng = np.random.default_rng(111)
    for _ in range(6):
        n_dec = int(rng.integers(1, 4))
        counts = [int(rng.integers(1, 4)) for _ in range(n_dec)]
        techs = []
        for d in range(n_dec):
            alpha, beta = random_tech(rng, alpha_lo=-4.0)
            techs.append(DecileTechnology(d + 1, 0.5, alpha, beta, counts[d]))
        totals = {"K": float(rng.uniform(0.5, 4.0)), "L": float(rng.uniform(0.5, 4.0))}
        scn = PlannerScenario(2015, "entry_exit", techs, ("K", "L"), totals)
        got = solve_scenario(scn).efficient_output

        n = sum(counts)
        best = 0.0  # the all-off pattern produces nothing
        for pattern in itertools.product((0, 1), repeat=n):
            if not any(pattern):
                continue
            sub_techs, sub_counts, pos = [], [], 0
            for d in range(n_dec):
                alive = sum(pattern[pos:pos + counts[d]])
                pos += counts[d]
                if alive:
                    sub_techs.append((techs[d].alpha, techs[d].beta))
                    sub_counts.append(alive)
            best = max(best, oracles.planner_lp(
                sub_techs, sub_counts,
                [totals["K"], totals["L"]]))
        assert abs(got - best) < 1e-6 * (1.0 + abs(best))


def test_entry_exit_count_formulation_matches_enumeration():
    # the solve runs on per-decile activity counts; enumerate every
    # count vector and re-solve as an LP
    rng = np.random.default_rng(113)
    for _ in range(4):
        n_dec = int(rng.integers(3, 5))
        counts = [int(rng.integers(2, 5)) for _ in range(n_dec)]
        while sum(counts) <= 10:
            counts[int(rng.integers(0, n_dec))] += 1
        techs = []
        for d in range(n_dec):
            alpha, beta = random_tech(rng, alpha_lo=-4.0)
            techs.append(DecileTechnology(d + 1, 0.5, alpha, beta, counts[d]))
        totals = {"K": float(rng.uniform(0.5, 4.0)), "L": float(rng.uniform(0.5, 4.0))}
        scn = PlannerScenario(2015, "entry_exit", techs, ("K", "L"), totals)
        sol = solve_scenario(scn)

        best = 0.0  # the all-off pattern produces nothing
        for alive in itertools.product(*(range(c + 1) for c in counts)):
            if not any(alive):
                continue
            sub = [((techs[d].alpha, techs[d].beta), alive[d])
                   for d in range(n_dec) if alive[d]]
            best = max(best, oracles.planner_lp(
                [s[0] for s in sub], [s[1] for s in sub],
                [totals["K"], totals["L"]]))
        assert abs(sol.efficient_output - best) < 1e-6 * (1.0 + abs(best))
        # actives are packed first within each decile and split evenly
        pos = 0
        for d in range(n_dec):
            act = sol.active[pos:pos + counts[d]]
            assert np.all(act[:-1] >= act[1:])
            alive = act.astype(bool)
            if alive.sum() > 1:
                assert np.ptp(sol.output[pos:pos + counts[d]][alive]) < 1e-9
            pos += counts[d]


def test_entry_exit_too_small_big_m():
    # the per-city bound comes from the totals, so the flat plane caps output
    tech = DecileTechnology(1, 0.5, [1.0, 10.0], [[2.0, 3.0], [0.0, 0.0]], 1)
    capped = PlannerScenario(2015, "entry_exit", [tech], ("K", "L"),
                             {"K": 2.0, "L": 2.0})
    assert solve_scenario(capped).efficient_output == pytest.approx(10.0)


def test_local_symmetric_equals_nationwide():
    rng = np.random.default_rng(131)
    alpha, beta = random_tech(rng)
    techs = [DecileTechnology(d + 1, 0.5, alpha, beta, 2) for d in range(10)]
    totals = {"K": 6.0, "L": 9.0}
    nat = solve_scenario(PlannerScenario(2012, "perfect", techs, ("K", "L"), totals))
    loc = solve_scenario(PlannerScenario(2012, "local", techs, ("K", "L"), totals))
    assert abs(nat.efficient_output - loc.efficient_output) \
        < 1e-8 * (1.0 + abs(nat.efficient_output))


def test_local_dominant_decile_strictly_below():
    meek = DecileTechnology(1, 0.05, [0.0, 1.0], [[0.5, 0.5], [0.0, 0.0]], 1)
    star = DecileTechnology(2, 0.95, [0.0, 50.0], [[5.0, 5.0], [0.0, 0.0]], 1)
    totals = {"K": 10.0, "L": 10.0}
    nat = solve_scenario(PlannerScenario(2012, "perfect", [meek, star],
                                         ("K", "L"), totals))
    loc = solve_scenario(PlannerScenario(2012, "local", [meek, star],
                                         ("K", "L"), totals))
    assert loc.efficient_output < nat.efficient_output - 1.0


def test_local_matches_scipy():
    rng = np.random.default_rng(141)
    for _ in range(10):
        scn = random_scenario(rng, mode="local")
        got = solve_scenario(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"]],
            local=True)
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


_CHAIN = (ScenarioTemplate("perfect"),
          ScenarioTemplate("imperfect", iceberg=0.05, depletion=0.05),
          ScenarioTemplate("entry_exit"), ScenarioTemplate("local"),
          ScenarioTemplate("local_entry_exit"))


def test_ordering_chain():
    rng = np.random.default_rng(151)
    for _ in range(60):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)), max_cities=2)
        # Y_e as the gain over an output of 1; local <= perfect is
        # delta_1 <= 0, local_entry_exit <= entry_exit delta_2 <= 0
        outputs = []
        for t in _CHAIN:
            y = solve_scenario(remodel(scn, t.mode, iceberg=t.iceberg,
                                       depletion=t.depletion)).efficient_output
            outputs.append(GainResult(scn.year, t.label, y, 1.0, y))
        assert order_problems(outputs, _CHAIN, rtol=1e-7) == []


def test_local_never_beats_nationwide():
    rng = np.random.default_rng(152)
    for _ in range(200):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)))
        perfect = solve_scenario(scn).efficient_output
        local = solve_scenario(remodel(scn, "local")).efficient_output
        assert local <= perfect + 1e-7 * (1.0 + abs(perfect))


def test_resource_monotonicity():
    rng = np.random.default_rng(161)
    for _ in range(25):
        scn = random_scenario(rng)
        base = solve_scenario(scn).efficient_output
        for f in ("K", "L"):
            bumped = dict(scn.aggregate_resources)
            bumped[f] = bumped[f] * 1.3
            more = solve_scenario(PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                bumped)).efficient_output
            assert more >= base - 1e-9 * (1.0 + abs(base))


def test_objective_scales_with_technology():
    rng = np.random.default_rng(171)
    scn = random_scenario(rng)
    base = solve_scenario(scn).efficient_output
    c = 3.7
    scaled_techs = [DecileTechnology(t.decile, t.tau, c * t.alpha, c * t.beta,
                                     t.pseudo_city_count)
                    for t in scn.technologies]
    scaled = solve_scenario(PlannerScenario(
        scn.year, "perfect", scaled_techs, scn.factor_names,
        scn.aggregate_resources)).efficient_output
    assert abs(scaled - c * base) < 1e-9 * (1.0 + abs(c * base))


def test_small_units_solve():
    # inputs and output in units a million times larger, so each total
    # is near 1e-5: the solver's absolute tolerance then exceeds the
    # certificate's relative slack, which must not reject its answer
    # (the answer is then only as exact as that absolute tolerance)
    rng = np.random.default_rng(173)
    s = 1e-6
    for _ in range(30):
        for scn in (fixed_factor_scenario(rng, "perfect"),
                    fixed_factor_scenario(rng, "local"),
                    random_scenario(rng, "imperfect", iceberg=0.1, depletion=0.05)):
            small = PlannerScenario(
                scn.year, scn.mode,
                [DecileTechnology(t.decile, t.tau, s * t.alpha, t.beta, t.pseudo_city_count)
                 for t in scn.technologies],
                scn.factor_names, {f: s * v for f, v in scn.aggregate_resources.items()},
                reallocated_factors=scn.reallocated_factors, iceberg=scn.iceberg,
                depletion=scn.depletion,
                fixed_input_values={f: s * v for f, v in scn.fixed_input_values.items()} or None)
            solve_scenario(small)  # raises on a problem the certificate finds


def test_rows_bind_or_marginal_value_is_zero():
    rng = np.random.default_rng(181)
    for _ in range(25):
        scn = random_scenario(rng)
        sol = solve_scenario(scn)
        base = sol.efficient_output
        for j, f in enumerate(("K", "L")):
            used = sol.inputs[:, j].sum()
            total = scn.aggregate_resources[f]
            if used >= total - 1e-6:
                continue  # row binds
            bumped = dict(scn.aggregate_resources)
            bumped[f] = total + 1e-3
            more = solve_scenario(PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                bumped)).efficient_output
            assert abs(more - base) < 1e-6


def test_scenario_validation():
    tech = DecileTechnology(1, 0.5, [1.0], [[1.0, 1.0]], 1)
    good = dict(year=2015, mode="perfect", technologies=[tech],
                factor_names=("K", "L"),
                aggregate_resources={"K": 1.0, "L": 1.0})
    PlannerScenario(**good)
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "mode": "utopia"})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "technologies": []})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "factor_names": ("K",)})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "iceberg": -0.1})
    with pytest.raises(PlannerError):  # perfect mode is frictionless
        PlannerScenario(**{**good, "iceberg": 0.05})
    with pytest.raises(PlannerError):  # entry/exit cannot pin factors
        PlannerScenario(**{**good, "mode": "entry_exit",
                           "reallocated_factors": ("K",),
                           "fixed_input_values": {"L": [1.0]}})
    with pytest.raises(PlannerError, match="fixed"):
        PlannerScenario(**{**good, "reallocated_factors": ("K",)})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "reallocated_factors": ("K",),
                           "fixed_input_values": {"L": [1.0, 2.0]}})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "aggregate_resources": {"K": 1.0}})
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "aggregate_resources": {"K": 1.0, "L": -1.0}})
    with pytest.raises(PlannerError, match="finite"):
        PlannerScenario(**{**good, "aggregate_resources": {"K": np.inf, "L": 1.0}})
    with pytest.raises(PlannerError):
        tech2 = DecileTechnology(1, 0.5, [1.0], [[1.0, 1.0]], 1)
        PlannerScenario(**{**good, "technologies": [tech, tech2]})
    with pytest.raises(PlannerError):
        DecileTechnology(1, 0.5, [1.0], [[-0.5, 1.0]], 1)
    with pytest.raises(PlannerError):
        DecileTechnology(1, 0.5, [], np.zeros((0, 2)), 1)


def test_technology_from_fit_envelope_agrees():
    rng = np.random.default_rng(191)
    x = rng.uniform(0.5, 3.0, size=(12, 2))
    y = 2.0 * x[:, 0] ** 0.4 * x[:, 1] ** 0.3 * rng.uniform(0.9, 1.1, size=12)
    fit = fit_cqr(x, y, tau=0.5)
    tech = technology_from_fit(fit, decile=4, pseudo_city_count=7)
    assert tech.decile == 4 and tech.pseudo_city_count == 7
    assert tech.n_planes <= fit.n_obs
    pts = rng.uniform(0.5, 3.0, size=(20, 2))
    assert np.allclose(tech.envelope(pts), fit.frontier(pts), atol=1e-9)


def fixed_factor_scenario(rng, mode, n_planes=5, counts=(4, 5, 6), **kw):
    """K and L reallocated, H pinned per city; each decile holds tangent
    planes of a Cobb-Douglas plus one plane flat in K."""
    techs = []
    for d, cnt in enumerate(counts):
        pts = np.exp(rng.uniform(-1.5, 2.5, size=(n_planes, 3)))
        scale = 0.6 + 0.08 * d
        f = scale * np.prod(pts ** np.array([0.30, 0.35, 0.20]), axis=1)
        beta = f[:, None] * np.array([0.30, 0.35, 0.20]) / pts
        alpha = f - np.sum(beta * pts, axis=1)
        flat = np.array([0.0, 0.05, 0.05])
        techs.append(DecileTechnology(d + 1, (2 * d + 1) / 20,
                                      np.append(alpha, 8.0 * scale),
                                      np.vstack([beta, flat]), cnt))
    n = sum(counts)
    h = rng.lognormal(0.0, 0.5, n)
    totals = {"K": float(n), "L": float(n)}
    return PlannerScenario(2015, mode, techs, ("K", "L", "H"), totals,
                           reallocated_factors=("K", "L"),
                           fixed_input_values={"H": h}, **kw)


def test_fixed_factor_rows_match_scipy():
    rng = np.random.default_rng(211)
    cases = [("perfect", {}), ("imperfect", {"iceberg": 0.05, "depletion": 0.05}),
             ("local", {})]
    for mode, frictions in cases:
        scn = fixed_factor_scenario(rng, mode, **frictions)
        got = solve_scenario(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"], np.inf],
            weights=[1.0 + scn.iceberg, 1.0 + scn.depletion, 1.0],
            local=scn.is_local, fixed={2: scn.fixed_input_values["H"]})
        assert abs(got - want) < 1e-6 * (1.0 + abs(want)), mode


def test_pinned_rows_lp_reenters_its_crash_and_matches_scipy(monkeypatch):
    # the pinned per-city LP starts from a crash that takes each city's
    # cheapest plane: it re-enters through the dual simplex, and Y_e
    # still equals the dense oracle's
    results = []

    def recording(problem):
        results.append(solve_lp(problem))
        return results[-1]

    monkeypatch.setattr("cityalloc.planner.solve_lp", recording)
    rng = np.random.default_rng(229)
    cases = [("perfect", {}), ("imperfect", {"iceberg": 0.05, "depletion": 0.05}),
             ("local", {})]
    for _ in range(3):
        for mode, frictions in cases:
            scn = fixed_factor_scenario(rng, mode, n_planes=8, counts=(6, 7, 8), **frictions)
            results.clear()
            got = solve_scenario(scn).efficient_output
            (res,) = results
            assert not res.warm_started and 0 < res.dual_iterations <= res.iteration_count
            want = oracles.planner_lp(
                [(t.alpha, t.beta) for t in scn.technologies],
                [t.pseudo_city_count for t in scn.technologies],
                [scn.aggregate_resources["K"], scn.aggregate_resources["L"], np.inf],
                weights=[1.0 + scn.iceberg, 1.0 + scn.depletion, 1.0],
                local=scn.is_local, fixed={2: scn.fixed_input_values["H"]})
            assert abs(got - want) < 1e-9 * (1.0 + abs(want)), mode


def test_pinned_pair_shares_one_master(monkeypatch):
    # perfect and imperfect on K, L with H pinned build one per-city rows
    # LP but for its mu costs: on one masters list imperfect re-solves
    # perfect's Master warm, with no dual pivot, while local's LP gets
    # its own; each Y_e equals a cold solve's and the dense oracle's
    results = []

    def recording(problem):
        results.append(solve_lp(problem))
        return results[-1]

    monkeypatch.setattr("cityalloc.planner.solve_lp", recording)
    perfect = fixed_factor_scenario(np.random.default_rng(233), "perfect",
                                    n_planes=8, counts=(6, 7, 8))
    scenarios = [perfect] + [
        PlannerScenario(perfect.year, mode, perfect.technologies, perfect.factor_names,
                        perfect.aggregate_resources, perfect.reallocated_factors,
                        fixed_input_values=perfect.fixed_input_values, **frictions)
        for mode, frictions in (("imperfect", {"iceberg": 0.05, "depletion": 0.1}),
                                ("local", {}))]
    masters = []
    shared = [solve_scenario(scn, masters) for scn in scenarios]
    assert len(masters) == 2
    assert [r.warm_started for r in results] == [False, True, False]
    assert results[1].dual_iterations == 0
    for scn, sol in zip(scenarios, shared):
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"], np.inf],
            weights=[1.0 + scn.iceberg, 1.0 + scn.depletion, 1.0],
            local=scn.is_local, fixed={2: scn.fixed_input_values["H"]})
        for got in (sol.efficient_output, solve_scenario(scn).efficient_output):
            assert abs(got - want) <= 1e-9 * abs(want), scn.mode


def test_every_lp_regime_builds_and_solves_one_lp(monkeypatch):
    # the pinned per-city LP and the decile-level LP of a pin-free
    # scenario are each one LinearProgram and one call through
    # planner.solve_lp, with no further rounds
    calls, built = [], []
    program = cityalloc.planner.LinearProgram

    def recording(problem):
        calls.append(problem)
        return solve_lp(problem)

    def building(*args, **kwargs):
        built.append(1)
        return program(*args, **kwargs)

    monkeypatch.setattr("cityalloc.planner.solve_lp", recording)
    monkeypatch.setattr("cityalloc.planner.LinearProgram", building)
    pinned = fixed_factor_scenario(np.random.default_rng(223), "imperfect",
                                   n_planes=12, counts=(10, 10, 10),
                                   iceberg=0.05, depletion=0.05)
    rng = np.random.default_rng(227)
    techs = [DecileTechnology(d + 1, (2 * d + 1) / 20, *random_tech(rng), cnt)
             for d, cnt in enumerate((1, 4, 7))]
    free = PlannerScenario(2015, "perfect", techs, ("K", "L"), {"K": 5.0, "L": 3.0})
    for scn in (pinned, free, remodel(free, "local")):
        calls.clear()
        built.clear()
        got = solve_scenario(scn).efficient_output
        assert len(calls) == len(built) == 1, scn.mode
        totals = [scn.aggregate_resources["K"], scn.aggregate_resources["L"]]
        weights = [1.0 + scn.iceberg, 1.0 + scn.depletion]
        fixed = None
        if scn.fixed_input_values:
            totals.append(np.inf)
            weights.append(1.0)
            fixed = {2: scn.fixed_input_values["H"]}
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            totals, weights=weights, local=scn.is_local, fixed=fixed)
        assert abs(got - want) < 1e-6 * (1.0 + abs(want)), scn.mode


def test_certify_names_each_broken_rule():
    # clean on every solver path's answer, one named problem per fault
    rng = np.random.default_rng(229)
    free = random_scenario(rng, "perfect", n_deciles=3, max_cities=3)
    pinned = fixed_factor_scenario(rng, "perfect")
    good = DecileTechnology(1, 0.5, [0.0, 8.0], [[3.0, 1.0], [0.0, 0.0]], 2)
    bad = DecileTechnology(2, 0.5, [-5.0, 2.0], [[1.0, 1.0], [0.0, 0.0]], 1)
    entry = PlannerScenario(2015, "entry_exit", [good, bad], ("K", "L"),
                            {"K": 3.0, "L": 3.0})
    tenth = free.aggregate_resources["K"] / 10
    second = free.technologies[0].pseudo_city_count  # first city of decile 2

    def above(x, y, b):
        y[0] += 1.0

    def over_budget(x, y, b):
        x[0, 0] += free.aggregate_resources["K"]

    def over_tenth(x, y, b):
        x[second, 0] += 2 * tenth

    def pin_moved(x, y, b):
        x[0, 2] *= 2.0

    def idle_holds(x, y, b):
        b[0] = 0

    cases = [
        (free, above, "decile 1 output above its envelope"),
        (free, over_budget, "factor K over budget"),
        (remodel(free, "local"), over_tenth, "decile 2 over its tenth of K"),
        (pinned, pin_moved, "pinned factor H moved"),
        (entry, idle_holds, "inactive city holds resources"),
    ]
    for scn, fault, message in cases:
        sol = solve_scenario(scn)
        x, y, b = sol.inputs.copy(), sol.output.copy(), sol.active.copy()
        assert certify(scn, x, y, b) == [], scn.mode
        fault(x, y, b)
        assert certify(scn, x, y, b) == [message]
    n = sol.output.size
    assert certify(entry, sol.inputs[1:], sol.output[1:], sol.active[1:]) == [
        f"allocation does not have {n} pseudo-cities by 2 factors"]
