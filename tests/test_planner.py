"""Planner scenarios against grid, enumeration, and scipy oracles."""

import itertools

import numpy as np
import pytest

import oracles
from cityalloc.planner import (
    AllocationSolution,
    DecileTechnology,
    PlannerError,
    PlannerScenario,
    allocations_to_csv,
    solve_entry_exit,
    solve_imperfect,
    solve_local,
    solve_perfect,
    solve_scenario,
    solve_single_factor,
    summary_to_csv,
    technology_from_fit,
)
from cityalloc.cqr import fit_cqr


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
    sol = solve_perfect(scn)
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
    lone = solve_perfect(one).efficient_output
    assert abs(solve_perfect(ten).efficient_output - 10.0 * lone) < 1e-8 * (1 + lone)


def test_matches_scipy_dense_lp():
    rng = np.random.default_rng(21)
    for _ in range(30):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)))
        got = solve_perfect(scn).efficient_output
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
        got = solve_perfect(scn).efficient_output
        want = oracles.two_decile_grid((a1, b1), (a2, b2), 2, 2, kt, lt, step=1e-3)
        # the grid undershoots by at most its resolution
        assert want <= got + 1e-9
        assert got - want <= 5e-3 * (1.0 + abs(got))


def test_imperfect_zero_friction_reduces_to_perfect():
    rng = np.random.default_rng(41)
    scn = random_scenario(rng)
    base = solve_perfect(scn)
    iced = solve_imperfect(remodel(scn, "imperfect"))
    assert iced.efficient_output == base.efficient_output
    assert np.array_equal(iced.inputs, base.inputs)
    assert np.array_equal(iced.output, base.output)


def test_imperfect_scaled_corner():
    tech = DecileTechnology(1, 0.5, [1.0, 10.0], [[2.0, 3.0], [0.0, 0.0]], 1)
    scn = PlannerScenario(2015, "imperfect", [tech], ("K", "L"),
                          {"K": 2.0, "L": 2.0}, iceberg=0.05, depletion=0.05)
    sol = solve_imperfect(scn)
    assert abs(sol.efficient_output - 10.0) < 1e-9
    assert np.allclose(sol.inputs, [[2.0 / 1.05, 2.0 / 1.05]], atol=1e-8)


def test_friction_rescaling_identity():
    rng = np.random.default_rng(51)
    for _ in range(10):
        scn = random_scenario(rng)
        iced = solve_imperfect(remodel(scn, "imperfect", iceberg=0.05, depletion=0.05))
        shrunk = PlannerScenario(
            scn.year, "perfect", scn.technologies, scn.factor_names,
            {f: v / 1.05 for f, v in scn.aggregate_resources.items()})
        assert abs(iced.efficient_output - solve_perfect(shrunk).efficient_output) < 1e-8


def test_imperfect_matches_scipy_weights():
    rng = np.random.default_rng(61)
    for _ in range(10):
        scn = random_scenario(rng, mode="imperfect",
                              iceberg=float(rng.uniform(0, 0.3)),
                              depletion=float(rng.uniform(0, 0.3)))
        got = solve_imperfect(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"]],
            weights=[1.0 + scn.iceberg, 1.0 + scn.depletion])
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def observed_inputs(rng, scn):
    """A feasible 'observed' allocation exhausting each total."""
    n = scn.n_pseudo_cities
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
    sol = solve_single_factor(scn)
    # monotone envelope: the optimum sits at l = L-bar
    want = tech.envelope([[1.0, 2.0]])[0]
    assert abs(sol.efficient_output - want) < 1e-9


def test_single_factor_attains_full_optimum_at_optimal_fix():
    rng = np.random.default_rng(71)
    for _ in range(5):
        scn = random_scenario(rng)
        full = solve_perfect(scn)
        pinned = PlannerScenario(
            scn.year, "perfect", scn.technologies, scn.factor_names,
            scn.aggregate_resources, reallocated_factors=("L",),
            fixed_input_values={"K": full.inputs[:, 0]})
        got = solve_single_factor(pinned).efficient_output
        assert abs(got - full.efficient_output) < 1e-7 * (1.0 + abs(full.efficient_output))


def test_single_factor_never_beats_full():
    rng = np.random.default_rng(81)
    for _ in range(200):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)), max_cities=2)
        fixed = observed_inputs(rng, scn)
        full = solve_perfect(scn).efficient_output
        for keep in ("K", "L"):
            other = "L" if keep == "K" else "K"
            sub = PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                scn.aggregate_resources, reallocated_factors=(keep,),
                fixed_input_values={other: fixed[other]})
            part = solve_single_factor(sub).efficient_output
            assert part <= full + 1e-7 * (1.0 + abs(full))


def test_single_factor_matches_scipy():
    rng = np.random.default_rng(91)
    for _ in range(10):
        scn = random_scenario(rng)
        fixed = observed_inputs(rng, scn)
        sub = PlannerScenario(
            scn.year, "perfect", scn.technologies, scn.factor_names,
            scn.aggregate_resources, reallocated_factors=("L",),
            fixed_input_values={"K": fixed["K"]})
        got = solve_single_factor(sub).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [np.inf, scn.aggregate_resources["L"]],
            fixed={0: fixed["K"]})
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def test_entry_exit_all_positive_matches_perfect():
    # nonnegative intercepts: deactivation can never help
    rng = np.random.default_rng(101)
    for _ in range(5):
        techs = []
        for d in range(2):
            alpha, beta = random_tech(rng, alpha_lo=0.0)
            techs.append(DecileTechnology(d + 1, 0.5, alpha, beta, 2))
        totals = {"K": float(rng.uniform(1, 5)), "L": float(rng.uniform(1, 5))}
        perfect = solve_perfect(PlannerScenario(2015, "perfect", techs,
                                                ("K", "L"), totals))
        entry = solve_entry_exit(PlannerScenario(2015, "entry_exit", techs,
                                                 ("K", "L"), totals))
        assert abs(entry.efficient_output - perfect.efficient_output) \
            < 1e-7 * (1.0 + abs(perfect.efficient_output))


def test_entry_exit_drops_negative_city():
    good = DecileTechnology(1, 0.5, [0.0, 8.0], [[3.0, 1.0], [0.0, 0.0]], 2)
    bad = DecileTechnology(2, 0.5, [-5.0, 2.0], [[1.0, 1.0], [0.0, 0.0]], 1)
    totals = {"K": 3.0, "L": 3.0}
    perfect = solve_perfect(PlannerScenario(2015, "perfect", [good, bad],
                                            ("K", "L"), totals))
    entry = solve_entry_exit(PlannerScenario(2015, "entry_exit", [good, bad],
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
        got = solve_entry_exit(scn).efficient_output

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
        sol = solve_entry_exit(scn)

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
    tech = DecileTechnology(1, 0.5, [1.0, 10.0], [[2.0, 3.0], [0.0, 0.0]], 1)
    # every factor capped: big_m bounds nothing
    capped = PlannerScenario(2015, "entry_exit", [tech], ("K", "L"),
                             {"K": 2.0, "L": 2.0}, big_m=5.0)
    assert solve_entry_exit(capped).efficient_output == pytest.approx(10.0)
    # uncapped L: big_m is its per-city bound, and saturating it raises
    uncapped = PlannerScenario(2015, "entry_exit", [tech], ("K", "L"),
                               {"K": 2.0, "L": np.inf}, big_m=1.0)
    with pytest.raises(PlannerError, match="big_m"):
        solve_entry_exit(uncapped)
    # uncapped L without big_m has no per-city bound at all
    unbounded = PlannerScenario(2015, "entry_exit", [tech], ("K", "L"),
                                {"K": 2.0, "L": np.inf})
    with pytest.raises(PlannerError, match="needs big_m"):
        solve_entry_exit(unbounded)


def test_local_symmetric_equals_nationwide():
    rng = np.random.default_rng(131)
    alpha, beta = random_tech(rng)
    techs = [DecileTechnology(d + 1, 0.5, alpha, beta, 2) for d in range(10)]
    totals = {"K": 6.0, "L": 9.0}
    nat = solve_perfect(PlannerScenario(2012, "perfect", techs, ("K", "L"), totals))
    loc = solve_local(PlannerScenario(2012, "local", techs, ("K", "L"), totals))
    assert abs(nat.efficient_output - loc.efficient_output) \
        < 1e-8 * (1.0 + abs(nat.efficient_output))


def test_local_dominant_decile_strictly_below():
    meek = DecileTechnology(1, 0.05, [0.0, 1.0], [[0.5, 0.5], [0.0, 0.0]], 1)
    star = DecileTechnology(2, 0.95, [0.0, 50.0], [[5.0, 5.0], [0.0, 0.0]], 1)
    totals = {"K": 10.0, "L": 10.0}
    nat = solve_perfect(PlannerScenario(2012, "perfect", [meek, star],
                                        ("K", "L"), totals))
    loc = solve_local(PlannerScenario(2012, "local", [meek, star],
                                      ("K", "L"), totals))
    assert loc.efficient_output < nat.efficient_output - 1.0


def test_local_matches_scipy():
    rng = np.random.default_rng(141)
    for _ in range(10):
        scn = random_scenario(rng, mode="local")
        got = solve_local(scn).efficient_output
        want = oracles.planner_lp(
            [(t.alpha, t.beta) for t in scn.technologies],
            [t.pseudo_city_count for t in scn.technologies],
            [scn.aggregate_resources["K"], scn.aggregate_resources["L"]],
            local=True)
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def test_ordering_chain():
    rng = np.random.default_rng(151)
    for _ in range(60):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)), max_cities=2)
        perfect = solve_perfect(scn).efficient_output
        tol = 1e-7 * (1.0 + abs(perfect))
        iced = solve_imperfect(remodel(scn, "imperfect",
                                       iceberg=0.05, depletion=0.05)).efficient_output
        entry = solve_entry_exit(remodel(scn, "entry_exit")).efficient_output
        local = solve_local(remodel(scn, "local")).efficient_output
        local_entry = solve_local(remodel(scn, "local_entry_exit")).efficient_output
        assert iced <= perfect + tol
        assert perfect <= entry + tol
        assert local <= perfect + tol         # delta_1 <= 0
        assert local_entry <= entry + tol     # delta_2 <= 0


def test_local_never_beats_nationwide():
    rng = np.random.default_rng(152)
    for _ in range(200):
        scn = random_scenario(rng, n_deciles=int(rng.integers(1, 4)))
        perfect = solve_perfect(scn).efficient_output
        local = solve_local(remodel(scn, "local")).efficient_output
        assert local <= perfect + 1e-7 * (1.0 + abs(perfect))


def test_resource_monotonicity():
    rng = np.random.default_rng(161)
    for _ in range(25):
        scn = random_scenario(rng)
        base = solve_perfect(scn).efficient_output
        for f in ("K", "L"):
            bumped = dict(scn.aggregate_resources)
            bumped[f] = bumped[f] * 1.3
            more = solve_perfect(PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                bumped)).efficient_output
            assert more >= base - 1e-9 * (1.0 + abs(base))


def test_objective_scales_with_technology():
    rng = np.random.default_rng(171)
    scn = random_scenario(rng)
    base = solve_perfect(scn).efficient_output
    c = 3.7
    scaled_techs = [DecileTechnology(t.decile, t.tau, c * t.alpha, c * t.beta,
                                     t.pseudo_city_count)
                    for t in scn.technologies]
    scaled = solve_perfect(PlannerScenario(
        scn.year, "perfect", scaled_techs, scn.factor_names,
        scn.aggregate_resources)).efficient_output
    assert abs(scaled - c * base) < 1e-9 * (1.0 + abs(c * base))


def test_rows_bind_or_marginal_value_is_zero():
    rng = np.random.default_rng(181)
    for _ in range(25):
        scn = random_scenario(rng)
        sol = solve_perfect(scn)
        base = sol.efficient_output
        for j, f in enumerate(("K", "L")):
            used = sol.inputs[:, j].sum()
            total = scn.aggregate_resources[f]
            if used >= total - 1e-6:
                continue  # row binds
            bumped = dict(scn.aggregate_resources)
            bumped[f] = total + 1e-3
            more = solve_perfect(PlannerScenario(
                scn.year, "perfect", scn.technologies, scn.factor_names,
                bumped)).efficient_output
            assert abs(more - base) < 1e-6


def test_uncapped_factor_needs_flat_plane():
    sloped = DecileTechnology(1, 0.5, [1.0, 5.0], [[2.0, 1.0], [0.5, 0.2]], 1)
    scn = PlannerScenario(2015, "perfect", [sloped], ("K", "L"),
                          {"K": np.inf, "L": 2.0})
    with pytest.raises(PlannerError, match="zero-slope"):
        solve_perfect(scn)
    flat_k = DecileTechnology(1, 0.5, [1.0, 5.0], [[0.0, 1.0], [0.5, 0.2]], 1)
    free = PlannerScenario(2015, "perfect", [flat_k], ("K", "L"),
                           {"K": np.inf, "L": 2.0})
    sol = solve_perfect(free)
    assert np.isfinite(sol.efficient_output)


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
    with pytest.raises(PlannerError):
        PlannerScenario(**{**good, "big_m": 0.0})
    with pytest.raises(PlannerError):
        tech2 = DecileTechnology(1, 0.5, [1.0], [[1.0, 1.0]], 1)
        PlannerScenario(**{**good, "technologies": [tech, tech2]})
    with pytest.raises(PlannerError):
        DecileTechnology(1, 0.5, [1.0], [[-0.5, 1.0]], 1)
    with pytest.raises(PlannerError):
        DecileTechnology(1, 0.5, [], np.zeros((0, 2)), 1)


def test_dispatchers_enforce_modes():
    tech = DecileTechnology(1, 0.5, [1.0, 4.0], [[1.0, 1.0], [0.0, 0.0]], 1)
    perfect = PlannerScenario(2015, "perfect", [tech], ("K", "L"),
                              {"K": 1.0, "L": 1.0})
    with pytest.raises(PlannerError):
        solve_imperfect(perfect)
    with pytest.raises(PlannerError):
        solve_entry_exit(perfect)
    with pytest.raises(PlannerError):
        solve_local(perfect)
    with pytest.raises(PlannerError):
        solve_single_factor(perfect)
    sub = PlannerScenario(2015, "perfect", [tech], ("K", "L"),
                          {"K": 1.0, "L": 1.0}, reallocated_factors=("L",),
                          fixed_input_values={"K": [1.0]})
    with pytest.raises(PlannerError):
        solve_perfect(sub)
    assert solve_scenario(sub).efficient_output == \
        solve_single_factor(sub).efficient_output


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


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(201)
    scn = random_scenario(rng)
    sols = [solve_perfect(scn),
            solve_local(remodel(scn, "local"))]
    alloc = tmp_path / "alloc.csv"
    summary = tmp_path / "summary.csv"
    allocations_to_csv(sols, alloc)
    summary_to_csv(sols, summary)
    lines = alloc.read_text().strip().split("\n")
    assert lines[0] == "year,scenario,decile,pseudo_city,b,k,l,y"
    assert len(lines) == 1 + 2 * scn.n_pseudo_cities
    first = lines[1].split(",")
    assert first[0] == "2015" and first[1] == "perfect"
    assert float(first[4]) == 1.0
    slines = summary.read_text().strip().split("\n")
    assert slines[0] == "year,scenario,Y_e"
    assert len(slines) == 3
    got = float(slines[1].split(",")[2])
    assert got == sols[0].efficient_output
    with pytest.raises(ValueError):
        allocations_to_csv([], alloc)
