"""Frontier estimator checks: dense-oracle agreement, quantile facts,
decile bookkeeping, and the serialization round trip."""

import numpy as np
import pytest

import cityalloc.cqr
from cityalloc import (
    DEFAULT_QUANTILES,
    SolverError,
    assign_deciles,
    dedup_hyperplanes,
    fit_all_quantiles,
    fit_cqr,
)
from cityalloc.cli import fits_from_csv, fits_to_csv

from oracles import dense_cqr, envelope, linear_qr, pinball

# the taus of every sweep: the decile grid and the median
SWEEP = np.union1d(DEFAULT_QUANTILES, [0.5])


def cobb_douglas_year(rng, n, noise=0.25):
    x = rng.lognormal(1.0, 0.4, (n, 2))
    y = 2.0 * x[:, 0] ** 0.35 * x[:, 1] ** 0.45 * np.exp(
        rng.normal(0.0, noise, n))
    return x, y


def test_matches_dense_formulation_small():
    rng = np.random.default_rng(101)
    values_clean = 0
    planes_clean = 0
    for _ in range(12):
        x, y = cobb_douglas_year(rng, 6)
        for tau in (0.25, 0.5, 0.75):
            fit = fit_cqr(x, y, tau)
            ref_obj, ref_a, ref_b, _, _ = dense_cqr(x, y, tau)
            assert abs(fit.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
            # cross rows hold exactly at the stated tolerance
            f = fit.alpha[None, :] + x @ fit.beta.T
            assert (f.diagonal()[:, None] - f).max() <= 1e-6
            # coefficient comparisons only bind off degenerate optima;
            # fitted values are unique far more often than planes are
            mine_fv = fit.alpha + np.sum(x * fit.beta, axis=1)
            ref_fv = ref_a + np.sum(x * ref_b, axis=1)
            if np.max(np.abs(mine_fv - ref_fv)) <= 1e-5:
                values_clean += 1
            if np.max(np.abs(fit.alpha - ref_a)) <= 1e-5 and \
                    np.max(np.abs(fit.beta - ref_b)) <= 1e-5:
                planes_clean += 1
    assert values_clean >= 30  # of 36; the rest have ties at the optimum
    assert planes_clean >= 5   # comparison is not vacuous


def fitted(fit, x):
    return fit.alpha + np.sum(x * fit.beta, axis=1)


def test_weighted_fit_matches_dense_fit_on_repeated_rows():
    rng = np.random.default_rng(151)
    x, y = cobb_douglas_year(rng, 15)
    counts = rng.integers(1, 4, 15)  # each city appears 1-3 times
    assert counts.max() == 3 and (counts == 1).any()
    rows = np.repeat(np.arange(15), counts)
    for tau, crs in ((0.05, False), (0.5, False), (0.95, False), (0.5, True)):
        fit = fit_cqr(x, y, tau, crs=crs, weights=counts)
        ref_obj, ref_a, ref_b, _, _ = dense_cqr(x[rows], y[rows], tau, crs=crs)
        assert abs(fit.objective - ref_obj) <= 1e-9 * abs(ref_obj)
        ref_fv = ref_a + np.sum(x[rows] * ref_b, axis=1)
        assert np.max(np.abs(fitted(fit, x)[rows] - ref_fv)) <= 1e-7


def test_tiny_samples_match_dense_formulation():
    rng = np.random.default_rng(157)
    for n in (1, 2):
        x, y = cobb_douglas_year(rng, n)
        for tau in (0.25, 0.5):
            fit = fit_cqr(x, y, tau)
            ref_obj, ref_a, ref_b, _, _ = dense_cqr(x, y, tau)
            assert abs(fit.objective - ref_obj) <= 1e-9 * (1 + abs(ref_obj))
            ref_fv = ref_a + np.sum(x * ref_b, axis=1)
            assert np.max(np.abs(fitted(fit, x) - ref_fv)) <= 1e-7


def test_small_samples_need_one_master_solve():
    # up to 11 observations the neighbour seed holds every cross pair,
    # so the first master is the full program
    rng = np.random.default_rng(163)
    for n in (3, 7, 11):
        x, y = cobb_douglas_year(rng, n)
        fit = fit_cqr(x, y, 0.5)
        assert fit.work.master_solves == 1
        assert fit.work.pivots == fit.work.cold
        assert abs(fit.objective - dense_cqr(x, y, 0.5)[0]) <= 1e-9 * (1 + fit.objective)


@pytest.mark.parametrize("case", ["default", "crs", "weighted"])
def test_grid_sweep_matches_separate_fits(case):
    # each tau of the sweep starts from the previous tau's working set and
    # basis; the optimum must not depend on that start
    rng = np.random.default_rng(173)
    x, y = cobb_douglas_year(rng, 30)
    kw = {"crs": case == "crs"}
    if case == "weighted":
        kw["weights"] = rng.integers(1, 4, 30).astype(float)
    swept = fit_all_quantiles(x, y, **kw)
    assert [f.tau for f in swept] == SWEEP.tolist()
    for fit in swept:
        alone = fit_cqr(x, y, fit.tau, **kw)
        assert abs(fit.objective - alone.objective) <= 1e-9 * abs(alone.objective)
        assert np.max(np.abs(fitted(fit, x) - fitted(alone, x))) <= 1e-7


def test_grid_sweep_makes_one_cold_master_solve(monkeypatch):
    # the sweep keeps one master: each generation round is one call through
    # cqr.solve_lp on it, only the first of them cold, and no round
    # builds a LinearProgram. The sweep runs from the top tau down: the
    # cold solve carries the u box [-(1 - tau), tau] of tau = .95 and each
    # later tau moves it lower, while the fits come back ascending
    calls, built, boxes = [], [], []
    original = cityalloc.cqr.solve_lp
    program = cityalloc.cqr.LinearProgram

    def recording(master):
        boxes.append((master.lo[:n].copy(), master.hi[:n].copy()))
        res = original(master)
        calls.append((master, res.warm_started))
        return res

    def building(*args, **kwargs):
        built.append(1)
        return program(*args, **kwargs)

    monkeypatch.setattr("cityalloc.cqr.solve_lp", recording)
    monkeypatch.setattr("cityalloc.cqr.LinearProgram", building)
    x, y = cobb_douglas_year(np.random.default_rng(179), 40)
    n = len(y)
    fits = fit_all_quantiles(x, y)
    assert len(calls) > len(DEFAULT_QUANTILES)
    assert [warm for _, warm in calls] == [False] + [True] * (len(calls) - 1)
    assert all(master is calls[0][0] for master, _ in calls)
    assert len(built) == 1
    taus = []
    for lo, hi in boxes:
        assert np.all(hi == hi[0]) and np.allclose(lo, hi - 1.0)
        if not taus or hi[0] != taus[-1]:
            taus.append(hi[0])
    assert taus == pytest.approx(SWEEP[::-1], abs=1e-15)
    assert [f.tau for f in fits] == SWEEP.tolist()


def test_grid_sweep_working_set_only_grows(monkeypatch):
    # no generated cross row ever leaves the master: its column count never
    # falls from one round to the next, and every tau resumes from a
    # working set that still holds every seed pair
    x, y = cobb_douglas_year(np.random.default_rng(179), 40)
    n = len(y)
    seed = {tuple(p) for p in cityalloc.cqr._neighbour_pairs(x).tolist()}
    sizes, missing = [], []
    original = cityalloc.cqr.solve_lp

    def recording(master):
        # a w column (i, h) holds -1 on alpha row i and +1 on alpha row h
        w = master.A[:n, n:master.n].toarray()
        pairs = set(zip(w.argmin(axis=0).tolist(), w.argmax(axis=0).tolist()))
        sizes.append(master.n)
        missing.append(len(seed - pairs))
        return original(master)

    monkeypatch.setattr("cityalloc.cqr.solve_lp", recording)
    fit_all_quantiles(x, y)
    assert len(sizes) > len(DEFAULT_QUANTILES)
    assert np.all(np.diff(sizes) >= 0)
    assert missing == [0] * len(sizes)


def violated_pairs_loop(viol, per_obs, cap):
    """The per-observation loop that cqr._violated_pairs replaces, kept
    as its reference."""
    tol = cityalloc.cqr._VIOL_TOL
    n = len(viol)
    batch = []
    seen = set()
    for i in range(n):
        vi = viol[i]
        k = min(per_obs, n - 1)
        if k == 0:
            continue
        idx = np.argpartition(vi, -k)[-k:]
        idx = idx[vi[idx] > tol]
        idx = idx[np.argsort(-vi[idx], kind="stable")]
        for h in idx:
            h = int(h)
            if (i, h) not in seen:
                seen.add((i, h))
                batch.append((i, h))
            if viol[h, i] > tol and (h, i) not in seen:
                seen.add((h, i))
                batch.append((h, i))
    return np.asarray(batch[:cap], dtype=np.int64).reshape(-1, 2)


def test_violated_pairs_match_the_loop():
    # violations drawn from a few values, so rows tie at, above and below
    # the tolerance and on known pairs (-inf); every n from 1 (k = 0) up
    tol = cityalloc.cqr._VIOL_TOL
    levels = np.array([-np.inf, -1.0, 0.0, tol / 2, tol, 2 * tol, 3 * tol, 1.0])
    rng = np.random.default_rng(191)
    for n in (1, 2, 3, 4, 5, 8, 30):
        for _ in range(40):
            viol = rng.choice(levels, size=(n, n))
            np.fill_diagonal(viol, 0.0)
            for cap in (5 * n, 3):
                got = cityalloc.cqr._violated_pairs(viol, 3, cap)
                want = violated_pairs_loop(viol, 3, cap)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fit_out_of_rounds_raises(monkeypatch):
    # 40 observations need more than the seeded first master
    monkeypatch.setattr(cityalloc.cqr, "_MAX_ROUNDS", 1)
    x, y = cobb_douglas_year(np.random.default_rng(167), 40)
    with pytest.raises(SolverError, match="did not converge"):
        fit_cqr(x, y, 0.5)


def test_duplicated_point_reduces_to_sample_median():
    rng = np.random.default_rng(103)
    n = 9
    x = np.tile(rng.uniform(1.0, 2.0, (1, 2)), (n, 1))
    y = rng.permutation(np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 7.0]))
    fit = fit_cqr(x, y, 0.5)
    fitted = fit.alpha + np.sum(x * fit.beta, axis=1)
    # identical inputs force one shared fitted value: the sample median
    assert np.ptp(fitted) <= 1e-7
    assert abs(fitted[0] - np.median(y)) <= 1e-7


def test_objective_never_exceeds_single_plane_fit():
    rng = np.random.default_rng(107)
    x, y = cobb_douglas_year(rng, 40)
    for fit in fit_all_quantiles(x, y):
        tau = fit.tau
        ref_obj, _, _ = linear_qr(x, y, tau)
        # the one-plane fit is a feasible point of the frontier program,
        # so the frontier loss can only be lower
        assert fit.objective <= ref_obj + 1e-6
        assert fit.objective >= -1e-9
        resid = y - (fit.alpha + np.sum(x * fit.beta, axis=1))
        assert abs(pinball(resid, tau) - fit.objective) <= 1e-7 * (1 + fit.objective)


def test_crs_zero_intercepts_and_euler_identity():
    rng = np.random.default_rng(113)
    x = rng.lognormal(1.0, 0.4, (25, 2))
    # exactly concave CRS data: y on a common linear technology
    y = x @ np.array([0.7, 0.5])
    fit = fit_cqr(x, y, 0.5, crs=True)
    assert np.all(fit.alpha == 0.0)
    on_frontier = (fit.eps_plus <= 1e-7) & (fit.eps_minus <= 1e-7)
    assert on_frontier.any()
    fitted = np.sum(x * fit.beta, axis=1)
    assert np.max(np.abs(fitted[on_frontier] - y[on_frontier])) <= 1e-6
    # noisy CRS data: the option only tightens the program
    x2, y2 = cobb_douglas_year(rng, 20)
    vrs = fit_cqr(x2, y2, 0.5)
    crs = fit_cqr(x2, y2, 0.5, crs=True)
    assert crs.objective >= vrs.objective - 1e-9


def test_monotone_concave_envelope():
    rng = np.random.default_rng(127)
    x, y = cobb_douglas_year(rng, 30)
    fit = fit_cqr(x, y, 0.5)
    assert fit.beta.min() >= 0.0
    grid = np.linspace(x.min(0), x.max(0), 15)
    vals = fit.frontier(grid)
    assert np.all(np.diff(vals) >= -1e-9)  # nondecreasing along the ray
    # midpoint concavity along the same ray
    mid = fit.frontier((grid[:-2] + grid[2:]) / 2.0)
    assert np.all(mid >= (vals[:-2] + vals[2:]) / 2.0 - 1e-9)


def test_grid_and_input_validation():
    rng = np.random.default_rng(131)
    x, y = cobb_douglas_year(rng, 8)
    with pytest.raises(ValueError):
        fit_cqr(x, y, 0.0)
    with pytest.raises(ValueError):
        fit_cqr(x, y[:-1], 0.5)
    x_bad = x.copy()
    x_bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_cqr(x_bad, y, 0.5)
    with pytest.raises(ValueError):
        fit_cqr(x, y, 0.5, weights=np.ones(7))
    with pytest.raises(ValueError):
        fit_cqr(x, y, 0.5, weights=np.r_[np.inf, np.ones(7)])
    with pytest.raises(ValueError):
        fit_cqr(x, y, 0.5, weights=np.r_[0.0, np.ones(7)])
    with pytest.raises(ValueError):
        fit_all_quantiles(x, y, weights=np.r_[-1.0, np.ones(7)])
    fits = fit_all_quantiles(x, y, year=1999)
    assert [f.tau for f in fits] == SWEEP.tolist()
    assert all(f.year == 1999 for f in fits)


def test_decile_assignment_ordering_and_sizes():
    rng = np.random.default_rng(137)
    # ten strictly separated scores land one city per decile, in order
    x = np.ones((10, 2))
    y = np.arange(10, dtype=float)
    fit = fit_cqr(x, y, 0.5)
    da = assign_deciles(x, y, fit)
    order = np.argsort(y - fit.frontier(x), kind="stable")
    assert np.array_equal(da.decile[order], np.arange(1, 11))

    # 284 cities: sizes differ by at most one and sum exactly
    x2, y2 = cobb_douglas_year(rng, 284)
    med = fit_cqr(x2, y2, 0.5)
    da2 = assign_deciles(x2, y2, med)
    sizes = da2.sizes
    assert sizes.sum() == 284
    assert sorted(sizes.tolist()) == [28] * 6 + [29] * 4
    # every decile's members are consistent with the stored labels
    got = np.concatenate([da2.members(d) for d in range(1, 11)])
    assert sorted(got.tolist()) == list(range(284))


def test_decile_ranking_matches_sort_oracle():
    rng = np.random.default_rng(139)
    x, y = cobb_douglas_year(rng, 47)
    med = fit_cqr(x, y, 0.5)
    ids = rng.permutation(47) + 1000
    da = assign_deciles(x, y, med, city_id=ids)
    ref_score = y - envelope(med.alpha, med.beta, x)
    ref_rank = np.lexsort((ids, ref_score))
    ref_decile = np.empty(47, dtype=int)
    for d, chunk in enumerate(np.array_split(ref_rank, 10), start=1):
        ref_decile[chunk] = d
    assert np.array_equal(da.decile, ref_decile)


def test_decile_ties_break_by_city_id():
    x = np.ones((20, 2))
    y = np.zeros(20)  # identical scores everywhere
    fit = fit_cqr(x, y, 0.5)
    ids = np.arange(20)[::-1]  # descending ids
    da = assign_deciles(x, y, fit, city_id=ids)
    # lowest city_id must land in decile 1
    assert da.decile[ids == 0][0] == 1
    assert da.decile[ids == 19][0] == 10


def test_dedup_collapses_only_true_duplicates():
    alpha = np.array([1.0, 1.0 + 5e-7, 1.0 + 5e-7, 2.0])
    beta = np.array([[1.0, 2.0],
                     [1.0, 2.0],
                     [1.0, 2.0 + 2e-6],  # one coefficient off by > tol
                     [1.0, 2.0]])
    a, b = dedup_hyperplanes(alpha, beta)
    assert len(a) == 3
    assert a[0] == 1.0 and a[2] == 2.0
    assert b.shape == (3, 2)


def dedup_hyperplanes_loop(alpha, beta):
    """The pairwise loop that cqr.dedup_hyperplanes replaces, kept as its
    reference."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    coef = np.column_stack([alpha, beta])
    keep = []
    for i, row in enumerate(coef):
        if not any(np.max(np.abs(row - coef[j])) <= cityalloc.cqr._DEDUP_TOL
                   for j in keep):
            keep.append(i)
    return alpha[keep], beta[keep].reshape(len(keep), -1)


def test_dedup_matches_the_loop():
    # copies of a few base planes, each coefficient nudged by a multiple of
    # 3e-7 or by 2e-6 (tolerance 1e-6): in chains of close neighbours such
    # as 0 ~ 6e-7 ~ 1.2e-6 only the greedy order decides what is kept
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 40, 120):
        for d in (1, 2, 3):
            base = rng.uniform(-2.0, 2.0, size=(max(1, n // 4), d + 1))
            coef = base[rng.integers(0, len(base), n)]
            coef = coef + rng.choice([0.0, 3e-7, 6e-7, 9e-7, 1.2e-6, 2e-6], size=coef.shape)
            want = dedup_hyperplanes_loop(coef[:, 0], coef[:, 1:])
            got = dedup_hyperplanes(coef[:, 0], coef[:, 1:])
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            # a NaN coefficient (a blank fits.csv cell) makes a plane close
            # to nothing: the loop keeps it, and so must the vector pass
            coef[rng.integers(0, n), rng.integers(0, d + 1)] = np.nan
            want = dedup_hyperplanes_loop(coef[:, 0], coef[:, 1:])
            got = dedup_hyperplanes(coef[:, 0], coef[:, 1:])
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g, w)


def test_fit_csv_round_trip(tmp_path):
    rng = np.random.default_rng(149)
    x, y = cobb_douglas_year(rng, 12)
    fits = [fit_cqr(x, y, tau, year=2007) for tau in (0.25, 0.5, 0.75)]
    path = tmp_path / "fits.csv"
    fits_to_csv(fits, path)
    header = path.read_text().splitlines()[0]
    assert header == "year,tau,obs_index,alpha,beta_1,beta_2,eps_plus,eps_minus"
    back = fits_from_csv(path)
    assert [(f.year, f.tau) for f in back] == [(2007, t) for t in (0.25, 0.5, 0.75)]
    for a, b in zip(fits, back):
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.eps_plus, b.eps_plus)
        assert abs(a.objective - b.objective) <= 1e-9 * (1 + a.objective)
    # rows in any order group back by (year, tau) and observation, and
    # a blank cell reads as NaN, as numpy.genfromtxt reads it
    header, *lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = ""
    lines[5] = ",".join(cells)
    path.write_text("\n".join([header] + lines[::-1]) + "\n")
    shuffled = fits_from_csv(path)
    assert np.isnan(shuffled[0].alpha[5])
    shuffled[0].alpha[5] = back[0].alpha[5]
    for a, b in zip(back, shuffled):
        assert (a.year, a.tau, a.objective) == (b.year, b.tau, b.objective)
        for name in ("alpha", "beta", "eps_plus", "eps_minus"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    with pytest.raises(ValueError):
        fits_to_csv([], tmp_path / "none.csv")
