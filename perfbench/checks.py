"""Output checks made apart from the program.

References come from HiGHS through scipy: the dense frontier LP of
``tests/oracles.py`` for every quantile fit, and a per-city planner LP
(MILP for entry/exit) written here for every scenario.  Inputs for the
checks are rebuilt from the benchmark's own generated rows, never read
back from the program's panel echo.  Every check returns a list of
problems; an empty list is a pass.
"""

import importlib.util
import os

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_oracles():
    # loaded by path: a "tests" package elsewhere on sys.path must not shadow it
    path = os.path.join(_ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dense_cqr = _load_oracles().dense_cqr

FIT_RTOL = 1e-6      # pinball objective against the dense frontier LP
OUTPUT_RTOL = 1e-6   # Y_e against the HiGHS planner program
GAIN_RTOL = 1e-9     # gain against Y_e / sum(y)
ORDER_RTOL = 1e-7    # slack on the ordering properties between scenarios
DELTA_BASELINE = 0.1096  # perpetual-inventory depreciation of the default rule


def observed_years(rows):
    """{year: (x, y, city_ids)} straight from generated raw rows.

    With flat price indices y is grdp.  Capital follows the baseline
    perpetual-inventory rule: K0 = I1 / (g_bar + delta), then
    K_t = (1 - delta) K_{t-1} + I_t, cities sorted by id.
    """
    cities = sorted({r["city_id"] for r in rows})
    years = sorted({r["year"] for r in rows})
    at = {(r["city_id"], r["year"]): r for r in rows}
    inv = np.array([[at[c, t]["investment"] for t in years] for c in cities])
    g_bar = (inv[:, 1:] / inv[:, :-1] - 1.0).mean(axis=1)
    k = np.empty_like(inv)
    k[:, 0] = inv[:, 1] / (g_bar + DELTA_BASELINE)
    for s in range(1, len(years)):
        k[:, s] = (1.0 - DELTA_BASELINE) * k[:, s - 1] + inv[:, s]
    out = {}
    for s, t in enumerate(years):
        labor = np.array([at[c, t]["employment"] for c in cities])
        y = np.array([at[c, t]["grdp"] for c in cities])
        out[t] = (np.column_stack([k[:, s], labor]), y, np.array(cities))
    return out


def pinball(resid, tau):
    return float(tau * np.clip(resid, 0, None).sum()
                 + (1.0 - tau) * np.clip(-resid, 0, None).sum())


def check_fit(x, y, tau, alpha, beta, label):
    """A fit is optimal when it is feasible and its loss equals HiGHS's."""
    problems = []
    planes = alpha[None, :] + x @ beta.T       # [i, h] = plane h at x_i
    own = planes.diagonal()
    scale = 1.0 + np.abs(y).mean()
    if float(np.max(own[:, None] - planes)) > 1e-6 * scale:
        problems.append(f"{label}: concavity rows violated")
    if beta.min() < -1e-9:
        problems.append(f"{label}: negative slope")
    want = dense_cqr(x, y, tau)[0]
    got = pinball(y - own, tau)
    if abs(got - want) > FIT_RTOL * abs(want):
        problems.append(f"{label}: pinball {got!r} vs HiGHS {want!r}")
    return problems


def decile_labels(x, y, city_ids, alpha, beta):
    """Decile labels by the median-fit residual, ties by city id."""
    score = y - np.min(alpha[None, :] + x @ beta.T, axis=1)
    order = np.lexsort((city_ids, score))
    label = np.empty(len(y), dtype=np.int64)
    for d, chunk in enumerate(np.array_split(order, 10), start=1):
        label[chunk] = d
    return label


def highs_output(alpha_eff, beta_r, decile, totals, weights, local=False,
                 entry=False):
    """Optimal aggregate output of the per-city planner program.

    City i may produce y_i <= alpha_eff[i][h] + beta_r[i][h] . x_i for
    every plane h, subject to sum_i w_r x_ir <= T_r (one tenth of T_r per
    decile when local).  With entry, a binary b_i scales the intercepts
    (perspective rows) and caps x_i, so an idle city holds nothing;
    b is nonincreasing within a decile, which only breaks symmetry
    because entry scenarios pin no factor.
    """
    n = len(alpha_eff)
    nr = len(totals)
    x_off, b_off = n, n + n * nr
    nv = b_off + (n if entry else 0)
    rows, cols, vals, ub = [], [], [], []

    def put(cs, vs, rhs):
        rows.extend([len(ub)] * len(cs))
        cols.extend(cs)
        vals.extend(vs)
        ub.append(rhs)

    for i in range(n):
        xs = [x_off + i * nr + r for r in range(nr)]
        for a, b in zip(alpha_eff[i], beta_r[i]):
            if entry:
                put([i, b_off + i] + xs, [1.0, -a] + list(-b), 0.0)
            else:
                put([i] + xs, [1.0] + list(-b), a)
        if entry:
            for r in range(nr):
                put([xs[r], b_off + i], [1.0, -totals[r] / weights[r]], 0.0)
            if i + 1 < n and decile[i + 1] == decile[i]:
                put([b_off + i + 1, b_off + i], [1.0, -1.0], 0.0)
    groups = sorted(set(decile)) if local else [None]
    for r in range(nr):
        for g in groups:
            members = [i for i in range(n) if g is None or decile[i] == g]
            put([x_off + i * nr + r for i in members],
                [weights[r]] * len(members),
                totals[r] / 10.0 if local else totals[r])
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(ub), nv))
    c = np.zeros(nv)
    c[:n] = -1.0
    lower = np.zeros(nv)
    lower[:n] = -np.inf
    upper = np.full(nv, np.inf)
    integrality = np.zeros(nv)
    if entry:
        upper[b_off:] = 1.0
        integrality[b_off:] = 1
    res = milp(c, constraints=LinearConstraint(a, -np.inf, np.array(ub)),
               bounds=Bounds(lower, upper), integrality=integrality,
               options={"mip_rel_gap": 1e-12})
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -float(res.fun)


def check_output(got, want, label):
    if abs(got - want) > OUTPUT_RTOL * abs(want):
        return [f"{label}: Y_e {got!r} vs HiGHS {want!r}"]
    return []


def check_gain(gain, efficient, actual, label):
    if abs(gain - efficient / actual) > GAIN_RTOL * abs(efficient / actual):
        return [f"{label}: gain {gain!r} != Y_e / sum(y) = {efficient / actual!r}"]
    return []


def check_order(values, pairs, label):
    """values: {scenario: number}; pairs: (low, high) that must hold low <= high."""
    problems = []
    for low, high in pairs:
        if low in values and high in values:
            if values[low] > values[high] * (1.0 + ORDER_RTOL):
                problems.append(f"{label}: {low} {values[low]!r} above "
                                f"{high} {values[high]!r}")
    return problems


# the ordering the method must produce on the default scenario set
DEFAULT_ORDER = (("imperfect", "perfect"), ("perfect", "entry_exit"),
                 ("local", "perfect"))
