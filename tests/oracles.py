"""Independent reference implementations used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, dense
formulations handed to scipy, closed-form recursions. Nothing imports
the library's solver paths, so agreement is evidence, not tautology.
"""

import itertools
import math

import numpy as np
import scipy.optimize
import scipy.sparse as sp

INF = np.inf
_MAX_GRID_POINTS = 2e7


def vertex_enumerate(c, a_ub, b_ub, lo, hi, sense="max"):
    """Enumerate all vertices of {lo <= x <= hi, a_ub x <= b_ub}.

    Returns (status, objective, x). Intended for tiny dense instances;
    cost grows as C(rows + finite bounds, n). Bounded feasible sets
    only: every nonempty polytope here has a vertex, so "no feasible
    vertex" means infeasible.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = [np.asarray(a_ub, dtype=float).reshape(-1, n)] if a_ub is not None else []
    rhs = [np.asarray(b_ub, dtype=float).ravel()] if b_ub is not None else []
    for j in range(n):
        e = np.zeros(n)
        if np.isfinite(lo[j]):
            e_lo = e.copy()
            e_lo[j] = -1.0
            rows.append(e_lo[None, :])
            rhs.append(np.array([-lo[j]]))
        if np.isfinite(hi[j]):
            e_hi = e.copy()
            e_hi[j] = 1.0
            rows.append(e_hi[None, :])
            rhs.append(np.array([hi[j]]))
    g = np.vstack(rows)
    h = np.concatenate(rhs)
    m = len(h)
    best = None
    best_x = None
    for active in itertools.combinations(range(m), n):
        sub = g[list(active)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, h[list(active)])
        if np.all(g @ x <= h + 1e-8):
            val = c @ x
            if best is None or (sense == "max" and val > best) or \
                    (sense == "min" and val < best):
                best = val
                best_x = x
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


def scipy_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             sense="max"):
    """Dense LP via scipy's HiGHS. Returns (status, objective, x).

    Status strings follow scipy's convention loosely: "optimal",
    "infeasible", "unbounded", "other". HiGHS presolve may mislabel a
    feasible unbounded problem as infeasible, so callers must only
    trust statuses on instances whose status is known by construction.
    """
    c = np.asarray(c, dtype=float)
    sign = -1.0 if sense == "max" else 1.0
    res = scipy.optimize.linprog(
        sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", sign * res.fun, res.x
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    return "other", None, None


def milp_enumerate(c, a_ub, b_ub, lo, hi, integer_mask, sense="max"):
    """Brute force over every 0/1 pattern of the integer variables.

    Integer variables must have binary bounds. Each pattern is solved
    as an LP with those variables fixed. Returns (status, objective, x).
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ints = np.nonzero(integer_mask)[0]
    best = None
    best_x = None
    for bits in itertools.product((0.0, 1.0), repeat=len(ints)):
        bl = lo.copy()
        bh = hi.copy()
        bl[ints] = bits
        bh[ints] = bits
        status, val, x = scipy_lp(c, a_ub, b_ub, None, None,
                                  list(zip(bl, bh)), sense)
        if status != "optimal":
            continue
        if best is None or (sense == "max" and val > best) or \
                (sense == "min" and val < best):
            best = val
            best_x = x
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


def dense_cqr(x, y, tau, crs=False):
    """Full dense frontier LP with every cross row, solved by scipy.

    Variables stacked [alpha (n), beta (n*d), eps+ (n), eps- (n)];
    under crs the alpha block is dropped. Returns
    (objective, alpha, beta, eps_plus, eps_minus).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    na = 0 if crs else n
    nv = na + n * d + 2 * n
    cost = np.zeros(nv)
    cost[na + n * d:na + n * d + n] = tau
    cost[na + n * d + n:] = 1.0 - tau

    a_eq = np.zeros((n, nv))
    for i in range(n):
        if not crs:
            a_eq[i, i] = 1.0
        a_eq[i, na + i * d:na + (i + 1) * d] = x[i]
        a_eq[i, na + n * d + i] = 1.0
        a_eq[i, na + n * d + n + i] = -1.0

    rows = []
    for i in range(n):
        for h in range(n):
            if i == h:
                continue
            r = np.zeros(nv)
            if not crs:
                r[i] = 1.0
                r[h] = -1.0
            r[na + i * d:na + (i + 1) * d] += x[i]
            r[na + h * d:na + (h + 1) * d] -= x[i]
            rows.append(r)
    a_ub = np.vstack(rows)
    bounds = [(None, None)] * na + [(0.0, None)] * (nv - na)
    status, obj, v = scipy_lp(cost, a_ub, np.zeros(len(rows)), a_eq, y,
                              bounds, sense="min")
    if status != "optimal":
        raise RuntimeError(f"dense frontier oracle: {status}")
    alpha = np.zeros(n) if crs else v[:n]
    beta = v[na:na + n * d].reshape(n, d)
    return obj, alpha, beta, v[na + n * d:na + n * d + n], v[na + n * d + n:]


def linear_qr(x, y, tau):
    """Single-plane quantile regression (slopes >= 0) via scipy.

    Returns (objective, intercept, slopes).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    nv = 1 + d + 2 * n
    cost = np.zeros(nv)
    cost[1 + d:1 + d + n] = tau
    cost[1 + d + n:] = 1.0 - tau
    a_eq = np.zeros((n, nv))
    a_eq[:, 0] = 1.0
    a_eq[:, 1:1 + d] = x
    a_eq[np.arange(n), 1 + d + np.arange(n)] = 1.0
    a_eq[np.arange(n), 1 + d + n + np.arange(n)] = -1.0
    bounds = [(None, None)] + [(0.0, None)] * (nv - 1)
    status, obj, v = scipy_lp(cost, None, None, a_eq, y, bounds, sense="min")
    if status != "optimal":
        raise RuntimeError(f"linear QR oracle: {status}")
    return obj, v[0], v[1:1 + d]


def pinball(resid, tau):
    """Quantile loss sum(tau*max(r,0) + (1-tau)*max(-r,0))."""
    r = np.asarray(resid, dtype=float)
    return float(tau * np.clip(r, 0, None).sum()
                 + (1 - tau) * np.clip(-r, 0, None).sum())


def envelope(alpha, beta, x):
    """min_h(alpha_h + beta_h . x) evaluated row-wise, straight loop."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        out[i] = min(alpha[h] + beta[h] @ xi for h in range(len(alpha)))
    return out


def two_decile_grid(tech_a, tech_b, n_a, n_b, k_total, l_total, step=1e-3):
    """Grid oracle for a two-decile planner with two factors.

    tech_* are (alpha, beta) plane lists. Within a decile the pseudo
    cities share one concave technology, so an equal split among them
    is optimal (Jensen); only the decile-level split of each factor is
    searched, on a fractional grid of the given step.
    """
    frac = np.arange(0.0, 1.0 + step / 2, step)
    ka = frac * k_total
    la = frac * l_total

    def decile_out(tech, n, k, l):
        a, b = tech
        # per-city envelope at the equal split, times the city count
        pts = np.column_stack([k / n, l / n])
        vals = np.asarray(a)[None, :] + pts @ np.asarray(b).T
        return n * vals.min(axis=1)

    best = -INF
    for kk in ka:
        ya = decile_out(tech_a, n_a, np.full(len(la), kk), la)
        yb = decile_out(tech_b, n_b, np.full(len(la), k_total - kk),
                        l_total - la)
        best = max(best, float((ya + yb).max()))
    return best


def capital_series(invest, delta, k0):
    """Perpetual-inventory recursion K_{t+1} = (1-delta) K_t + I_t."""
    invest = np.asarray(invest, dtype=float)
    k = np.empty(len(invest))
    k[0] = k0
    for t in range(1, len(invest)):
        k[t] = (1.0 - delta) * k[t - 1] + invest[t]
    return k


def planner_lp(techs, counts, totals, weights=None, local=False, fixed=None):
    """Dense scipy oracle for the planner's linear-program modes.

    techs: one (alpha, beta) plane list per decile; counts: pseudo-city
    count per decile; totals: per-factor supplies (inf drops the row);
    weights: per-factor (1+friction) multipliers on the resource rows;
    local: per-decile rows at one tenth of each total; fixed: optional
    {factor column: per-city values} pinning those columns. Returns the
    optimal total output.
    """
    totals = np.asarray(totals, dtype=float)
    nf = totals.size
    w = np.ones(nf) if weights is None else np.asarray(weights, dtype=float)
    fixed = {} if fixed is None else fixed
    free_cols = [f for f in range(nf) if f not in fixed]
    n = int(sum(counts))
    nv = n * (1 + len(free_cols))

    def xcol(i, j):
        return n + i * len(free_cols) + j

    c = np.zeros(nv)
    c[:n] = -1.0
    rows, rhs = [], []
    city = 0
    for (alpha, beta), cnt in zip(techs, counts):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        for _ in range(cnt):
            base = alpha.copy()
            for col, vals in fixed.items():
                base = base + beta[:, col] * np.asarray(vals, dtype=float)[city]
            for h in range(alpha.size):
                row = np.zeros(nv)
                row[city] = 1.0
                for j, col in enumerate(free_cols):
                    row[xcol(city, j)] = -beta[h, col]
                rows.append(row)
                rhs.append(base[h])
            city += 1
    for j, col in enumerate(free_cols):
        if not np.isfinite(totals[col]):
            continue
        if local:
            city = 0
            for cnt in counts:
                row = np.zeros(nv)
                for i in range(city, city + cnt):
                    row[xcol(i, j)] = w[col]
                rows.append(row)
                rhs.append(totals[col] / 10.0)
                city += cnt
        else:
            row = np.zeros(nv)
            for i in range(n):
                row[xcol(i, j)] = w[col]
            rows.append(row)
            rhs.append(totals[col])

    bounds = [(None, None)] * n + [(0.0, None)] * (nv - n)
    res = scipy.optimize.linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                                 bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return -float(res.fun)


def cobb_douglas_grid_two(scale, exponents, totals, step):
    """Best split of two aggregate factors across TWO identical
    Cobb-Douglas cities, by exhaustive share grid."""
    a1, a2 = exponents
    k_tot, l_tot = totals
    s = np.arange(0.0, 1.0 + step / 2, step)
    sk, sl = np.meshgrid(s, s, indexing="ij")
    out = (scale * (sk * k_tot) ** a1 * (sl * l_tot) ** a2
           + scale * ((1.0 - sk) * k_tot) ** a1 * ((1.0 - sl) * l_tot) ** a2)
    return float(out.max())


def _compositions(m, parts):
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def brute_force_allocate(technologies, aggregates, grid_step) -> float:
    """Exhaustive grid search over full-reallocation splits.

    Walks per-decile factor shares on a simplex grid with the given
    share step; within a decile pseudo-cities split evenly, which is
    optimal because the envelopes are concave.  Deliberately refuses
    anything beyond oracle scale (4 pseudo-cities, 2 factors).
    """
    techs = list(technologies)
    if not techs:
        raise ValueError("no technologies")
    counts = np.array([t.pseudo_city_count for t in techs])
    n_fac = techs[0].n_factors
    if counts.sum() > 4:
        raise ValueError("grid oracle handles at most 4 pseudo-cities")
    if n_fac > 2:
        raise ValueError("grid oracle handles at most 2 factors")
    totals = np.asarray(aggregates, dtype=float)
    if totals.shape != (n_fac,) or not np.all(np.isfinite(totals)) or (totals < 0).any():
        raise ValueError("aggregates must be finite, nonnegative, one per factor")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step is a share in (0, 1]")

    n_dec = len(techs)
    if n_dec == 1:
        pt = totals / counts[0]
        return float(counts[0] * techs[0].envelope(pt)[0])

    m = max(int(round(1.0 / grid_step)), 1)
    n_rows = math.comb(m + n_dec - 1, n_dec - 1)
    if float(n_rows) ** n_fac > _MAX_GRID_POINTS:
        raise ValueError("grid too fine for this size; increase grid_step")
    shares = np.array(list(_compositions(m, n_dec)), dtype=float) / m

    if n_fac == 1:
        best = -np.inf
        total = np.zeros(shares.shape[0])
        for d, tech in enumerate(techs):
            pts = (totals[0] * shares[:, d] / counts[d])[:, None]
            total += counts[d] * tech.envelope(pts)
        return float(total.max())

    best = -np.inf
    l_pts = totals[1] * shares  # (n_c, n_dec) allocations of factor 1
    for row in shares:  # allocations of factor 0, one decile each
        total = np.zeros(shares.shape[0])
        for d, tech in enumerate(techs):
            pts = np.column_stack([
                np.full(shares.shape[0], totals[0] * row[d] / counts[d]),
                l_pts[:, d] / counts[d]])
            total += counts[d] * tech.envelope(pts)
        best = max(best, float(total.max()))
    return best
