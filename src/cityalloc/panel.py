"""City-year panel ingestion and input construction.

Loads the raw CSV panel, chains year-over-year price indices into
deflators, builds capital stock by the perpetual inventory method under
three initialization variants, and assembles the per-year input
matrices (capital, labor, optionally schooling-based human capital and
land) consumed by the estimator and the planner.
"""

import csv
from dataclasses import dataclass

import numpy as np

REQUIRED_COLUMNS = ("city_id", "year", "grdp", "grdp_index",
                    "investment", "investment_index", "employment")
STUDENT_COLUMNS = ("s_primary", "s_secondary", "s_higher")
LAND_COLUMN = "land"

INPUT_ORDER = ("K", "L", "H", "D")

CAPITAL_VARIANTS = ("baseline", "zhang2004", "shan2008")

# pooled cross-sections produced by fixed_effect_inputs carry this year
POOLED_YEAR = 0


class PanelError(ValueError):
    """Malformed or incomplete panel input."""


@dataclass(frozen=True)
class CapitalRule:
    """Perpetual-inventory configuration.

    baseline: delta 10.96%, initial stock I_real(first+1)/(g_bar+delta)
    with g_bar the mean growth rate of real investment over every year
    after the first. zhang2004: delta 9.6%, initial stock
    I_real(first)/0.10. shan2008: like baseline but g_bar averages only
    the first five post-initial years.
    """

    variant: str = "baseline"

    def __post_init__(self):
        if self.variant not in CAPITAL_VARIANTS:
            raise PanelError(f"unknown capital rule variant {self.variant!r}")

    @property
    def delta(self) -> float:
        return 0.096 if self.variant == "zhang2004" else 0.1096


@dataclass(frozen=True, eq=False)
class Panel:
    """Balanced constructed panel: city by year blocks per series."""

    city_id: np.ndarray
    years: np.ndarray
    y: np.ndarray
    inputs: dict

    def __post_init__(self):
        c, t = len(self.city_id), len(self.years)
        if self.y.shape != (c, t):
            raise PanelError("output block has the wrong shape")
        names = tuple(self.inputs)
        if names != tuple(n for n in INPUT_ORDER if n in names):
            raise PanelError(f"inputs must follow the order {INPUT_ORDER}")
        for name, block in self.inputs.items():
            if block.shape != (c, t):
                raise PanelError(f"input block {name} has the wrong shape")

    @property
    def n_cities(self) -> int:
        return len(self.city_id)

    @property
    def input_names(self) -> tuple:
        return tuple(self.inputs)

    def year_index(self, year) -> int:
        pos = np.nonzero(self.years == year)[0]
        if len(pos) == 0:
            raise PanelError(f"year {year} not in panel")
        return int(pos[0])

    def year_slice(self, year):
        """(x, y, city_id) for one year; x columns follow input_names."""
        t = self.year_index(year)
        x = np.column_stack([self.inputs[n][:, t] for n in self.inputs])
        return x, self.y[:, t].copy(), self.city_id

    def select_cities(self, indices) -> "Panel":
        idx = np.asarray(indices)
        return Panel(self.city_id[idx], self.years, self.y[idx],
                     {n: b[idx] for n, b in self.inputs.items()})


def deflate_series(nominal, index, base_pos: int):
    """Constant prices of the base position via chained indices.

    index[t] is the year-over-year price index of year t (previous year
    = 100); the base year's own entry is ignored. Deflators chain
    outward from the base in both directions.
    """
    nominal = np.asarray(nominal, dtype=float)
    index = np.asarray(index, dtype=float)
    t = len(nominal)
    if not 0 <= base_pos < t:
        raise PanelError("base year outside the series")
    defl = np.ones(t)
    for s in range(base_pos + 1, t):
        defl[s] = defl[s - 1] * index[s] / 100.0
    for s in range(base_pos - 1, -1, -1):
        defl[s] = defl[s + 1] * 100.0 / index[s + 1]
    return nominal / defl


def human_capital(s_primary, s_secondary, s_higher):
    """Schooling-weighted aggregate 6*S1 + 10*S2 + 16*S3."""
    s1 = np.asarray(s_primary, dtype=float)
    s2 = np.asarray(s_secondary, dtype=float)
    s3 = np.asarray(s_higher, dtype=float)
    if (s1 < 0).any() or (s2 < 0).any() or (s3 < 0).any():
        raise PanelError("student counts must be nonnegative")
    return 6.0 * s1 + 10.0 * s2 + 16.0 * s3


def build_capital_stock(real_investment, rule: CapitalRule):
    """Perpetual inventory K_t = (1 - delta) K_{t-1} + I_t, deflated units.

    The first year's stock comes from the rule's initialization; the
    recursion then runs forward over the remaining years. Growth rates
    are year-over-year ratios of the real investment series.
    """
    inv = np.asarray(real_investment, dtype=float)
    t = len(inv)
    if t < 2:
        raise PanelError("capital construction needs at least two years")
    if (inv <= 0).any():
        raise PanelError("investments must be positive")
    delta = rule.delta
    if rule.variant == "zhang2004":
        k0 = inv[0] / 0.10
    else:
        last = t if rule.variant == "baseline" else min(t, 6)
        rates = inv[1:last] / inv[0:last - 1] - 1.0
        g_bar = rates.mean()
        if g_bar + delta <= 0.0:
            raise PanelError(
                f"cannot initialize stock: g_bar + delta = {g_bar + delta:.4f} <= 0")
        k0 = inv[1] / (g_bar + delta)
    k = np.empty(t)
    k[0] = k0
    for s in range(1, t):
        k[s] = (1.0 - delta) * k[s - 1] + inv[s]
    if (k <= 0).any():
        raise PanelError("computed capital stock is not positive")
    return k


def _parse_header(line):
    cols = [c.strip() for c in line]
    base = tuple(cols[:7])
    if base != REQUIRED_COLUMNS:
        raise PanelError(
            f"header must start with {','.join(REQUIRED_COLUMNS)}, got {','.join(cols)}")
    rest = cols[7:]
    with_students = False
    with_land = False
    if rest[:3] == list(STUDENT_COLUMNS):
        with_students = True
        rest = rest[3:]
    if rest[:1] == [LAND_COLUMN]:
        with_land = True
        rest = rest[1:]
    if rest:
        raise PanelError(f"unexpected trailing columns {rest}")
    return with_students, with_land


def load_panel(path, base_year=None, capital_rule: CapitalRule | None = None,
               with_human_capital=True, with_land=True) -> Panel:
    """Read the raw CSV, validate balance, and construct the panel.

    Optional student and land columns extend the input vector with H
    and D unless switched off. Cities are ordered by id, years
    ascending; any duplicate or missing (city, year) pair is an error
    naming the offender.
    """
    rule = capital_rule or CapitalRule()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError("empty input file") from None
        has_students, has_land = _parse_header(header)
        raw = {}
        width = 7 + 3 * has_students + has_land
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise PanelError(f"line {lineno}: expected {width} fields, got {len(row)}")
            cid = row[0].strip()
            if "\r" in cid or "\n" in cid:
                # csv leaves a bare CR unquoted under LF line ends, so the
                # run directory's tables could not echo this id
                raise PanelError(f"line {lineno}: city id holds a line break")
            try:
                year = int(row[1])
                vals = [float(v) for v in row[2:]]
            except ValueError:
                raise PanelError(f"line {lineno}: non-numeric field") from None
            if (cid, year) in raw:
                raise PanelError(f"duplicate record for city {cid}, year {year}")
            raw[(cid, year)] = vals

    if not raw:
        raise PanelError("no data rows")
    cities = sorted({c for c, _ in raw})
    years = np.array(sorted({y for _, y in raw}))
    for c in cities:
        for yr in years:
            if (c, int(yr)) not in raw:
                raise PanelError(f"missing record for city {c}, year {yr}")

    base = int(years[0]) if base_year is None else int(base_year)
    if base not in years:
        raise PanelError(f"base year {base} not covered by the panel")
    base_pos = int(np.nonzero(years == base)[0][0])

    c_n, t_n = len(cities), len(years)
    grid = np.array([[raw[(c, int(yr))] for yr in years] for c in cities])
    grdp, grdp_idx = grid[:, :, 0], grid[:, :, 1]
    invest, inv_idx = grid[:, :, 2], grid[:, :, 3]
    emp = grid[:, :, 4]
    if (grdp <= 0).any() or (invest <= 0).any() or (emp <= 0).any():
        raise PanelError("grdp, investment and employment must be positive")
    if (grdp_idx <= 0).any() or (inv_idx <= 0).any():
        raise PanelError("price indices must be positive")

    y = np.empty((c_n, t_n))
    k = np.empty((c_n, t_n))
    for i in range(c_n):
        y[i] = deflate_series(grdp[i], grdp_idx[i], base_pos)
        inv_real = deflate_series(invest[i], inv_idx[i], base_pos)
        k[i] = build_capital_stock(inv_real, rule)
    inputs = {"K": k, "L": emp.copy()}
    if has_students and with_human_capital:
        h = human_capital(grid[:, :, 5], grid[:, :, 6], grid[:, :, 7])
        if (h <= 0).any():
            raise PanelError("human capital must be positive where students are provided")
        inputs["H"] = h
    if has_land and with_land:
        d = grid[:, :, 5 + 3 * has_students]
        if (d <= 0).any():
            raise PanelError("land area must be positive")
        inputs["D"] = d
    return Panel(np.array(cities, dtype=object), years, y, inputs)


def fixed_effect_inputs(panel: Panel) -> Panel:
    """Collapse the panel to city time-means, one pooled cross-section.

    Each city's inputs and output are replaced by their within-city
    means over the years; the result carries the sentinel year
    POOLED_YEAR. Applying the transform twice is the identity.
    """
    y = panel.y.mean(axis=1, keepdims=True)
    inputs = {n: b.mean(axis=1, keepdims=True) for n, b in panel.inputs.items()}
    return Panel(panel.city_id, np.array([POOLED_YEAR]), y, inputs)
