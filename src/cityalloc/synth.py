"""Synthetic economies with known technologies and misallocation.

Generates raw city-year panels from a common Cobb-Douglas technology
with per-city input-price wedges, together with the exact efficient
aggregate output, so the whole pipeline (ingest, frontier estimation,
reallocation) can be validated against closed-form ground truth.
"""

import json
from dataclasses import dataclass

import numpy as np

from .panel import CapitalRule, REQUIRED_COLUMNS

_MAX_REDRAWS = 100


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration of one synthetic economy.

    Every city shares the technology y = scale * prod(x ** exponents),
    with returns to scale s = sum(exponents) in (0, 1].  Wedges are
    per-city multiplicative input-price distortions drawn log-normally
    with sigma ``wedge_sigma``; a city's draw of a factor is
    proportional to the inverse of its wedge, so sigma 0 means every
    city holds the same input mix.  ``noise_sigma`` scales multiplicative
    log-normal output noise (0 for a noise-free economy).
    """

    city_count: int
    year_count: int
    scale: float
    exponents: tuple
    wedge_sigma: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.city_count < 1:
            raise ValueError("city_count must be at least 1")
        if self.year_count < 2:
            # the perpetual-inventory rule needs two investment years
            raise ValueError("year_count must be at least 2")
        a = np.asarray(self.exponents, dtype=float)
        if a.size == 0 or (a <= 0).any():
            raise ValueError("exponents must be positive")
        if not 0.0 < a.sum() <= 1.0 + 1e-12:
            raise ValueError("returns to scale must lie in (0, 1]")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive")
        if self.wedge_sigma < 0 or self.noise_sigma < 0:
            raise ValueError("sigmas must be nonnegative")
        object.__setattr__(self, "exponents", tuple(float(v) for v in a))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """What the generator knows that the pipeline must recover."""

    years: np.ndarray
    endowments: dict
    actual_output: np.ndarray
    efficient_output: float
    true_gain: np.ndarray

    def __post_init__(self):
        self.years.setflags(write=False)
        self.actual_output.setflags(write=False)
        self.true_gain.setflags(write=False)


def analytic_efficient_output(spec: SyntheticSpec, aggregates) -> float:
    """Efficient aggregate output for n identical Cobb-Douglas cities.

    Equal split across cities is optimal by symmetry and concavity, so
    Y_e = n * A * prod((X / n) ** a) = n ** (1 - s) * A * prod(X ** a);
    under constant returns the city count drops out entirely.  Only the
    homogeneous-technology case is supported; heterogeneous economies
    need the grid oracle.
    """
    a = np.asarray(spec.exponents)
    x = np.asarray(aggregates, dtype=float)
    if x.shape != a.shape:
        raise ValueError("one aggregate per exponent required")
    if (x < 0).any() or not np.all(np.isfinite(x)):
        raise ValueError("aggregates must be finite and nonnegative")
    s = a.sum()
    return float(spec.scale * spec.city_count ** (1.0 - s) * np.prod(x ** a))


def _wedge_shares(rng, sigma, n):
    # inverse-wedge draw: factor price w, allocation share 1/w normalized
    w = rng.lognormal(0.0, sigma, n) if sigma > 0 else np.ones(n)
    inv = 1.0 / w
    return inv / inv.sum()


def generate(spec: SyntheticSpec):
    """Draw one economy; returns (rows, truth).

    ``rows`` is a list of dicts in the raw panel schema (one per
    city-year, flat price indices).  Aggregate endowments are one unit
    per city and factor.  Capital wedges are drawn once per city, so
    each city's capital is constant over time and its investment column
    (delta * K under the baseline depreciation) reconstructs the
    intended stock to machine precision through the perpetual-inventory
    rule.  Labor wedges and output noise are redrawn every year, so
    yearly true gains differ.  A draw whose implied investment series
    is not strictly positive is redrawn, with an error after 100
    attempts.
    """
    if len(spec.exponents) != 2:
        raise ValueError("panel generation supports exactly two inputs (K, L)")
    rng = np.random.default_rng(spec.seed)
    n, t = spec.city_count, spec.year_count
    totals = np.full(2, float(n))
    delta = CapitalRule().delta

    for _ in range(_MAX_REDRAWS):
        capital = totals[0] * _wedge_shares(rng, spec.wedge_sigma, n)
        k_path = np.tile(capital[:, None], (1, t))
        invest = np.empty_like(k_path)
        invest[:, 0] = delta * k_path[:, 0]
        invest[:, 1:] = k_path[:, 1:] - (1.0 - delta) * k_path[:, :-1]
        if (invest > 0).all():
            break
    else:
        raise RuntimeError("no positive investment series in 100 draws")

    years = np.arange(2003, 2003 + t)
    a_k, a_l = spec.exponents
    rows = []
    actual = np.zeros(t)
    for j in range(t):
        labor = totals[1] * _wedge_shares(rng, spec.wedge_sigma, n)
        noise = (np.exp(rng.normal(0.0, spec.noise_sigma, n))
                 if spec.noise_sigma > 0 else np.ones(n))
        y = spec.scale * k_path[:, j] ** a_k * labor ** a_l * noise
        actual[j] = y.sum()
        for i in range(n):
            rows.append({
                "city_id": f"C{i + 1:03d}",
                "year": int(years[j]),
                "grdp": float(y[i]),
                "grdp_index": 100.0,
                "investment": float(invest[i, j]),
                "investment_index": 100.0,
                "employment": float(labor[i]),
            })

    efficient = analytic_efficient_output(spec, totals)
    truth = GroundTruth(years=years, endowments={"K": totals[0], "L": totals[1]},
                        actual_output=actual, efficient_output=efficient,
                        true_gain=efficient / actual)
    return rows, truth


def rows_to_csv(rows, path) -> None:
    """Write generated rows in the raw panel schema."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REQUIRED_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(
                str(row[c]) if c in ("city_id", "year") else repr(float(row[c]))
                for c in REQUIRED_COLUMNS) + "\n")


def truth_to_json(truth: GroundTruth, path) -> None:
    payload = {
        "years": [int(v) for v in truth.years],
        "endowments": {k: float(v) for k, v in truth.endowments.items()},
        "actual_output": [float(v) for v in truth.actual_output],
        "efficient_output": float(truth.efficient_output),
        "true_gain": [float(v) for v in truth.true_gain],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
