"""Panel construction checks: deflation, capital recursion variants,
human capital arithmetic, balance validation, fixed-effect pooling."""

import numpy as np
import pytest

from cityalloc import (
    CapitalRule,
    PanelError,
    build_capital_stock,
    deflate_series,
    fixed_effect_inputs,
    human_capital,
    load_panel,
)
from cityalloc.cli import panel_to_csv
from cityalloc.panel import POOLED_YEAR, Panel

from oracles import capital_series


def write_csv(path, rows, header):
    path.write_text("\n".join([header] + rows) + "\n")


def panel_rows(rng, cities, years, students=False, land=False):
    rows = []
    for c in cities:
        # investment follows a growth path so g_bar + delta stays positive
        inv = rng.uniform(20, 40)
        for yr in years:
            vals = [f"{c}", str(yr),
                    f"{rng.uniform(80, 120):.6f}", f"{rng.uniform(98, 106):.6f}",
                    f"{inv:.6f}", f"{rng.uniform(98, 106):.6f}",
                    f"{rng.uniform(50, 90):.6f}"]
            if students:
                vals += [f"{rng.uniform(0.02, 0.08):.6f}" for _ in range(3)]
            if land:
                vals.append(f"{rng.uniform(10, 30):.6f}")
            rows.append(",".join(vals))
            inv *= rng.uniform(0.98, 1.25)
    return rows


BASE_HEADER = "city_id,year,grdp,grdp_index,investment,investment_index,employment"


def test_deflation_flat_indices_is_identity():
    real = deflate_series([100.0, 110.0, 115.0], [100.0, 100.0, 100.0], 0)
    assert np.allclose(real, [100.0, 110.0, 115.0], atol=1e-12)


def test_deflation_pure_inflation():
    real = deflate_series([100.0, 110.0], [100.0, 110.0], 0)
    assert abs(real[1] - 100.0) <= 1e-9


def test_deflation_three_year_chain():
    # hand-computed chain: deflators 1, 1.05, 1.05 * 1.02
    real = deflate_series([100.0, 110.0, 115.0], [100.0, 105.0, 102.0], 0)
    expect = np.array([100.0, 110.0 / 1.05, 115.0 / (1.05 * 1.02)])
    assert np.max(np.abs(real - expect)) <= 1e-9


def test_deflation_base_in_the_middle():
    real = deflate_series([100.0, 110.0, 115.0], [100.0, 105.0, 102.0], 1)
    # year before base is re-inflated by the base year's own index
    expect = np.array([100.0 * 1.05, 110.0, 115.0 / 1.02])
    assert np.max(np.abs(real - expect)) <= 1e-9
    assert real[1] == 110.0  # base year identity


def test_capital_no_depreciation_accumulates():
    k = build_capital_stock([10.0, 10.0, 10.0], CapitalRule("zhang2004"))
    # K0 = 10 / 0.10 = 100, then K_t = 0.904 K_{t-1} + 10 accumulates
    assert np.allclose(k, [100.0, 100.4, 100.7616], atol=1e-9)


def test_capital_steady_state():
    k = build_capital_stock([10.0] * 6, CapitalRule("baseline"))
    # g_bar = 0 so K0 = 10 / 0.1096 and the stock never moves
    assert np.allclose(k, 10.0 / 0.1096, atol=1e-9)


def test_capital_variants_match_recursion_oracle():
    rng = np.random.default_rng(211)
    for _ in range(40):
        inv = 10.0 * np.cumprod(rng.uniform(0.9, 1.3, 5))
        for variant in ("baseline", "zhang2004", "shan2008"):
            rule = CapitalRule(variant)
            delta = rule.delta
            if variant == "zhang2004":
                k0 = inv[0] / 0.10
            else:
                # five-year series: both windows cover all four ratios
                g = (inv[1:] / inv[:-1] - 1.0).mean()
                k0 = inv[1] / (g + delta)
            ref = capital_series(inv, delta, k0)
            got = build_capital_stock(inv, rule)
            assert np.max(np.abs(got - ref)) <= 1e-9


def test_capital_window_difference():
    # 7 years: shan2008 averages only the first five post-initial ratios
    inv = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 40.0])
    base = build_capital_stock(inv, CapitalRule("baseline"))
    shan = build_capital_stock(inv, CapitalRule("shan2008"))
    g_all = (inv[1:] / inv[:-1] - 1.0).mean()
    assert abs(base[0] - inv[1] / (g_all + 0.1096)) <= 1e-9
    assert abs(shan[0] - inv[1] / 0.1096) <= 1e-9  # flat window, g_bar = 0
    assert base[0] < shan[0]


def test_capital_errors():
    with pytest.raises(PanelError):
        build_capital_stock([10.0, -1.0, 10.0], CapitalRule())
    with pytest.raises(PanelError):
        CapitalRule("other")
    # strong shrinkage drives g_bar + delta negative
    with pytest.raises(PanelError):
        build_capital_stock([100.0, 10.0, 1.0], CapitalRule())


def test_human_capital_values():
    assert human_capital(0.0, 0.0, 0.0) == 0.0
    assert human_capital(1.0, 1.0, 1.0) == 32.0
    assert abs(human_capital(0.05, 0.03, 0.02) - 0.92) <= 1e-12
    with pytest.raises(PanelError):
        human_capital(-0.1, 0.0, 0.0)


def test_load_panel_round_trip(tmp_path):
    rng = np.random.default_rng(223)
    cities = ["c07", "c01", "c03"]
    years = [2003, 2004, 2005, 2006]
    rows = panel_rows(rng, cities, years, students=True, land=True)
    src = tmp_path / "raw.csv"
    write_csv(src, rows, BASE_HEADER + ",s_primary,s_secondary,s_higher,land")
    panel = load_panel(src)
    assert panel.input_names == ("K", "L", "H", "D")
    assert list(panel.city_id) == ["c01", "c03", "c07"]  # sorted ids
    assert panel.y.shape == (3, 4)
    # base year deflation identity on output
    x, yv, ids = panel.year_slice(2003)
    assert x.shape == (3, 4)
    out = tmp_path / "panel.csv"
    panel_to_csv(panel, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "city_id,year,y,K,L,H,D"
    assert len(lines) == 1 + 12


def test_load_panel_reports_gaps_and_duplicates(tmp_path):
    rng = np.random.default_rng(227)
    rows = panel_rows(rng, ["a", "b"], [2003, 2004])
    src = tmp_path / "gap.csv"
    write_csv(src, rows[:-1], BASE_HEADER)  # drop (b, 2004)
    with pytest.raises(PanelError, match="city b, year 2004"):
        load_panel(src)
    src2 = tmp_path / "dup.csv"
    write_csv(src2, rows + [rows[0]], BASE_HEADER)
    with pytest.raises(PanelError, match="duplicate"):
        load_panel(src2)


def test_load_panel_header_and_value_validation(tmp_path):
    rng = np.random.default_rng(229)
    src = tmp_path / "bad.csv"
    write_csv(src, panel_rows(rng, ["a"], [2003, 2004]),
              "city,year,grdp,grdp_index,investment,investment_index,employment")
    with pytest.raises(PanelError, match="header"):
        load_panel(src)
    bad_rows = panel_rows(rng, ["a"], [2003, 2004])
    bad_rows[0] = bad_rows[0].replace(bad_rows[0].split(",")[2], "-5.0", 1)
    src3 = tmp_path / "neg.csv"
    write_csv(src3, bad_rows, BASE_HEADER)
    with pytest.raises(PanelError, match="positive"):
        load_panel(src3)
    src4 = tmp_path / "break.csv"
    write_csv(src4, ['"a\r1"' + row[1:] for row in panel_rows(rng, ["a"], [2003, 2004])],
              BASE_HEADER)
    with pytest.raises(PanelError, match="line break"):
        load_panel(src4)


def test_optional_columns_disable_extensions(tmp_path):
    rng = np.random.default_rng(233)
    rows = panel_rows(rng, ["a", "b"], [2003, 2004], students=True)
    src = tmp_path / "stu.csv"
    write_csv(src, rows, BASE_HEADER + ",s_primary,s_secondary,s_higher")
    panel = load_panel(src)
    assert panel.input_names == ("K", "L", "H")
    slim = load_panel(src, with_human_capital=False)
    assert slim.input_names == ("K", "L")


def test_fixed_effect_pooling_and_idempotence(tmp_path):
    rng = np.random.default_rng(239)
    rows = panel_rows(rng, ["a", "b", "c"], [2003, 2004, 2005, 2006])
    src = tmp_path / "fe.csv"
    write_csv(src, rows, BASE_HEADER)
    panel = load_panel(src)
    pooled = fixed_effect_inputs(panel)
    assert pooled.years.tolist() == [POOLED_YEAR]
    # independent accumulation oracle: plain means over years
    assert np.max(np.abs(pooled.y[:, 0] - panel.y.mean(axis=1))) <= 1e-12
    for name in panel.input_names:
        ref = panel.inputs[name].mean(axis=1)
        assert np.max(np.abs(pooled.inputs[name][:, 0] - ref)) <= 1e-12
    again = fixed_effect_inputs(pooled)
    assert np.array_equal(again.y, pooled.y)
    constant = Panel(np.array(["z"], dtype=object), np.array([2003, 2004]),
                     np.full((1, 2), 7.0), {"K": np.full((1, 2), 3.0),
                                            "L": np.full((1, 2), 4.0)})
    fe = fixed_effect_inputs(constant)
    assert fe.y[0, 0] == 7.0 and fe.inputs["K"][0, 0] == 3.0
