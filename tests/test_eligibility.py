import tracemalloc

import numpy as np
import pytest

from factortilt.eligibility import EligibilityParams, EligibilitySet, compute_eligibility
from factortilt.market_data import MarketPanel, build_schedule, censor_panel
from factortilt.synthetic import ScenarioSpec, generate

from conftest import make_panel


def three_asset_panel():
    """Six days; ADV over the first five: X=1500, Y=800, Z missing (no volume)."""
    return make_panel(
        6,
        ["X", "Y", "Z"],
        price={"X": 15.0, "Y": 8.0, "Z": 12.0},
        volume={"X": 100.0, "Y": 100.0, "Z": [None] * 6},
    )


def test_vacuous_screens_admit_everyone():
    panel = make_panel(6, ["X", "Y", "Z"], price={"X": 15.0, "Y": 8.0, "Z": 12.0}, volume=100.0)
    t = panel.calendar.days[5]
    uni = compute_eligibility(panel, t, EligibilityParams(h_min=0, adv_min=0.0, l_adv=5))
    assert uni.members == ("X", "Y", "Z")


def test_missing_adv_never_passes():
    panel = three_asset_panel()
    t = panel.calendar.days[5]
    uni = compute_eligibility(panel, t, EligibilityParams(h_min=0, adv_min=0.0, l_adv=5))
    assert "Z" not in uni.members  # no valid ADV day: missing fails even at threshold 0


def test_adv_threshold_hand_fixture():
    panel = three_asset_panel()
    t = panel.calendar.days[5]
    uni = compute_eligibility(panel, t, EligibilityParams(h_min=0, adv_min=1000.0, l_adv=5))
    assert uni.members == ("X",)
    assert uni.screen_values["X"].adv == 1500.0
    assert uni.screen_values["Y"].adv == 800.0
    assert np.isnan(uni.screen_values["Z"].adv)


def test_history_boundary_is_inclusive():
    panel = make_panel(11, ["A", "B"], price={"A": 100.0, "B": [None] + [100.0] * 10}, volume=10.0)
    t = panel.calendar.days[10]
    params = EligibilityParams(h_min=10, adv_min=0.0, l_adv=5)
    uni = compute_eligibility(panel, t, params)
    assert "A" in uni and "B" not in uni  # B has exactly h_min - 1 days
    assert uni.screen_values["B"].history == 9


def test_tighter_screens_never_add_members():
    rng = np.random.default_rng(5)
    price = {f"A{i}": [float(p) if rng.random() > 0.1 else None for p in rng.uniform(5, 50, 40)] for i in range(8)}
    volume = {f"A{i}": float(rng.integers(10, 2000)) for i in range(8)}
    panel = make_panel(40, list(price), price=price, volume=volume)
    t = panel.calendar.days[35]
    loose = compute_eligibility(panel, t, EligibilityParams(h_min=5, adv_min=100.0, l_adv=10))
    for h_min, adv_min in [(10, 100.0), (5, 5000.0), (20, 8000.0)]:
        tight = compute_eligibility(panel, t, EligibilityParams(h_min=h_min, adv_min=adv_min, l_adv=10))
        assert set(tight.members) <= set(loose.members)


def test_lookahead_invariance():
    rng = np.random.default_rng(6)
    price = {f"A{i}": [float(p) for p in rng.uniform(5, 50, 30)] for i in range(5)}
    panel = make_panel(30, list(price), price=price, volume=300.0)
    t = panel.calendar.days[22]
    params = EligibilityParams(h_min=10, adv_min=1000.0, l_adv=10)
    full = compute_eligibility(panel, t, params)
    censored = compute_eligibility(censor_panel(panel, t), t, params)
    assert full.members == censored.members
    assert full.screen_values == censored.screen_values


def test_determinism():
    panel = three_asset_panel()
    t = panel.calendar.days[5]
    params = EligibilityParams(h_min=2, adv_min=500.0, l_adv=5)
    a = compute_eligibility(panel, t, params)
    b = compute_eligibility(panel, t, params)
    assert a.members == b.members and a.screen_values == b.screen_values
    assert a == b  # Z's missing ADV is one NaN object in both


def test_sets_differing_only_in_screen_values_compare_unequal():
    panel = three_asset_panel()
    t = panel.calendar.days[5]
    params = EligibilityParams(h_min=2, adv_min=1000.0, l_adv=5)
    volume = panel.volume.copy()
    volume[2, 0] = 110.0  # X's ADV 1500 -> 1530: still the only member
    moved = compute_eligibility(MarketPanel(list(panel.assets), panel.calendar, panel.price, volume, panel.mktcap),
                                t, params)
    base = compute_eligibility(panel, t, params)
    assert base.members == moved.members == ("X",)
    assert base != moved and base.screen_values["X"] != moved.screen_values["X"]


def test_screen_rows_are_read_only_and_values_built_once():
    panel = three_asset_panel()
    uni = compute_eligibility(panel, panel.calendar.days[5], EligibilityParams(h_min=2, adv_min=1000.0, l_adv=5))
    for row, value in ((uni.history, 0), (uni.adv, 0.0)):
        with pytest.raises(ValueError):
            row[0] = value
    assert uni.screen_values is uni.screen_values
    x = uni.screen_values["X"]
    assert x == (5, 1500.0) and type(x.history) is int and type(x.adv) is float


def test_a_write_to_the_callers_rows_does_not_reach_the_set():
    history, adv = np.array([300, 10]), np.array([2e6, np.nan])
    uni = EligibilitySet(t="2020-01-06", members=("A",), assets=("A", "B"), history=history, adv=adv)
    history[0], adv[0] = 0, 0.0
    assert uni.screen_values["A"] == (300, 2e6) and not uni.history.flags.writeable and not uni.adv.flags.writeable


def test_set_without_rows_has_no_screen_values():
    uni = EligibilitySet(t="2020-01-06", members=("A",), assets=("A", "B"))
    assert uni.screen_values == {} and "A" in uni and "B" not in uni


def test_empty_universe_is_representable():
    panel = three_asset_panel()
    t = panel.calendar.days[5]
    uni = compute_eligibility(panel, t, EligibilityParams(h_min=1000, adv_min=0.0, l_adv=5))
    assert uni.members == ()


def test_sets_hold_rows_not_per_asset_objects():
    """The sets of every rebalance date, held at once, cost a few machine
    words per asset and date: the copies of the history and ADV rows and
    the assets and members tuples, about 35 bytes. A dict of ScreenValues
    per date costs about 210."""
    panel = generate(ScenarioSpec(seed=3, n_assets=200, n_days=600, dispersion=0.8,
                                  liquidity_tiers=(1.0, 50.0, 300.0), missing_rate=0.01))
    days = panel.calendar.days
    dates = build_schedule(panel.calendar, days[300], days[-1], anchors=[(m, 1) for m in range(1, 13)]).dates
    params = EligibilityParams(h_min=126, l_adv=63)
    for t in dates:
        compute_eligibility(panel, t, params)  # fills the panel's history counts and ADV rows
    tracemalloc.start()
    try:
        sets = [compute_eligibility(panel, t, params) for t in dates]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sets) >= 12 and all(s.members for s in sets)
    assert held / (len(sets) * panel.n_assets) < 70
