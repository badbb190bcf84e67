"""The parsed-panel cache of load_panel: a hit rebuilds exactly the panel a
fresh parse gives, any change to an input or to the ingest code and any
unusable cache file mean a fresh parse, and the cache never reaches a
command's --out directory."""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import shutil
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, strategies as st

from factortilt import market_data
from factortilt.cli import cmd_synth, main
from factortilt.errors import DataError
from factortilt.market_data import cache_path, save_panel

from test_csv_properties import SETTINGS, random_panel
from test_ingest import DAYS, FUND_HEADER, HEADER, load_dir, write_inputs

INPUTS = ("prices.csv", "volumes.csv", "fundamentals.csv", "mktcap.csv")


def cache_of(d: Path) -> Path:
    return cache_path(*(d / name for name in INPUTS))


def fresh_parse(d: Path):
    """The panel of the CSVs in d, parsed with no cache involved."""
    return market_data.parse_panel(*(d / name for name in INPUTS))


def refuse(path, *args):
    raise AssertionError(f"{path} was parsed")


def load_hit(d: Path, monkeypatch, files=None):
    """load_panel (of the CSVs in d, or of `files`) with every CSV reader
    refusing to run, so it must hit."""
    with monkeypatch.context() as mp:
        mp.setattr(market_data, "_read_cell_file", refuse)
        mp.setattr(market_data, "_read_fundamentals_file", refuse)
        return load_dir(d) if files is None else market_data.load_panel(*files)


def caches(d: Path) -> list[str]:
    return sorted(p.name for p in d.iterdir() if p.name.endswith(".factortilt.npz"))


def plant(d: Path, **changes) -> None:
    """Rewrite the cache of d's CSVs with some arrays changed, its key
    kept, as a cache file planted beside them would be."""
    with np.load(cache_of(d), allow_pickle=False) as z:
        arrays = dict(z)
    for name, change in changes.items():
        arrays[name] = change(arrays[name])
    with cache_of(d).open("wb") as fh:
        np.savez(fh, **arrays)


def assert_identical(got, want):
    """Bit for bit, down to dict and record order and the NaN singleton."""
    assert got.assets == want.assets and got.calendar.days == want.calendar.days
    for name in ("price", "volume", "mktcap"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert not getattr(got, name).flags.writeable, name
    assert list(got.fundamentals) == list(want.fundamentals)
    for asset, records in want.fundamentals.items():
        assert len(got.fundamentals[asset]) == len(records), asset
        for a, b in zip(got.fundamentals[asset], records):
            assert type(a.report_date) is str and a.report_date == b.report_date, asset
            for name in market_data._REPORT_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                assert type(x) is float and (x is math.nan if y is math.nan else x == y), (asset, name)


def cells(assets, value):
    return [HEADER, *(f"{day},{a},{value(i, j)!r}" for i, day in enumerate(DAYS) for j, a in enumerate(assets))]


def write_assets(d: Path, assets, fundamentals):
    write_inputs(d, prices=cells(assets, lambda i, j: 10.0 + i + j),
                 volumes=cells(assets, lambda i, j: 100.0 * j),
                 mktcap=cells(assets, lambda i, j: 1e6 * (j + 1)), fundamentals=fundamentals)


def edit_last_digit(path: Path) -> None:
    """Change one byte: the file's last digit (every test file ends in a number)."""
    data = bytearray(path.read_bytes())
    i = max(i for i, c in enumerate(data) if chr(c).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("8")
    path.write_bytes(bytes(data))


class TestHitEqualsParse:
    def test_non_ascii_ids_and_blank_metrics(self, tmp_path, monkeypatch):
        write_assets(tmp_path, ("ÄBC", "BBB", "Z€1"), [
            FUND_HEADER, f"{DAYS[1]},Z€1,2.5,,0.3,", f"{DAYS[0]},Z€1,1.5,0.1,,0.2",
            f"{DAYS[2]},BBB,,,,", f"{DAYS[0]},ÄBC,7.0,0.2,0.4,0.6"])
        parsed = fresh_parse(tmp_path)
        assert list(parsed.fundamentals) == ["Z€1", "BBB", "ÄBC"]
        assert_identical(load_dir(tmp_path), parsed)
        assert cache_of(tmp_path).is_file()
        assert_identical(load_hit(tmp_path, monkeypatch), parsed)

    def test_empty_fundamentals_file(self, tmp_path, monkeypatch):
        write_assets(tmp_path, ("AAA", "BBB"), [FUND_HEADER])
        load_dir(tmp_path)
        hit = load_hit(tmp_path, monkeypatch)
        assert hit.fundamentals == {}
        assert_identical(hit, fresh_parse(tmp_path))

    def test_id_ending_in_nul_is_not_cached(self, tmp_path, caplog):
        # a numpy string array drops trailing NULs: "A\0" would come back as "A"
        write_assets(tmp_path, ("A\x00", "A"), [FUND_HEADER, f"{DAYS[0]},A\x00,1.0,,,"])
        with caplog.at_level(logging.INFO, logger="factortilt.market_data"):
            first = load_dir(tmp_path)
        assert first.assets == ["A", "A\x00"] and list(first.fundamentals) == ["A\x00"]
        assert not cache_of(tmp_path).exists()
        assert "not written" in caplog.text
        assert_identical(load_dir(tmp_path), first)
        assert_identical(first, fresh_parse(tmp_path))

    def test_hit_never_reads_a_csv(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        parsed = load_dir(tmp_path)
        calls = []
        monkeypatch.setattr(market_data, "_parse_panel", lambda *paths: calls.append(paths))
        assert_identical(load_hit(tmp_path, monkeypatch), parsed)
        assert calls == []

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 5), n_days=st.integers(1, 30),
           gap=st.sampled_from([0.0, 0.3]))
    def test_random_panels(self, seed, n_assets, n_days, gap):
        # gaps, an asset without prices, -0.0 volumes, extreme floats, blank metrics
        with TemporaryDirectory() as tmp:
            paths = save_panel(random_panel(seed, n_assets, n_days, gap), tmp)
            args = (paths["prices"], paths["volumes"], paths["fundamentals"], paths["mktcap"])
            miss = market_data.load_panel(*args)
            assert cache_path(*args).is_file()
            assert_identical(market_data.load_panel(*args), miss)


class TestInvalidation:
    @pytest.mark.parametrize("name", INPUTS)
    def test_one_byte_edit_forces_a_parse(self, tmp_path, monkeypatch, name):
        write_inputs(tmp_path)
        before = load_dir(tmp_path)
        edit_last_digit(tmp_path / name)
        parses = []
        parse = market_data._parse_panel
        monkeypatch.setattr(market_data, "_parse_panel", lambda *paths: parses.append(paths) or parse(*paths))
        after = load_dir(tmp_path)
        assert len(parses) == 1
        assert_identical(after, fresh_parse(tmp_path))
        with pytest.raises(AssertionError):
            assert_identical(after, before)
        assert_identical(load_hit(tmp_path, monkeypatch), after)  # the cache now holds the edit

    def test_ingest_code_change_forces_a_parse(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        load_dir(tmp_path)
        source = Path(market_data.__file__).read_bytes()
        assert market_data._source_sha256() == hashlib.sha256(source).digest()
        monkeypatch.setattr(market_data, "_source_sha256", lambda: hashlib.sha256(source + b"\n").digest())
        with pytest.raises(AssertionError, match="was parsed"):
            load_hit(tmp_path, monkeypatch)

    def test_file_rewritten_during_the_parse_is_never_served(self, tmp_path, monkeypatch):
        # the cache is keyed by the bytes the parse read, not by the file as it is now
        write_inputs(tmp_path)
        parse = market_data._parse_panel

        def parse_then_edit(*args):
            panel = parse(*args)
            edit_last_digit(tmp_path / "prices.csv")
            return panel

        with monkeypatch.context() as mp:
            mp.setattr(market_data, "_parse_panel", parse_then_edit)
            before = load_dir(tmp_path)
        assert cache_of(tmp_path).is_file()
        after = load_dir(tmp_path)
        assert_identical(after, fresh_parse(tmp_path))
        with pytest.raises(AssertionError):
            assert_identical(after, before)

    def test_an_edit_replaces_the_cache(self, tmp_path):
        write_inputs(tmp_path)
        load_dir(tmp_path)
        edit_last_digit(tmp_path / "mktcap.csv")
        load_dir(tmp_path)
        assert caches(tmp_path) == [cache_of(tmp_path).name]

    def test_configs_sharing_a_price_file_keep_one_cache_each(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        (tmp_path / "volumes2.csv").write_text(
            (tmp_path / "volumes.csv").read_text().replace("200.0", "300.0"))
        first = [tmp_path / name for name in INPUTS]
        second = [tmp_path / name for name in ("prices.csv", "volumes2.csv", "fundamentals.csv", "mktcap.csv")]
        panels = [market_data.load_panel(*first), market_data.load_panel(*second)]
        assert panels[0].volume.tobytes() != panels[1].volume.tobytes()
        assert caches(tmp_path) == sorted([cache_path(*first).name, cache_path(*second).name])
        for files, panel in zip((first, second, first), (*panels, panels[0])):
            assert_identical(load_hit(tmp_path, monkeypatch, files), panel)

    def test_invalid_edit_after_a_cached_load_names_the_line(self, tmp_path):
        write_inputs(tmp_path)
        load_dir(tmp_path)
        cached = cache_of(tmp_path).read_bytes()
        with (tmp_path / "prices.csv").open("a") as fh:
            fh.write(f"{DAYS[1]},CCC,-1.0\n")
        with pytest.raises(DataError, match=rf"prices.csv:8: non-positive price for cell \({DAYS[1]},CCC\)"):
            load_dir(tmp_path)
        assert cache_of(tmp_path).read_bytes() == cached


class TestUnusableCache:
    @pytest.mark.parametrize("changes, reason", [
        (dict(price=lambda a: np.where(np.isnan(a), np.inf, a)), "non-finite value"),
        (dict(report_values=lambda a: np.where(np.isnan(a), -np.inf, a)), "non-finite value"),
        (dict(assets=lambda a: np.array([" AAA", *a[1:].tolist()])), "asset id"),
        (dict(report_date=lambda a: np.array(["20200102", *a[1:].tolist()])), "invalid ISO date"),
        (dict.fromkeys(["report_asset", "report_date", "report_values"], lambda a: np.concatenate([a, a])),
         "duplicate fundamental report"),
        (dict(report_asset=lambda a: np.array([0, 1, 0]), report_date=lambda a: np.array([DAYS[0], DAYS[0], DAYS[1]]),
              report_values=lambda a: np.concatenate([a, a, a])), "fundamental records for AAA not sorted"),
        (dict(report_asset=lambda a: np.concatenate([a, a]), report_date=lambda a: np.array([DAYS[1], DAYS[0]]),
              report_values=lambda a: np.concatenate([a, a])), "fundamental records for AAA not sorted"),
        (dict(report_asset=lambda a: a + 2), "fundamentals for unknown asset"),
    ])
    def test_hit_rejects_what_a_parse_rejects(self, tmp_path, monkeypatch, caplog, changes, reason):
        write_inputs(tmp_path, fundamentals=[FUND_HEADER, f"{DAYS[0]},AAA,1.0,,0.2,0.3"],
                     prices=[HEADER, f"{DAYS[0]},AAA,10.0", f"{DAYS[1]},BBB,11.0"])
        parsed = load_dir(tmp_path)
        plant(tmp_path, **changes)
        with caplog.at_level(logging.INFO, logger="factortilt.market_data"):
            assert_identical(load_dir(tmp_path), parsed)
        assert "not used" in caplog.text and reason in caplog.text
        assert_identical(load_hit(tmp_path, monkeypatch), parsed)  # rewritten

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty", "other inputs"])
    def test_ignored_and_rewritten(self, tmp_path, monkeypatch, caplog, damage):
        write_inputs(tmp_path)
        parsed = load_dir(tmp_path)
        cache = cache_of(tmp_path)
        if damage == "other inputs":
            other = tmp_path / "other"
            other.mkdir()
            write_assets(other, ("XYZ",), [FUND_HEADER])
            load_dir(other)
            shutil.copyfile(cache_of(other), cache)
        else:
            good = cache.read_bytes()
            cache.write_bytes({"garbage": b"not a cache file\n" * 50, "truncated": good[: len(good) // 2],
                               "empty": b""}[damage])
        with caplog.at_level(logging.INFO, logger="factortilt.market_data"):
            assert_identical(load_dir(tmp_path), parsed)
        assert "not used" in caplog.text
        assert_identical(load_hit(tmp_path, monkeypatch), parsed)  # rewritten

    def test_read_only_directory_loads_and_writes_nothing(self, tmp_path, monkeypatch, caplog):
        write_inputs(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                # a privileged user ignores the mode bits: refuse the write as the mode would
                real_open = open

                def read_only_open(file, mode="r", *args, **kwargs):
                    if set(mode) & set("wxa+"):
                        raise PermissionError(13, "Permission denied", str(file))
                    return real_open(file, mode, *args, **kwargs)

                monkeypatch.setattr(market_data, "open", read_only_open, raising=False)
            with caplog.at_level(logging.INFO, logger="factortilt.market_data"):
                panel = load_dir(tmp_path)
                again = load_dir(tmp_path)
        finally:
            tmp_path.chmod(0o755)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert "not written" in caplog.text
        assert_identical(panel, fresh_parse(tmp_path))
        assert_identical(again, panel)

    @pytest.mark.parametrize("inputs, error", [
        (dict(prices=[HEADER, f"{DAYS[0]},AAA,-1.0"]), "prices.csv:2: non-positive price"),
        (dict(fundamentals=[FUND_HEADER, f"{DAYS[0]},AAA,1.0,,,", f"{DAYS[0]},AAA,2.0,,,"]),
         "duplicate fundamental report"),
    ])
    def test_failed_load_leaves_no_cache(self, tmp_path, inputs, error):
        write_inputs(tmp_path, **inputs)
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(DataError, match=error):
            load_dir(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unreadable_ingest_source_means_no_cache(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        monkeypatch.setattr(market_data, "_source_sha256", lambda: None)
        assert_identical(load_dir(tmp_path), fresh_parse(tmp_path))
        assert caches(tmp_path) == []

    def test_no_temporary_file_left_behind(self, tmp_path):
        write_inputs(tmp_path)
        load_dir(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*INPUTS, cache_of(tmp_path).name])
        assert re.fullmatch(r"\.prices\.csv\.[0-9a-f]{16}\.factortilt\.npz", cache_of(tmp_path).name)


def test_cold_and_warm_backtest_write_identical_out_dirs(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("seed = 5\nn_assets = 30\nn_days = 600\nvol = 0.01\nmissing_rate = 0.02\n")
    assert cmd_synth(scenario, data) == 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[data]\nprices = data/prices.csv\nvolumes = data/volumes.csv\n"
        "mktcap = data/mktcap.csv\nfundamentals = data/fundamentals.csv\n\n"
        "[run]\nstart = 2020-06-01\nend = 2022-03-31\ncost_rate = 0.001\n\n"
        "[eligibility]\nh_min = 100\nadv_min = 1000.0\nl_adv = 21\n\n"
        "[factors]\nl_mom = 100\nskip = 5\n\n[caps]\nenabled = true\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert caches(data) == []  # validate parses and writes nothing
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "cold")]) == 0
    assert caches(data) == [cache_of(data).name]

    monkeypatch.setattr(market_data, "_read_cell_file", refuse)
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "warm")]) == 0
    cold = {p.relative_to(tmp_path / "cold"): p.read_bytes() for p in (tmp_path / "cold").rglob("*")}
    warm = {p.relative_to(tmp_path / "warm"): p.read_bytes() for p in (tmp_path / "warm").rglob("*")}
    assert len(cold) > 10 and cold == warm
    assert not [p for p in cold if p.name.startswith(".") or p.suffix == ".npz"]


def test_validate_never_touches_the_cache(tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\n" + "".join(f"{n.split('.')[0]} = {tmp_path / n}\n" for n in INPUTS)
                   + f"\n[run]\nstart = {DAYS[0]}\nend = {DAYS[-1]}\n")
    load_dir(tmp_path)
    plant(tmp_path, price=lambda a: a * 2.0)  # valid, but not what the CSVs hold

    def untouchable(*args):
        raise AssertionError("validate used the cache")

    monkeypatch.setattr(market_data, "_read_cache", untouchable)
    monkeypatch.setattr(market_data, "_write_cache", untouchable)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith("OK\n")
