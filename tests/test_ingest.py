"""What CSV ingest and export keep: the format rules README states, a
`path:lineno` on every rejection at any block size, and a parse whose peak
memory follows its grids rather than its text."""

from __future__ import annotations

import csv
import math
import tracemalloc

import numpy as np
import pytest

from factortilt import market_data
from factortilt.errors import DataError
from factortilt.market_data import load_panel, parse_panel, save_panel
from factortilt.synthetic import ScenarioSpec, generate, trading_days

from conftest import make_panel

DAYS = trading_days(3).days
HEADER = "date,asset,value"
FUND_HEADER = "report_date,asset,book_equity,roe,gross_margin,debt_to_assets"


def write_inputs(d, prices=None, volumes=None, mktcap=None, fundamentals=None, newline="\n"):
    """Four input files; each defaults to a clean 3-day x 2-asset file."""
    def cells(value):
        return [f"{day},{a},{value(i, j)!r}" for i, day in enumerate(DAYS) for j, a in enumerate(("AAA", "BBB"))]

    texts = {
        "prices.csv": prices or [HEADER, *cells(lambda i, j: 10.0 + i + j)],
        "volumes.csv": volumes or [HEADER, *cells(lambda i, j: 100.0 * (j + 1))],
        "mktcap.csv": mktcap or [HEADER, *cells(lambda i, j: 1e6 * (j + 1))],
        "fundamentals.csv": fundamentals or [FUND_HEADER, f"{DAYS[0]},AAA,50.0,0.1,0.4,0.3"],
    }
    for name, lines in texts.items():
        (d / name).write_bytes((newline.join(lines) + newline).encode("utf-8"))


def load_dir(d):
    return load_panel(d / "prices.csv", d / "volumes.csv", d / "fundamentals.csv", d / "mktcap.csv")


def assert_same_panel(a, b):
    assert a.assets == b.assets and a.calendar.days == b.calendar.days
    for name in ("price", "volume", "mktcap"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.fundamentals == b.fundamentals


class TestRejectionsNameTheLine:
    @pytest.mark.parametrize("file, line, message", [
        ("prices.csv", f"{DAYS[1]},CCC", "expected 3 fields, got 2"),
        ("prices.csv", f"{DAYS[1]},CCC,1.0,2.0", "expected 3 fields, got 4"),
        ("prices.csv", f"{DAYS[1]},CCC,ten", "unparseable value 'ten'"),
        ("prices.csv", f"{DAYS[1]},CCC,nan", rf"non-finite value for \({DAYS[1]},CCC\)"),
        ("volumes.csv", f"{DAYS[1]},CCC,inf", rf"non-finite value for \({DAYS[1]},CCC\)"),
        ("prices.csv", f"{DAYS[1]},CCC,0.0", rf"non-positive price for cell \({DAYS[1]},CCC\)"),
        ("mktcap.csv", f"{DAYS[1]},CCC,-5.0", rf"non-positive mktcap for cell \({DAYS[1]},CCC\)"),
        ("volumes.csv", f"{DAYS[1]},CCC,-1.0", rf"negative volume for cell \({DAYS[1]},CCC\)"),
        ("volumes.csv", f"{DAYS[0]},AAA,7.0", rf"duplicate cell \({DAYS[0]},AAA\)"),
        ("mktcap.csv", f"{DAYS[1]}, ,1.0", "empty asset id"),
        ("prices.csv", "2020-13-01,CCC,1.0", "invalid ISO date '2020-13-01'"),
        # a date form Python's fromisoformat takes, but which sorts out of date order
        ("prices.csv", "20200102,CCC,1.0", "invalid ISO date '20200102'"),
        ("fundamentals.csv", "20200102,BBB,1.0,,,", "invalid ISO date '20200102'"),
        ("prices.csv", f'{DAYS[1]},"CCC",1.0', "quoted fields are not supported"),
        ("fundamentals.csv", f"{DAYS[1]},BBB,1.0,x,,", "unparseable roe 'x'"),
        ("fundamentals.csv", f"{DAYS[1]},BBB,1.0,,inf,", "non-finite gross_margin"),
        ("fundamentals.csv", f"{DAYS[1]},BBB,1.0,,", "expected 6 fields, got 5"),
    ])
    def test_bad_line(self, tmp_path, file, line, message):
        write_inputs(tmp_path)
        lines = (tmp_path / file).read_text().splitlines()
        lines.insert(2, line)  # line 3 of the file; only the duplicate repeats a cell
        (tmp_path / file).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{file}:3: {message}"):
            load_dir(tmp_path)

    def test_first_bad_line_is_named(self, tmp_path):
        write_inputs(tmp_path, prices=[HEADER, f"{DAYS[0]},AAA,1.0", f"{DAYS[1]},AAA,-1.0",
                                       f"{DAYS[2]},AAA,x", f"{DAYS[0]},AAA,2.0"])
        with pytest.raises(DataError, match=r"prices.csv:3: non-positive price"):
            load_dir(tmp_path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        write_inputs(tmp_path, mktcap=[HEADER, "", f"{DAYS[0]},AAA,1.0", "   ", f"{DAYS[1]},AAA"])
        with pytest.raises(DataError, match=r"mktcap.csv:5: expected 3 fields"):
            load_dir(tmp_path)

    def test_bad_header(self, tmp_path):
        write_inputs(tmp_path, volumes=["date,ticker,value", f"{DAYS[0]},AAA,1.0"])
        with pytest.raises(DataError, match=r"volumes.csv: expected header 'date,asset,value'"):
            load_dir(tmp_path)

    def test_quoted_header(self, tmp_path):
        write_inputs(tmp_path, prices=['"date","asset","value"', f"{DAYS[0]},AAA,1.0"])
        with pytest.raises(DataError, match=r"prices.csv:1: quoted fields are not supported"):
            load_dir(tmp_path)

    def test_empty_file(self, tmp_path):
        write_inputs(tmp_path)
        (tmp_path / "prices.csv").write_text("")
        with pytest.raises(DataError, match="expected header"):
            load_dir(tmp_path)

    def test_header_only_files_hold_no_cells(self, tmp_path):
        write_inputs(tmp_path)
        for name in ("prices.csv", "volumes.csv", "mktcap.csv"):
            (tmp_path / name).write_text(HEADER)
        with pytest.raises(DataError, match="no data cells found"):
            load_dir(tmp_path)

    def test_line_numbers_count_crlf_and_lone_cr_once(self, tmp_path):
        write_inputs(tmp_path)
        text = f"{HEADER}\r\n{DAYS[0]},AAA,1.0\r\r\n{DAYS[1]},AAA,2.0\r{DAYS[2]},AAA\r\n"
        (tmp_path / "prices.csv").write_bytes(text.encode())
        with pytest.raises(DataError, match=r"prices.csv:5: expected 3 fields"):
            load_dir(tmp_path)

    def test_not_utf8_names_the_byte_offset_in_the_file(self, tmp_path):
        write_inputs(tmp_path)
        lines = (tmp_path / "volumes.csv").read_bytes().split(b"\n")
        lines.insert(2, f"{DAYS[1]},CCC".encode())  # a bad line before the bad byte: the encoding is named first
        head = b"\n".join(lines) + f"{DAYS[2]},\u00c9".encode()
        (tmp_path / "volumes.csv").write_bytes(head + b"\xff,1.0\n")
        with pytest.raises(DataError, match=rf"volumes.csv: not UTF-8 text \(byte {len(head)}\)$"):
            load_dir(tmp_path)


class TestRejectionsAtBlockSizeOne(TestRejectionsNameTheLine):
    """Every rejection above with files read one byte at a time, so that
    each block holds one line."""

    @pytest.fixture(autouse=True)
    def one_byte_blocks(self, monkeypatch):
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 1)


class TestFormatRules:
    def test_blank_lines_skipped(self, tmp_path):
        write_inputs(tmp_path)
        clean = load_dir(tmp_path)
        for name in ("prices.csv", "fundamentals.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            spaced = [lines[0], "", *sum(([line, " \t "] for line in lines[1:]), []), ""]
            (tmp_path / name).write_text("\n".join(spaced))
        assert_same_panel(load_dir(tmp_path), clean)

    def test_lf_and_crlf_give_the_same_panel(self, tmp_path):
        (tmp_path / "lf").mkdir()
        (tmp_path / "crlf").mkdir()
        write_inputs(tmp_path / "lf")
        write_inputs(tmp_path / "crlf", newline="\r\n")
        assert b"\r\n" in (tmp_path / "crlf" / "prices.csv").read_bytes()
        assert_same_panel(load_dir(tmp_path / "crlf"), load_dir(tmp_path / "lf"))

    def test_header_is_case_insensitive(self, tmp_path):
        write_inputs(tmp_path)
        clean = load_dir(tmp_path)
        for name in ("prices.csv", "fundamentals.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            lines[0] = " " + lines[0].upper().replace(",", " , ")
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        assert_same_panel(load_dir(tmp_path), clean)

    def test_whitespace_around_fields_is_stripped(self, tmp_path):
        write_inputs(tmp_path)
        clean = load_dir(tmp_path)
        for name in ("prices.csv", "volumes.csv", "fundamentals.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            padded = [lines[0], *(" " + line.replace(",", " \t, ") + "\t" for line in lines[1:])]
            (tmp_path / name).write_text("\n".join(padded) + "\n")
        assert_same_panel(load_dir(tmp_path), clean)

    def test_padded_and_plain_ids_are_one_cell(self, tmp_path):
        write_inputs(tmp_path, volumes=[HEADER, f"{DAYS[0]},AAA,1.0", f" {DAYS[0]} , AAA ,2.0"])
        with pytest.raises(DataError, match=rf"volumes.csv:3: duplicate cell \({DAYS[0]},AAA\)"):
            load_dir(tmp_path)

    def test_empty_value_is_an_absent_cell(self, tmp_path):
        write_inputs(tmp_path)
        lines = (tmp_path / "prices.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",  "
        (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
        panel = load_dir(tmp_path)
        assert np.isnan(panel.price[0, 0]) and np.isfinite(panel.price).sum() == 5

    def test_empty_values_add_no_dates(self, tmp_path):
        extra = "2020-02-03"
        write_inputs(tmp_path)
        for name in ("prices.csv", "volumes.csv", "mktcap.csv"):
            with (tmp_path / name).open("a") as fh:
                fh.write(f"{extra},AAA,\n{extra},CCC,\n")
        panel = load_dir(tmp_path)
        assert panel.calendar.days == DAYS and panel.assets == ["AAA", "BBB"]

    def test_blank_metrics_are_missing(self, tmp_path):
        write_inputs(tmp_path, fundamentals=[FUND_HEADER, f"{DAYS[0]},AAA,50.0,,0.4, "])
        (rec,) = load_dir(tmp_path).fundamentals["AAA"]
        assert rec.book_equity == 50.0 and rec.gross_margin == 0.4
        assert np.isnan(rec.roe) and np.isnan(rec.debt_to_assets)


class TestSavePanel:
    @pytest.mark.parametrize("asset", ["A,B", 'A"B', "A\rB", "A\nB", "", " AB"])
    def test_unreadable_asset_id_rejected(self, tmp_path, asset):
        panel = make_panel(3, ["OK", asset], price=10.0)
        with pytest.raises(DataError, match="cannot be written to CSV"):
            save_panel(panel, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_writes_what_csv_writer_writes(self, tmp_path):
        panel = generate(ScenarioSpec(seed=5, n_assets=4, n_days=30, missing_rate=0.2))
        paths = save_panel(panel, tmp_path)
        with (tmp_path / "expected.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "asset", "value"])
            for di, d in enumerate(panel.calendar.days):
                for ai, a in enumerate(panel.assets):
                    if math.isfinite(panel.price[di, ai]):
                        writer.writerow([d, a, repr(float(panel.price[di, ai]))])
        assert paths["prices"].read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestReadOnlyGrids:
    def test_loaded_panel(self, tmp_path):
        write_inputs(tmp_path)
        panel = load_dir(tmp_path)
        for grid in (panel.price, panel.volume, panel.mktcap):
            with pytest.raises(ValueError):
                grid[0, 0] = 1.0

    def test_generated_panel(self):
        panel = generate(ScenarioSpec(seed=1, n_assets=3, n_days=10))
        for grid in (panel.price, panel.volume, panel.mktcap):
            with pytest.raises(ValueError):
                grid[:] = 1.0


def test_parse_peak_follows_the_grids_not_the_text(tmp_path):
    """A cold parse holds the three float64 grids, the int32 codes and
    float64 values of one file's blocks and a few blocks of text and
    fields, never a file's text or fields whole. A parse that read each
    file whole peaked at about 13 times its grids here."""
    panel = generate(ScenarioSpec(seed=1, n_assets=200, n_days=1500))
    paths = save_panel(panel, tmp_path)
    grids = 3 * panel.price.nbytes
    text = sum(path.stat().st_size for path in paths.values())
    bound = 2 * grids + 16 * market_data.BLOCK_BYTES
    assert bound < text / 1.5  # the gate is well under the text
    del panel
    tracemalloc.start()
    try:
        parse_panel(paths["prices"], paths["volumes"], paths["fundamentals"], paths["mktcap"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
