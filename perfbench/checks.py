"""Output checks and artifact digests for the benchmark's operations.

Each check returns a list of problems; an empty list means the output is
correct. Digests are sha256 over a canonical byte form of an operation's
output, so repetitions of one operation (and traced against untraced runs)
can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
CAP_TOL = 1e-12


def dir_digest(path: Path) -> str:
    """sha256 over every file's relative name and bytes, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _feed(h, obj) -> None:
    """Canonical bytes of nested containers of arrays, strings and numbers."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj))  # hashed in place, no copy
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def panel_form(panel):
    return [panel.assets, panel.calendar.days, panel.price, panel.volume, panel.mktcap,
            {a: [tuple(vars(r).values()) for r in recs] for a, recs in panel.fundamentals.items()}]


def result_form(res):
    return [res.strategy, res.dates, res.daily_returns, res.equity_curve, res.rebalance_dates,
            res.turnover, res.costs, [(wv.t, wv.w) for wv in res.weights]]


# --- weight invariants -------------------------------------------------------

def _sums_ok(label, t, w) -> list[str]:
    total = float(np.sum(w))
    if np.any(w < 0) or not (total == 0.0 or abs(total - 1.0) <= SUM_TOL):
        return [f"{label} {t}: weights sum to {total!r} or are negative"]
    return []


def liquidity_cap_oracle(adv: np.ndarray, caps) -> np.ndarray:
    """min(c_max, kappa * (ADV / median ADV)^gamma, 1), restated from the paper."""
    med = float(np.median(adv))
    ratio = adv / med if med > 0 else np.ones_like(adv)
    return np.minimum(np.minimum(caps.c_max, caps.kappa * ratio ** caps.gamma), 1.0)


def check_library_results(results, universes, assets, tilt, caps) -> list[str]:
    """Every strategy's weights sum to 1 or are all zero. For runs with caps
    (dmft and the factor-removal runs), weights live on the screened universe,
    stay within the liquidity caps, and the members whose cap does not bind
    keep weight ratios inside the multiplier bounds [m_min, m_max]."""
    problems = []
    pos = {a: i for i, a in enumerate(assets)}
    ratio_bound = tilt.m_max / tilt.m_min * (1.0 + SUM_TOL)
    for name, res in results.items():
        for wv in res.weights:
            problems += _sums_ok(name, wv.t, wv.w)
            if not name.startswith(("dmft", "full", "drop_")):
                continue
            uni = universes[wv.t]
            idx = np.array([pos[a] for a in uni.members], dtype=int)
            if np.any(np.delete(wv.w, idx) != 0.0):
                problems.append(f"{name} {wv.t}: weight outside the screened universe")
            if not uni.members:
                continue
            adv = np.array([uni.screen_values[a].adv for a in uni.members])
            c = liquidity_cap_oracle(adv, caps)
            w = wv.w[idx]
            if np.any(w > c + CAP_TOL):
                problems.append(f"{name} {wv.t}: weight above its liquidity cap")
            free = w[w < c * (1.0 - 1e-12)]
            if free.size and free.max() > free.min() * ratio_bound:
                problems.append(f"{name} {wv.t}: uncapped weight ratio outside multiplier bounds")
        if not np.all(np.isfinite(res.equity_curve)):
            problems.append(f"{name}: non-finite equity")
    return problems


def check_ic(ics, alpha) -> list[str]:
    problems = [f"IC for {f} outside [-1, 1]" for f, s in ics.items() if np.any(np.abs(s.values) > 1)]
    if alpha and abs(sum(alpha.values()) - 1.0) > SUM_TOL:
        problems.append("calibrated mixture does not sum to 1")
    return problems


def check_cli_backtest(out: Path, strategies, tilt) -> list[str]:
    expected = {f"{kind}_{s}.csv" for s in strategies for kind in ("returns", "turnover", "weights", "stats")}
    expected |= {"eligibility.csv", "factors.csv", "manifest.txt"}
    found = {p.name for p in out.iterdir()}
    if found != expected:
        return [f"backtest artifacts differ from the documented set: {sorted(found ^ expected)}"]
    problems = []
    for s in strategies:
        sums: dict[str, float] = defaultdict(float)
        with (out / f"weights_{s}.csv").open(newline="", encoding="utf-8") as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                w, m = float(row["weight"]), float(row["multiplier"])
                sums[row["date"]] += w
                if w <= 0 or not tilt.m_min <= m <= tilt.m_max:
                    problems.append(f"weights_{s}.csv {row['date']} {row['asset']}: weight or multiplier out of range")
                if s == "dmft" and (not row["cap"] or w > float(row["cap"]) + CAP_TOL):
                    problems.append(f"weights_dmft.csv {row['date']} {row['asset']}: weight above cap")
        problems += [f"weights_{s}.csv {t}: sums to {v!r}" for t, v in sums.items() if abs(v - 1.0) > SUM_TOL]
    return problems


def check_cli_diagnose(out: Path) -> list[str]:
    found = {p.name for p in out.iterdir()}
    if found != {"ic_ir.csv", "factor_diagnostics.csv"}:
        return [f"diagnose artifacts differ from the documented set: {sorted(found)}"]
    problems = []
    lines = (out / "ic_ir.csv").read_text(encoding="utf-8").splitlines()
    for row in csv.reader(lines[2:lines.index("")]):
        if row[2] and not abs(float(row[2])) <= 1.0:
            problems.append(f"ic_ir.csv: IC {row[2]} outside [-1, 1]")
    if "factor,ir,alpha" not in lines:
        problems.append("ic_ir.csv: missing IR table")
    return problems
