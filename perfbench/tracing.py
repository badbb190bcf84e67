"""In-memory span tracer around factortilt's public functions.

A wrapper is installed at every module binding through which a public
function can be reached: `cli`, `backtest` and `stats` import functions with
`from .x import f`, which makes a second binding that patching the defining
module alone would miss. Per-asset helpers are never wrapped; they run about
10^5 times per operation and their cost is part of the caller's self time.

Spans are kept in memory as [name, start, end, parent, op, observation] and
written once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = (
    "market_data", "synthetic", "eligibility", "factors", "weighting",
    "backtest", "calibration", "stats", "cli",
)
PER_ASSET_HELPERS = frozenset({
    "history_length", "average_dollar_volume", "momentum_signal", "value_signal",
    "forward_return", "bounded_multiplier",
})

NAME, START, END, PARENT, OP, OBS = range(6)


def _load_observation(args, kwargs, panel):
    files = [*args, *kwargs.values()]
    cells = sum(int(np.isfinite(g).sum()) for g in (panel.price, panel.volume, panel.mktcap))
    return {"bytes": sum(os.path.getsize(f) for f in files), "cells": cells}


# Observations are taken after a span has ended. Cheap ones are computed on
# the spot; the cap projection keeps references, counted when the run ends.
OBSERVERS = {
    "market_data.load_panel": _load_observation,
    "market_data.save_panel": lambda args, kwargs, paths: {
        "bytes": sum(os.path.getsize(p) for p in paths.values())
    },
    "weighting.cap_and_redistribute": lambda args, kwargs, result: (args[1], result),
    "backtest.run_backtest": lambda args, kwargs, result: {"days": len(result.dates)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._wrappers: dict = {}
        self._patched: list = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[OBS] = observe(args, kwargs, result)
            return result

        return traced

    def _install(self):
        package = importlib.import_module("factortilt")
        modules = {m: importlib.import_module(f"factortilt.{m}") for m in MODULES}
        if not self._wrappers:
            for short, mod in modules.items():
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_") and attr not in PER_ASSET_HELPERS):
                        self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def _uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextmanager
    def recording(self, op: str, root: str):
        """Install the wrappers and record everything inside under one root
        span named `root`, belonging to operation `op`."""
        self._install()
        self._op = op
        span = [root, time.perf_counter(), 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._op = None
            self._uninstall()

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def binding_counts(observation) -> tuple[int, int]:
    """(members whose projected weight ends at its cap, members with a cap)."""
    caps, result = observation
    pos = {a: i for i, a in enumerate(result.assets)}
    c = np.minimum(np.fromiter(caps.values(), float, len(caps)), 1.0)
    w = result.w[[pos[a] for a in caps]]
    return int(np.count_nonzero(w >= c * (1.0 - 1e-12))), len(caps)
