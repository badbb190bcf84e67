#!/usr/bin/env python3
"""factortilt benchmark.

Times the two steps users run, backtest and diagnose, end to end on three
seeded synthetic workloads; checks every output; and, in a separate traced
run, reports per-module self times from an in-memory span trace. Each
workload is a closed loop with one client: the next step starts when the
previous one returns. Everything runs in this one process with threads=1.

    python3 perfbench/run.py --workload lib_thin_drift --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import factortilt
    from factortilt import backtest as bt, calibration as cal, cli, eligibility as elig
    from factortilt import factors as fac, market_data as md, stats as st, synthetic as syn
    from factortilt import weighting as wt
except ImportError as exc:
    sys.exit(f"perfbench: cannot import factortilt from {SRC}: {exc}")
if Path(factortilt.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: factortilt resolved to {factortilt.__file__}, not to {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from pace import MARGIN, PERIOD, HostPace  # noqa: E402
from tracing import END, NAME, OBS, OP, PARENT, START, Tracer, binding_counts, self_times  # noqa: E402

END_TO_END = {"backtest_s": "s", "diagnose_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "market_data.load_panel_s": "s",
    "market_data.read_mb_per_s": "MiB/s",
    "market_data.cells_loaded": "count",
    "market_data.save_panel_s": "s",
    "market_data.write_mb_per_s": "MiB/s",
    "synthetic.generate_s": "s",
    "eligibility.self_s": "s",
    "eligibility.calls": "count",
    "eligibility.calls_per_rebalance": "calls/rebalance",
    "factors.self_s": "s",
    "factors.calls": "count",
    "factors.calls_per_rebalance": "calls/rebalance",
    "backtest.target_weights_self_s": "s",
    "weighting.self_s": "s",
    "weighting.cap_projection_s": "s",
    "weighting.binding_cap_share": "ratio",
    "backtest.evolution_s": "s",
    "backtest.days_evolved": "count",
    "backtest.run_backtest_calls": "count",
    "calibration.self_s": "s",
    "stats.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_mb": "MiB",
    "trace.overhead_frac": "ratio",
}
MIB = float(1 << 20)

# Shared by every workload: ROADMAP's scenario M settings, caps on with the
# default CapParams, and the first rebalance at calendar day 300.
SCENARIO = {"dispersion": 0.8, "liquidity_tiers": (1.0, 50.0, 300.0), "missing_rate": 0.01}
COST_RATE = 0.001
FIRST_REBALANCE = 300
MONTHLY = tuple((m, 1) for m in range(1, 13))
STEPS = ("backtest", "diagnose")


@dataclass(frozen=True)
class Workload:
    name: str
    n_assets: int
    n_days: int
    anchors: tuple
    weight_mode: str
    via_cli: bool
    setup_reps: int  # set-ups per untraced run; setup_s is their median


WORKLOADS = {w.name: w for w in (
    # The CLI user's path on scenario M; CSV ingest dominates both steps. Each
    # set-up writes ~118 MB of CSV in ~15 s, so only two fit the time budget.
    Workload("cli_csv_m", 500, 2520, md.DEFAULT_ANCHORS, "constant_mix", True, 2),
    # The same panel in memory with monthly anchors: no ingest, per-asset
    # screens and signals recomputed per consumer do the work.
    Workload("lib_monthly_m", 500, 2520, MONTHLY, "constant_mix", False, 7),
    # Thin universe, drift weights: caps bind for about a third of members and
    # daily evolution is a large share of the backtest.
    Workload("lib_thin_drift", 60, 5040, MONTHLY, "drift", False, 7),
)}
SMOKE_SIZES = {"cli_csv_m": (40, 700), "lib_monthly_m": (40, 700), "lib_thin_drift": (20, 900)}


def _schedule(wl: Workload, calendar):
    return md.build_schedule(calendar, calendar.days[FIRST_REBALANCE], calendar.days[-1], wl.anchors)


class LibraryRunner:
    """Set-up generates the panel in memory; the steps call the library."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed = wl, seed
        self.config = bt.BacktestConfig(cost_rate=COST_RATE, weight_mode=wl.weight_mode, caps=wt.CapParams())
        self.calibration = cal.CalibrationParams()

    def setup(self, i):
        spec = syn.ScenarioSpec(seed=self.seed, n_assets=self.wl.n_assets, n_days=self.wl.n_days, **SCENARIO)
        self.panel = None  # free the previous set-up's panel, so peak RSS holds one panel
        self.panel = syn.generate(spec)
        self.schedule = _schedule(self.wl, self.panel.calendar)

    def setup_digest(self, i):
        return checks.digest(checks.panel_form(self.panel))

    def setup_done(self):
        pass

    def prepare(self, step):
        pass

    def backtest(self):
        results = bt.run_baselines(self.panel, self.schedule, self.config)
        reports = {s: st.summarize(results[s], benchmark=results["ew_eligible"], n_trials=len(bt.STRATEGIES))
                   for s in bt.STRATEGIES}
        return results, reports

    def diagnose(self):
        panel, schedule, cfg = self.panel, self.schedule, self.config
        universes = {t: elig.compute_eligibility(panel, t, cfg.eligibility) for t in schedule.dates}
        matrices = {t: fac.build_factor_matrix(panel, u, t, cfg.factors)
                    for t, u in universes.items() if u.members}
        ics = cal.build_ic_series(panel, schedule, matrices, self.calibration)
        alpha = cal.ir_to_alpha(ics, self.calibration.m_min) if ics else {}
        removals = bt.run_factor_removals(panel, schedule, cfg)
        redundancy = st.factor_redundancy(matrices.values(), removals)
        return universes, matrices, ics, alpha, removals, redundancy

    def verify(self, out):
        """Problems and digest per step for one repetition's outputs, and the
        bytes of artifacts written (none here)."""
        (results, reports), (universes, matrices, ics, alpha, removals, redundancy) = out["backtest"], out["diagnose"]
        cfg, assets = self.config, self.panel.assets
        problems = {
            "backtest": checks.check_library_results(results, universes, assets, cfg.tilt, cfg.caps),
            "diagnose": checks.check_library_results(removals, universes, assets, cfg.tilt, cfg.caps)
            + checks.check_ic(ics, alpha),
        }
        digests = {
            "backtest": checks.digest([{s: checks.result_form(r) for s, r in results.items()},
                                       {s: r.rows() for s, r in reports.items()}]),
            "diagnose": checks.digest([
                {t: (u.members, [tuple(v) for v in u.screen_values.values()]) for t, u in universes.items()},
                {t: (m.assets, m.raw, m.z) for t, m in matrices.items()},
                {f: (s.dates, s.values) for f, s in ics.items()}, alpha,
                {k: checks.result_form(r) for k, r in removals.items()}, redundancy]),
        }
        return problems, digests, 0


class CliRunner:
    """Set-up runs `factortilt synth`; the steps run `factortilt backtest`
    and `factortilt diagnose` on those CSVs, all through cli.main in-process.
    Paths are relative to the checkout root, so the manifests (which echo
    the data paths) are identical from run to run."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.dir = wl, seed, workdir
        days = syn.trading_days(wl.n_days).days
        self.spec = workdir / "scenario.ini"
        self.spec.write_text(
            f"n_assets = {wl.n_assets}\nn_days = {wl.n_days}\ndispersion = {SCENARIO['dispersion']!r}\n"
            f"liquidity_tiers = {','.join(map(repr, SCENARIO['liquidity_tiers']))}\n"
            f"missing_rate = {SCENARIO['missing_rate']!r}\n", encoding="utf-8")
        anchors = ",".join(f"{m:02d}-{d:02d}" for m, d in wl.anchors)
        self.ini = workdir / "run.ini"
        self.ini.write_text(
            "[data]\nprices = data/prices.csv\nvolumes = data/volumes.csv\n"
            "mktcap = data/mktcap.csv\nfundamentals = data/fundamentals.csv\n\n"
            f"[run]\nstart = {days[FIRST_REBALANCE]}\nend = {days[-1]}\nanchors = {anchors}\n"
            f"cost_rate = {COST_RATE!r}\nweight_mode = {wl.weight_mode}\nthreads = 1\n\n"
            "[caps]\nenabled = true\n", encoding="utf-8")
        self.out = {step: workdir / "out" / step for step in STEPS}

    @staticmethod
    def _main(argv):
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"factortilt {argv[0]} exited with {rc}")

    def setup(self, i):
        self._main(["synth", str(self.spec), "--out", str(self.dir / f"synth{i}"), "--seed", str(self.seed)])

    def setup_digest(self, i):
        return checks.dir_digest(self.dir / f"synth{i}")

    def setup_done(self):
        """Keep the last set-up's CSVs as the data directory."""
        synths = sorted(self.dir.glob("synth*"))
        synths[-1].rename(self.dir / "data")
        for extra in synths[:-1]:
            shutil.rmtree(extra)

    def prepare(self, step):
        shutil.rmtree(self.out[step], ignore_errors=True)

    def backtest(self):
        self._main(["backtest", "--config", str(self.ini), "--out", str(self.out["backtest"])])

    def diagnose(self):
        self._main(["diagnose", "--config", str(self.ini), "--out", str(self.out["diagnose"])])

    def verify(self, out):
        problems = {
            "backtest": checks.check_cli_backtest(self.out["backtest"], bt.STRATEGIES, wt.TiltParams()),
            "diagnose": checks.check_cli_diagnose(self.out["diagnose"]),
        }
        digests = {step: checks.dir_digest(self.out[step]) for step in STEPS}
        size = sum(f.stat().st_size for d in self.out.values() for f in d.rglob("*") if f.is_file())
        return problems, digests, size


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(tracer: Tracer, ops, n_rebalances: int, artifact_bytes) -> dict:
    """Per-layer metrics: per-op sums over the traced repetitions (median over
    them), per-call figures for ingest, export and generation."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    loads, saves, gens = [], [], []
    for i, s in enumerate(spans):
        name, dur, op = s[NAME], s[END] - s[START], s[OP]
        acc = per_op[op]
        acc[name.split(".")[0] + ".self_s"] += selfs[i]
        acc[name + ".calls"] += 1
        if name == "market_data.load_panel":
            loads.append((dur, s[OBS]["bytes"] / MIB / dur, s[OBS]["cells"]))
        elif name == "market_data.save_panel":
            saves.append((dur, s[OBS]["bytes"] / MIB / dur))
        elif name == "synthetic.generate":
            gens.append(dur)
        elif name == "backtest.target_weights":
            acc["target_weights_self_s"] += selfs[i]
        elif name == "backtest.run_backtest":
            acc["evolution_s"] += selfs[i]
            acc["days"] += s[OBS]["days"]
        elif name == "weighting.cap_and_redistribute":
            acc["cap_projection_s"] += dur
            binding, capped = binding_counts(s[OBS])
            acc["binding"] += binding
            acc["capped"] += capped

    def med(key):
        return _median([per_op[op][key] for op in ops])

    elig_calls, fac_calls = med("eligibility.compute_eligibility.calls"), med("factors.build_factor_matrix.calls")
    binding = sum(per_op[op]["binding"] for op in ops)
    capped = sum(per_op[op]["capped"] for op in ops)
    return {
        "market_data.load_panel_s": _median([x[0] for x in loads]),
        "market_data.read_mb_per_s": _median([x[1] for x in loads]),
        "market_data.cells_loaded": _median([x[2] for x in loads]),
        "market_data.save_panel_s": _median([x[0] for x in saves]),
        "market_data.write_mb_per_s": _median([x[1] for x in saves]),
        "synthetic.generate_s": _median(gens),
        "eligibility.self_s": med("eligibility.self_s"),
        "eligibility.calls": elig_calls,
        "eligibility.calls_per_rebalance": elig_calls / n_rebalances,
        "factors.self_s": med("factors.self_s"),
        "factors.calls": fac_calls,
        "factors.calls_per_rebalance": fac_calls / n_rebalances,
        "backtest.target_weights_self_s": med("target_weights_self_s"),
        "weighting.self_s": med("weighting.self_s"),
        "weighting.cap_projection_s": med("cap_projection_s"),
        "weighting.binding_cap_share": binding / capped if capped else 0.0,
        "backtest.evolution_s": med("evolution_s"),
        "backtest.days_evolved": med("days"),
        "backtest.run_backtest_calls": med("backtest.run_backtest.calls"),
        "calibration.self_s": med("calibration.self_s"),
        "stats.self_s": med("stats.self_s"),
        "cli.self_s": med("cli.self_s"),
        "cli.artifact_mb": _median(artifact_bytes) / MIB,
    }


KEY_SPANS = ("market_data.load_panel", "market_data.save_panel", "synthetic.generate",
             "backtest.run_baselines", "backtest.run_factor_removals")
MODULE_ORDER = ("market_data", "synthetic", "eligibility", "factors", "weighting",
                "backtest", "calibration", "stats", "cli")


def _trace_breakdown(tracer: Tracer) -> list[str]:
    """One line per traced step: its time, self time per module, and the
    durations of the main library calls inside it."""
    spans, selfs = tracer.spans, self_times(tracer.spans)
    root = list(range(len(spans)))
    by_root = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            root[i] = root[s[PARENT]]
            by_root[root[i]][s[NAME].split(".")[0]] += selfs[i]
            if s[NAME] in KEY_SPANS:
                by_root[root[i]][s[NAME]] += s[END] - s[START]
            if s[NAME] == "backtest.target_weights":
                by_root[root[i]]["target_weights_self"] += selfs[i]
    lines = []
    for r, acc in by_root.items():
        s = spans[r]
        parts = [f"{k} {acc[k]:.3f}" for k in (*MODULE_ORDER, "target_weights_self", *KEY_SPANS) if k in acc]
        lines.append(f"trace {s[OP]} {s[NAME]} {s[END] - s[START]:.3f} s: " + ", ".join(parts))
    return lines


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, record: Path | None,
                 pace: HostPace) -> dict:
    """Set up, then repeat backtest+diagnose until `seconds` would be
    exceeded (at least once; at least one untraced and one traced repetition
    in a traced run, alternating). Returns the result object and report lines."""
    workdir = Path(HERE.name) / "_work" / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    runner = (CliRunner if wl.via_cli else LibraryRunner)(wl, seed, workdir)
    n_rebalances = len(_schedule(wl, syn.trading_days(wl.n_days)))
    ops = []  # {"step", "rep", "time", "ok", "digest", "traced", "why"}
    try:
        for i in range(1 if trace else wl.setup_reps):
            gc.collect()
            with tracer.recording(f"setup{i}", "step.setup") if trace else nullcontext():
                t0 = time.perf_counter()
                runner.setup(i)
                t1 = time.perf_counter()
            ops.append({"step": "setup", "rep": i, "t0": t0, "t1": t1, "ok": True, "traced": trace,
                        "digest": runner.setup_digest(i), "why": ""})
        runner.setup_done()

        artifact_bytes, start, rep = [], time.perf_counter(), 0
        while True:
            rep_start = time.perf_counter()
            traced = trace and rep % 2 == 1
            outputs, rep_ops = {}, []
            for step in STEPS:
                runner.prepare(step)
                gc.collect()
                op = {"step": step, "rep": rep, "ok": True, "traced": traced, "digest": None, "why": ""}
                ctx = tracer.recording(f"rep{rep}", f"step.{step}") if traced else nullcontext()
                t0 = time.perf_counter()
                try:
                    with ctx:
                        outputs[step] = getattr(runner, step)()
                except Exception:
                    op.update(ok=False, why=traceback.format_exc(limit=3))
                op.update(t0=t0, t1=time.perf_counter())
                rep_ops.append(op)
            if all(op["ok"] for op in rep_ops):
                try:
                    problems, digests, size = runner.verify(outputs)
                    for op in rep_ops:
                        op["digest"] = digests[op["step"]]
                        if problems[op["step"]]:
                            op.update(ok=False, why="; ".join(problems[op["step"]][:5]))
                    if traced:
                        artifact_bytes.append(size)
                except Exception:
                    for op in rep_ops:
                        op.update(ok=False, why="check raised: " + traceback.format_exc(limit=3))
            else:
                for op in rep_ops:
                    if op["ok"]:
                        op.update(ok=False, why="not verified: another step of this repetition failed")
            del outputs
            ops.extend(rep_ops)
            rep += 1
            now = time.perf_counter()
            if not (trace and rep < 2) and now - start + (now - rep_start) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    time.sleep(MARGIN + 2 * PERIOD)  # let the pace probe sample past the last step
    for op in ops:
        op["wall"], op["time"] = op["t1"] - op["t0"], pace.paced(op["t0"], op["t1"])

    digests = _agree(ops, record)
    lines = [f"env {json.dumps(environment())}",
             f"workload {wl.name} seed {seed} trace {int(trace)} repetitions {rep}",
             f"digests {json.dumps(digests)}"]
    lines += [f"FAILED {op['step']} rep {op['rep']}: {op['why'].strip()}" for op in ops if not op["ok"]]

    def times(step, traced=False):
        return [op["time"] for op in ops if op["step"] == step and op["traced"] == traced]

    if trace:
        traced_ops = [f"rep{r}" for r in range(1, rep, 2)]
        metrics = _layer_metrics(tracer, traced_ops, n_rebalances, artifact_bytes)
        op_time = {t: _median([a + b for a, b in zip(times("backtest", t), times("diagnose", t))])
                   for t in (False, True)}
        metrics["trace.overhead_frac"] = op_time[True] / op_time[False] - 1.0
        units = PER_LAYER
        lines += _trace_breakdown(tracer)
        if record is not None:
            tracer.write(record.with_name(record.stem + "-trace.jsonl"))
    else:
        metrics = {
            "backtest_s": _median(times("backtest")),
            "diagnose_s": _median(times("diagnose")),
            "setup_s": _median(times("setup")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        }
        units = END_TO_END
        for step in ("backtest", "diagnose", "setup"):
            samples = [op for op in ops if op["step"] == step]
            lines.append(f"{step}_s samples {len(samples)} (paced/wall s): "
                         + " ".join(f"{op['time']:.4f}/{op['wall']:.4f}" for op in samples))
    failed = sum(not op["ok"] for op in ops)
    lines.append(f"error_rate {failed / len(ops)!r} ratio ({failed} failed of {len(ops)} attempted)")
    lines += [f"metric {k} {metrics[k]!r} {units[k]}" for k in units]
    return {
        "lines": lines,
        "result": {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                   "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}},
    }


def _agree(ops, record: Path | None) -> dict:
    """Every repetition of a step must produce the digest of the first, and
    of any earlier run of this workload and seed recorded under `record`
    (traced and untraced runs share the record). Marks disagreeing ops failed."""
    earlier = json.loads(record.read_text()) if record is not None and record.exists() else {}
    digests = dict(earlier)
    for op in ops:
        if not op["ok"]:
            continue
        want = digests.setdefault(op["step"], op["digest"])
        if op["digest"] != want:
            source = "an earlier run" if op["step"] in earlier else "the first repetition"
            op.update(ok=False, why=f"artifacts differ from {source} ({op['digest'][:12]} != {want[:12]})")
    if record is not None:
        record.parent.mkdir(exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        tmp.replace(record)
    return digests


def smoke() -> int:
    """Run a tiny scenario through every workload's code path, untraced and
    traced, and check that each metric BENCHMARK.json names is emitted with
    its unit and that every output check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from the benchmark's")
    with HostPace() as pace:
        for name, wl in WORKLOADS.items():
            n_assets, n_days = SMOKE_SIZES[name]
            small = replace(wl, n_assets=n_assets, n_days=n_days, setup_reps=2)
            for trace in (False, True):
                out = run_workload(small, 7, 0.0, trace, None, pace)
                res = out["result"]
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                status = "ok" if res["correct"] and got == want[trace] else "FAILED"
                print(f"smoke {name} trace {int(trace)}: {status} ({res['attempted']} ops)")
                if status != "ok":
                    bad.append(f"{name} trace {int(trace)}")
                    print("\n".join(out["lines"]))
    print("smoke: " + ("OK" if not bad else "FAILED: " + ", ".join(bad)))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (7 is ROADMAP's scenario M)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scenario through every workload path")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = HERE / "_results" / f"{args.workload}-seed{args.seed}.json"
    with HostPace() as pace:
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), record, pace)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
