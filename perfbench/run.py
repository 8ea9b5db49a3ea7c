"""guardopt benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; guardopt is imported from its `src/`.
The run repeats timed passes of the workload until about S seconds are
spent (at least three; the first is a warm-up), checks every pass, and
prints a detail record and then, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: `wall_s` sums each
operation's median time over the warm passes, `setup_s` is the median of the
set-up probes spread over the run, and both are scaled by the run's speed
readings (class Speed);
with --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead. See
perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: guardopt's own GUARDOPT_THREADS pool is the only
# parallelism, so a run uses at most nproc threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 3  # the first is a warm-up, so wall_s has at least two
SETUP_EVERY_S = 2.0  # one set-up probe per this much measured time
REFERENCE_S = 0.0110  # reference reading at the speed times are scaled to
REFERENCE_REPEATS = 5  # kernel runs per speed reading; the fastest counts
L2_CACHE, L3_CACHE = 191, 194  # glibc _SC_LEVEL2/3_CACHE_SIZE

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "sched_gb_total": "subcarriers", "sched_gd_total": "samples",
}
PER_LAYER_UNITS = {
    "waveform.symbol_stream.calls": "count",
    "waveform.symbol_stream.busy_s": "s",
    "waveform.symbol_stream.samples": "count",
    "spectrum.estimate_psd.calls": "count",
    "spectrum.estimate_psd.busy_s": "s",
    "spectrum.estimate_psd.bins": "count",
    "spectrum.windowed_psd.self_s": "s",
    "spectrum.windowed_psd.hits": "count",
    "spectrum.windowed_psd.misses": "count",
    "spectrum.windowed_psd.hit_ratio": "ratio",
    "spectrum.required_guard_band.calls": "count",
    "spectrum.required_guard_band.self_s": "s",
    "spectrum.required_guard_band.unreachable": "count",
    "optimizer.efficiency_curve.busy_s": "s",
    "optimizer.build_lookup_table.busy_s": "s",
    "optimizer.revalidate.busy_s": "s",
    "optimizer.LookupTable.save_csv.busy_s": "s",
    "optimizer.LookupTable.load_csv.busy_s": "s",
    "optimizer.table_entries": "count",
    "optimizer.table_failures": "count",
    "optimizer.table_gb_sum": "subcarriers",
    "optimizer.table_eta_mean": "ratio",
    "parallel.parallel_map.calls": "count",
    "parallel.parallel_map.items": "count",
    "parallel.parallel_map.busy_s": "s",
    "parallel.threads": "count",
    "parallel.speedup": "ratio",
    "scheduler.schedule_interference_based.exhaustive.busy_s": "s",
    "scheduler.schedule_interference_based.heuristic.busy_s": "s",
    "scheduler.allocate_guards.calls": "count",
    "scheduler.compare_scenarios.busy_s": "s",
    "scheduler.heuristic_gap_gb": "subcarriers",
    "scheduler.heuristic_worse_than_random": "count",
    "cli.main.busy_s": "s",
    "cli.lookup_cache.hits": "count",
    "cli.lookup_cache.misses": "count",
    "cli.csv_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import guardopt and make the inputs, then exit")
    return p.parse_args(argv)


def import_guardopt():
    """Import guardopt from this checkout's sources, never an installed copy."""
    init = SRC / "guardopt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no guardopt sources at {init}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import guardopt

    if Path(guardopt.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {guardopt.__file__}, not {init}")


class Speed:
    """The machine's speed over a run, from a kernel that never calls guardopt.

    The VM's CPU speed drifts between a fast and a slow state for seconds to
    minutes at a time, by up to half as much again (process CPU time tracks
    wall time, so the process runs, only slower), and whole runs can fall in
    either state. So a run reads a fixed kernel, a pure-Python loop and numpy
    FFTs (the two kinds of work guardopt does), before every pass and every
    set-up probe, and scales its times by REFERENCE_S over the median reading:
    they are times at the speed at which a reading is REFERENCE_S.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.signal = np.random.default_rng(0).standard_normal(1 << 16)
        self.readings: list[float] = []

    def _kernel(self) -> int:
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for _ in range(2):
            total += int(self.np.abs(self.np.fft.fft(self.signal)).argmax())
        return total

    def reading(self) -> float:
        """The kernel's fastest time over REFERENCE_REPEATS runs."""
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        self.readings.append(best)
        return best

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.readings)


class SetupProbe:
    """Interpreter start, imports and input generation, in fresh processes.

    The probes are spread over the run, one per SETUP_EVERY_S of measured
    time, each after a speed reading.
    """

    def __init__(self, args, speed: Speed):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--setup-probe", "--seconds", "0",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.speed = speed
        self.samples: list[float] = []

    def catch_up(self, measured_s: float) -> None:
        while len(self.samples) < 1 + measured_s / SETUP_EVERY_S:
            self.speed.reading()
            start = time.perf_counter()
            # no timeout: with one, wait() polls in steps of up to 50 ms
            subprocess.run(self.cmd, check=True, cwd=ROOT, env=os.environ.copy(),
                           stdout=subprocess.DEVNULL)
            self.samples.append(time.perf_counter() - start)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def csv_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.glob("*.csv"))


def run_passes(wl, work: Path, seconds: float, trace: bool, speed: Speed,
               min_passes: int = MIN_PASSES, setup: SetupProbe | None = None):
    """Timed passes until `seconds` is spent; returns per-pass records.

    A traced run alternates untraced and traced passes, starting untraced.
    Set-up probes run between passes and do not count towards `seconds`.
    """
    from guardopt import spectrum

    from tracer import Tracer

    passes, first_digests, measured = [], None, 0.0
    while True:
        if setup:
            setup.catch_up(measured)
        began = time.perf_counter()
        out = fresh_dir(work / "out")
        spectrum.windowed_psd.cache_clear()
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        record = {"traced": tracer is not None}
        gc.collect()  # garbage left by the last pass is not this pass's cost
        speed.reading()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw, error = wl.run_pass(out), None
        except Exception:
            raw, error = None, traceback.format_exc(limit=3)
        finally:
            record["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if not passes:
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if error is None:
            try:
                ops, info = wl.check(out, raw, first=not passes)
            except Exception:
                ops, info = [("check", "", traceback.format_exc(limit=3))], {}
        else:
            ops, info = [("pass", "", error)], {}
        if first_digests is None:
            first_digests = {op: d for op, d, _ in ops}
        failures = {}
        for op, digest, err in ops:
            if err:
                failures[op] = err
            elif first_digests.get(op) != digest:
                failures[op] = "output differs from the first pass"
        record.update(ops=len(ops), failures=[f"{k}: {v}" for k, v in failures.items()],
                      info=info, csv_bytes=csv_bytes(out),
                      op_s=(error is None and wl.op_seconds(raw)) or [record["wall_s"]])
        if tracer:
            record["layers"] = layer_metrics(tracer, spectrum, info)
            record["layers"]["cli.csv_bytes"] = record["csv_bytes"]
            record["spans"] = tracer.spans
        passes.append(record)
        pass_s = time.perf_counter() - began
        measured += pass_s
        if error is not None or (
                len(passes) >= min_passes and measured + pass_s > seconds):
            if setup:
                setup.catch_up(measured)
            return passes


def layer_metrics(tracer, spectrum, info) -> dict:
    from guardopt import parallel

    times, counts = tracer.layer_times(), tracer.counts
    calls = {k: v[0] for k, v in times.items()}
    busy = {k: v[1] for k, v in times.items()}
    self_s = {k: v[2] for k, v in times.items()}
    cache = spectrum.windowed_psd.cache_info()
    lookups = cache.hits + cache.misses
    map_busy = busy.get("parallel.parallel_map", 0.0)
    m = {
        "waveform.symbol_stream.calls": calls.get("waveform.symbol_stream", 0),
        "waveform.symbol_stream.busy_s": busy.get("waveform.symbol_stream", 0.0),
        "waveform.symbol_stream.samples": counts["waveform.symbol_stream.samples"],
        "spectrum.estimate_psd.calls": calls.get("spectrum.estimate_psd", 0),
        "spectrum.estimate_psd.busy_s": busy.get("spectrum.estimate_psd", 0.0),
        "spectrum.estimate_psd.bins": counts["spectrum.estimate_psd.bins"],
        "spectrum.windowed_psd.self_s": self_s.get("spectrum.windowed_psd", 0.0),
        "spectrum.windowed_psd.hits": cache.hits,
        "spectrum.windowed_psd.misses": cache.misses,
        "spectrum.windowed_psd.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "spectrum.required_guard_band.calls":
            calls.get("spectrum.required_guard_band", 0),
        "spectrum.required_guard_band.self_s":
            self_s.get("spectrum.required_guard_band", 0.0),
        "spectrum.required_guard_band.unreachable":
            counts["spectrum.required_guard_band.unreachable"],
        # psd_export only, which BENCHMARK.json does not gate: detail record
        "spectrum.write_psd_csv.calls": calls.get("spectrum.write_psd_csv", 0),
        "spectrum.write_psd_csv.busy_s": busy.get("spectrum.write_psd_csv", 0.0),
        "spectrum.write_psd_csv.bytes": counts["spectrum.write_psd_csv.bytes"],
    }
    for name in ("efficiency_curve", "build_lookup_table", "revalidate",
                 "LookupTable.save_csv", "LookupTable.load_csv"):
        m[f"optimizer.{name}.busy_s"] = busy.get(f"optimizer.{name}", 0.0)
    for name in ("entries", "failures", "gb_sum", "eta_mean"):
        m[f"optimizer.table_{name}"] = info.get(f"table_{name}", 0)
    m.update({
        "parallel.parallel_map.calls": calls.get("parallel.parallel_map", 0),
        "parallel.parallel_map.items": counts["parallel.parallel_map.items"],
        "parallel.parallel_map.busy_s": map_busy,
        "parallel.threads": parallel.thread_count(),
        "parallel.speedup": tracer.item_s / map_busy if map_busy else 0.0,
    })
    for mode in ("exhaustive", "heuristic"):
        name = f"scheduler.schedule_interference_based.{mode}"
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m.update({
        "scheduler.allocate_guards.calls": counts["scheduler.allocate_guards.calls"],
        "scheduler.compare_scenarios.busy_s":
            busy.get("scheduler.compare_scenarios", 0.0),
        "scheduler.heuristic_gap_gb": info.get("heuristic_gap_gb", 0),
        "scheduler.heuristic_worse_than_random":
            info.get("heuristic_worse_than_random", 0),
        "cli.main.busy_s": busy.get("cli.main", 0.0),
        "cli.lookup_cache.hits": counts["cli.lookup_cache.hits"],
        "cli.lookup_cache.misses": counts["cli.lookup_cache.misses"],
        "trace.spans": len(tracer.spans),
    })
    return m


def environment() -> dict:
    import numpy

    def cache_size(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2_bytes": cache_size(L2_CACHE),
        "l3_bytes": cache_size(L3_CACHE),
        "guardopt_threads": os.environ["GUARDOPT_THREADS"],
        "machine": platform.machine(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def pass_time(passes) -> float:
    """One pass's time: each operation's median time over the passes, summed
    over the operations of a pass.

    A CLI pass is one operation. A schedule_search pass is one operation per
    user set, so a pass slowed in part counts only in the operations it slowed.
    """
    per_op = zip(*(p["op_s"] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_guardopt()
    from workloads import WORKLOADS, ScheduleSearch

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    os.environ["GUARDOPT_THREADS"] = str(cls.threads)  # never inherited
    wl = cls(args.seed)
    work = fresh_dir(WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_probe:
            wl.prepare(work)
            return 0
        speed = Speed()
        setup = None if args.trace else SetupProbe(args, speed)
        wl.prepare(work)
        passes = run_passes(wl, work, args.seconds, bool(args.trace), speed,
                            setup=setup)
        untimed = []
        if not args.trace and cls is not ScheduleSearch:
            # every result carries the scheduling metrics; outside
            # schedule_search they come from one untimed evaluation of the
            # same seed's user sets, after the timed passes
            sched = ScheduleSearch(args.seed)
            sched.prepare(fresh_dir(work / "sched"))
            untimed = run_passes(sched, work / "sched", 0.0, False, speed,
                                 min_passes=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = passes + untimed
    outputs = {k: v for p in records[:1] + untimed for k, v in p["info"].items()}
    attempted = sum(p["ops"] for p in records)
    failures = [f for p in records for f in p["failures"]]
    failed = len(failures)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "inputs": dict(wl.inputs(), csv_bytes_per_pass=passes[0]["csv_bytes"]),
        "passes": len(passes),
        "untimed_schedule_ops": sum(p["ops"] for p in untimed),
        "warmup_wall_s": passes[0]["wall_s"],
        "wall_s_samples": [p["wall_s"] for p in passes[1:] if not p["traced"]],
        "ops_per_pass": len(passes[0]["op_s"]),
        "speed_readings_s": speed.readings,
        "speed_scale": speed.scale(),
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "outputs": outputs,
    }
    if args.trace:
        metrics = traced_metrics(passes, args, detail)
    else:
        warm = [p for p in passes[1:] if not p["traced"]]
        detail["setup_s_samples"] = setup.samples
        detail["wall_s_measured"] = pass_time(warm)
        detail["setup_s_measured"] = statistics.median(setup.samples)
        values = {
            "setup_s": detail["setup_s_measured"] * speed.scale(),
            "wall_s": detail["wall_s_measured"] * speed.scale(),
            "peak_rss_mb": passes[0]["rss_mb"],
            "sched_gb_total": outputs.get("sched_gb_total", 0),
            "sched_gd_total": outputs.get("sched_gd_total", 0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(passes, args, detail) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes[1:] if not p["traced"]]  # after the warm-up
    names = traced[0]["layers"] if traced else PER_LAYER_UNITS
    values = {name: median([p["layers"][name] for p in traced])
              for name in names if name != "trace.overhead_s"}
    traced_wall = [p["wall_s"] for p in traced]
    values["trace.overhead_s"] = (
        pass_time(traced) - pass_time(untraced)) * detail["speed_scale"]
    detail["traced_wall_s_samples"] = traced_wall
    detail["layers"] = values
    out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                   "passes": [p["spans"] for p in traced]}, fh)
    detail["spans_file"] = str(out.relative_to(ROOT))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
