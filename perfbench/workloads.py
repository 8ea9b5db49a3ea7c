"""The four benchmark workloads: inputs, one timed pass, and its checks.

A workload drives guardopt from outside: through `guardopt.cli.main(argv)`
for the `guards`, `lookup-build` and `psd` commands, and through the public
scheduler functions for ordering. Each module is reached through its module
attribute at call time, so the traced run's wrappers see every call.

`run_pass` times only the calls into guardopt. `check` then verifies the
outputs and returns one (op, digest, error) triple per operation; an error
counts the operation as failed. Digests let the runner require that passes
with the same seed produce the same outputs within one run.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np

from guardopt import cli, optimizer, scheduler
from guardopt.numerology import NumerologyConfig, WindowSpec, round_half_up

PSD_ALPHAS = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2)
PSD_SYMBOLS, OVERSAMPLE, SEGMENT_SYMBOLS = 128, 4, 32  # guardopt's defaults
ETA_TOL = 2e-8  # three 8-decimal roundings in eta, eta_time and eta_freq


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()[:16]


def _call_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _stream_samples(alpha: float, cfg: NumerologyConfig) -> int:
    """Length of guardopt's oversampled PSD stream at `alpha` (overlap-add)."""
    ocfg = cfg.oversampled(OVERSAMPLE)
    ramp = WindowSpec.for_config(alpha, ocfg).t_cp_win
    return PSD_SYMBOLS * (ocfg.n_fft + ocfg.t_cp_ch + ramp) + ramp


def _psd_bins(cfg: NumerologyConfig) -> int:
    return 4 * SEGMENT_SYMBOLS * cfg.n_fft * OVERSAMPLE


def _table_errors(rows, thetas) -> list[str]:
    """Every threshold present (no failures), and the eta identity holds."""
    got = [float(r["theta_db"]) for r in rows]
    errors = [] if got == list(thetas) else [f"table thetas {got} != {list(thetas)}"]
    return errors + _eta_errors(rows)


def _eta_errors(rows) -> list[str]:
    """eta == eta_time * eta_freq on every row."""
    errors = []
    for r in rows:
        eta_t, eta_f, eta = (float(r[k]) for k in ("eta_time", "eta_freq", "eta"))
        if abs(eta - eta_t * eta_f) > ETA_TOL:
            errors.append(f"theta={r['theta_db']}: eta {eta} != {eta_t}*{eta_f}")
    return errors


def _table_info(rows, thetas) -> dict:
    gb = [float(r["gb_subcarriers"]) for r in rows]
    eta = [float(r["eta"]) for r in rows]
    return {
        "table_entries": len(rows),
        "table_failures": len(thetas) - len(rows),
        "table_gb_sum": sum(gb),
        "table_eta_mean": sum(eta) / len(eta) if eta else 0.0,
        "table_distinct_alpha": len({r["alpha"] for r in rows}),
    }


def _stored_fields(theta, a) -> list[str]:
    """A lookup entry formatted as LookupTable.save_csv stores it."""
    return [f"{theta:.6g}", f"{a.alpha:.6g}", str(a.gd_samples),
            f"{a.gb_subcarriers:.6f}", f"{a.eta_time:.8f}", f"{a.eta_freq:.8f}",
            f"{a.eta:.8f}"]


def _stored_table(table) -> dict:
    return {t: _stored_fields(t, a) for t, a in table.entries.items()}


@contextlib.contextmanager
def _capturing(owner, attr: str):
    """Collect what `owner.attr` (a function or classmethod) returns while
    the block runs; the original stays behind the wrapper and is restored."""
    original = vars(owner)[attr]
    is_method = isinstance(original, classmethod)
    fn = original.__func__ if is_method else original
    results = []

    def capture(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    setattr(owner, attr, classmethod(capture) if is_method else capture)
    try:
        yield results
    finally:
        setattr(owner, attr, original)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CliWorkload:
    """A workload of CLI commands on the default numerology."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = NumerologyConfig()
        self.thetas = optimizer.DEFAULT_THETA_LIST

    def prepare(self, work: Path) -> None:
        """The CLI workloads take only argv; their set-up is the imports."""

    @staticmethod
    def op_seconds(raw) -> list[float] | None:
        """A CLI pass is one timed operation: the runner times the pass."""
        return None

    def inputs(self) -> dict:
        alphas = optimizer.DEFAULT_ALPHA_GRID
        return {
            "thetas": len(self.thetas),
            "alphas": len(alphas),
            "stream_samples": [_stream_samples(alphas[0], self.cfg),
                               _stream_samples(alphas[-1], self.cfg)],
            "psd_bins": _psd_bins(self.cfg),
        }


class GuardsDefault(CliWorkload):
    """`guardopt guards --revalidate` on the default config, one thread."""

    name, threads = "guards_default", 1

    def run_pass(self, out: Path):
        argv = ["guards", "--revalidate", "--seed", str(self.seed),
                "--out", str(out)]
        return _call_cli(argv)

    def check(self, out: Path, raw, first: bool):
        rc, stdout, _ = raw
        errors = [] if rc == 0 else [f"guards exited {rc}"]
        lines = stdout.splitlines()
        if len(lines) != len(self.thetas) or not all(
                line.endswith(" ok") for line in lines):
            errors.append(f"revalidation output: {stdout!r}")
        rows = _read_csv(out / "optimal_guards.csv")
        errors += _table_errors(rows, self.thetas)
        errors += _eta_errors(_read_csv(out / "guard_curves.csv"))
        digest = _digest(stdout, (out / "guard_curves.csv").read_bytes(),
                         (out / "optimal_guards.csv").read_bytes())
        info = _table_info(rows, self.thetas)
        return [("guards", digest, "; ".join(errors) or None)], info


class LookupT2(CliWorkload):
    """`guardopt lookup-build` twice into one directory, two threads."""

    name, threads = "lookup_t2", 2

    def run_pass(self, out: Path):
        argv = ["lookup-build", "--seed", str(self.seed), "--out", str(out)]
        # the tables the commands hold in memory: the one the miss builds
        # and the one the hit loads from the cache
        with _capturing(cli, "build_lookup_table") as built_tables, \
                _capturing(optimizer.LookupTable, "load_csv") as loaded_tables:
            miss = _call_cli(argv)
            built = [(p.name, p.stat().st_mtime_ns)
                     for p in out.glob("lookup_*.csv")]
            hit = _call_cli(argv)
        return miss, built, hit, built_tables, loaded_tables

    def check(self, out: Path, raw, first: bool):
        miss, built, hit, built_tables, loaded_tables = raw
        paths = sorted(out.glob("lookup_*.csv"))
        after = [(p.name, p.stat().st_mtime_ns) for p in paths]
        ops = []
        for op, (rc, _, err) in (("lookup_miss", miss), ("lookup_hit", hit)):
            errors = [] if rc == 0 else [f"{op} exited {rc}"]
            if err:
                errors.append(f"{op} stderr: {err!r}")
            if len(paths) != 1:
                errors.append(f"expected one cached table, found {after}")
            ops.append([op, errors])
        if built != after:
            ops[1][1].append(f"cache hit rewrote the table: {built} -> {after}")
        if len(paths) != 1:
            return [(op, "", "; ".join(e)) for op, e in ops], {}
        rows = _read_csv(paths[0])
        # the hit must load the table the miss built, in every field at the
        # precision the cache stores; gd_us and gb_hz are derived on save
        if len(built_tables) != 1 or len(loaded_tables) != 1:
            ops[1][1].append(f"{len(built_tables)} tables built and "
                             f"{len(loaded_tables)} loaded, expected one each")
        elif _stored_table(built_tables[0]) != _stored_table(loaded_tables[0]):
            ops[1][1].append("loaded table differs from the built table")
        ops[0][1].extend(_table_errors(rows, self.thetas))
        digest = _digest(paths[0].read_bytes())
        info = _table_info(rows, self.thetas)
        return [(op, digest, "; ".join(e) or None) for op, e in ops], info


class PsdExport(CliWorkload):
    """`guardopt psd` over six roll-offs: synthesis, Welch and CSV output."""

    name, threads = "psd_export", 1

    def inputs(self) -> dict:
        return {
            "alphas": len(PSD_ALPHAS),
            "stream_samples": [_stream_samples(a, self.cfg) for a in PSD_ALPHAS],
            "psd_bins": _psd_bins(self.cfg),
        }

    def run_pass(self, out: Path):
        alphas = ",".join(f"{a:g}" for a in PSD_ALPHAS)
        argv = ["psd", "--alpha", alphas, "--seed", str(self.seed),
                "--out", str(out)]
        return _call_cli(argv)

    def check(self, out: Path, raw, first: bool):
        rc, _, err = raw
        ops = []
        for alpha in PSD_ALPHAS:
            path = out / f"psd_alpha{alpha:g}.csv"
            if rc != 0 or not path.exists():
                ops.append((f"psd_{alpha:g}", "", f"psd exited {rc}: {err!r}"))
                continue
            data = path.read_bytes()
            # identical digests imply identical files, so later passes of a
            # run are checked by digest against the fully checked first pass
            error = self._trace_error(data) if first else None
            ops.append((f"psd_{alpha:g}", _digest(data), error))
        return ops, {}

    def _trace_error(self, data: bytes) -> str | None:
        header, _, body = data.partition(b"\n")
        if header != b"freq_hz,power_db":
            return f"header {header!r}"
        values = np.array(body.replace(b"\n", b",").split(b",")[:-1], dtype=float)
        freqs, power_db = values[0::2], values[1::2]
        bins = _psd_bins(self.cfg)
        if freqs.size != bins:
            return f"{freqs.size} rows != grid size {bins}"
        resolution = self.cfg.sample_rate * OVERSAMPLE / bins
        if not np.allclose(np.diff(freqs), resolution, rtol=0, atol=1e-6):
            return "frequencies not uniform and ascending"
        edge = (self.cfg.n_occupied - self.cfg.n_occupied // 2 + 0.5) * \
            self.cfg.subcarrier_spacing
        in_band = np.abs(freqs) <= edge
        mean_db = 10 * math.log10(np.mean(10 ** (power_db[in_band] / 10)))
        if abs(mean_db) > 1e-4:
            return f"in-band mean {mean_db:.6f} dB, expected 0"
        return None


# -- schedule_search ---------------------------------------------------------

# Exhaustive sets dominate the pass time (n = 8 is 40,320 orderings); the many
# cheap heuristic sets keep the summed GB and GD steady across seeds.
EXHAUSTIVE_SIZES = (6,) * 4 + (7,) * 4 + (8,) * 2
HEURISTIC_SIZES = (12, 16, 20, 24, 28, 32) * 30
TABLE_THETAS = tuple(20.0 + 2.5 * k for k in range(13))  # 20 .. 50 dB


def write_synthetic_table(path: Path) -> None:
    """Monotone table: alpha, GD and GB all rise with theta; eta falls."""
    cfg = NumerologyConfig()
    entries = {}
    for k, theta in enumerate(TABLE_THETAS):
        alpha = round(0.005 * k, 3)
        gd = round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch))
        gb = 3.6 + 1.35 * k
        eta_time, eta_freq, eta = optimizer.spectral_efficiency(gd, gb, cfg)
        entries[theta] = optimizer.GuardAllocation(
            alpha, gd, gb, eta_time, eta_freq, eta, theta)
    optimizer.LookupTable(entries).save_csv(path, cfg)


def user_sets(seed: int) -> list[list]:
    """Users with 0-15 dBm power and 15-30 dB SIR need at most 45 dB."""
    rng = random.Random(seed)
    sets = []
    for n in EXHAUSTIVE_SIZES + HEURISTIC_SIZES:
        sets.append([
            scheduler.UserProfile(
                id=f"u{i}",
                power_dbm=round(rng.uniform(0.0, 15.0), 1),
                sir_req_db=round(rng.uniform(15.0, 30.0), 1),
                use_case=rng.choice(scheduler.USE_CASES),
                obw_subcarriers=rng.choice((72, 300, 600)),
            )
            for i in range(n)
        ])
    return sets


def _mode(users) -> str:
    return "exhaustive" if len(users) <= max(EXHAUSTIVE_SIZES) else "heuristic"


def _ids(order) -> list[str]:
    return [u.id for u in order]


class ScheduleSearch:
    """`compare_scenarios` over generated user sets; no waveform or spectrum."""

    name, threads = "schedule_search", 1

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, work: Path) -> None:
        path = work / "synthetic_lookup.csv"
        write_synthetic_table(path)
        self.lookup = optimizer.LookupTable.load_csv(path)
        self.sets = user_sets(self.seed)

    def inputs(self) -> dict:
        sizes = Counter(len(s) for s in self.sets)
        return {"user_sets_by_size": {str(n): k for n, k in sorted(sizes.items())},
                "users": sum(n * k for n, k in sizes.items()),
                "table_levels": len(TABLE_THETAS)}

    def run_pass(self, out: Path):
        """One `compare_scenarios` call per user set, each timed."""
        results, seconds = [], []
        for i, users in enumerate(self.sets):
            t0 = time.perf_counter()
            results.append(scheduler.compare_scenarios(
                users, self.seed * 1000 + i, self.lookup, mode=_mode(users)))
            seconds.append(time.perf_counter() - t0)
        return results, seconds

    @staticmethod
    def op_seconds(raw) -> list[float]:
        return raw[1]

    def check(self, out: Path, raw, first: bool):
        ops, gb_total, gd_total, gap, worse = [], 0, 0, 0, 0
        for i, (users, rows) in enumerate(zip(self.sets, raw[0])):
            errors = self._set_errors(users, rows)
            plans = {r.scenario: r.plan for r in rows}
            scheduled = plans.get("adaptive_scheduled")
            if scheduled is not None:
                gb_total += scheduled.total_gb_subcarriers
                gd_total += scheduled.total_gd_samples
                random_cost = plans["adaptive_random"].cost
                if _mode(users) == "heuristic":
                    # adjacent swaps from a power sort guarantee no win over
                    # a random order: a loss is a quality count, not an error
                    worse += scheduled.cost > random_cost
                else:
                    errors += self._exact_errors(users, scheduled, random_cost)
                    gap += (self._heuristic(users).total_gb_subcarriers
                            - scheduled.total_gb_subcarriers)
            digest = _digest(*(
                (r.scenario, _ids(r.plan.assignment), r.plan.cost) for r in rows))
            ops.append((f"set{i}_n{len(users)}", digest, "; ".join(errors) or None))
        info = {"sched_gb_total": gb_total, "sched_gd_total": gd_total,
                "heuristic_gap_gb": gap, "heuristic_worse_than_random": worse}
        return ops, info

    def _heuristic(self, users):
        order = scheduler.schedule_interference_based(users, self.lookup, "heuristic")
        return scheduler.allocate_guards(order, self.lookup)

    def _exact_errors(self, users, scheduled, random_cost) -> list[str]:
        """Exact search: no worse than the heuristic or the random order, and
        equal to a brute-force oracle over all orderings for n <= 6."""
        errors = []
        if scheduled.cost > random_cost:
            errors.append(f"exact {scheduled.cost} > random order {random_cost}")
        heuristic = self._heuristic(users).cost
        if scheduled.cost > heuristic:
            errors.append(f"exact {scheduled.cost} > heuristic {heuristic}")
        if len(users) <= 6:
            oracle = min(scheduler.allocate_guards(p, self.lookup).cost
                         for p in itertools.permutations(users))
            if scheduled.cost != oracle:
                errors.append(f"exact {scheduled.cost} != oracle {oracle}")
        return errors

    @staticmethod
    def _set_errors(users, rows) -> list[str]:
        """Every plan orders the input users; adaptive never exceeds fixed."""
        names = [r.scenario for r in rows]
        if names != ["fixed_random", "adaptive_random", "adaptive_scheduled"]:
            return [f"scenarios {names}"]
        errors = []
        for r in rows:
            if sorted(_ids(r.plan.assignment)) != sorted(_ids(users)):
                errors.append(f"{r.scenario} ordering is not a permutation")
        fixed, rand, sched = (r.plan.cost for r in rows)
        if not (rand <= fixed and sched <= fixed):
            errors.append(f"adaptive costs {rand}, {sched} exceed fixed {fixed}")
        return errors


WORKLOADS = {w.name: w for w in (GuardsDefault, LookupT2, PsdExport, ScheduleSearch)}
