# guardopt/cli.py
"""Experiment runner: regenerates the figure/table analogs as CSV data.

Commands: psd, guards, schedule, lookup-build. Settings come from an optional
YAML config file; command-line flags override file keys. All outputs are
byte-deterministic under a fixed seed.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .numerology import (
    NUMEROLOGY_KEYS,
    NumerologyConfig,
    config_float,
    config_int,
    load_yaml,
    read_keys,
)
from .optimizer import (
    ABSENT_THETA,
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    LookupTable,
    _theta_text,
    build_lookup_table,
    checked_alpha_grid,
    config_fingerprint,
    efficiency_curve,  # noqa: F401  unused here; perfbench's tracer wraps it
    efficiency_curves,
    revalidate,
)
from .scheduler import (
    compare_scenarios,
    load_users_yaml,
    write_comparison_csv,
    write_layout_csv,
)
from .spectrum import least_welch_symbols, windowed_psd, write_psd_csv

# dB an entry's revalidated suppression may fall short of its threshold
REVALIDATE_TOL_DB = 0.1


@dataclass
class ExperimentConfig:
    numerology: NumerologyConfig = field(default_factory=NumerologyConfig)
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    theta_list: tuple = DEFAULT_THETA_LIST
    users: str | None = None
    seed: int = 0
    out_dir: str = "out"
    psd_symbols: int = 128

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a YAML config; a bad value's error names the file and key."""
        try:
            values = read_keys(load_yaml(path) or {}, _CONFIG_READERS, "config")
            grid = {key: values.pop(key) for key in NUMEROLOGY_KEYS if key in values}
            return cls(numerology=NumerologyConfig.from_mapping(grid), **values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _floats(values) -> tuple:
    return tuple(config_float(v) for v in values)


def _seed(value) -> int:
    """A non-negative integer; 1.5 or a string is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _positive_int(value) -> int:
    n = config_int(value)
    if n <= 0:
        raise ValueError(f"must be positive, got {n}")
    return n


def _file_path(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a path, got {value!r}")
    return value


# every key a config file may hold, and its reader; any other key is rejected.
# The numerology keys pass as written to NumerologyConfig.from_mapping.
_CONFIG_READERS = {
    **dict.fromkeys(NUMEROLOGY_KEYS, lambda value: value),
    "alpha_grid": _floats, "theta_list": _floats, "users": _file_path,
    "seed": _seed, "out_dir": _file_path, "psd_symbols": _positive_int,
}
CONFIG_KEYS = tuple(_CONFIG_READERS)


def _flag(flag: str, convert, value):
    """convert(value); a bad flag value's error names the flag."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _csv_floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_config(args) -> ExperimentConfig:
    ec = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        ec.seed = _flag("--seed", _seed, args.seed)
    if getattr(args, "out", None) is not None:
        ec.out_dir = args.out
    if getattr(args, "theta", None) is not None:
        ec.theta_list = _flag("--theta", _csv_floats, args.theta)
    if getattr(args, "alpha", None) is not None:
        ec.alpha_grid = _flag("--alpha", _csv_floats, args.alpha)
    if getattr(args, "users", None):
        ec.users = args.users
    return ec


def _out_dir(ec: ExperimentConfig) -> Path:
    out = Path(ec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _lookup_for(ec: ExperimentConfig) -> LookupTable:
    """Load a persisted table matching the config hash, or build it, then
    create the output directory and persist the table through a temporary
    name outside lookup_*.csv and an atomic rename."""
    key = config_fingerprint(ec.numerology, ec.alpha_grid, ec.theta_list)
    path = Path(ec.out_dir) / f"lookup_{key}.csv"
    if path.exists():
        return LookupTable.load_csv(path)
    table = build_lookup_table(ec.theta_list, ec.numerology, ec.alpha_grid)
    tmp = _out_dir(ec) / f".{path.name}.{os.getpid()}.tmp"
    try:
        table.save_csv(tmp, ec.numerology)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return table


def cmd_psd(args) -> int:
    ec = _load_config(args)
    for alpha in checked_alpha_grid(ec.alpha_grid, ec.numerology):
        least = least_welch_symbols(alpha, ec.numerology)
        if ec.psd_symbols < least:
            raise ValueError(
                f"psd_symbols: {ec.psd_symbols} symbols fill no Welch segment "
                f"at alpha={_fmt(alpha)}; at least {least} are needed"
            )
    out = _out_dir(ec)
    for alpha in ec.alpha_grid:
        psd = windowed_psd(
            alpha, ec.numerology, n_symbols=ec.psd_symbols, seed=ec.seed
        )
        write_psd_csv(psd, out / f"psd_alpha{_fmt(alpha)}.csv")
    return 0


def cmd_guards(args) -> int:
    ec = _load_config(args)
    # one pass: the table is the optimum of each curve written, and a theta
    # without a curve is reported as absent below, as lookup-build does
    curves = efficiency_curves(ec.theta_list, ec.numerology, ec.alpha_grid)
    out = _out_dir(ec)
    with open(out / "guard_curves.csv", "w", newline="") as fh:
        fh.write("theta_db,alpha,gd_samples,gb_subcarriers,eta_time,eta_freq,eta\n")
        for theta, curve in curves.items():
            for a in curve:
                fh.write(
                    f"{_theta_text(theta)},{_fmt(a.alpha)},{a.gd_samples},"
                    f"{a.gb_subcarriers:.6f},{a.eta_time:.8f},"
                    f"{a.eta_freq:.8f},{a.eta:.8f}\n"
                )
    table = LookupTable.from_curves(ec.theta_list, curves)
    table.save_csv(out / "optimal_guards.csv", ec.numerology)
    _report_absent(ec.theta_list, table)
    violations = 0
    if args.revalidate:
        for theta, supp in revalidate(table, ec.numerology).items():
            ok = supp >= theta - REVALIDATE_TOL_DB
            print(f"theta={_theta_text(theta)} achieved={supp:.2f} dB "
                  f"{'ok' if ok else 'VIOLATION'}")
            violations += not ok
    return 1 if violations else 0


def cmd_lookup_build(args) -> int:
    ec = _load_config(args)
    _report_absent(ec.theta_list, _lookup_for(ec))
    return 0


def _report_absent(thetas, table: LookupTable) -> None:
    """One stderr line per threshold the table lacks. Read from the entries,
    not table.failures: a table loaded from the cache keeps no failures."""
    for theta in thetas:
        if theta not in table.entries:
            print(ABSENT_THETA.format(_theta_text(theta)), file=sys.stderr)


def cmd_schedule(args) -> int:
    ec = _load_config(args)
    if ec.users is None:
        users_path = Path(__file__).parent / "data" / "users_mixed8.yaml"
    else:
        users_path = Path(ec.users)
    users = load_users_yaml(users_path)
    lookup = _lookup_for(ec)
    out = _out_dir(ec)
    rows = compare_scenarios(users, ec.seed, lookup)
    for r in rows:
        write_layout_csv(r.plan, out / f"schedule_{r.scenario}.csv")
    write_comparison_csv(rows, out / "guard_comparison.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardopt",
        description="Adaptive guard-band/guard-duration experiments for "
        "windowed OFDM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--theta", help="comma-separated thresholds, dB")
        p.add_argument("--alpha", help="comma-separated roll-off grid")

    p = sub.add_parser("psd", help="emit PSD traces per alpha")
    common(p)
    p.set_defaults(fn=cmd_psd)

    p = sub.add_parser("guards", help="emit guard curves and optimal guards")
    common(p)
    p.add_argument(
        "--revalidate",
        action="store_true",
        help="re-check every optimal entry against its threshold",
    )
    p.set_defaults(fn=cmd_guards)

    p = sub.add_parser("lookup-build", help="build/persist the lookup table")
    common(p)
    p.set_defaults(fn=cmd_lookup_build)

    p = sub.add_parser("schedule", help="run the scheduling comparison")
    common(p)
    p.add_argument("--users", help="user-set YAML file")
    p.set_defaults(fn=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
