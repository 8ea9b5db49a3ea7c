# guardopt/cli.py
"""Experiment runner: regenerates the figure/table analogs as CSV data.

Commands: psd, guards, schedule, lookup-build. Settings come from an optional
YAML config file; command-line flags override file keys. All outputs are
byte-deterministic under a fixed seed.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .numerology import (NumerologyConfig, WindowSpec, config_float, config_int,
                         load_yaml, read_keys, write_csv)
from .optimizer import (
    ABSENT_THETA,
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    LookupTable,
    build_lookup_table,
    checked_alpha_grid,
    checked_theta_list,
    config_fingerprint,
    efficiency_curve,  # noqa: F401  unused here; perfbench's tracer wraps it
    efficiency_curves,
    grid_text,
    revalidate,
    spectral_efficiency,
)
from .scheduler import (
    compare_scenarios,
    load_users_yaml,
    write_comparison_csv,
    write_layout_csv,
)
from .spectrum import PSD_SYMBOLS, windowed_psd, write_psd_csv

# dB an entry's revalidated suppression may fall short of its threshold
REVALIDATE_TOL_DB = 0.1
# largest config n_fft: four times NR's largest FFT (4,096 points), so the
# analysis grid (OVERSAMPLE x n_fft) stays at most 65,536 points
N_FFT_LIMIT = 16384


@dataclass
class ExperimentConfig:
    numerology: NumerologyConfig = field(default_factory=NumerologyConfig)
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    theta_list: tuple = DEFAULT_THETA_LIST
    users: str | None = None
    seed: int = 0
    out_dir: str = "out"

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a YAML config; a bad value's error names the file and key."""
        try:
            values = read_keys(load_yaml(path) or {}, _CONFIG_READERS, "config")
            grid = {
                name: values.pop(key)
                for key, name in _NUMEROLOGY_FIELDS.items() if key in values
            }
            try:
                numerology = NumerologyConfig(**grid)
            except ValueError as exc:  # it names fields; the file has keys
                raise ValueError(
                    _FIELD_NAMES.sub(lambda m: _FIELD_KEYS[m[0]], str(exc))
                ) from None
            if numerology.n_fft > N_FFT_LIMIT:
                raise ValueError(f"n_fft must be at most {N_FFT_LIMIT}, four times "
                                 f"NR's largest FFT, got {numerology.n_fft}")
            return cls(numerology=numerology, **values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _floats(values) -> tuple:
    """A YAML list of numbers; any other value is rejected whole, not iterated."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    return tuple(config_float(v) for v in values)


def _seed(value) -> int:
    """A non-negative integer; 1.5 or a string is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _file_path(value) -> str:
    """A path; "" is rejected, not read as the working directory."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"expected a path, got {value!r}")
    return value


# every key a config file may hold, and its reader; any other key is rejected
_CONFIG_READERS = {
    "n_fft": config_int, "n_occupied": config_int,
    "subcarrier_spacing_hz": config_float, "t_cp_ch_samples": config_int,
    "alpha_grid": _floats, "theta_list": _floats, "users": _file_path,
    "seed": _seed, "out_dir": _file_path,
}
# config-file key -> NumerologyConfig field, for the numerology keys above
_NUMEROLOGY_FIELDS = {
    "n_fft": "n_fft", "n_occupied": "n_occupied",
    "subcarrier_spacing_hz": "subcarrier_spacing", "t_cp_ch_samples": "t_cp_ch",
}
_FIELD_KEYS = {name: key for key, name in _NUMEROLOGY_FIELDS.items()}
_FIELD_NAMES = re.compile(rf"\b({'|'.join(_FIELD_KEYS)})\b")
CONFIG_KEYS = tuple(_CONFIG_READERS)


def _flag(flag: str, convert, value):
    """convert(value); a bad flag value's error names the flag."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _csv_floats(text: str) -> tuple:
    """Comma-separated numbers; "" holds none, and an empty item is an error."""
    items = text.split(",") if text else []
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return tuple(float(t) for t in items)


# each flag that overrides a config field, the field and its reader, in order
_OVERRIDES = (("seed", "seed", _seed), ("out", "out_dir", _file_path),
              ("theta", "theta_list", _csv_floats),
              ("alpha", "alpha_grid", _csv_floats), ("users", "users", _file_path))


def _load_config(args) -> ExperimentConfig:
    ec = ExperimentConfig()
    if args.config is not None:
        ec = ExperimentConfig.load(_flag("--config", _file_path, args.config))
    for flag, name, convert in _OVERRIDES:
        if getattr(args, flag, None) is not None:
            setattr(ec, name, _flag(f"--{flag}", convert, getattr(args, flag)))
    return ec


def _out_dir(ec: ExperimentConfig) -> Path:
    out = Path(ec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _lookup_for(ec: ExperimentConfig) -> LookupTable:
    """Check both lists (ValueError), then load the persisted table matching
    the config hash (its failures set as a build sets them), or build it,
    create the output directory and save it. A loaded entry whose alpha fails
    WindowSpec.for_config, whose GD is not that alpha's taper, or whose etas
    are not spectral_efficiency of its GD and GB, raises one ValueError
    naming the file and theta."""
    thetas = checked_theta_list(ec.theta_list)
    alphas = checked_alpha_grid(ec.alpha_grid, ec.numerology)
    key = config_fingerprint(ec.numerology, alphas, thetas)
    path = Path(ec.out_dir) / f"lookup_{key}.csv"
    if not path.exists():
        table = build_lookup_table(thetas, ec.numerology, alphas)
        table.save_csv(_out_dir(ec) / path.name, ec.numerology)
        return table
    table = LookupTable.load_csv(path)
    table.failures = tuple(t for t in thetas if t not in table.entries)
    # the file rounds each eta to 8 decimals and GB to 6; a GB change of
    # 5e-7 moves eta_freq by at most 1e-6 / n_occupied
    tol = 1e-8 + 1e-6 / ec.numerology.n_occupied
    for theta, a in table.entries.items():
        try:
            gd = WindowSpec.for_config(a.alpha, ec.numerology).t_cp_win
            if a.gd_samples != gd:
                raise ValueError(
                    f"gd_samples must be alpha's taper {gd}, got {a.gd_samples}")
            etas = spectral_efficiency(gd, a.gb_subcarriers, ec.numerology)
            for name, eta in zip(("eta_time", "eta_freq", "eta"), etas):
                got = getattr(a, name)
                if not abs(got - eta) <= tol:
                    raise ValueError(
                        f"{name} must be {eta:.8f} at gd_samples {gd} and "
                        f"gb_subcarriers {a.gb_subcarriers:.6f}, got {got:.8f}")
        except ValueError as exc:
            raise ValueError(f"{path}: theta={grid_text(theta)}: {exc}") from None
    return table


def cmd_psd(args) -> int:
    ec = _load_config(args)
    alpha_grid = checked_alpha_grid(ec.alpha_grid, ec.numerology)
    out = _out_dir(ec)
    for alpha in alpha_grid:
        psd = windowed_psd(alpha, ec.numerology, n_symbols=PSD_SYMBOLS, seed=ec.seed)
        write_psd_csv(psd, out / f"psd_alpha{grid_text(alpha)}.csv")
    return 0


def cmd_guards(args) -> int:
    ec = _load_config(args)
    # one pass: the table is the optimum of each curve written, and a theta
    # without a curve is reported as absent below, as lookup-build does
    curves = efficiency_curves(ec.theta_list, ec.numerology, ec.alpha_grid)
    out = _out_dir(ec)
    header = "theta_db,alpha,gd_samples,gb_subcarriers,eta_time,eta_freq,eta"
    write_csv(out / "guard_curves.csv", header, (
        f"{grid_text(theta)},{grid_text(a.alpha)},{a.gd_samples},"
        f"{a.gb_subcarriers:.6f},{a.eta_time:.8f},"
        f"{a.eta_freq:.8f},{a.eta:.8f}\n"
        for theta, curve in curves.items() for a in curve
    ))
    table = LookupTable.from_curves(ec.theta_list, curves)
    table.save_csv(out / "optimal_guards.csv", ec.numerology)
    _report_absent(table)
    violations = 0
    if args.revalidate:
        for theta, supp in revalidate(table, ec.numerology).items():
            ok = supp >= theta - REVALIDATE_TOL_DB
            print(f"theta={grid_text(theta)} achieved={supp:.2f} dB "
                  f"margin={supp - theta:+.4f} dB {'ok' if ok else 'VIOLATION'}")
            violations += not ok
    return 1 if violations else 0


def cmd_lookup_build(args) -> int:
    ec = _load_config(args)
    _report_absent(_lookup_for(ec))
    return 0


def _report_absent(table: LookupTable) -> None:
    """One stderr line per threshold the table lacks."""
    for theta in table.failures:
        print(ABSENT_THETA.format(grid_text(theta)), file=sys.stderr)


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
    _report_absent(lookup)  # after the outputs, as guards reports it
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
        p.add_argument("--alpha", help="comma-separated roll-off grid")

    def search(p):  # the commands that run the guard search take its thresholds
        common(p)
        p.add_argument("--theta", help="comma-separated thresholds, dB")

    p = sub.add_parser("psd", help="emit PSD traces per alpha")
    common(p)
    p.set_defaults(fn=cmd_psd)

    p = sub.add_parser("guards", help="emit guard curves and optimal guards")
    search(p)
    p.add_argument(
        "--revalidate",
        action="store_true",
        help="re-check every optimal entry against its threshold",
    )
    p.set_defaults(fn=cmd_guards)

    p = sub.add_parser("lookup-build", help="build/persist the lookup table")
    search(p)
    p.set_defaults(fn=cmd_lookup_build)

    p = sub.add_parser("schedule", help="run the scheduling comparison")
    search(p)
    p.add_argument("--users", help="user-set YAML file")
    p.set_defaults(fn=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
