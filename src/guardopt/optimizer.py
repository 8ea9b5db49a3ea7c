# guardopt/optimizer.py
"""Joint guard-band / guard-duration optimization by grid search over alpha.

Each roll-off candidate implies a guard duration (windowing taper) and the
guard band still needed to hit the interference threshold; the winner
maximizes the time-frequency efficiency product. Ties break toward smaller
alpha (less time-domain overhead).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass

from .numerology import NumerologyConfig, WindowSpec
from .parallel import parallel_map
from .spectrum import (
    OVERSAMPLE,
    TOL_SUBCARRIERS,
    LeakageModel,
    ThetaUnreachableError,
    grid_suppression_db,
    required_guard_band,  # noqa: F401  unused here; perfbench's tracer wraps it
    windowed_psd,  # noqa: F401  unused here; perfbench's tracer wraps it
)
from .waveform import pulse_weights

DEFAULT_ALPHA_GRID = tuple(round(0.005 * i, 3) for i in range(41))  # 0 .. 0.2
DEFAULT_THETA_LIST = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
# bump when the spectrum model or search changes a table's numbers
SEARCH_VERSION = "charged-taper-1"
# a threshold with no efficiency curve, formatted with its _theta_text
ABSENT_THETA = "theta={}: absent (unreachable at every alpha in the grid)"

LOOKUP_COLUMNS = (
    "theta_db,alpha,gd_samples,gd_us,gb_subcarriers,gb_hz,eta_time,eta_freq,eta"
)


@dataclass(frozen=True)
class GuardAllocation:
    alpha: float
    gd_samples: int
    gb_subcarriers: float
    eta_time: float
    eta_freq: float
    eta: float
    theta_db: float


def spectral_efficiency(
    gd_samples: int, gb_subcarriers: float, cfg: NumerologyConfig
) -> tuple[float, float, float]:
    """(eta_time, eta_freq, eta): symbol-time share and occupied-band share.

    eta_time = T_ofdm / (T_ofdm + T_cp_ch + T_cp_win), in samples;
    eta_freq = OBW / (OBW + 2 * GB); eta is their product.
    """
    if gd_samples < 0 or gb_subcarriers < 0:
        raise ValueError("guards must be non-negative")
    eta_time = cfg.n_fft / (cfg.n_fft + cfg.t_cp_ch + gd_samples)
    eta_freq = cfg.n_occupied / (cfg.n_occupied + 2 * gb_subcarriers)
    return eta_time, eta_freq, eta_time * eta_freq


def efficiency_curves(
    theta_list,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> dict[float, list[GuardAllocation]]:
    """Every threshold's efficiency curve, in one pass over the alpha grid.

    Checks both lists first (ValueError). Each alpha builds one leakage model
    and bisects every threshold on it. Returns theta -> curve, one allocation
    per reachable alpha in grid order; a threshold that no alpha reaches has
    no key.
    """
    thetas = checked_theta_list(theta_list)
    alphas = checked_alpha_grid(alpha_grid, cfg)

    def column(alpha):  # theta -> allocation, for each theta reachable at alpha
        gd = WindowSpec.for_config(alpha, cfg).t_cp_win
        model, out = LeakageModel.for_alpha(alpha, cfg), {}
        for theta in thetas:
            with contextlib.suppress(ThetaUnreachableError):
                gb = model.guard_band(theta)
                eta = spectral_efficiency(gd, gb, cfg)
                out[theta] = GuardAllocation(alpha, gd, gb, *eta, theta)
        return out

    columns = parallel_map(column, alphas)
    curves = {t: [col[t] for col in columns if t in col] for t in thetas}
    return {t: curve for t, curve in curves.items() if curve}


def efficiency_curve(
    theta: float,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> list[GuardAllocation]:
    """One allocation per reachable alpha, in grid order."""
    curves = efficiency_curves([theta], cfg, alpha_grid)
    if theta not in curves:
        raise ThetaUnreachableError(ABSENT_THETA.format(_theta_text(theta)))
    return curves[theta]


def optimize_guards(
    theta: float,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> GuardAllocation:
    """Max-eta allocation over the alpha grid; ties go to the smaller alpha."""
    return best_allocation(efficiency_curve(theta, cfg, alpha_grid))


def best_allocation(curve) -> GuardAllocation:
    """The optimum of an efficiency curve: max eta, ties to the smaller alpha."""
    return max(curve, key=lambda a: (a.eta, -a.alpha))


class LookupTable:
    """theta -> optimal GuardAllocation, and the thresholds absent from it."""

    def __init__(self, entries: dict[float, GuardAllocation], failures=()):
        self.entries = dict(sorted(entries.items()))
        self.failures: tuple[float, ...] = tuple(failures)
        # the entries' thresholds, ascending, and their allocations
        self._thetas = list(self.entries)
        self._allocs = list(self.entries.values())

    @classmethod
    def from_curves(cls, thetas, curves) -> "LookupTable":
        """Each curve's optimum; a threshold without a curve is a failure."""
        return cls({t: best_allocation(c) for t, c in curves.items()},
                   [t for t in thetas if t not in curves])

    @property
    def max_theta(self) -> float:
        """Largest tabulated threshold; ValueError if the table is empty."""
        if not self.entries:
            raise ValueError("lookup table has no reachable threshold")
        return next(reversed(self.entries))

    def ceil_lookup(self, theta: float) -> GuardAllocation:
        """Entry at the smallest table theta >= the request (conservative)."""
        floor = theta - 1e-9
        k = bisect_left(self._thetas, floor)
        # the check rejects a NaN request, which bisects to the first entry
        if k < len(self._thetas) and self._thetas[k] >= floor:
            return self._allocs[k]
        raise KeyError(
            f"theta={theta:.2f} dB exceeds the lookup table maximum "
            f"({self.max_theta:.2f} dB)"
        )

    def save_csv(self, path, cfg: NumerologyConfig) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(LOOKUP_COLUMNS + "\n")
            for t, a in self.entries.items():
                gd_us = a.gd_samples / cfg.sample_rate * 1e6
                gb_hz = a.gb_subcarriers * cfg.subcarrier_spacing
                fh.write(
                    f"{_theta_text(t)},{a.alpha:.6g},{a.gd_samples},{gd_us:.6f},"
                    f"{a.gb_subcarriers:.6f},{gb_hz:.6f},"
                    f"{a.eta_time:.8f},{a.eta_freq:.8f},{a.eta:.8f}\n"
                )

    @classmethod
    def load_csv(cls, path) -> "LookupTable":
        """Read a table written by save_csv; a damaged row (unparsable, a
        repeated or non-finite theta, a negative or non-finite alpha, GD or
        GB) raises ValueError naming the file and line."""
        entries = {}
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            if header != LOOKUP_COLUMNS:
                raise ValueError(f"{path}: unexpected lookup-table header: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                fields = line.strip().split(",")
                try:
                    theta, alpha, gd, _, gb, _, eta_t, eta_f, eta = fields
                    a = GuardAllocation(
                        float(alpha), int(gd), float(gb),
                        float(eta_t), float(eta_f), float(eta), float(theta),
                    )
                    if not math.isfinite(a.theta_db):
                        raise ValueError(f"theta_db must be finite, got {theta}")
                    if a.theta_db in entries:
                        raise ValueError(f"repeated theta_db {theta}")
                    for name in ("alpha", "gd_samples", "gb_subcarriers"):
                        value = getattr(a, name)
                        if not (math.isfinite(value) and value >= 0):
                            raise ValueError(
                                f"{name} must be finite and non-negative, got {value}")
                    entries[a.theta_db] = a
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        return cls(entries)


def _theta_text(theta: float) -> str:
    """A table key as written: `%.6g` where that reads back exactly, else the
    shortest text that does, so a loaded table answers like the built one."""
    text = f"{theta:.6g}"
    return text if float(text) == theta else repr(theta)


def build_lookup_table(
    theta_list,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> LookupTable:
    """Optimal allocation per threshold; failures recorded, not raised."""
    thetas = list(theta_list)
    return LookupTable.from_curves(thetas, efficiency_curves(thetas, cfg, alpha_grid))


def checked_theta_list(theta_list) -> list:
    """theta_list as a list; raises ValueError unless non-empty, strictly
    ascending, and every threshold finite and above 0 dB."""
    theta_list = list(theta_list)
    if not theta_list:
        raise ValueError("theta_list must be non-empty")
    for theta in theta_list:
        if not (math.isfinite(theta) and theta > 0):
            raise ValueError(
                f"theta_list values must be finite and positive, got {theta}"
            )
    if sorted(theta_list) != theta_list:
        raise ValueError("theta_list must be sorted ascending")
    for previous, theta in zip(theta_list, theta_list[1:]):
        if theta == previous:
            raise ValueError(f"theta_list repeats {theta}")
    return theta_list


def checked_alpha_grid(alpha_grid, cfg: NumerologyConfig) -> list:
    """alpha_grid as a list; raises ValueError naming the value unless the
    grid is non-empty and every roll-off is a distinct number in [0, 1] with
    a cyclic extension shorter than the symbol."""
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("alpha_grid must be non-empty")
    for i, alpha in enumerate(alpha_grid):
        # bool is an int, and NaN fails every comparison
        number = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if not (number and 0 <= alpha <= 1):
            raise ValueError(
                f"alpha_grid values must be numbers in [0, 1], got {alpha!r}"
            )
        try:
            pulse_weights(cfg, WindowSpec.for_config(alpha, cfg).t_cp_win)
        except ValueError as exc:
            raise ValueError(f"alpha_grid value {alpha!r}: {exc}") from None
        if alpha in alpha_grid[:i]:
            raise ValueError(f"alpha_grid repeats {alpha!r}")
    return alpha_grid


def revalidate(table: LookupTable, cfg: NumerologyConfig) -> dict:
    """Re-measure each entry's suppression on the grid expected PSD.

    The search reads the closed-form LeakageModel; this path integrates the
    FFT-sampled PSD with the trapezoid instead (grid_suppression_db, one FFT
    per distinct alpha), so it checks the search rather than re-reading its
    input. Returns theta -> achieved suppression (dB) at the tabulated guard
    band, in table order.
    """
    s = cfg.subcarrier_spacing
    readings = [(a.alpha, a.gb_subcarriers * s) for a in table.entries.values()]
    return dict(zip(table.entries, grid_suppression_db(cfg, readings)))


def config_fingerprint(cfg: NumerologyConfig, alpha_grid, theta_list) -> str:
    """Content hash keying a persisted lookup table to everything it depends on."""
    payload = json.dumps(
        {
            **dataclasses.asdict(cfg),
            "alpha_grid": list(alpha_grid),
            "theta_list": list(theta_list),
            "search_version": SEARCH_VERSION,
            "oversample": OVERSAMPLE,
            "tol_subcarriers": TOL_SUBCARRIERS,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
