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
from dataclasses import dataclass

import numpy as np

from .numerology import NumerologyConfig, WindowSpec, write_csv
from .parallel import parallel_map
from .spectrum import (
    OVERSAMPLE,
    TOL_SUBCARRIERS,
    LeakageModel,
    ThetaUnreachableError,
    grid_suppression_db,
    is_threshold,
    required_guard_band,  # noqa: F401  unused here; perfbench's tracer wraps it
    windowed_psd,  # noqa: F401  unused here; perfbench's tracer wraps it
)

DEFAULT_ALPHA_GRID = tuple(round(0.005 * i, 3) for i in range(41))  # 0 .. 0.2
DEFAULT_THETA_LIST = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
# build_lookup_table walks every COARSE_STRIDE-th alpha before the rest
COARSE_STRIDE = 4
# bump when the spectrum model or search changes a table's numbers
SEARCH_VERSION = "charged-taper-1"
GB_DECIMALS = 6  # decimals of a saved table's GB
# a threshold with no efficiency curve, formatted with its grid_text
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
    columns = parallel_map(lambda alpha: _column(alpha, thetas, cfg, {}), alphas)
    curves = {t: [col[t] for col in columns if t in col] for t in thetas}
    return {t: curve for t, curve in curves.items() if curve}


def _column(alpha, thetas, cfg: NumerologyConfig, best: dict) -> dict:
    """theta -> allocation at alpha for each of thetas it reaches, one model and
    one bisection each; one that provably cannot beat best[theta] is left out."""
    gd = WindowSpec.for_config(alpha, cfg).t_cp_win
    # eta_freq <= 1, so no allocation at alpha has an eta above eta_time
    bound = _rank(spectral_efficiency(gd, 0.0, cfg)[0], alpha)
    thetas = [t for t in thetas
              if t not in best or _rank(best[t].eta, best[t].alpha) < bound]
    if not thetas:
        return {}
    model, out = LeakageModel.for_alpha(alpha, cfg), {}
    for theta in thetas:
        stop = None
        if theta in best:
            # gb, and so any larger GB, loses: eta falls as the guard band grows
            def stop(gb, incumbent=_rank(best[theta].eta, best[theta].alpha)):
                return _rank(spectral_efficiency(gd, gb, cfg)[2], alpha) < incumbent
        with contextlib.suppress(ThetaUnreachableError):
            if (gb := model.guard_band(theta, stop)) is not None:
                eta = spectral_efficiency(gd, gb, cfg)
                out[theta] = GuardAllocation(alpha, gd, gb, *eta, theta)
    return out


def efficiency_curve(
    theta: float,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> list[GuardAllocation]:
    """One allocation per reachable alpha, in grid order."""
    curves = efficiency_curves([theta], cfg, alpha_grid)
    if theta not in curves:
        raise ThetaUnreachableError(ABSENT_THETA.format(grid_text(theta)))
    return curves[theta]


def optimize_guards(
    theta: float,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> GuardAllocation:
    """Max-eta allocation over the alpha grid; ties go to the smaller alpha."""
    return best_allocation(efficiency_curve(theta, cfg, alpha_grid))


def _rank(eta, alpha) -> tuple:  # allocations by eta, ties to the smaller alpha
    return eta, -alpha


def best_allocation(curve) -> GuardAllocation:
    """The optimum of an efficiency curve: max eta, ties to the smaller alpha."""
    return max(curve, key=lambda a: _rank(a.eta, a.alpha))


class LookupTable:
    """theta -> optimal GuardAllocation, and the thresholds absent from it."""

    def __init__(self, entries: dict[float, GuardAllocation], failures=()):
        self.entries = dict(sorted(entries.items()))
        self.failures: tuple[float, ...] = tuple(failures)
        # the entries' allocations, ascending in theta, and their thresholds
        self.allocations = list(self.entries.values())
        self._thetas = np.fromiter(self.entries, float, len(self.entries))
        # each allocation's (whole GB, GD) as the scheduler charges it: GB at
        # the GB_DECIMALS save_csv writes, so a loaded table charges what the
        # built one does, rounded up; monotone, so a boundary takes the larger
        self.levels = [(math.ceil(round(a.gb_subcarriers, GB_DECIMALS)), a.gd_samples)
                       for a in self.allocations]

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

    def ceil_index(self, thetas):
        """Index into `allocations` of the entry at the smallest table theta
        >= each request (conservative), len(allocations) above the maximum
        and for NaN; a float gives one index, an array an array of them."""
        return np.searchsorted(self._thetas, np.asarray(thetas, float) - 1e-9)

    def save_csv(self, path, cfg: NumerologyConfig) -> None:
        write_csv(path, LOOKUP_COLUMNS, (
            f"{grid_text(t)},{grid_text(a.alpha)},{a.gd_samples},"
            f"{a.gd_samples / cfg.sample_rate * 1e6:.6f},"
            f"{a.gb_subcarriers:.{GB_DECIMALS}f},"
            f"{a.gb_subcarriers * cfg.subcarrier_spacing:.6f},"
            f"{a.eta_time:.8f},{a.eta_freq:.8f},{a.eta:.8f}\n"
            for t, a in self.entries.items()
        ))

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


def grid_text(x: float) -> str:
    """A threshold or roll-off as written: `%.6g` where that reads back
    exactly, else the shortest text that does. Distinct grid values get
    distinct texts, so a loaded table answers like the built one and no
    output named or keyed by a value overwrites another's."""
    text = f"{x:.6g}"
    return text if float(text) == x else repr(float(x))


def build_lookup_table(
    theta_list,
    cfg: NumerologyConfig,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> LookupTable:
    """Optimal allocation per threshold; failures recorded, not raised.

    The table of LookupTable.from_curves over efficiency_curves, found by
    branch and bound: eta_freq <= 1, so no allocation at alpha has an eta
    above eta_time(alpha), in floating point too. The walk takes every
    COARSE_STRIDE-th alpha of the sorted grid first, then the rest in
    ascending order, so each threshold has a good incumbent before most
    bisections start. In _column, a threshold stays open at alpha only while
    _rank(eta_time(alpha), alpha) is above its best's _rank, and an alpha with
    no threshold left builds no model; a bisection stops at its bracket's
    lower end lo once _rank(eta(lo), alpha) is below its best's: the guard
    band it would return is at least lo, and eta falls as the guard band
    grows. The merge is best_allocation, max _rank, so the table does not
    depend on the order of the walk.
    """
    thetas = checked_theta_list(theta_list)
    alphas = sorted(checked_alpha_grid(alpha_grid, cfg))
    walk = alphas[::COARSE_STRIDE] + [
        a for i, a in enumerate(alphas) if i % COARSE_STRIDE]
    best: dict[float, GuardAllocation] = {}
    for alpha in walk:
        for t, a in _column(alpha, thetas, cfg, best).items():
            best[t] = best_allocation((best.get(t, a), a))
    return LookupTable(best, [t for t in thetas if t not in best])


def checked_theta_list(theta_list) -> list:
    """theta_list as a list; raises ValueError unless non-empty, strictly
    ascending, and every value passes is_threshold."""
    theta_list = list(theta_list)
    if not theta_list:
        raise ValueError("theta_list must be non-empty")
    for theta in theta_list:
        if not is_threshold(theta):
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
    """alpha_grid as a list, -0.0 read as 0.0 and every other value as given;
    ValueError unless it is non-empty and its roll-offs are distinct and pass
    WindowSpec.for_config, whose reason follows the value."""
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("alpha_grid must be non-empty")
    for i, alpha in enumerate(alpha_grid):
        try:
            WindowSpec.for_config(alpha, cfg)
        except ValueError as exc:
            raise ValueError(f"alpha_grid value {alpha!r}: {exc}") from None
        if alpha in alpha_grid[:i]:
            raise ValueError(f"alpha_grid repeats {alpha!r}")
        alpha_grid[i] = abs(alpha)  # alpha >= 0: only -0.0 changes
    return alpha_grid


def revalidate(table: LookupTable, cfg: NumerologyConfig) -> dict:
    """Re-measure each entry's suppression on the grid expected PSD.

    The search reads the closed-form LeakageModel; this path integrates the
    FFT-sampled PSD with the trapezoid instead (grid_suppression_db, one
    pulse power spectrum per distinct alpha), so it checks the search rather
    than re-reading its input. The trapezoid's error is second order in the
    bin width, so the fine and coarse readings (bin widths h and 2h)
    extrapolate to fine + (fine - coarse) / 3 (Richardson). Returns theta ->
    achieved suppression (dB) at the tabulated guard band, in table order.
    """
    s = cfg.subcarrier_spacing
    readings = [(a.alpha, a.gb_subcarriers * s) for a in table.entries.values()]
    return {theta: fine + (fine - coarse) / 3 for theta, (fine, coarse)
            in zip(table.entries, grid_suppression_db(cfg, readings))}


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
