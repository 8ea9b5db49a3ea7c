# guardopt/numerology.py
"""Fixed waveform parameters, unit conversions, config reading, CSV writing.

Conventions:
- Durations are stored in samples internally; seconds are a presentation
  conversion only (keeps guard bookkeeping exact).
- sample_rate is always derived as n_fft * subcarrier_spacing.
- Occupied subcarriers are center-aligned around DC, DC unused, so a
  numerology holds 1 <= n_occupied <= n_fft - 1 distinct subcarriers.
- A roll-off is checked and made a taper length only by WindowSpec.for_config.
"""
from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path


def round_half_up(x: float) -> int:
    """Deterministic round-half-up (0.5 always goes up, on every platform)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class NumerologyConfig:
    """Fixed W-OFDM grid parameters (LTE-like defaults, all overridable)."""

    n_fft: int = 1024
    n_occupied: int = 600
    subcarrier_spacing: float = 15e3  # Hz
    t_cp_ch: int = 72  # channel CP, samples

    def __post_init__(self):
        if self.n_fft <= 0:
            raise ValueError(f"n_fft must be positive, got {self.n_fft}")
        if not 1 <= self.n_occupied <= self.n_fft - 1:
            raise ValueError("n_occupied must be in [1, n_fft - 1] (DC is unused), "
                             f"got {self.n_occupied}")
        # comparisons, exact for an int of any size: no float conversion overflows
        if not 0 < self.subcarrier_spacing <= sys.float_info.max:
            raise ValueError(
                f"subcarrier_spacing must be finite and positive, "
                f"got {self.subcarrier_spacing}"
            )
        if not self.n_fft <= sys.float_info.max / self.subcarrier_spacing:
            raise ValueError("n_fft * subcarrier_spacing, the sample rate, "
                             "must be a finite float")
        if self.t_cp_ch < 0 or self.t_cp_ch >= self.n_fft:
            raise ValueError(f"t_cp_ch must be in [0, n_fft), got {self.t_cp_ch}")

    @property
    def sample_rate(self) -> float:
        """Hz; derived, never stored."""
        return self.n_fft * self.subcarrier_spacing

    @property
    def obw_hz(self) -> float:
        """Occupied bandwidth in Hz."""
        return self.n_occupied * self.subcarrier_spacing

    def oversampled(self, factor: int) -> "NumerologyConfig":
        """Same physical waveform on a denser time grid (for spectral analysis).

        Subcarrier spacing and the occupied set are unchanged; FFT size and
        channel CP scale with the factor so all durations in seconds match.
        """
        if factor < 1:
            raise ValueError("oversample factor must be >= 1")
        return NumerologyConfig(
            n_fft=self.n_fft * factor,
            n_occupied=self.n_occupied,
            subcarrier_spacing=self.subcarrier_spacing,
            t_cp_ch=self.t_cp_ch * factor,
        )


def config_int(value) -> int:
    """An integer config value; 40.7, true or "40" is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def config_float(value) -> float:
    """A real config value; true or "20" is rejected, not converted, and an
    integer past the float range is a ValueError, not an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("expected a number, got an integer too large for a float") from None


def read_keys(m, readers: dict, what: str) -> dict:
    """{key: readers[key](value)} for each key of the mapping m.

    A value that is not a mapping, a key outside readers or a bad value
    raises one ValueError; a bad value's error names its key.
    """
    if not isinstance(m, dict):
        raise ValueError(f"expected a mapping of {what} keys, got {m!r}")
    unknown = ", ".join(repr(k) for k in m if k not in readers)
    if unknown:
        raise ValueError(f"unknown key {unknown} (accepted: {', '.join(readers)})")
    values = {}
    for key, value in m.items():
        try:
            values[key] = readers[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return values


def load_yaml(path):
    """Parse a YAML file; malformed YAML raises a one-line ValueError naming
    the file and, when the parser knows it, the line and column."""
    import yaml  # here, so a run that reads no YAML file never loads it
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
            raise ValueError(f"{path}{where}: malformed YAML: {problem}") from None


def write_csv(path, header: str, lines) -> None:
    """Write the header line, then the lines (each ending in a newline), to
    path whole or not at all: into .<name>.<pid>.tmp beside it, outside every
    *.csv glob, then os.replace. On any failure the temporary file goes."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def check_extension(cfg: NumerologyConfig, ramp_len: int) -> None:
    """ValueError unless channel CP plus one ramp is shorter than the symbol."""
    if ramp_len + cfg.t_cp_ch >= cfg.n_fft:
        raise ValueError("cyclic extension exceeds symbol length")


@dataclass(frozen=True)
class WindowSpec:
    """A windowing taper: the raised-cosine ramp length on each symbol edge."""

    t_cp_win: int  # samples

    def __post_init__(self):
        if self.t_cp_win < 0:
            raise ValueError("t_cp_win must be non-negative")

    @classmethod
    def for_config(cls, alpha, cfg: NumerologyConfig) -> "WindowSpec":
        """Taper round_half_up(alpha * (n_fft + t_cp_ch)), after the one check
        of a roll-off: ValueError unless alpha is a real number (not a bool)
        in [0, 1] and its cyclic extension is shorter than the symbol."""
        # bool is an int, and NaN fails every comparison
        number = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if not (number and 0 <= alpha <= 1):
            raise ValueError("alpha must be a number in [0, 1]")
        t_cp_win = round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch))
        check_extension(cfg, t_cp_win)
        return cls(t_cp_win)
