# guardopt/numerology.py
"""Fixed waveform parameters, unit conversions and config-file reading.

Conventions:
- Durations are stored in samples internally; seconds are a presentation
  conversion only (keeps guard bookkeeping exact).
- sample_rate is always derived as n_fft * subcarrier_spacing.
- Occupied subcarriers are center-aligned around DC, DC unused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import yaml


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
            raise ValueError("n_fft must be positive")
        if self.n_occupied <= 0 or self.n_occupied > self.n_fft:
            raise ValueError("n_occupied must be in [1, n_fft]")
        if not (math.isfinite(self.subcarrier_spacing) and self.subcarrier_spacing > 0):
            raise ValueError(
                f"subcarrier_spacing must be finite and positive, "
                f"got {self.subcarrier_spacing}"
            )
        if self.t_cp_ch < 0 or self.t_cp_ch >= self.n_fft:
            raise ValueError("t_cp_ch must be in [0, n_fft)")

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

    @classmethod
    def from_mapping(cls, m) -> "NumerologyConfig":
        """Build from the config-file keys of NUMEROLOGY_KEYS; missing keys
        fall back to defaults, and any other key is rejected."""
        readers = {key: convert for key, (_, convert) in NUMEROLOGY_KEYS.items()}
        values = read_keys(m, readers, "numerology")
        return cls(**{NUMEROLOGY_KEYS[key][0]: v for key, v in values.items()})


def config_int(value) -> int:
    """An integer config value; 40.7, true or "40" is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def config_float(value) -> float:
    """A real config value; true or "20" is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


# config-file key -> (NumerologyConfig field, converter)
NUMEROLOGY_KEYS = {
    "n_fft": ("n_fft", config_int),
    "n_occupied": ("n_occupied", config_int),
    "subcarrier_spacing_hz": ("subcarrier_spacing", config_float),
    "t_cp_ch_samples": ("t_cp_ch", config_int),
}


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
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
            raise ValueError(f"{path}{where}: malformed YAML: {problem}") from None


@dataclass(frozen=True)
class WindowSpec:
    """Roll-off factor and the windowing guard duration it implies."""

    alpha: float
    t_cp_win: int  # samples

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.t_cp_win < 0:
            raise ValueError("t_cp_win must be non-negative")
        if self.alpha == 0.0 and self.t_cp_win != 0:
            raise ValueError("alpha = 0 implies t_cp_win = 0")

    @classmethod
    def for_config(cls, alpha: float, cfg: NumerologyConfig) -> "WindowSpec":
        """Taper length = round(alpha * (n_fft + t_cp_ch)), round-half-up."""
        return cls(alpha=alpha, t_cp_win=round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch)))
