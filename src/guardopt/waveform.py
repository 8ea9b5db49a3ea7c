# guardopt/waveform.py
"""RC-windowed OFDM symbol synthesis.

Pipeline per symbol: IFFT -> cyclic extension on both edges -> raised-cosine
window -> overlap-add of adjacent-symbol transitions.

Taper sampling: the rising ramp is g[n] = 1/2 - 1/2*cos(pi*n/L) for
n = 0..L-1 (starts at exactly 0) and the falling ramp is its complement
1/2 + 1/2*cos(pi*n/L) (starts at exactly 1), so an overlapped ramp-down plus
ramp-up sums to 1 at every aligned offset. The channel CP and the symbol body
always carry unit weight; only the extra extension samples are tapered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerology import NumerologyConfig, WindowSpec, round_half_up

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


@dataclass(frozen=True)
class OfdmSymbol:
    data: np.ndarray  # time-domain samples, length n_fft


@dataclass(frozen=True)
class WindowedSymbol:
    samples: np.ndarray  # length n_fft + t_cp_ch + 2 * ramp_len
    ramp_len: int


def rising_taper(length: int) -> np.ndarray:
    """RC ramp-up weights, 0 at index 0, approaching 1."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(np.pi * n / length) if length else np.ones(0)


def falling_taper(length: int) -> np.ndarray:
    """RC ramp-down weights, complement of rising_taper (pointwise sum = 1)."""
    return 1.0 - rising_taper(length)


def rc_window(alpha: float, n_total: int) -> np.ndarray:
    """Raised-cosine window: ramp-up, unit plateau, ramp-down.

    Taper length L = round(alpha * n_total); output length is n_total + L
    (the two tapers of length L flank a plateau of n_total - L ones).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    taper = round_half_up(alpha * n_total)
    return np.concatenate(
        [rising_taper(taper), np.ones(n_total - taper), falling_taper(taper)]
    )


def occupied_bins(cfg: NumerologyConfig) -> np.ndarray:
    """FFT bin indices of the occupied subcarriers (center-aligned, DC unused)."""
    half_lo = cfg.n_occupied // 2
    half_hi = cfg.n_occupied - half_lo
    k = np.concatenate([np.arange(-half_lo, 0), np.arange(1, half_hi + 1)])
    return k % cfg.n_fft


def modulate_symbol(payload: np.ndarray, cfg: NumerologyConfig) -> OfdmSymbol:
    """Map constellation points onto the occupied subcarriers and IFFT.

    Scaled so the ensemble-average time-domain power is 1 for a unit-power
    constellation.
    """
    payload = np.asarray(payload, dtype=complex)
    if payload.shape != (cfg.n_occupied,):
        raise ValueError(
            f"payload length {payload.size} != n_occupied {cfg.n_occupied}"
        )
    grid = np.zeros(cfg.n_fft, dtype=complex)
    grid[occupied_bins(cfg)] = payload
    # np.fft.ifft carries 1/N; undo it and normalize by sqrt(#occupied tones)
    data = np.fft.ifft(grid) * (cfg.n_fft / np.sqrt(cfg.n_occupied))
    return OfdmSymbol(data=data)


def extend_and_window(
    sym: OfdmSymbol, cfg: NumerologyConfig, win: WindowSpec
) -> WindowedSymbol:
    """Cyclic-extend a symbol on both edges and apply the RC window.

    Layout: [CP of t_cp_ch + t_cp_win | body | suffix of t_cp_win]. Only the
    first and last t_cp_win samples are tapered; the channel CP stays at unit
    weight.
    """
    L = win.t_cp_win
    weights = pulse_weights(cfg, L)
    body = sym.data
    prefix = body[cfg.n_fft - cfg.t_cp_ch - L:]
    suffix = body[:L]
    ext = np.concatenate([prefix, body, suffix])
    return WindowedSymbol(samples=ext * weights, ramp_len=L)


def pulse_weights(cfg: NumerologyConfig, ramp_len: int) -> np.ndarray:
    """Per-symbol weights: RC ramps of ramp_len around a unit CP and body.
    The synthesis and the expected PSD both run check_extension here."""
    check_extension(cfg, ramp_len)
    return np.concatenate(
        [rising_taper(ramp_len), np.ones(cfg.t_cp_ch + cfg.n_fft),
         falling_taper(ramp_len)]
    )


def check_extension(cfg: NumerologyConfig, ramp_len: int) -> None:
    """ValueError unless channel CP plus one ramp is shorter than the symbol."""
    if ramp_len + cfg.t_cp_ch >= cfg.n_fft:
        raise ValueError("cyclic extension exceeds symbol length")


def overlap_add(symbols) -> np.ndarray:
    """Concatenate windowed symbols, overlapping ramps of adjacent symbols.

    Net advance per symbol is n_fft + t_cp_ch + t_cp_win samples; the trailing
    ramp of the last symbol extends the stream by one extra ramp_len.
    """
    symbols = list(symbols)
    if not symbols:
        return np.zeros(0, dtype=complex)
    L = symbols[0].ramp_len
    if any(s.ramp_len != L for s in symbols):
        raise ValueError("all symbols must share the same ramp length")
    hop = symbols[0].samples.size - L
    out = np.zeros(hop * len(symbols) + L, dtype=complex)
    pos = 0
    for s in symbols:
        out[pos:pos + s.samples.size] += s.samples
        pos += hop
    return out


def random_qpsk_payloads(
    n_symbols: int, cfg: NumerologyConfig, rng: np.random.Generator
) -> np.ndarray:
    """[n_symbols, n_occupied] unit-power QPSK points (PCG64-seeded rng)."""
    return QPSK[rng.integers(0, 4, size=(n_symbols, cfg.n_occupied))]


def symbol_stream(
    cfg: NumerologyConfig, win: WindowSpec, n_symbols: int, seed: int
) -> np.ndarray:
    """Seed-reproducible stream of windowed random-QPSK symbols."""
    rng = np.random.default_rng(seed)
    payloads = random_qpsk_payloads(n_symbols, cfg, rng)
    windowed = [
        extend_and_window(modulate_symbol(p, cfg), cfg, win) for p in payloads
    ]
    return overlap_add(windowed)
