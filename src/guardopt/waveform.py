# guardopt/waveform.py
"""RC-windowed OFDM stream synthesis.

One batched pass over all symbols: IFFT -> cyclic extension on both edges ->
raised-cosine weights -> overlap-add of adjacent-symbol transitions.

Taper sampling: the rising ramp is g[n] = 1/2 - 1/2*cos(pi*n/L) for
n = 0..L-1 (starts at exactly 0) and the falling ramp is its complement
1/2 + 1/2*cos(pi*n/L) (starts at exactly 1), so an overlapped ramp-down plus
ramp-up sums to 1 at every aligned offset. The channel CP and the symbol body
always carry unit weight; only the extra extension samples are tapered.
"""
from __future__ import annotations

import numpy as np

from .numerology import NumerologyConfig, WindowSpec, check_extension

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


def rising_taper(length: int) -> np.ndarray:
    """RC ramp-up weights, 0 at index 0, approaching 1."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(np.pi * n / length) if length else np.ones(0)


def occupied_bins(cfg: NumerologyConfig) -> np.ndarray:
    """FFT bin indices of the occupied subcarriers (center-aligned, DC unused)."""
    half_lo = cfg.n_occupied // 2
    half_hi = cfg.n_occupied - half_lo
    k = np.concatenate([np.arange(-half_lo, 0), np.arange(1, half_hi + 1)])
    return k % cfg.n_fft


def pulse_weights(cfg: NumerologyConfig, ramp_len: int) -> np.ndarray:
    """Per-symbol weights: RC ramps of ramp_len around a unit CP and body.
    The synthesis and the expected PSD both run check_extension here."""
    check_extension(cfg, ramp_len)
    rise = rising_taper(ramp_len)
    return np.concatenate([rise, np.ones(cfg.t_cp_ch + cfg.n_fft), 1.0 - rise])


def random_qpsk_payloads(
    n_symbols: int, cfg: NumerologyConfig, rng: np.random.Generator
) -> np.ndarray:
    """[n_symbols, n_occupied] unit-power QPSK points (PCG64-seeded rng)."""
    return QPSK[rng.integers(0, 4, size=(n_symbols, cfg.n_occupied))]


def symbol_stream(
    cfg: NumerologyConfig, win: WindowSpec, n_symbols: int, seed: int
) -> np.ndarray:
    """Seed-reproducible stream of windowed random-QPSK symbols.

    Each pulse is [CP of t_cp_ch + L | body | suffix of L] times
    pulse_weights, L = win.t_cp_win; pulse k starts at k * hop with
    hop = n_fft + t_cp_ch + L, so its last L samples add onto the first L of
    pulse k + 1. Row k of a (n_symbols + 1) x hop buffer holds hop k of the
    stream, which is n_symbols * hop + L samples long, or empty for no
    symbols.
    """
    L = win.t_cp_win
    weights = pulse_weights(cfg, L)
    body = np.zeros((n_symbols, cfg.n_fft), dtype=complex)
    body[:, occupied_bins(cfg)] = random_qpsk_payloads(
        n_symbols, cfg, np.random.default_rng(seed)
    )
    # np.fft.ifft carries 1/N; undo it and normalize by sqrt(#occupied tones),
    # so a unit-power constellation gives unit average time-domain power
    body = np.fft.ifft(body, axis=1)
    body *= cfg.n_fft / np.sqrt(cfg.n_occupied)
    n, head = cfg.n_fft, cfg.t_cp_ch + L
    hop = n + head
    rows = np.zeros((n_symbols + 1, hop), dtype=complex)
    rows[:-1, :head] += body[:, n - head:] * weights[:head]  # ramp-up and CP
    rows[:-1, head:] += body  # unit weight
    rows[1:, :L] += body[:, :L] * weights[hop:]  # ramp-down, onto the next CP
    return rows.ravel()[:n_symbols * hop + L if n_symbols else 0]
