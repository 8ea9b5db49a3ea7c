# guardopt/spectrum.py
"""PSD models, adjacent-channel leakage measurement, and guard-band search.

PSDs live on an oversampled grid (the base-rate Nyquist span cannot contain
an adjacent victim band for dense numerologies). The guard search runs on the
closed-form expected PSD; the Welch estimate of one synthesized draw serves
the psd export and the tests. Leakage is integrated over the victim band.

Conventions:
- The occupied band edge sits half a subcarrier spacing beyond the outermost
  occupied subcarrier center (each subcarrier owns a one-spacing-wide slot).
- Welch segments carry a Hann weighting. A rectangular segment would impose a
  Fejer-kernel leakage floor around -46 dB, swamping the suppression levels
  the guard search has to resolve.
- suppression_db is the one suppression metric: in-band mean density over
  victim-band mean density, so a threshold protects victims of any
  bandwidth. The guard search bisects it and revalidation re-checks it; for
  equal-width victims it coincides with the plain integrated power ratio
  reported by measure_aci.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerology import NumerologyConfig, WindowSpec
from .waveform import occupied_bins, pulse_weights, symbol_stream


OVERSAMPLE = 4  # time-grid factor: the victim band must fit in the PSD span
SEGMENT_SYMBOLS = 32  # Welch segment length, in oversampled symbols
TOL_SUBCARRIERS = 0.01  # guard-band bisection tolerance


class ThetaUnreachableError(ValueError):
    """Requested suppression cannot be met within the PSD grid span."""


@dataclass(frozen=True)
class PsdEstimate:
    freqs: np.ndarray    # Hz, ascending, uniform; one shared array per grid
    power: np.ndarray    # linear, mean over the occupied band = 1
    band_edge_hz: float  # upper edge of the occupied band

    def __post_init__(self):
        # read-only: a grid is shared between estimates, and estimates are cached
        self.freqs.flags.writeable = False
        self.power.flags.writeable = False

    @property
    def resolution(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    @property
    def power_db(self) -> np.ndarray:
        """Relative power in dB (occupied-band mean = 0 dB), derived on demand."""
        return _to_db(self.power)

    @functools.cached_property
    def in_band_power(self) -> float:
        """Power over the occupied band: the reference every leakage is scored
        against, integrated once per estimate."""
        return band_power(self, -self.band_edge_hz, self.band_edge_hz)

    def linear(self) -> np.ndarray:
        return self.power


@dataclass(frozen=True)
class AciReport:
    leak_power_db: float     # victim-band power relative to aggressor in-band
    achieved_sir_db: float   # -(leak_power_db) - po


def estimate_psd(stream: np.ndarray, cfg: NumerologyConfig) -> PsdEstimate:
    """Averaged periodogram: Hann segments, 50% overlap, 4x zero-padded FFT.

    Segments are SEGMENT_SYMBOLS * n_fft samples long and hop by half of
    that; every segment that fits in the stream is averaged, and the stream
    must hold at least one. Normalized so the mean level over the occupied
    band is exactly 0 dB.
    """
    seg_len = SEGMENT_SYMBOLS * cfg.n_fft
    if stream.size < seg_len:
        raise ValueError(f"stream too short: {stream.size} < {seg_len}")
    hop = seg_len // 2
    n_segments = (stream.size - seg_len) // hop + 1
    nfft = 4 * seg_len
    window = np.hanning(seg_len)
    acc = np.zeros(nfft)
    for i in range(n_segments):
        seg = stream[i * hop:i * hop + seg_len]
        spec = np.fft.fft(seg * window, n=nfft)
        acc += np.abs(spec) ** 2
    return _normalized(acc / n_segments, cfg)


def least_welch_symbols(alpha: float, cfg: NumerologyConfig) -> int:
    """Fewest symbols whose windowed stream at alpha fills one Welch segment:
    n symbols span n * (n_fft + t_cp_ch + ramp) + ramp oversampled samples."""
    ocfg = cfg.oversampled(OVERSAMPLE)
    ramp = WindowSpec.for_config(alpha, ocfg).t_cp_win
    hop = ocfg.n_fft + ocfg.t_cp_ch + ramp
    return -(-(SEGMENT_SYMBOLS * ocfg.n_fft - ramp) // hop)


def _to_db(power):
    """10 log10 of a power ratio; the floor keeps deep nulls and all-zero
    bands finite and lies well below any physical level here."""
    return 10.0 * np.log10(np.maximum(power, 1e-300))


@functools.lru_cache(maxsize=8)
def _frequency_grid(size: int, sample_rate: float) -> np.ndarray:
    """Ascending FFT bin frequencies in Hz, one array per grid."""
    return np.fft.fftshift(np.fft.fftfreq(size, d=1.0 / sample_rate))


def _normalized(power: np.ndarray, cfg: NumerologyConfig) -> PsdEstimate:
    """FFT-ordered power -> PsdEstimate, mean over the occupied band = 1."""
    psd = np.fft.fftshift(power)
    freqs = _frequency_grid(psd.size, cfg.sample_rate)
    edge = band_edge_hz(cfg)
    psd /= psd[np.abs(freqs) <= edge].mean()
    return PsdEstimate(freqs=freqs, power=psd, band_edge_hz=edge)


def _comb_sum(power: np.ndarray, bins: np.ndarray, step: int) -> np.ndarray:
    """Sum of np.roll(power, k * step) over the subcarrier bins k.

    Runs of consecutive bins are summed by pairwise doubling: no partial sum
    is ever subtracted, so far out-of-band bins keep full relative precision
    (a cumulative sum or FFT convolution is off by 1e-5 at -100 dB).
    """
    out = np.zeros_like(power)
    for run in np.split(bins, np.flatnonzero(np.diff(bins) != 1) + 1):
        box, width, done = power, 1, 0  # box = sum of `width` adjacent shifts
        while done < run.size:
            if run.size & width:
                out += np.roll(box, (run[0] + done) * step)
                done += width
            box, width = box + np.roll(box, width * step), 2 * width
    return out


def band_edge_hz(cfg: NumerologyConfig) -> float:
    """Upper occupied-band edge: outermost subcarrier center + half a slot."""
    half_hi = cfg.n_occupied - cfg.n_occupied // 2
    return (half_hi + 0.5) * cfg.subcarrier_spacing


def band_power(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """Trapezoidal power of the linear PSD over [f_lo, f_hi] Hz.

    Only the bins the band touches are integrated; a partially covered bin
    contributes its trapezoid area in proportion to the covered width.
    """
    freqs = psd.freqs
    if f_lo < freqs[0] or f_hi > freqs[-1]:
        raise ValueError(
            f"band [{f_lo:.3e}, {f_hi:.3e}] Hz exceeds PSD grid coverage"
        )
    lo = int(np.searchsorted(freqs, f_lo, side="right")) - 1
    hi = int(np.searchsorted(freqs, f_hi, side="left")) + 1
    p = psd.power[lo:hi]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * psd.resolution)])
    a, b = np.interp([f_lo, f_hi], freqs[lo:hi], cum)
    return float(b - a)


def measure_aci(
    aggressor_psd: PsdEstimate,
    guard_band: float,
    victim_obw: float,
    po: float,
) -> AciReport:
    """Integrate aggressor leakage over an adjacent victim band.

    The victim occupies [edge + guard_band, edge + guard_band + victim_obw]
    where edge is the aggressor's upper occupied-band edge; guard_band and
    victim_obw are in Hz, po in dB (positive = aggressor hotter).
    """
    if guard_band < 0:
        raise ValueError("guard_band must be non-negative")
    edge = aggressor_psd.band_edge_hz
    victim = band_power(
        aggressor_psd, edge + guard_band, edge + guard_band + victim_obw
    )
    leak_db = _to_db(victim / aggressor_psd.in_band_power)
    return AciReport(leak_power_db=leak_db, achieved_sir_db=-leak_db - po)


@functools.lru_cache(maxsize=256)
def windowed_psd(
    alpha: float, cfg: NumerologyConfig, n_symbols: int | None = None, seed: int = 0
) -> PsdEstimate:
    """PSD of the windowed random-QPSK stream on the oversampled Welch grid.

    n_symbols=None: the expected PSD of i.i.d. zero-mean symbols (seed unused),
    sum_k |W(f - f_k)|^2 over the occupied subcarriers f_k, W the spectrum of
    the per-symbol weight pulse (van Waterschoot et al., IEEE SPL 17(4), 2010).
    An integer n_symbols: the Welch estimate of one seeded draw. Cached so the
    guard search computes one PSD per alpha.
    """
    ocfg = cfg.oversampled(OVERSAMPLE)
    win = WindowSpec.for_config(alpha, ocfg)
    if n_symbols is None:
        nfft = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
        power = np.abs(np.fft.fft(pulse_weights(ocfg, win.t_cp_win), n=nfft)) ** 2
        return _normalized(
            _comb_sum(power, occupied_bins(ocfg), nfft // ocfg.n_fft), ocfg
        )
    return estimate_psd(symbol_stream(ocfg, win, n_symbols, seed), ocfg)


def suppression_db(
    psd: PsdEstimate, guard_band_hz: float, victim_obw_hz: float
) -> float:
    """Leakage suppression in dB: in-band mean density over victim mean density."""
    f_lo = psd.band_edge_hz + guard_band_hz
    victim_density = band_power(psd, f_lo, f_lo + victim_obw_hz) / victim_obw_hz
    in_band_density = psd.in_band_power / (2 * psd.band_edge_hz)
    return -_to_db(victim_density / in_band_density)


def required_guard_band(alpha: float, theta: float, cfg: NumerologyConfig) -> float:
    """Smallest guard band (subcarriers, fractional) achieving suppression >= theta.

    Suppression is suppression_db against a worst-case one-subcarrier victim
    slot. Bisection over guard band on the expected PSD; raises
    ThetaUnreachableError when even the largest guard fitting the grid fails.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    psd = windowed_psd(alpha, cfg)
    victim = spacing = cfg.subcarrier_spacing
    gb_max = psd.freqs[-1] - psd.band_edge_hz - victim
    if gb_max < 0:
        raise ThetaUnreachableError("victim band alone exceeds the PSD grid span")
    if suppression_db(psd, 0.0, victim) >= theta:
        return 0.0
    if suppression_db(psd, gb_max, victim) < theta:
        raise ThetaUnreachableError(
            f"theta={theta} dB unreachable at alpha={alpha} within the grid span"
        )
    lo, hi = 0.0, gb_max
    while (hi - lo) / spacing > TOL_SUBCARRIERS:
        mid = 0.5 * (lo + hi)
        if suppression_db(psd, mid, victim) >= theta:
            hi = mid
        else:
            lo = mid
    return hi / spacing


def write_psd_csv(psd: PsdEstimate, path) -> None:
    """CSV trace: freq_hz, power_db."""
    values = np.column_stack((psd.freqs, psd.power_db)).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("freq_hz,power_db\n")
        fh.write("%.6f,%.6f\n" * psd.freqs.size % tuple(values))
