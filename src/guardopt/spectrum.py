# guardopt/spectrum.py
"""PSD models, adjacent-channel leakage measurement, and guard-band search.

PSDs live on a grid OVERSAMPLE times denser than the base rate, whose Nyquist
span cannot hold an adjacent victim band, with a taper of OVERSAMPLE times the
guard duration the optimizer charges. The guard search reads the expected PSD
in closed form (LeakageModel); revalidation re-measures it on the grid, and the
Welch estimate of one synthesized draw serves the psd export and the tests.

Conventions:
- The occupied band edge sits half a subcarrier spacing beyond the outermost
  occupied subcarrier center (each subcarrier owns a one-spacing-wide slot).
- Welch segments carry a Hann weighting. A rectangular segment would impose a
  Fejer-kernel leakage floor around -46 dB, swamping the suppression levels
  the guard search has to resolve.
- suppression_db is the one suppression metric: in-band mean density over
  victim-band mean density, so a threshold protects victims of any
  bandwidth. Revalidation re-checks the guard search with it, and
  LeakageModel is its closed form on the expected PSD; for equal-width
  victims it coincides with the plain integrated power ratio reported by
  measure_aci.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerology import NumerologyConfig, WindowSpec
from .waveform import occupied_bins, pulse_weights, symbol_stream


OVERSAMPLE = 4  # time-grid factor: the victim band must fit in the PSD span
SEGMENT_SYMBOLS = 32  # Welch segment length, in oversampled symbols
TOL_SUBCARRIERS = 0.01  # guard-band bisection tolerance
_BLOCK = 64  # lags per block when LeakageModel evaluates its power series


class ThetaUnreachableError(ValueError):
    """Requested suppression cannot be met within the PSD grid span, or lies
    beyond what the leakage model resolves."""


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
    ocfg, win = _oversampled(alpha, cfg)
    hop = ocfg.n_fft + ocfg.t_cp_ch + win.t_cp_win
    return -(-(SEGMENT_SYMBOLS * ocfg.n_fft - win.t_cp_win) // hop)


def _oversampled(alpha: float, cfg: NumerologyConfig):
    """The oversampled numerology and the window the spectrum models at alpha."""
    gd = WindowSpec.for_config(alpha, cfg).t_cp_win
    return cfg.oversampled(OVERSAMPLE), WindowSpec(alpha, OVERSAMPLE * gd)


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

    Runs of consecutive bins are summed by pairwise doubling: box w, the sum
    of w adjacent shifts, gives box 2w as itself plus itself shifted w steps,
    and a run adds, at its offsets, the boxes of the binary digits of its
    length. All runs share one doubling sequence (the two halves around DC
    are equally long), and every shifted add is two slice adds in place,
    with no rolled copy. No partial sum is ever subtracted, so far
    out-of-band bins keep full relative precision (a cumulative sum or FFT
    convolution is off by 1e-5 at -100 dB).
    """
    runs = np.split(bins, np.flatnonzero(np.diff(bins) != 1) + 1)
    longest = max(run.size for run in runs)
    done = [0] * len(runs)  # bins of each run already added
    out = np.zeros_like(power)
    box, width = power, 1
    while True:
        for i, run in enumerate(runs):
            if run.size & width:
                _add_rolled(out, box, (run[0] + done[i]) * step, out)
                done[i] += width
        if 2 * width > longest:
            return out
        box = _add_rolled(box, box, width * step, np.empty_like(box))
        width *= 2


def _add_rolled(a: np.ndarray, b: np.ndarray, shift: int, out: np.ndarray):
    """out = a + np.roll(b, shift) by two slice adds; out may be a, not b."""
    s = shift % b.size
    np.add(a[s:], b[:b.size - s], out=out[s:])
    np.add(a[:s], b[b.size - s:], out=out[:s])
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
    An integer n_symbols: the Welch estimate of one seeded draw. Cached, so
    revalidation computes one PSD per tabulated alpha.
    """
    ocfg, win = _oversampled(alpha, cfg)
    if n_symbols is not None:
        return estimate_psd(symbol_stream(ocfg, win, n_symbols, seed), ocfg)
    nfft = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
    half = np.abs(np.fft.rfft(pulse_weights(ocfg, win.t_cp_win), n=nfft)) ** 2
    power = np.concatenate([half, half[-2:0:-1]])  # a real pulse: |W(-f)| = |W(f)|
    return _normalized(_comb_sum(power, occupied_bins(ocfg), nfft // ocfg.n_fft), ocfg)


def suppression_db(
    psd: PsdEstimate, guard_band_hz: float, victim_obw_hz: float
) -> float:
    """Leakage suppression in dB: in-band mean density over victim mean density."""
    f_lo = psd.band_edge_hz + guard_band_hz
    victim_density = band_power(psd, f_lo, f_lo + victim_obw_hz) / victim_obw_hz
    in_band_density = psd.in_band_power / (2 * psd.band_edge_hz)
    return -_to_db(victim_density / in_band_density)


@functools.lru_cache(maxsize=8)
def _lag_kernels(ocfg: NumerologyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-lag kernels of the expected PSD on the oversampled numerology ocfg,
    for lags d = 0 .. 3 n_fft - 1 (a pulse is shorter than three symbols).

    With D(d) = sum_k exp(2j pi k d / n_fft), the Dirichlet sum over the
    occupied bins k, the PSD is sum_d r[d] Re[conj D(d) exp(j w_d f)], w_d =
    2 pi d / fs, r the pulse autocorrelation, and lags +-d paired. Averaged
    over a band, exp(j w_d f) becomes its value at the band centre times
    sinc(d * width / fs). Returned: the victim kernel, whose dot product with
    r times exp(j w_d g) is the mean density of the one-subcarrier slot at
    guard g, and the in-band kernel, whose dot product with r is the mean
    density over [-edge, edge].
    """
    n, fs = ocfg.n_fft, ocfg.sample_rate
    comb = np.zeros(n)
    comb[occupied_bins(ocfg)] = 1.0
    lags = np.arange(3 * n)
    dirichlet = np.tile(np.fft.ifft(comb) * n, 3)  # period n in d
    pair = np.where(lags > 0, 2.0, 1.0)
    edge, slot = band_edge_hz(ocfg), ocfg.subcarrier_spacing
    victim = (pair * np.conj(dirichlet) * np.sinc(lags * (slot / fs))
              * np.exp(2j * np.pi * lags * ((edge + slot / 2) / fs)))
    in_band = pair * dirichlet.real * np.sinc(lags * (2 * edge / fs))
    return victim, in_band


@dataclass(frozen=True)
class LeakageModel:
    """suppression_db of the expected PSD against a one-subcarrier victim
    slot, in closed form as a function of the guard band g, and its search.

    The victim-over-in-band density ratio is Re sum_d c_d z^d with z =
    exp(2j pi g / fs): one coefficient per pulse lag folds the slot width, the
    band edge and the in-band normaliser together. Far out the sum cancels
    to rounding noise. Each of the m terms is exact to within about m * eps
    relative (its phase, below pi * m radians, is rounded once), which
    bounds the error by m * eps * sum |c_d|; ceiling_db is the suppression of
    that bound, and readings above it are clipped to it.
    """

    alpha: float
    cfg: NumerologyConfig
    coeffs: np.ndarray  # c_d at d = _BLOCK * row + column, zero-padded
    lag_step: float     # phase of z per Hz of guard band: 2 pi / fs
    ceiling_db: float
    # guard band (Hz) -> suppression_db, shared by every search on this model
    _readings: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def for_alpha(cls, alpha: float, cfg: NumerologyConfig) -> "LeakageModel":
        ocfg, win = _oversampled(alpha, cfg)
        pulse = pulse_weights(ocfg, win.t_cp_win)
        m = pulse.size
        size = -(-(2 * m - 1) // ocfg.n_fft) * ocfg.n_fft  # fast FFT length
        r = np.fft.irfft(np.abs(np.fft.rfft(pulse, size)) ** 2, size)[:m]
        victim, in_band = _lag_kernels(ocfg)
        coeffs = r * victim[:m] / (r @ in_band[:m])
        bound = m * np.finfo(float).eps * np.abs(coeffs).sum()
        rows = -(-m // _BLOCK)
        coeffs = np.pad(coeffs, (0, rows * _BLOCK - m)).reshape(rows, _BLOCK)
        return cls(alpha, cfg, coeffs, 2 * np.pi / ocfg.sample_rate,
                   float(-_to_db(bound)))

    def suppression_db(self, guard_band_hz: float) -> float:
        """z^d = z^(_BLOCK * row) * z^column: two short exp vectors and one
        matrix-vector product, every phase computed directly."""
        phase = self.lag_step * guard_band_hz
        column = np.exp(1j * phase * np.arange(_BLOCK))
        row = np.exp(1j * (phase * _BLOCK) * np.arange(self.coeffs.shape[0]))
        ratio = (row @ (self.coeffs @ column)).real
        return min(float(-_to_db(ratio)), self.ceiling_db)

    def guard_band(self, theta: float) -> float:
        """Smallest guard band (subcarriers, fractional) achieving suppression
        >= theta.

        Bisection over the guard band up to the oversampled Nyquist frequency;
        raises ThetaUnreachableError when even the largest guard fails, or
        when theta lies above ceiling_db. Searches on one model start from the
        same endpoints and often the same first midpoints, so each distinct
        guard band is read once per model.
        """
        if theta <= 0:
            raise ValueError("theta must be positive")
        cfg, read = self.cfg, self._read
        victim = spacing = cfg.subcarrier_spacing
        gb_max = OVERSAMPLE * cfg.sample_rate / 2 - band_edge_hz(cfg) - victim
        if gb_max < 0:
            raise ThetaUnreachableError("victim band alone exceeds the PSD grid span")
        if read(0.0) >= theta:
            return 0.0
        top = read(gb_max)
        if top < theta:
            where = ("within the grid span" if top < self.ceiling_db else
                     f"above the {self.ceiling_db:.1f} dB the leakage model resolves")
            raise ThetaUnreachableError(
                f"theta={theta} dB unreachable at alpha={self.alpha} {where}"
            )
        lo, hi = 0.0, gb_max
        while (hi - lo) / spacing > TOL_SUBCARRIERS:
            mid = 0.5 * (lo + hi)
            if read(mid) >= theta:
                hi = mid
            else:
                lo = mid
        return hi / spacing

    def _read(self, guard_band_hz: float) -> float:
        if guard_band_hz not in self._readings:
            self._readings[guard_band_hz] = self.suppression_db(guard_band_hz)
        return self._readings[guard_band_hz]


def required_guard_band(alpha: float, theta: float, cfg: NumerologyConfig) -> float:
    """LeakageModel.guard_band on the model of roll-off alpha."""
    return LeakageModel.for_alpha(alpha, cfg).guard_band(theta)


def write_psd_csv(psd: PsdEstimate, path) -> None:
    """CSV trace: freq_hz, power_db."""
    values = np.column_stack((psd.freqs, psd.power_db)).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("freq_hz,power_db\n")
        fh.write("%.6f,%.6f\n" * psd.freqs.size % tuple(values))
