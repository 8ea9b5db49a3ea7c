# guardopt/spectrum.py
"""PSD models, adjacent-channel leakage measurement, and guard-band search.

PSDs live on a grid OVERSAMPLE times denser than the base rate, whose Nyquist
span cannot hold an adjacent victim band, with a taper of OVERSAMPLE times the
guard duration the optimizer charges. The guard search reads the expected PSD
in closed form (LeakageModel); revalidation re-reads it on the grid, over only
the two bands it integrates (grid_suppression_db), so no full expected-PSD
grid is ever built. The Welch estimate of one synthesized draw (windowed_psd)
serves the psd export.

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
# n windowed symbols span at least n * n_fft oversampled samples, so any
# n >= SEGMENT_SYMBOLS fills a Welch segment at every valid alpha and numerology
PSD_SYMBOLS = 128  # symbols in the psd export's one Welch draw
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


def band_edge_hz(cfg: NumerologyConfig) -> float:
    """Upper occupied-band edge: outermost subcarrier center + half a slot."""
    half_hi = cfg.n_occupied - cfg.n_occupied // 2
    return (half_hi + 0.5) * cfg.subcarrier_spacing


def _trapezoid(freqs: np.ndarray, f_lo: float, f_hi: float):
    """(lo, w): the trapezoidal power over [f_lo, f_hi] Hz of a PSD p on the
    ascending uniform grid freqs is w @ p[lo:lo + w.size].

    Only the bins the band touches get weight; a partially covered bin
    interval contributes its trapezoid area in proportion to the covered width.
    """
    if f_lo < freqs[0] or f_hi > freqs[-1]:
        raise ValueError(
            f"band [{f_lo:.3e}, {f_hi:.3e}] Hz exceeds PSD grid coverage"
        )
    lo = int(np.searchsorted(freqs, f_lo, side="right")) - 1
    hi = int(np.searchsorted(freqs, f_hi, side="left")) + 1
    x = freqs[lo:hi]
    share = np.ones(x.size - 1)  # covered share of each bin interval
    if share.size:
        share[0] -= (f_lo - x[0]) / (x[1] - x[0])
        share[-1] -= (x[-1] - f_hi) / (x[-1] - x[-2])
    area = 0.5 * (freqs[1] - freqs[0]) * share  # per end bin of an interval
    w = np.zeros(x.size)
    w[:-1] += area
    w[1:] += area
    return lo, w


def band_power(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """Trapezoidal power of the linear PSD over [f_lo, f_hi] Hz (_trapezoid)."""
    lo, w = _trapezoid(psd.freqs, f_lo, f_hi)
    return float(w @ psd.power[lo:lo + w.size])


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


@functools.lru_cache(maxsize=1)
def windowed_psd(
    alpha: float, cfg: NumerologyConfig, n_symbols: int, seed: int = 0
) -> PsdEstimate:
    """Welch estimate of one seeded draw of n_symbols windowed random-QPSK
    symbols on the oversampled grid. The cache keeps only the last draw: no
    command repeats one, and its statistics are what perfbench reads."""
    ocfg, win = _oversampled(alpha, cfg)
    return estimate_psd(symbol_stream(ocfg, win, n_symbols, seed), ocfg)


def grid_suppression_db(cfg: NumerologyConfig, readings) -> list:
    """suppression_db of the expected PSD on the grid, against a one-subcarrier
    victim slot, for each (alpha, g) of readings, g in Hz: one FFT per
    distinct alpha, and only the two bands the metric integrates.

    The grid is the Welch one (one segment, zero-padded 4x). Unnormalised,
    the expected PSD of i.i.d. zero-mean symbols at grid bin i is S[i] =
    sum_k P[i - k step] over the occupied bins k, circularly, with P = |W|^2
    the pulse power spectrum in grid order and step the bins per subcarrier
    (van Waterschoot et al., IEEE SPL 17(4), 2010). A band's trapezoid
    sum_i w_i S[i] is thus sum_q P[q] c[q], c the band's weights folded over
    the comb; the normaliser cancels in the ratio. The victim slot is summed
    over non-negative terms only, so far-out readings keep full relative
    precision; the in-band weights are folded per residue mod step by
    cumulative sums, once for every alpha. A victim slot past the grid
    raises band_power's ValueError.
    """
    readings = list(readings)
    ocfg = cfg.oversampled(OVERSAMPLE)
    size = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
    step = size // ocfg.n_fft
    freqs = _frequency_grid(size, ocfg.sample_rate)
    edge, slot = band_edge_hz(ocfg), cfg.subcarrier_spacing
    bins = occupied_bins(ocfg)

    def rfft_bin(i):  # where P at grid bins i sits in the rfft half spectrum
        return np.abs(i % size - size // 2)

    lo, w = _trapezoid(freqs, -edge, edge)
    runs = np.split(bins, np.flatnonzero(np.diff(bins) != 1) + 1)
    rows = -(-w.size // step) + max(run.size for run in runs)
    strided = np.zeros(rows * step)
    strided[:w.size] = w
    cum = np.cumsum(strided.reshape(rows, step), axis=0).ravel()  # sum_d w[r - d step]
    in_band = np.zeros(size // 2 + 1)  # the in-band weights on the rfft bins
    for run in runs:
        # c[r] = sum_{d < run.size} w[r - d step] weighs grid bin lo - run[-1] step + r
        span = run.size * step
        c = cum[:w.size + span].copy()
        c[span:] -= cum[:w.size]
        at = rfft_bin(lo - run[-1] * step + np.arange(c.size))
        in_band += np.bincount(at, c, in_band.size)

    shifts = bins[:, None] * step
    padded, out = np.zeros(size), [0.0] * len(readings)
    for alpha in dict.fromkeys(a for a, _ in readings):
        _, win = _oversampled(alpha, cfg)
        pulse = pulse_weights(ocfg, win.t_cp_win)
        padded[:pulse.size] = pulse
        half = np.abs(np.fft.rfft(padded)) ** 2  # P at the non-negative bins
        padded[:pulse.size] = 0.0  # zeroed again for the next alpha
        reference = float(in_band @ half)
        for i, (a, guard) in enumerate(readings):
            if a == alpha:
                lo, w = _trapezoid(freqs, edge + guard, edge + guard + slot)
                terms = half[rfft_bin(lo + np.arange(w.size) - shifts)] @ w
                out[i] = _density_ratio_db(float(terms.sum()), slot, reference, edge)
    return out


def suppression_db(
    psd: PsdEstimate, guard_band_hz: float, victim_obw_hz: float
) -> float:
    """Leakage suppression in dB: in-band mean density over victim mean density."""
    f_lo = psd.band_edge_hz + guard_band_hz
    victim = band_power(psd, f_lo, f_lo + victim_obw_hz)
    return _density_ratio_db(victim, victim_obw_hz, psd.in_band_power, psd.band_edge_hz)


def _density_ratio_db(victim_power, victim_obw_hz, in_band_power, edge_hz) -> float:
    """The suppression formula of suppression_db, on integrated powers."""
    victim_density = victim_power / victim_obw_hz
    in_band_density = in_band_power / (2 * edge_hz)
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
        if not 0 < theta < np.inf:  # false for NaN too: it fails every comparison
            raise ValueError(f"theta must be finite and positive, got {theta}")
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
