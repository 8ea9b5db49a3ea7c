# guardopt/spectrum.py
"""PSD models, adjacent-channel leakage measurement, and guard-band search.

PSDs live on a grid OVERSAMPLE times denser than the base rate, whose Nyquist
span cannot hold an adjacent victim band, with a taper of OVERSAMPLE times the
guard duration the optimizer charges. The guard search reads the expected PSD
in closed form (LeakageModel) for victim slots up to the oversampled Nyquist
frequency; revalidation re-reads it over that span on a grid and on its
every-other-bin subgrid, periodic spectra both from one pulse power spectrum
per alpha (_pulse_power: nine FFTs of four symbols each, which a pulse
shorter than three symbols fits, padded with its mirror images past both
ends), over only the two bands it integrates, each band sum one plain slice
of it (grid_suppression_db), and extrapolates the two trapezoid readings
(Richardson), so no full expected-PSD grid and no index array is built.
The Welch estimate of one synthesized draw (windowed_psd) serves the psd
export.

Conventions:
- The occupied band edge sits half a subcarrier spacing beyond the outermost
  occupied subcarrier center (each subcarrier owns a one-spacing-wide slot).
- Welch segments carry a Hann weighting. A rectangular segment would impose a
  Fejer-kernel leakage floor around -46 dB, swamping the suppression levels
  the guard search has to resolve.
- suppression_db is the one suppression metric: in-band mean density over
  victim-band mean density, so a threshold protects victims of any
  bandwidth. Revalidation re-checks the guard search with it, and
  LeakageModel is its closed form on the expected PSD; measure_aci reports
  it converted to victim-band power over occupied-band power.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerology import NumerologyConfig, WindowSpec, write_csv
from .waveform import occupied_bins, pulse_weights, symbol_stream


OVERSAMPLE = 4  # time-grid factor: the victim band must fit in the PSD span
SEGMENT_SYMBOLS = 32  # Welch segment length, in oversampled symbols
# n windowed symbols span at least n * n_fft oversampled samples, so any
# n >= SEGMENT_SYMBOLS fills a Welch segment at every valid alpha and numerology
PSD_SYMBOLS = 128  # symbols in the psd export's one Welch draw
# revalidation's fine grid, in bins per oversampled subcarrier; divisible by 4,
# so every subcarrier slot edge is a bin of the fine grid and of its
# every-other-bin subgrid, as grid_suppression_db's slot rule needs
REVALIDATE_STEP = 64
TOL_SUBCARRIERS = 0.01  # guard-band bisection tolerance
_BLOCK = 64  # lags per block when LeakageModel evaluates its power series


class ThetaUnreachableError(ValueError):
    """Requested suppression cannot be met within the PSD grid span, or lies
    beyond what the leakage model resolves."""


def is_threshold(theta) -> bool:
    """Whether theta is a threshold: a real number (not a bool), finite and
    above 0 dB. NaN fails every comparison."""
    number = isinstance(theta, numbers.Real) and not isinstance(theta, bool)
    return number and 0 < theta < np.inf


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
    def power_db(self) -> np.ndarray:
        """Relative power in dB (occupied-band mean = 0 dB), derived on demand."""
        return _to_db(self.power)

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
    psd = np.fft.fftshift(acc / n_segments)
    freqs = _frequency_grid(psd.size, cfg.sample_rate)
    edge = band_edge_hz(cfg)
    psd /= psd[np.abs(freqs) <= edge].mean()
    return PsdEstimate(freqs=freqs, power=psd, band_edge_hz=edge)


def _oversampled(alpha: float, cfg: NumerologyConfig):
    """(ocfg, ramp): the oversampled numerology and the taper modelled at
    alpha, OVERSAMPLE x the GD charged; WindowSpec.for_config checks alpha."""
    gd = WindowSpec.for_config(alpha, cfg).t_cp_win
    return cfg.oversampled(OVERSAMPLE), OVERSAMPLE * gd


def _to_db(power):
    """10 log10 of a power ratio, an array or one number; the floor keeps deep
    nulls and all-zero bands finite and lies well below any physical level
    here. One number takes math.log10, a tenth of np.log10's call cost."""
    if isinstance(power, np.ndarray):
        return 10.0 * np.log10(np.maximum(power, 1e-300))
    return 10.0 * math.log10(max(power, 1e-300))


@functools.lru_cache(maxsize=8)
def _frequency_grid(size: int, sample_rate: float) -> np.ndarray:
    """Ascending FFT bin frequencies in Hz, one array per grid."""
    return np.fft.fftshift(np.fft.fftfreq(size, d=1.0 / sample_rate))


def band_edge_hz(cfg: NumerologyConfig) -> float:
    """Upper occupied-band edge: outermost subcarrier center + half a slot."""
    half_hi = cfg.n_occupied - cfg.n_occupied // 2
    return (half_hi + 0.5) * cfg.subcarrier_spacing


def _trapezoid(freqs: np.ndarray, f_lo: float, f_hi: float, spacing=None):
    """(lo, w): the trapezoidal power over [f_lo, f_hi] Hz of a PSD p on the
    ascending uniform grid freqs is w @ p[lo:lo + w.size].

    Only the bins the band touches get weight; a partially covered bin
    interval contributes its trapezoid area in proportion to the covered width.
    The area scale is spacing, by default the grid's first bin interval; a
    caller passing a window of a larger grid passes that grid's.
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
    if spacing is None:
        spacing = freqs[1] - freqs[0]
    area = 0.5 * spacing * share  # per end bin of an interval
    w = np.zeros(x.size)
    w[:-1] += area
    w[1:] += area
    return lo, w


def _grid_band(size: int, sample_rate: float, f_lo: float, f_hi: float):
    """_trapezoid's (lo, w) on the size-bin DFT grid _frequency_grid(size,
    sample_rate), read as the periodic spectrum it is, with lo the band's
    first bin counted from DC: w[i] weighs bin lo + i, modulo size, and the
    band's lower edge lies within one period of the grid's lowest bin,
    [-Nyquist, +Nyquist) on an even grid. Only the bins the band touches and
    one more at each end are built, each an integer times val as
    np.fft.fftfreq computes it: the grid's floats bit for bit."""
    val = 1.0 / (size * (1.0 / sample_rate))
    first = -(size // 2)  # the integer of the grid's lowest bin
    if f_lo < first * val or f_lo >= (first + size) * val:
        raise ValueError(
            f"band [{f_lo:.3e}, {f_hi:.3e}] Hz exceeds PSD grid coverage"
        )
    k_lo = math.floor(f_lo / val) - 1
    window = np.arange(k_lo, math.ceil(f_hi / val) + 2) * val
    lo, w = _trapezoid(window, f_lo, f_hi, (first + 1) * val - first * val)
    return k_lo + lo, w


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
    """Aggressor leakage into an adjacent victim band, as victim-band power
    over occupied-band power: suppression_db converted to a power ratio.

    The victim occupies [edge + guard_band, edge + guard_band + victim_obw]
    where edge is the aggressor's upper occupied-band edge; guard_band and
    victim_obw are in Hz, po in dB (positive = aggressor hotter).
    """
    suppression = suppression_db(aggressor_psd, guard_band, victim_obw)
    leak_db = _to_db(victim_obw / (2 * aggressor_psd.band_edge_hz)) - suppression
    return AciReport(leak_power_db=leak_db, achieved_sir_db=-leak_db - po)


@functools.lru_cache(maxsize=1)
def windowed_psd(
    alpha: float, cfg: NumerologyConfig, n_symbols: int, seed: int = 0
) -> PsdEstimate:
    """Welch estimate of one seeded draw of n_symbols windowed random-QPSK
    symbols on the oversampled grid. The cache keeps only the last draw: no
    command repeats one, and its statistics are what perfbench reads."""
    ocfg, ramp = _oversampled(alpha, cfg)
    return estimate_psd(symbol_stream(ocfg, WindowSpec(ramp), n_symbols, seed), ocfg)


def grid_suppression_db(cfg: NumerologyConfig, readings) -> list:
    """(fine, coarse) suppression_db of the expected PSD on two grids, against
    a one-subcarrier victim slot, for each (alpha, g) of readings, g in Hz:
    one pulse power spectrum per distinct alpha, and only the two bands the
    metric integrates.

    The fine grid has REVALIDATE_STEP bins per oversampled subcarrier; the
    coarse grid is its every-other bin, so its spectrum is the fine one's even
    bins and both come from one _pulse_power. Unnormalised, the expected PSD
    of i.i.d. zero-mean symbols at grid bin i is S[i] = sum_k E[i - k step]
    over the occupied subcarriers k, with E = |W|^2 the pulse power spectrum,
    even and periodic, and step the bins per subcarrier (van Waterschoot et
    al., IEEE SPL 17(4), 2010). Both bands are read by one rule
    (_comb_power): a band's trapezoid weights against E shifted by an
    arithmetic run of comb offsets, each offset weighted by how often it
    occurs. The victim slot takes the offsets k step, k = -h .. h, each
    occupied subcarrier once and the rest (DC, and -h on odd n_occupied) as
    zero counts. The occupied band [-edge, edge] is the 2 h + 1
    one-subcarrier slots j = -h .. h, whose edges fall on bins of both grids
    (REVALIDATE_STEP is divisible by 4), so its weights are slot 0's shifted
    to each slot, and its power is slot 0's read d subcarriers up, d = 0 ..
    2 h, each as often as a (slot j, subcarrier k) pair lies d subcarriers
    apart (slot 0 and E are even).
    Every term is non-negative, so far-out readings keep full relative
    precision; the normaliser cancels in the ratio. Both grids are periodic
    in frequency (_grid_band): a victim slot starting below the oversampled
    Nyquist frequency, as all the guard search reads do, wraps past a grid's
    top; one starting at or past it raises band_power's ValueError text.

    Memory: each band's weights come from only the bins it touches
    (_grid_band), so no full frequency grid is built; E comes from short
    FFTs (_pulse_power) and is the only array of the fine grid's size; a
    band sum reads it as one slice, with no copy and no index array, from
    one subcarrier below DC (the occupied band) to h + 2 past Nyquist (a
    victim slot starting just below it).
    """
    readings = list(readings)
    ocfg = cfg.oversampled(OVERSAMPLE)
    size = REVALIDATE_STEP * ocfg.n_fft
    edge, slot = band_edge_hz(ocfg), cfg.subcarrier_spacing
    h = ocfg.n_occupied - ocfg.n_occupied // 2  # the band's slots are -h .. h
    comb = np.zeros(ocfg.n_fft)
    comb[occupied_bins(ocfg)] = 1.0
    comb = np.roll(comb, h)[:2 * h + 1]  # comb[h + k]: subcarrier k occupied
    # pairs[2 h + e]: the pairs with k - j = e (the slots are symmetric, so a
    # convolution counts them), then folded onto |e|
    pairs = np.convolve(np.ones(2 * h + 1), comb)
    pairs[2 * h + 1:] += pairs[2 * h - 1::-1]
    grids = [(n, n // ocfg.n_fft, _grid_band(n, ocfg.sample_rate, -slot / 2, slot / 2))
             for n in (size, size // 2)]
    out = [[] for _ in readings]
    for alpha in dict.fromkeys(a for a, _ in readings):
        pulse = pulse_weights(ocfg, _oversampled(alpha, cfg)[1])
        fine = _pulse_power(pulse, size, (h + 2) * REVALIDATE_STEP)
        for (n, step, slot0), power in zip(grids, (fine, fine[::2])):
            reference = _comb_power(power, slot0, -2 * h * step,
                                    pairs[2 * h:][::-1], step)
            for i, (a, guard) in enumerate(readings):
                if a == alpha:
                    victim = _grid_band(n, ocfg.sample_rate, edge + guard,
                                        edge + guard + slot)
                    out[i].append(_density_ratio_db(
                        _comb_power(power, victim, -h * step, comb, step),
                        slot, reference, edge))
        del fine, power  # freed before the next alpha's E is built
    return [tuple(pair) for pair in out]


def _pulse_power(pulse, size: int, tail: int) -> np.ndarray:
    """E = |DFT(pulse)|^2 on the size-bin grid, size = REVALIDATE_STEP * n_fft
    on the oversampled numerology, at bins -REVALIDATE_STEP .. size / 2 +
    tail (tail <= size / 2): P = |np.fft.rfft(pulse, size)|^2, bins 0 ..
    size / 2, with its mirror images copied below bin 0 and past Nyquist,
    where the spectrum of a real pulse is even and periodic.

    P comes from rows / 2 + 1 FFTs of n = size / rows points, rows =
    REVALIDATE_STEP / 4: n is 4 n_fft, and a pulse is shorter than three
    symbols, so it fits in n. Bin r + rows q of the zero-padded DFT is bin q
    of the n-point DFT of pulse * exp(-2j pi r t / size), row r. The pulse
    is real, so row r also gives residue rows - r, read reversed from bin
    n - 1; rows 0 .. rows / 2 give every residue. Each row is the one before
    times the one twiddle of the call; its power goes into one contiguous
    buffer, whose two halves are copied into P's strided slices.
    """
    rows = REVALIDATE_STEP // 4
    n = size // rows
    out = np.empty(REVALIDATE_STEP + size // 2 + 1 + tail)
    half = out[REVALIDATE_STEP:REVALIDATE_STEP + size // 2 + 1]  # P
    twiddle = np.exp(np.arange(pulse.size) * (-2j * np.pi / size))
    row = pulse.astype(complex)
    power = np.empty(n)
    for r in range(rows // 2 + 1):
        if r:
            row *= twiddle
        np.abs(np.fft.fft(row, n), out=power)
        power *= power
        # row 0 holds residue 0, whose last bin is size // 2
        half[r::rows] = power[:n // 2 + (r == 0)]
        if 0 < r < rows // 2:
            half[rows - r::rows] = power[:n // 2 - 1:-1]
    out[:REVALIDATE_STEP] = half[REVALIDATE_STEP:0:-1]
    out[REVALIDATE_STEP + size // 2 + 1:] = half[-2:-2 - tail:-1]
    return out


def _comb_power(power, band, first: int, counts, step: int) -> float:
    """sum_o counts[o] sum_i w[i] E[lo + i - first - o step]: the trapezoid
    power of band = (lo, w), lo its first bin from DC, of counts[o] copies
    of E shifted first + o step bins, with power E on a grid of step bins
    per subcarrier as _pulse_power lays it out, power[0] at bin -step.

    Each shift's read starts step bins below the one before, so the (shifts
    x bins) read is one slice of E, cut into rows of step bins from the last
    shift's first bin up; the weights, cut into step-long parts, meet rows
    q .. q + rows - 1 of it with part q."""
    lo, w = band
    rows, parts = counts.size, -(-w.size // step)
    weights = np.zeros(parts * step)
    weights[:w.size] = w
    start = step + lo - first - (rows - 1) * step
    run = power[start:start + (rows + parts - 1) * step].reshape(-1, step)
    terms = sum(run[q:q + rows] @ part
                for q, part in enumerate(weights.reshape(parts, step)))
    return float(counts[::-1] @ terms)


def suppression_db(
    psd: PsdEstimate, guard_band_hz: float, victim_obw_hz: float
) -> float:
    """Leakage suppression in dB: in-band mean density over the mean density
    of a victim band victim_obw_hz > 0 wide, guard_band_hz >= 0 past the edge."""
    if not guard_band_hz >= 0:
        raise ValueError("guard_band must be non-negative")
    if not victim_obw_hz > 0:
        raise ValueError("victim_obw must be positive")
    edge = psd.band_edge_hz
    f_lo = edge + guard_band_hz
    victim = band_power(psd, f_lo, f_lo + victim_obw_hz)
    return _density_ratio_db(victim, victim_obw_hz, band_power(psd, -edge, edge), edge)


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


def _autocorrelation(pulse: np.ndarray, ramp: int) -> np.ndarray:
    """r[d] = sum_t p[t] p[t + d] for d = 0 .. m - 1, of a pulse p of m
    samples that is 1 but on its two ramps of ramp samples each.

    With e = 1 - p, nonzero only on the ramps, r[d] = (m - d) -
    sum_{t < m - d} e[t] - sum_{t >= d} e[t] + sum_t e[t] e[t + d]. The two
    middle sums are prefix sums of e; the last is each ramp's autocorrelation
    (lags below ramp) plus the two ramps' cross-correlation (lags m - ramp
    +- (ramp - 1)), from FFTs of the next power of two above 2 ramp - 1
    samples. Without a ramp, no FFT runs and r = m - d exactly.
    """
    m = pulse.size
    head, tail = 1.0 - pulse[:ramp], 1.0 - pulse[m - ramp:]  # e on the ramps
    cum = np.empty(m + 1)  # cum[k] = sum_{t < k} e[t]
    cum[0] = 0.0
    np.cumsum(head, out=cum[1:ramp + 1])
    cum[ramp + 1:] = cum[ramp]
    cum[m - ramp + 1:] += np.cumsum(tail)
    r = np.arange(m, 0, -1.0) - cum[:0:-1] - (cum[m] - cum[:m])
    if ramp:
        n = 1 << (2 * ramp - 1).bit_length()
        h, t = np.fft.rfft(head, n), np.fft.rfft(tail, n)
        auto = np.fft.irfft(np.abs(h) ** 2 + np.abs(t) ** 2, n)
        cross = np.fft.irfft(h.conj() * t, n)  # lag m - ramp + q at q mod n
        r[:ramp] += auto[:ramp]
        r[m - 2 * ramp + 1:] += np.concatenate((cross[n - ramp + 1:], cross[:ramp]))
    return r


@dataclass(frozen=True)
class LeakageModel:
    """suppression_db of the expected PSD against a one-subcarrier victim
    slot, in closed form as a function of the guard band g, and its search.

    The victim-over-in-band density ratio is Re sum_d c_d z^d with z =
    exp(2j pi g / fs): one coefficient per pulse lag folds the slot width, the
    band edge and the in-band normaliser together, times r[d], the pulse
    autocorrelation (_autocorrelation, from the pulse's two ramps). Far out
    the sum cancels to rounding noise. Each of the m terms is exact to within
    about m * eps relative (its phase, below pi * m radians, is rounded
    once), which bounds the error by m * eps * sum |c_d|; ceiling_db is the
    suppression of that bound, and readings above it are clipped to it. The
    bound covers r's own error too: a few 1e-12 absolute, a few units in the
    last place of r[0] ~ m, so about 1e-15 relative, far below m * eps.
    """

    alpha: float
    cfg: NumerologyConfig
    coeffs: np.ndarray  # c_d at d = _BLOCK * row + column, zero-padded
    # 1j * (arange(_BLOCK), _BLOCK * arange(rows)): times the phase of z, the
    # exponents of z^column and of z^row
    exponents: np.ndarray
    lag_step: float     # phase of z per Hz of guard band: 2 pi / fs
    ceiling_db: float
    # guard band (Hz) -> suppression_db, shared by every search on this model
    _readings: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def for_alpha(cls, alpha: float, cfg: NumerologyConfig) -> "LeakageModel":
        ocfg, ramp = _oversampled(alpha, cfg)
        pulse = pulse_weights(ocfg, ramp)
        m = pulse.size
        r = _autocorrelation(pulse, ramp)
        victim, in_band = _lag_kernels(ocfg)
        rows = -(-m // _BLOCK)
        coeffs = np.zeros(rows * _BLOCK, dtype=complex)
        coeffs[:m] = r * victim[:m] / (r @ in_band[:m])
        bound = m * np.finfo(float).eps * np.abs(coeffs[:m]).sum()
        exponents = 1j * np.concatenate((np.arange(_BLOCK), _BLOCK * np.arange(rows)))
        return cls(alpha, cfg, coeffs.reshape(rows, _BLOCK), exponents,
                   2 * np.pi / ocfg.sample_rate, -_to_db(bound))

    def suppression_db(self, guard_band_hz: float) -> float:
        """z^d = z^(_BLOCK * row) * z^column: one short exp vector and one
        matrix-vector product, every phase computed directly. ndarray.dot
        makes the BLAS calls @ makes, for less call overhead."""
        z = np.exp((self.lag_step * guard_band_hz) * self.exponents)
        ratio = float(z[_BLOCK:].dot(self.coeffs.dot(z[:_BLOCK])).real)
        return min(-_to_db(ratio), self.ceiling_db)

    def guard_band(self, theta: float, stop=None) -> float | None:
        """Smallest guard band (subcarriers, fractional) achieving suppression
        >= theta, by bisection up to the oversampled Nyquist frequency.

        Raises ThetaUnreachableError when even the largest guard fails, or
        when theta lies above ceiling_db. Searches on one model share its
        readings, so each distinct guard band is read once per model. After
        the endpoint checks, stop(lo) is asked at each midpoint lo that falls
        short, a lower bound on the answer; once it is true, returns None.
        """
        if not is_threshold(theta):
            raise ValueError(f"theta must be finite and positive, got {theta}")
        cfg, read = self.cfg, self._read
        victim = spacing = cfg.subcarrier_spacing
        # at least 1.5 subcarriers: n_occupied <= n_fft - 1 and OVERSAMPLE = 4
        gb_max = OVERSAMPLE * cfg.sample_rate / 2 - band_edge_hz(cfg) - victim
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
                if stop is not None and stop(lo / spacing):
                    return None
        return hi / spacing

    def _read(self, guard_band_hz: float) -> float:
        """The model's reading at guard_band_hz, from one lookup when cached."""
        value = self._readings.get(guard_band_hz)
        if value is None:
            value = self._readings[guard_band_hz] = self.suppression_db(guard_band_hz)
        return value


def required_guard_band(alpha: float, theta: float, cfg: NumerologyConfig) -> float:
    """LeakageModel.guard_band on the model of roll-off alpha."""
    return LeakageModel.for_alpha(alpha, cfg).guard_band(theta)


def write_psd_csv(psd: PsdEstimate, path) -> None:
    """CSV trace: freq_hz, power_db."""
    values = np.column_stack((psd.freqs, psd.power_db)).ravel().tolist()
    rows = "%.6f,%.6f\n" * psd.freqs.size % tuple(values)
    write_csv(path, "freq_hz,power_db", [rows])
