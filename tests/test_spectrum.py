import functools
import tracemalloc
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

import guardopt.cli as cli
import guardopt.optimizer as optimizer
import guardopt.spectrum as spectrum
from guardopt.numerology import NumerologyConfig, WindowSpec, round_half_up
from guardopt.optimizer import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    GuardAllocation,
    LookupTable,
    build_lookup_table,
    revalidate,
)
from guardopt.spectrum import (
    OVERSAMPLE,
    PSD_SYMBOLS,
    REVALIDATE_STEP,
    SEGMENT_SYMBOLS,
    TOL_SUBCARRIERS,
    AciReport,
    LeakageModel,
    PsdEstimate,
    ThetaUnreachableError,
    band_edge_hz,
    band_power,
    estimate_psd,
    grid_suppression_db,
    measure_aci,
    required_guard_band,
    suppression_db,
    windowed_psd,
    write_psd_csv,
)
from guardopt.waveform import (
    occupied_bins,
    pulse_weights,
    rising_taper,
    symbol_stream,
)


def _flat_psd(level_victim_db: float, cfg: NumerologyConfig) -> PsdEstimate:
    """Synthetic PSD: 0 dB in-band, a constant floor outside."""
    freqs = np.arange(-4 * cfg.obw_hz, 4 * cfg.obw_hz, cfg.subcarrier_spacing / 4)
    edge = band_edge_hz(cfg)
    power = np.full(freqs.size, 10.0 ** (level_victim_db / 10.0))
    power[np.abs(freqs) <= edge] = 1.0
    return PsdEstimate(freqs=freqs, power=power, band_edge_hz=edge)


def _full_grid_band_power(psd: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """Reference formula: cumulative trapezoid over the whole grid, then
    linear interpolation of the cumulative power at both band edges."""
    p, step = psd.linear(), psd.freqs[1] - psd.freqs[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * step)])
    lo, hi = np.interp([f_lo, f_hi], psd.freqs, cum)
    return float(hi - lo)


def _rfft_power(pulse: np.ndarray, nfft: int) -> np.ndarray:
    """|W|^2 at bins 0 .. nfft // 2, from numpy's zero-padded real FFT."""
    return np.abs(np.fft.rfft(pulse, n=nfft)) ** 2


@functools.lru_cache(maxsize=2)
def _rolled_comb_psd(alpha: float, cfg: NumerologyConfig, nfft=None,
                     pulse_power=_rfft_power) -> PsdEstimate:
    """Reference expected PSD on the nfft-bin grid, by default the Welch one:
    the pulse power spectrum pulse_power(pulse, nfft) at the non-negative
    bins, mirrored, summed over the occupied subcarriers by pairwise doubling
    of np.roll copies. Cached for the few (alpha, grid) pairs a test reads in
    turn."""
    ocfg = cfg.oversampled(OVERSAMPLE)
    L = OVERSAMPLE * WindowSpec.for_config(alpha, cfg).t_cp_win
    pulse = np.concatenate(
        [rising_taper(L), np.ones(ocfg.t_cp_ch + ocfg.n_fft), 1.0 - rising_taper(L)]
    )
    if nfft is None:
        nfft = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
    step = nfft // ocfg.n_fft
    half = pulse_power(pulse, nfft)
    power = np.concatenate([half, half[-2:0:-1]])  # a real pulse: |W(-f)| = |W(f)|
    bins = occupied_bins(ocfg)
    total = np.zeros(nfft)
    for run in np.split(bins, np.flatnonzero(np.diff(bins) != 1) + 1):
        box, width, done = power, 1, 0
        while done < run.size:
            if run.size & width:
                total += np.roll(box, (run[0] + done) * step)
                done += width
            box, width = box + np.roll(box, width * step), 2 * width
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / ocfg.sample_rate))
    total = np.fft.fftshift(total)
    edge = band_edge_hz(ocfg)
    total /= total[np.abs(freqs) <= edge].mean()
    return PsdEstimate(freqs, total, edge)


def _revalidation_size(cfg: NumerologyConfig) -> int:
    """The bin count of revalidation's fine grid."""
    return REVALIDATE_STEP * cfg.oversampled(OVERSAMPLE).n_fft


def _revalidation_power(pulse, size) -> np.ndarray:
    """Revalidation's pulse power spectrum P at bins 0 .. size // 2: the
    middle of spectrum._pulse_power's E, without its mirrored margins."""
    return spectrum._pulse_power(pulse, size, 0)[REVALIDATE_STEP:]


def _revalidation_psds(alpha, cfg) -> tuple:
    """The reference PSD on revalidation's fine grid and on its every-other-bin
    coarse grid. Bin 2i of the fine grid is bin i of the half-size grid, float
    for float, and S_fine[2i] = sum_k P_fine[2 (i - k step)], step the coarse
    bins per subcarrier, so the coarse PSD is the fine one at the even bins,
    from the same P: a half-size FFT's own rounding differs by up to about
    2e-10 relative at the deepest sidelobes. P is revalidation's own
    (spectrum._pulse_power, tested against numpy's FFT to 16 eps max P):
    readings deeper than 100 dB approach the float64 floor of the in-band
    density, where an rfft's P moves them by up to about 1e-8 dB."""
    fine = _rolled_comb_psd(alpha, cfg, _revalidation_size(cfg), _revalidation_power)
    return fine, PsdEstimate(fine.freqs[::2], fine.power[::2], fine.band_edge_hz)


def _reference_readings(alpha, cfg, guard_hz) -> list:
    """suppression_db of the reference PSD at guard_hz, fine then coarse."""
    s = cfg.subcarrier_spacing
    return [suppression_db(psd, guard_hz, s) for psd in _revalidation_psds(alpha, cfg)]


def _richardson(fine, coarse):
    """The extrapolation of two trapezoid readings at bin widths h and 2h."""
    return fine + (fine - coarse) / 3


class TestEstimatePsd:
    def test_pure_tone_peak_location(self, small_cfg):
        k = 10
        fs = small_cfg.sample_rate
        n = np.arange(16 * 4 * small_cfg.n_fft)
        tone = np.exp(2j * np.pi * k * small_cfg.subcarrier_spacing * n / fs)
        psd = estimate_psd(tone, small_cfg)
        peak, step = psd.freqs[np.argmax(psd.power_db)], psd.freqs[1] - psd.freqs[0]
        assert abs(peak - k * small_cfg.subcarrier_spacing) <= step

    def test_normalization_exact(self, small_cfg):
        win = WindowSpec.for_config(0.05, small_cfg)
        stream = symbol_stream(small_cfg, win, 40, seed=0)
        psd = estimate_psd(stream, small_cfg)
        in_band = np.abs(psd.freqs) <= psd.band_edge_hz
        assert np.mean(psd.linear()[in_band]) == pytest.approx(1.0, abs=1e-12)

    def test_resolution_oversampled_enough(self, small_cfg):
        win = WindowSpec.for_config(0.0, small_cfg)
        stream = symbol_stream(small_cfg, win, 40, seed=0)
        psd = estimate_psd(stream, small_cfg)
        assert psd.freqs[1] - psd.freqs[0] <= small_cfg.subcarrier_spacing / 4

    def test_stream_too_short(self, small_cfg):
        with pytest.raises(ValueError, match="too short"):
            estimate_psd(np.zeros(100, dtype=complex), small_cfg)

    @given(
        log2_fft=st.integers(min_value=3, max_value=7),
        occupied=st.floats(min_value=0.0, max_value=1.0),
        cp=st.floats(min_value=0.0, max_value=0.99),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_psd_symbols_fill_one_segment(self, log2_fft, occupied, cp, alpha):
        # the psd export's draw fills a Welch segment at any valid alpha on
        # any numerology, tapered over OVERSAMPLE x the guard duration charged
        n_fft = 2 ** log2_fft
        base = NumerologyConfig(n_fft=n_fft, n_occupied=1 + int(occupied * (n_fft - 2)),
                                t_cp_ch=int(cp * n_fft))
        gd = round_half_up(alpha * (base.n_fft + base.t_cp_ch))
        assume(gd + base.t_cp_ch < base.n_fft)  # a valid alpha
        ocfg = base.oversampled(OVERSAMPLE)
        stream = symbol_stream(ocfg, WindowSpec(OVERSAMPLE * gd), PSD_SYMBOLS, 0)
        assert stream.size >= SEGMENT_SYMBOLS * ocfg.n_fft

    def test_windowed_psd_rejects_extension_beyond_symbol(self, cfg):
        with pytest.raises(ValueError, match="cyclic extension exceeds symbol"):
            windowed_psd(0.95, cfg, PSD_SYMBOLS)

    def test_windowing_lowers_sidelobes(self, cfg):
        # leakage just outside the band drops when the roll-off grows
        p0 = _rolled_comb_psd(0.0, cfg)
        p1 = _rolled_comb_psd(0.1, cfg)
        gb = 2 * cfg.subcarrier_spacing
        leak0 = measure_aci(p0, gb, cfg.obw_hz, 0.0).leak_power_db
        leak1 = measure_aci(p1, gb, cfg.obw_hz, 0.0).leak_power_db
        assert leak1 < leak0

    def test_more_segments_reduce_variance(self, small_cfg):
        # Monte-Carlo oracle over 20 seeds: out-of-band leak estimate tightens
        win = WindowSpec.for_config(0.05, small_cfg)

        def leak(seed, n_symbols):
            stream = symbol_stream(small_cfg, win, n_symbols, seed)
            psd = estimate_psd(stream, small_cfg)
            return measure_aci(
                psd, 0.0, 10 * small_cfg.subcarrier_spacing, 0.0
            ).leak_power_db

        # one segment against nine
        few = [leak(s, 40) for s in range(20)]
        many = [leak(s, 160) for s in range(20)]
        assert np.var(many) < np.var(few)


class TestMeasureAci:
    def test_definition_po_zero(self, cfg):
        # one-spacing guard keeps the victim fully on the synthetic floor
        psd = _flat_psd(-30.0, cfg)
        rep = measure_aci(psd, cfg.subcarrier_spacing, cfg.obw_hz, po=0.0)
        assert rep.leak_power_db == pytest.approx(-30.0, abs=0.1)
        assert rep.achieved_sir_db == pytest.approx(30.0, abs=0.1)

    def test_power_offset_arithmetic(self, cfg):
        psd = _flat_psd(-30.0, cfg)
        rep = measure_aci(psd, cfg.subcarrier_spacing, cfg.obw_hz, po=20.0)
        assert rep.achieved_sir_db == pytest.approx(10.0, abs=0.1)

    def test_guard_doubling_non_increasing(self, cfg):
        psd = _rolled_comb_psd(0.05, cfg)
        for gb in (1e3, 30e3, 150e3, 600e3):
            a = measure_aci(psd, gb, cfg.obw_hz / 4, 0.0).leak_power_db
            b = measure_aci(psd, 2 * gb, cfg.obw_hz / 4, 0.0).leak_power_db
            assert b <= a

    def test_leak_below_in_band(self, cfg):
        psd = _rolled_comb_psd(0.0, cfg)
        rep = measure_aci(psd, cfg.subcarrier_spacing, cfg.obw_hz, 0.0)
        assert rep.leak_power_db < 0

    def test_victim_beyond_grid(self, cfg):
        psd = _rolled_comb_psd(0.0, cfg)
        with pytest.raises(ValueError, match="grid"):
            measure_aci(psd, 100 * cfg.obw_hz, cfg.obw_hz, 0.0)

    @pytest.mark.parametrize("read", [
        lambda psd, gb, vic: measure_aci(psd, gb, vic, 0.0),
        suppression_db,
    ], ids=["measure_aci", "suppression_db"])
    @pytest.mark.parametrize("guard, width, error", [
        # Hz; spacing 15 kHz, and None is the occupied bandwidth
        (-1.0, None, "guard_band must be non-negative"),
        (-15e3, None, "guard_band must be non-negative"),  # victim in band
        (np.nan, None, "guard_band must be non-negative"),
        (0.0, 0.0, "victim_obw must be positive"),
        (0.0, -15e3, "victim_obw must be positive"),
        (0.0, np.nan, "victim_obw must be positive"),
    ], ids=["guard_-1_hz", "guard_-1_spacing", "guard_nan",
            "width_0", "width_-1_spacing", "width_nan"])
    def test_negative_guard_rejected(self, cfg, read, guard, width, error):
        psd = _flat_psd(-30.0, cfg)
        with pytest.raises(ValueError, match=error):
            read(psd, guard, cfg.obw_hz if width is None else width)

    def test_matches_trapezoid_oracle(self, cfg):
        # independent numerical integration on the raw grid, to 0.1 dB
        psd = _rolled_comb_psd(0.1, cfg)
        gb, vic = 5 * cfg.subcarrier_spacing, cfg.obw_hz / 2
        rep = measure_aci(psd, gb, vic, 0.0)
        lin = psd.linear()
        edge = psd.band_edge_hz

        def oracle(f_lo, f_hi):
            mask = (psd.freqs >= f_lo) & (psd.freqs <= f_hi)
            return np.trapezoid(lin[mask], psd.freqs[mask])

        expected = 10 * np.log10(
            oracle(edge + gb, edge + gb + vic) / oracle(-edge, edge)
        )
        assert rep.leak_power_db == pytest.approx(expected, abs=0.1)


class TestBandPower:
    def test_matches_full_grid_formula(self, cfg):
        # fractional band edges, in band and where leakage is still strong;
        # farther out the full-grid cumsum loses digits to cancellation
        psd = _rolled_comb_psd(0.1, cfg)
        edge, s = psd.band_edge_hz, cfg.subcarrier_spacing
        bands = [
            (-edge, edge),
            (-edge - 5.5 * s, -edge + 0.25 * s),
            (edge + 0.37 * s, edge + 1.3 * s),
            (edge + 2.71 * s, edge + 3.71 * s),
            (psd.freqs[0] + 0.4 * (psd.freqs[1] - psd.freqs[0]),
             psd.freqs[0] + 2.2 * s),
        ]
        for f_lo, f_hi in bands:
            assert band_power(psd, f_lo, f_hi) == pytest.approx(
                _full_grid_band_power(psd, f_lo, f_hi), rel=1e-9, abs=0.0
            )

    def test_grid_aligned_band_is_trapezoid(self, cfg):
        # far from the band the local sum keeps the precision a
        # whole-grid cumulative sum would lose
        psd = _rolled_comb_psd(0.1, cfg)
        lin = psd.linear()
        for i, j in ((100, 400), (psd.freqs.size - 500, psd.freqs.size - 1)):
            expected = np.trapezoid(lin[i:j + 1], psd.freqs[i:j + 1])
            got = band_power(psd, psd.freqs[i], psd.freqs[j])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_outside_grid_rejected(self, cfg):
        psd = _flat_psd(-30.0, cfg)
        with pytest.raises(ValueError, match="grid"):
            band_power(psd, psd.freqs[0] - 1.0, 0.0)


class TestSuppressionDb:
    def test_agrees_with_measure_aci(self, cfg):
        # same leakage, scored as a density ratio: differs from the power
        # ratio only by the in-band / victim width factor
        psd = _rolled_comb_psd(0.05, cfg)
        for gb, vic in ((0.0, cfg.subcarrier_spacing),
                        (3.3 * cfg.subcarrier_spacing, cfg.obw_hz / 4)):
            leak = measure_aci(psd, gb, vic, 0.0).leak_power_db
            width_db = 10 * np.log10(2 * psd.band_edge_hz / vic)
            assert suppression_db(psd, gb, vic) == pytest.approx(
                -leak - width_db, abs=1e-9
            )

    def test_flat_floor(self, cfg):
        psd = _flat_psd(-30.0, cfg)
        assert suppression_db(
            psd, cfg.subcarrier_spacing, cfg.subcarrier_spacing
        ) == pytest.approx(30.0, abs=1e-9)


class TestRequiredGuardBand:
    def test_loose_threshold_heavy_window_needs_no_guard(self, cfg):
        assert required_guard_band(0.2, 5.0, cfg) == 0.0

    def test_monotone_in_alpha(self, cfg):
        assert required_guard_band(0.2, 35.0, cfg) <= required_guard_band(
            0.05, 35.0, cfg
        )

    def test_monotone_in_theta(self, cfg):
        assert required_guard_band(0.05, 45.0, cfg) > required_guard_band(
            0.05, 20.0, cfg
        )

    def test_unreachable_within_narrow_grid(self, cfg):
        # no guard fitting the grid reaches 300 dB: the largest guard fails
        with pytest.raises(ThetaUnreachableError, match="within the grid span"):
            required_guard_band(0.0, 300.0, cfg)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(grid=st.integers(2, 512).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
    def test_every_numerology_has_distinct_bins_and_a_guard_span(self, grid):
        # n_occupied <= n_fft - 1 keeps DC unused and every subcarrier on a
        # bin of its own, and leaves the guard search at least 1.5 subcarriers
        n_fft, n_occupied = grid
        numerology = NumerologyConfig(n_fft=n_fft, n_occupied=n_occupied, t_cp_ch=0)
        bins = occupied_bins(numerology)
        assert np.unique(bins).size == bins.size == n_occupied
        assert 0 not in bins
        s = numerology.subcarrier_spacing
        span = OVERSAMPLE * numerology.sample_rate / 2 - band_edge_hz(numerology) - s
        assert span >= 1.5 * s

    def test_invalid_theta(self, cfg):
        with pytest.raises(ValueError):
            required_guard_band(0.1, -3.0, cfg)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_rejected(self, cfg, theta):
        # NaN fails every comparison, so unchecked its bisection ended at the
        # grid top (1746.5 subcarriers) instead of failing
        model = LeakageModel.for_alpha(0.05, cfg)
        for search in (model.guard_band, lambda t: required_guard_band(0.05, t, cfg)):
            with pytest.raises(ValueError, match="finite and positive") as info:
                search(theta)
            assert not isinstance(info.value, ThetaUnreachableError)

    def test_result_achieves_threshold(self, cfg):
        theta = 30.0
        gb = required_guard_band(0.05, theta, cfg)
        psd = _rolled_comb_psd(0.05, cfg)
        achieved = suppression_db(
            psd, gb * cfg.subcarrier_spacing, cfg.subcarrier_spacing
        )
        assert achieved >= theta - 0.1


def _grid_guard_band(alpha, theta, cfg):
    """The guard search on the grid expected PSD: bisection of suppression_db
    up to the largest guard whose victim slot the grid covers."""
    psd = _rolled_comb_psd(alpha, cfg)
    s = cfg.subcarrier_spacing
    if suppression_db(psd, 0.0, s) >= theta:
        return 0.0
    lo, hi = 0.0, psd.freqs[-1] - psd.band_edge_hz - s
    assert suppression_db(psd, hi, s) >= theta
    while (hi - lo) / s > TOL_SUBCARRIERS:
        mid = 0.5 * (lo + hi)
        if suppression_db(psd, mid, s) >= theta:
            hi = mid
        else:
            lo = mid
    return hi / s


class TestLeakageModel:
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.1, 0.2])
    def test_matches_grid_suppression(self, cfg, alpha):
        # oracle: the FFT-sampled expected PSD with the trapezoid, wherever
        # it reads below 90 dB, at fractional guards of 0-400 subcarriers
        psd = _rolled_comb_psd(alpha, cfg)
        model = LeakageModel.for_alpha(alpha, cfg)
        s = cfg.subcarrier_spacing
        checked = 0
        for gb in np.arange(0.0, 400.0, 0.37):
            grid = suppression_db(psd, gb * s, s)
            if grid < 90.0:
                assert model.suppression_db(gb * s) == pytest.approx(grid, abs=0.01)
                checked += 1
        assert checked >= 20

    def test_guard_band_matches_grid_bisection(self, cfg):
        for alpha in DEFAULT_ALPHA_GRID:
            for theta in DEFAULT_THETA_LIST:
                assert required_guard_band(alpha, theta, cfg) == pytest.approx(
                    _grid_guard_band(alpha, theta, cfg), abs=0.01
                ), (alpha, theta)

    def test_ceiling_on_default_numerology(self, cfg):
        ceilings = [LeakageModel.for_alpha(a, cfg).ceiling_db
                    for a in DEFAULT_ALPHA_GRID]
        assert 112.9 < min(ceilings) <= max(ceilings) < 114.7

    def test_far_readings_clip_to_ceiling(self, cfg):
        # at alpha 0.1 the grid reads 142 dB at 800 subcarriers, where the
        # sum has cancelled to rounding noise that may come out negative
        model = LeakageModel.for_alpha(0.1, cfg)
        s = cfg.subcarrier_spacing
        far = [model.suppression_db(gb * s) for gb in range(800, 1750, 50)]
        assert far == [model.ceiling_db] * len(far)

    def test_theta_above_ceiling_unreachable(self, cfg):
        # the grid reaches 178 dB at alpha 0.2, the model resolves 113 dB
        psd = _rolled_comb_psd(0.2, cfg)
        s = cfg.subcarrier_spacing
        top = psd.freqs[-1] - psd.band_edge_hz - s
        assert suppression_db(psd, top, s) > 150.0
        with pytest.raises(ThetaUnreachableError, match="leakage model resolves"):
            required_guard_band(0.2, 150.0, cfg)


def _reference_guard_band(model: LeakageModel, theta: float) -> float:
    """The guard-band bisection as a plain scalar loop over
    model.suppression_db, every reading evaluated afresh."""
    cfg = model.cfg
    s = cfg.subcarrier_spacing
    gb_max = OVERSAMPLE * cfg.sample_rate / 2 - band_edge_hz(cfg) - s
    if model.suppression_db(0.0) >= theta:
        return 0.0
    top = model.suppression_db(gb_max)
    if top < theta:
        where = ("within the grid span" if top < model.ceiling_db else
                 f"above the {model.ceiling_db:.1f} dB the leakage model resolves")
        raise ThetaUnreachableError(
            f"theta={theta} dB unreachable at alpha={model.alpha} {where}"
        )
    lo, hi = 0.0, gb_max
    while (hi - lo) / s > TOL_SUBCARRIERS:
        mid = 0.5 * (lo + hi)
        if model.suppression_db(mid) >= theta:
            hi = mid
        else:
            lo = mid
    return hi / s


def _outcome(search, theta):
    try:
        return search(theta)
    except ThetaUnreachableError as exc:
        return str(exc)


def test_guard_band_matches_reference_bisection(cfg):
    # identical floats or error texts: the memoised readings change nothing,
    # whichever thresholds were searched on the model before
    outcomes = []
    for alpha in (0.0, 0.05, 0.2):
        model = LeakageModel.for_alpha(alpha, cfg)
        for theta in (5.0, 20.0, 33.3, 45.0, 80.0, 150.0, 300.0):
            got = _outcome(model.guard_band, theta)
            assert got == _outcome(
                lambda t: _reference_guard_band(model, t), theta
            ), (alpha, theta)
            outcomes.append(got)
    assert 0.0 in outcomes
    for text in ("within the grid span", "leakage model resolves"):
        assert any(text in str(o) for o in outcomes), text


class TestStopPredicate:
    ALPHAS = (0.0, 0.05, 0.2)
    THETAS = (5.0, 20.0, 33.3, 45.0, 80.0, 150.0, 300.0)

    def test_never_firing_changes_nothing(self, cfg):
        # identical floats or error texts, and the predicate sees each failed
        # midpoint's guard band, in subcarriers, ascending
        for alpha in self.ALPHAS:
            model = LeakageModel.for_alpha(alpha, cfg)
            for theta in self.THETAS:
                seen = []
                got = _outcome(lambda t: model.guard_band(
                    t, lambda gb: seen.append(gb) or False), theta)
                assert got == _outcome(
                    lambda t: _reference_guard_band(model, t), theta
                ), (alpha, theta)
                assert seen == sorted(set(seen))
                if isinstance(got, float) and seen:
                    assert seen[-1] < got

    def test_always_firing_stops_at_the_first_failed_midpoint(self, cfg, monkeypatch):
        model = LeakageModel.for_alpha(0.05, cfg)
        reads, real = [], LeakageModel.suppression_db

        def counted(m, guard_band_hz):
            value = real(m, guard_band_hz)
            reads.append((guard_band_hz, value))
            return value

        monkeypatch.setattr(LeakageModel, "suppression_db", counted)
        seen = []
        assert model.guard_band(45.0, lambda gb: seen.append(gb) or True) is None
        # the two endpoints, then midpoints reaching 45 dB down to the first
        # that does not, where the search ends
        hits = [value >= 45.0 for _, value in reads[2:]]
        assert len(hits) > 1 and hits == [True] * (len(hits) - 1) + [False]
        assert seen == [reads[-1][0] / cfg.subcarrier_spacing]

    def test_endpoint_outcomes_ignore_it(self, cfg):
        # a threshold needing no guard returns 0.0, an unreachable one raises
        # the same error, and neither consults the predicate
        for alpha in self.ALPHAS:
            model = LeakageModel.for_alpha(alpha, cfg)
            fired = []
            stop = lambda gb: fired.append(gb) or True  # noqa: E731
            assert model.guard_band(5.0, stop) == 0.0
            for theta in (150.0, 300.0):
                with pytest.raises(ThetaUnreachableError) as exc:
                    model.guard_band(theta, stop)
                assert str(exc.value) == _outcome(
                    lambda t: _reference_guard_band(model, t), theta)
            assert fired == []


class TestExpectedPsd:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_matches_roll_loop(self, cfg, alpha):
        # the reference's doubling against the pulse spectrum shifted onto
        # every occupied subcarrier and summed term by term, tapered over
        # OVERSAMPLE x the guard duration charged
        ocfg = cfg.oversampled(OVERSAMPLE)
        L = OVERSAMPLE * WindowSpec.for_config(alpha, cfg).t_cp_win
        pulse = np.concatenate(
            [rising_taper(L), np.ones(ocfg.t_cp_ch + ocfg.n_fft), 1.0 - rising_taper(L)]
        )
        nfft = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
        power = np.abs(np.fft.fft(pulse, n=nfft)) ** 2
        ref = np.zeros(nfft)
        for k in occupied_bins(ocfg):
            ref += np.roll(power, k * (nfft // ocfg.n_fft))
        ref = np.fft.fftshift(ref)
        psd = _rolled_comb_psd(alpha, cfg)
        ref /= ref[np.abs(psd.freqs) <= psd.band_edge_hz].mean()
        keep = ref > 1e-10  # above -100 dB
        assert keep.sum() > 0.1 * nfft
        np.testing.assert_allclose(psd.linear()[keep], ref[keep], rtol=1e-9, atol=0)

    def test_revalidation_matches_rolled_comb(self, cfg):
        # the default table re-measured on the reference PSD at the fine and
        # the coarse grid size, and revalidate's estimate extrapolated from both
        table = build_lookup_table(DEFAULT_THETA_LIST, cfg)
        s = cfg.subcarrier_spacing
        guards = [(a.alpha, a.gb_subcarriers * s) for a in table.entries.values()]
        pairs = grid_suppression_db(cfg, guards)
        achieved = revalidate(table, cfg)
        assert list(achieved) == list(DEFAULT_THETA_LIST)
        for theta, (alpha, g), pair in zip(table.entries, guards, pairs):
            ref = _reference_readings(alpha, cfg, g)
            assert pair == pytest.approx(tuple(ref), abs=1e-9), theta
            assert achieved[theta] == pytest.approx(_richardson(*ref), abs=1e-9), theta

    def test_welch_mean_converges(self, small_cfg):
        # the mean of many Welch draws estimates the expected PSD
        draws = [windowed_psd(0.05, small_cfg, 128, seed) for seed in range(16)]
        mean = np.mean([d.linear() for d in draws], axis=0)
        avg = PsdEstimate(draws[0].freqs, mean, draws[0].band_edge_hz)
        expected = _rolled_comb_psd(0.05, small_cfg)
        s = small_cfg.subcarrier_spacing
        for gb in (0, 2, 5):
            assert suppression_db(avg, gb * s, s) == pytest.approx(
                suppression_db(expected, gb * s, s), abs=0.3
            )


# two runs of subcarriers around DC, 37 and 38 long
ODD_CFG = NumerologyConfig(n_fft=128, n_occupied=75, t_cp_ch=8)


@pytest.mark.parametrize("numerology", [NumerologyConfig(), ODD_CFG],
                         ids=["default", "odd"])
def test_autocorrelation_matches_direct_correlation(numerology):
    # oracle: np.correlate's direct lag sums of the pulse, at every alpha of
    # the default grid, from ramp 0 (alpha 0) to the largest (alpha 0.2); and
    # the model's coefficients as built from the oracle's r, zero-padded
    ocfg = numerology.oversampled(OVERSAMPLE)
    victim, in_band = spectrum._lag_kernels(ocfg)
    ramps = []
    for alpha in DEFAULT_ALPHA_GRID:
        ramp = OVERSAMPLE * WindowSpec.for_config(alpha, numerology).t_cp_win
        rise = rising_taper(ramp)
        pulse = np.concatenate([rise, np.ones(ocfg.t_cp_ch + ocfg.n_fft), 1.0 - rise])
        m = pulse.size
        oracle = np.correlate(pulse, pulse, "full")[m - 1:]
        r = spectrum._autocorrelation(pulse, ramp)
        # absolute, against r[0] of about m: at least 544 on ODD_CFG and 4,384 on
        # the default numerology
        assert np.abs(r - oracle).max() <= 1e-11, alpha
        expected = oracle * victim[:m] / (oracle @ in_band[:m])
        coeffs = LeakageModel.for_alpha(alpha, numerology).coeffs.ravel()
        np.testing.assert_allclose(coeffs[:m], expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())
        assert not coeffs[m:].any(), alpha
        ramps.append(ramp)
    assert ramps[0] == 0 and ramps[-1] == max(ramps) > 0


def _top_guard_hz(psd, s):
    """The largest guard band whose one-subcarrier victim slot the grid holds."""
    return psd.freqs[-1] - psd.band_edge_hz - s


def _random_numerology(seed: int) -> NumerologyConfig:
    """A numerology drawn at random: n_fft log-uniform in 8 .. 362, n_occupied
    even for an even seed and odd for an odd one, any CP, and a spacing whose
    grid bins may or may not be evenly spaced in floating point."""
    rng = np.random.default_rng(seed)
    n_fft = int(2 ** rng.uniform(3, 8.5))
    return NumerologyConfig(
        n_fft=n_fft, n_occupied=int(2 * rng.integers(1, n_fft // 2) - seed % 2),
        subcarrier_spacing=float(rng.choice([15e3, 60e3, 12345.6789])),
        t_cp_ch=int(rng.integers(0, n_fft)))


def _valid(alpha, numerology) -> bool:
    try:
        WindowSpec.for_config(alpha, numerology)
    except ValueError:
        return False
    return True


# every alpha of the default grid on the default numerology and ODD_CFG, and
# every one that fits the symbol on eight random numerologies (n_fft 11 to
# 291, n_occupied 1 to 254, CP 1 to 273)
_GRID_CASES = [
    pytest.param(numerology, alpha, id=f"{alpha}-{name}")
    for alpha in DEFAULT_ALPHA_GRID
    for name, numerology in [("default", NumerologyConfig()), ("odd", ODD_CFG)]
    + [(f"random{seed}", _random_numerology(seed)) for seed in range(8)]
    if _valid(alpha, numerology)
]


@pytest.mark.parametrize("numerology, alpha", _GRID_CASES)
# no shrink phase: each call builds and reads two grids, and shrinking a
# failing case (with the bug hunt it extends) ran for minutes before naming it
@settings(deadline=None, derandomize=True, max_examples=3,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(shares=st.lists(st.floats(0.0, 1.0), max_size=4),
       aligned=st.lists(st.integers(0, 10**6), max_size=4))
def test_grid_suppression_matches_full_grid_psd(numerology, alpha, shares, aligned):
    # the band-only readings of the two integrated bands against
    # suppression_db on the whole reference grid PSD at the fine and the
    # coarse size, from no guard to the coarse grid's top, at fractional
    # guards and at guards whose victim slot starts on a fine grid bin (a
    # coarse one at even bins); the random numerologies check the slot rule
    # for the occupied band on odd and even n_occupied, small n_fft and any CP
    fine, coarse = _revalidation_psds(alpha, numerology)
    s = numerology.subcarrier_spacing
    top, step = _top_guard_hz(coarse, s), fine.freqs[1] - fine.freqs[0]
    while coarse.band_edge_hz + top + s > coarse.freqs[-1]:  # rounded past the grid
        top = np.nextafter(top, 0.0)
    bins = int(top // step)
    guards = ([0.0, top] + [u * top for u in shares]
              + [(j % (bins + 1)) * step for j in aligned])
    got = grid_suppression_db(numerology, [(alpha, g) for g in guards])
    for g, pair in zip(guards, got):
        ref = (suppression_db(fine, g, s), suppression_db(coarse, g, s))
        assert pair == pytest.approx(ref, abs=1e-9), g


def _check_pulse_power(alpha, numerology):
    """The pulse is shorter than three oversampled symbols, so it fits in
    _pulse_power's FFTs of 4 n_fft points, and its E at the fine grid's size
    is numpy's zero-padded |fft|^2 at every bin E holds, the mirrored margin
    below bin 0 and the one past Nyquist read at their wrapped bins,
    elementwise within 16 eps of the largest P (4.4 eps measured at worst on
    _GRID_CASES); the margin past Nyquist is the h + 2 subcarriers that
    grid_suppression_db asks for."""
    ocfg, ramp = spectrum._oversampled(alpha, numerology)
    pulse = pulse_weights(ocfg, ramp)
    assert pulse.size < 3 * ocfg.n_fft
    size = _revalidation_size(numerology)
    tail = (ocfg.n_occupied - ocfg.n_occupied // 2 + 2) * REVALIDATE_STEP
    ref = np.abs(np.fft.fft(pulse, size)) ** 2
    bins = np.arange(-REVALIDATE_STEP, size // 2 + tail + 1)
    np.testing.assert_allclose(spectrum._pulse_power(pulse, size, tail), ref[bins % size],
                               rtol=0, atol=16 * np.finfo(float).eps * ref.max())


@pytest.mark.parametrize("numerology, alpha", _GRID_CASES)
def test_pulse_power_matches_rfft(numerology, alpha):
    _check_pulse_power(alpha, numerology)


@st.composite
def _pulse_cases(draw):
    """(alpha, numerology): any valid numerology with n_fft up to 600, and
    alpha up to the largest taper check_extension admits, often exactly it."""
    n_fft = draw(st.integers(2, 600))
    t_cp_ch = draw(st.integers(0, n_fft - 1))
    numerology = NumerologyConfig(
        n_fft=n_fft, n_occupied=draw(st.integers(1, n_fft - 1)), t_cp_ch=t_cp_ch)
    longest = (n_fft - 1 - t_cp_ch) / (n_fft + t_cp_ch)
    return draw(st.just(longest) | st.floats(0.0, longest)), numerology


@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=_pulse_cases())
@example(case=(0.5, NumerologyConfig(n_fft=2, n_occupied=1, t_cp_ch=0)))
@example(case=(0.0, NumerologyConfig(n_fft=2, n_occupied=1, t_cp_ch=1)))
@example(case=(0.0, NumerologyConfig(t_cp_ch=1023)))
@example(case=(1023 / 1024, NumerologyConfig(t_cp_ch=0)))
@example(case=(119 / 136, ODD_CFG))
def test_pulse_fits_the_short_ffts(case):
    # the invariant _pulse_power rests on, on random numerologies and at the
    # extremes: n_fft 2, t_cp_ch = n_fft - 1 and the longest taper, whose
    # next one up check_extension rejects
    alpha, numerology = case
    n, cp = numerology.n_fft, numerology.t_cp_ch
    assert not _valid((n - cp) / (n + cp), numerology)
    if alpha == (n - 1 - cp) / (n + cp):
        assert WindowSpec.for_config(alpha, numerology).t_cp_win == n - 1 - cp
    _check_pulse_power(alpha, numerology)


def _gathered_comb_power(power, size, band, shifts, counts) -> float:
    """The band sum by index gather, as one (shifts x bins) index array:
    sum_o counts[o] sum_i w[i] P[lo + i - shifts[o]], band = (lo, w) on the
    size-bin grid, lo counted from DC, P in rfft order (bin i at
    |(i + size // 2) % size - size // 2|)."""
    lo, w = band
    at = lo + np.arange(w.size) - shifts[:, None] + size // 2
    terms = power[np.abs(at % size - size // 2)] @ w
    return float((counts * terms).sum())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=_pulse_cases(), coarse=st.booleans(),
       share=st.just(1.0) | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(case=(0.05, NumerologyConfig()), coarse=False, share=1.0, seed=0)
@example(case=(0.05, NumerologyConfig()), coarse=True, share=1.0, seed=0)
@example(case=(0.0, ODD_CFG), coarse=False, share=1.0, seed=1)
@example(case=(0.0, ODD_CFG), coarse=True, share=0.0, seed=2)
def test_comb_power_matches_index_gather(case, coarse, share, seed):
    # the slice-based band sum against the index gather, within 1e-12
    # relative, on a pulse's E on either grid: the occupied band at offsets
    # 0 .. 2 h with random pair counts, read as slot 0 shifted d subcarriers
    # up, which starts in E's margin below bin 0, against the gather shifting
    # it d down (slot 0 and E are even); and a victim slot over the occupied
    # subcarriers, whose DC gap is asymmetric on odd n_occupied, taken as a
    # run -h .. h with zero counts, at a share of the search's largest guard
    # (share 1: the slot ends at +Nyquist) and starting just below +Nyquist,
    # the last slot a grid reads, whose read runs h + 2 subcarriers into E's
    # margin past it
    alpha, numerology = case
    ocfg, ramp = spectrum._oversampled(alpha, numerology)
    fine = _revalidation_size(numerology)
    h = ocfg.n_occupied - ocfg.n_occupied // 2
    power = spectrum._pulse_power(pulse_weights(ocfg, ramp), fine,
                                  (h + 2) * REVALIDATE_STEP)[::1 + coarse]
    size = fine // (1 + coarse)
    step = size // ocfg.n_fft
    half = power[step:step + size // 2 + 1]  # P, bins 0 .. size // 2
    rate, s, edge = ocfg.sample_rate, numerology.subcarrier_spacing, band_edge_hz(ocfg)
    counts = np.random.default_rng(seed).integers(0, 2 * h + 2, 2 * h + 1).astype(float)
    slot0 = spectrum._grid_band(size, rate, -s / 2, s / 2)
    got = spectrum._comb_power(power, slot0, -2 * h * step, counts[::-1], step)
    ref = _gathered_comb_power(half, size, slot0, np.arange(2 * h + 1) * step, counts)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)
    guard = share * (OVERSAMPLE * numerology.sample_rate / 2 - band_edge_hz(numerology) - s)
    nyquist = size // 2 * (1.0 / (size * (1.0 / rate)))  # as _grid_band bounds it
    bins = occupied_bins(ocfg)
    comb = np.zeros(2 * h + 1)
    comb[(bins + h) % ocfg.n_fft] = 1.0  # subcarrier k at h + k, |k| <= h
    for f_lo in (edge + guard, np.nextafter(nyquist, 0.0)):
        victim = spectrum._grid_band(size, rate, f_lo, f_lo + s)
        got = spectrum._comb_power(power, victim, -h * step, comb, step)
        ref = _gathered_comb_power(half, size, victim, bins * step, 1.0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0), f_lo


def _wrapped(psd: PsdEstimate) -> PsdEstimate:
    """psd with its lowest bins, one subcarrier's and two more, appended past
    its top bin, one period on."""
    bins, span = REVALIDATE_STEP + 2, -2 * psd.freqs[0]
    return PsdEstimate(np.append(psd.freqs, psd.freqs[:bins] + span),
                       np.append(psd.power, psd.power[:bins]), psd.band_edge_hz)


@pytest.mark.parametrize("numerology", [NumerologyConfig(), ODD_CFG],
                         ids=["default", "odd"])
def test_grid_suppression_victim_past_grid(numerology):
    # both grids span [-Nyquist, +Nyquist), the coarse one ending two fine bins
    # short of +Nyquist: a victim slot ending at +Nyquist, or starting just
    # below it (the last slot a grid reads, whose comb read runs furthest
    # past it), reads each grid's lowest bins there, one period on, and a slot
    # starting at +Nyquist raises the error suppression_db gives past a grid
    fine, coarse = _revalidation_psds(0.05, numerology)
    s, edge = numerology.subcarrier_spacing, coarse.band_edge_hz
    nyquist = -coarse.freqs[0]
    rate = numerology.oversampled(OVERSAMPLE).sample_rate
    assert coarse.freqs.tobytes() == spectrum._frequency_grid(
        _revalidation_size(numerology) // 2, rate).tobytes()
    assert -fine.freqs[0] == nyquist > fine.freqs[-1] > coarse.freqs[-1]
    top = nyquist - edge - s
    while edge + top + s > nyquist:  # rounded past +Nyquist
        top = np.nextafter(top, 0.0)
    past = nyquist - edge
    while edge + past < nyquist:  # rounded below +Nyquist
        past = np.nextafter(past, np.inf)
    last = np.nextafter(past, 0.0)
    assert edge + last < nyquist
    got = grid_suppression_db(numerology, [(0.05, top), (0.05, last)])
    for g, pair in zip((top, last), got):
        ref = tuple(suppression_db(_wrapped(psd), g, s) for psd in (fine, coarse))
        assert pair == pytest.approx(ref, abs=1e-9), g
    with pytest.raises(ValueError, match="exceeds PSD grid coverage") as oracle:
        suppression_db(coarse, past, s)
    with pytest.raises(ValueError) as band_only:
        grid_suppression_db(numerology, [(0.05, 0.0), (0.05, past)])
    assert str(band_only.value) == str(oracle.value)


def _floor_6g(value: float) -> float:
    """The largest %.6g value at or below value."""
    exact = Decimal(value)
    shift = exact.adjusted() - 5
    return float(exact.scaleb(-shift).to_integral_value(ROUND_FLOOR).scaleb(shift))


@pytest.mark.parametrize("seed", range(24))
def test_every_guard_the_search_returns_revalidates(seed):
    # theta just below each model's reading at gb_max, the search's largest
    # guard, whose victim slot ends at +Nyquist, past the coarse grid's last
    # bin: on a model that rises to the top, the entry's guard lies within a
    # bisection step of gb_max. Seeds 1, 5, 7, 8 and others draw the
    # 12345.6789 Hz spacing, where that slot's end can round past +Nyquist (it
    # does on seed 7). Every entry must revalidate, and pass as the guards
    # command judges it
    numerology = _random_numerology(seed)
    s = numerology.subcarrier_spacing
    gb_max = OVERSAMPLE * numerology.sample_rate / 2 - band_edge_hz(numerology) - s
    for alpha in DEFAULT_ALPHA_GRID:
        if not _valid(alpha, numerology):
            continue
        model = LeakageModel.for_alpha(alpha, numerology)
        theta = _floor_6g(model.suppression_db(gb_max))
        table = build_lookup_table([theta], numerology, [alpha])
        achieved = revalidate(table, numerology)[theta]
        assert achieved >= theta - cli.REVALIDATE_TOL_DB, alpha


def test_slot_edges_fall_on_both_grids():
    # half a subcarrier is REVALIDATE_STEP / 2 fine bins and REVALIDATE_STEP / 4
    # coarse ones, so the occupied band is whole slots on both grids
    assert REVALIDATE_STEP % 4 == 0


def test_revalidate_takes_short_ffts_per_alpha_and_no_grid_psd(cfg, monkeypatch):
    # two entries share alpha 0.05: per distinct alpha, REVALIDATE_STEP / 8 + 1
    # FFTs of a sixteenth of the fine grid's length (_pulse_power), so 18 for
    # three entries, no FFT of the fine grid's length, and no Welch draw built
    # or read from windowed_psd's cache
    table = LookupTable({
        20.0: GuardAllocation(0.05, 55, 3.25, 0.9, 0.9, 0.81, 20.0),
        30.0: GuardAllocation(0.1, 110, 2.5, 0.9, 0.9, 0.81, 30.0),
        45.0: GuardAllocation(0.05, 55, 15.5, 0.9, 0.9, 0.81, 45.0),
    })
    s = cfg.subcarrier_spacing
    expected = {t: _richardson(*_reference_readings(a.alpha, cfg, a.gb_subcarriers * s))
                for t, a in table.entries.items()}
    ffts = []

    def counted(fft):
        def call(a, n=None, *args, **kwargs):
            ffts.append((fft.__name__, n))
            return fft(a, n, *args, **kwargs)
        return call

    def no_grid(*args, **kwargs):
        raise AssertionError("grid PSD built")

    for name in ("fft", "rfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    for owner in (spectrum, optimizer):
        monkeypatch.setattr(owner, "windowed_psd", no_grid)
    achieved = revalidate(table, cfg)
    rows = REVALIDATE_STEP // 4
    assert ffts == [("fft", _revalidation_size(cfg) // rows)] * (rows // 2 + 1) * 2
    assert list(achieved) == [20.0, 30.0, 45.0]
    for theta, value in achieved.items():
        assert value == pytest.approx(expected[theta], abs=1e-9), theta


@pytest.mark.parametrize("numerology, bound", [(NumerologyConfig(), 1.2e-4),
                                               (ODD_CFG, 4e-4)], ids=["default", "odd"])
def test_revalidation_error_within_its_bar(numerology, bound):
    # each built entry's estimate against the reference's Richardson value
    # from grids 4x and 8x finer than the fine one (converged to about 1e-5
    # dB): within the entry's error bar |fine - coarse| / 3, and within a
    # bound pinned from measurement (worst 1.19e-4 dB on the default
    # numerology, 3.65e-4 dB on ODD_CFG)
    table = build_lookup_table(DEFAULT_THETA_LIST, numerology)
    s, fine_n = numerology.subcarrier_spacing, _revalidation_size(numerology)
    guards = [(a.alpha, a.gb_subcarriers * s) for a in table.entries.values()]
    pairs = grid_suppression_db(numerology, guards)
    achieved = revalidate(table, numerology)
    assert len(achieved) == len(DEFAULT_THETA_LIST)
    for theta, (alpha, g), (fine, coarse) in zip(table.entries, guards, pairs):
        exact = _richardson(*[  # uncached: 2^21 bins on the default numerology
            suppression_db(_rolled_comb_psd.__wrapped__(alpha, numerology, k * fine_n), g, s)
            for k in (8, 4)])
        error = abs(achieved[theta] - exact)
        assert error <= abs(fine - coarse) / 3, theta
        assert error < bound, theta


# the default table's (alpha, GB) entries and, in dB, the suppression that
# revalidation estimates for them from its 2^18-bin grid and 2^17-bin subgrid
DEFAULT_ENTRIES = {
    20.0: (0.0, 4.343864440917969, 20.002386106877253),
    25.0: (0.01, 10.320009231567383, 25.003439138197905),
    30.0: (0.03, 12.571889877319336, 30.003368902812554),
    35.0: (0.04, 14.557275772094727, 35.00571761487607),
    40.0: (0.05, 15.303461074829102, 40.0011061691056),
    45.0: (0.055, 16.802494049072266, 45.004388739013905),
}


def _default_table(cfg):
    return LookupTable({
        theta: GuardAllocation(alpha, WindowSpec.for_config(alpha, cfg).t_cp_win,
                               gb, 1.0, 1.0, 1.0, theta)
        for theta, (alpha, gb, _) in DEFAULT_ENTRIES.items()
    })


def test_revalidate_peaks_under_2_1_mb(cfg):
    # 1.84 MB measured (numpy 2.4), 1.97 MB in a process that has not yet
    # imported numpy.fft's modules: building one alpha's E, its 1.20 MB
    # output (P, 1.05 MB, and its mirrored margins) beside one 16,384-point
    # FFT's output (0.26 MB), the power buffer (0.13 MB), and the twiddled row
    # and the twiddle (78 kB each). The band sums read E through views, so
    # they peak lower, at E and 17 kB. The bound leaves 0.13 MB of margin
    # over the higher reading.
    table = _default_table(cfg)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        revalidate(table, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2.1e6, peak


def test_revalidate_builds_no_frequency_grid(cfg, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("frequency grid built")

    monkeypatch.setattr(spectrum, "_frequency_grid", no_grid)
    achieved = revalidate(_default_table(cfg), cfg)
    assert list(achieved) == list(DEFAULT_ENTRIES)
    for theta, (_, _, value) in DEFAULT_ENTRIES.items():
        assert achieved[theta] == pytest.approx(value, abs=1e-9), theta


# sample rates whose bins are not evenly spaced in floating point: k * val
# rounds differently from bin to bin, so a window of the grid must take the
# grid's first bin interval, not its own, as the trapezoid's area scale
UNEVEN_RATES = [4 * 96 * 12345.6789, 4 * 100 * 60e3 / 7]


@settings(deadline=None, derandomize=True, max_examples=400)
@given(size=st.integers(2, 5000) | st.sampled_from([512 * 96, 512 * 1024]),
       rate=st.sampled_from(UNEVEN_RATES + [4 * 1024 * 15e3])
       | st.floats(1.0, 1e10),
       data=st.data())
def test_grid_band_is_trapezoid_on_the_full_grid(size, rate, data):
    # bit for bit, from the bins a band touches: random band edges, edges on
    # grid bins, both grid ends, the first bin one period on, and edges up to
    # two bins past the grid. A band whose lower edge lies within one period
    # of the lowest bin reads the grid extended past its top by the bins
    # k * val that np.fft.fftfreq makes; any other raises _trapezoid's error
    freqs = spectrum._frequency_grid(size, rate)
    step, val = freqs[1] - freqs[0], 1.0 / (size * (1.0 / rate))
    top = (size - 1) // 2  # the integer of the grid's top bin
    extended = np.concatenate((freqs, np.arange(top + 1, top + 4) * val))
    edge = (st.integers(0, size - 1).map(lambda j: float(freqs[j]))
            | st.sampled_from([float(freqs[0]), float(freqs[-1]),
                               float(extended[size])])
            | st.floats(freqs[0] - 2 * step, freqs[-1] + 2 * step))
    f_lo, f_hi = sorted((data.draw(edge), data.draw(edge)))
    if freqs[0] <= f_lo < extended[size]:
        lo, w = spectrum._trapezoid(extended, f_lo, f_hi)
        got_lo, got_w = spectrum._grid_band(size, rate, f_lo, f_hi)
        assert got_lo == lo - size // 2  # counted from DC
        assert got_w.tobytes() == w.tobytes()
    else:
        with pytest.raises(ValueError, match="exceeds PSD grid coverage") as oracle:
            spectrum._trapezoid(freqs, f_lo, f_hi)
        with pytest.raises(ValueError) as windowed:
            spectrum._grid_band(size, rate, f_lo, f_hi)
        assert str(windowed.value) == str(oracle.value)


def test_welch_averages_the_last_segment(small_cfg):
    # three overlapped segments; the tone at subcarrier -10 sounds only in the
    # last half-segment, which no other segment covers (without the last
    # segment it reads about 175 dB below the tone at subcarrier 3)
    seg_len = SEGMENT_SYMBOLS * small_cfg.n_fft
    n = np.arange(2 * seg_len)
    stream = np.exp(2j * np.pi * 3 * n / small_cfg.n_fft)
    tail = n[-seg_len // 2:]
    stream[tail] += np.exp(-2j * np.pi * 10 * tail / small_cfg.n_fft)
    psd = estimate_psd(stream, small_cfg)

    def level_db(subcarrier):
        f = subcarrier * small_cfg.subcarrier_spacing
        return psd.power_db[np.argmin(np.abs(psd.freqs - f))]

    assert level_db(-10) > level_db(3) - 20.0


def test_windowed_psd_cached_identity(small_cfg):
    assert windowed_psd(0.05, small_cfg, 128, 0) is windowed_psd(0.05, small_cfg, 128, 0)


class TestPsdRepresentation:
    def test_one_grid_per_size_and_rate(self, small_cfg):
        welch = windowed_psd(0.05, small_cfg, 128, 0)
        assert windowed_psd(0.0, small_cfg, 128, 1).freqs is welch.freqs
        # the Welch estimate lies on the grid the expected PSD is read on
        np.testing.assert_array_equal(welch.freqs, _rolled_comb_psd(0.05, small_cfg).freqs)

    def test_arrays_read_only(self, small_cfg):
        psd = windowed_psd(0.05, small_cfg, 128, 0)
        for array in (psd.freqs, psd.power):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_power_db_is_derived(self, small_cfg):
        psd = windowed_psd(0.05, small_cfg, 128, 0)
        assert psd.linear() is psd.power
        np.testing.assert_array_equal(psd.power_db, 10.0 * np.log10(psd.power))

    def test_zero_power_bins_stay_finite(self, cfg):
        freqs = np.arange(-4 * cfg.obw_hz, 4 * cfg.obw_hz, cfg.subcarrier_spacing / 4)
        edge = band_edge_hz(cfg)
        psd = PsdEstimate(freqs, (np.abs(freqs) <= edge).astype(float), edge)
        s = cfg.subcarrier_spacing
        assert np.isfinite(psd.power_db).all()
        assert np.isfinite(measure_aci(psd, 2 * s, s, 0.0).leak_power_db)
        assert np.isfinite(suppression_db(psd, 2 * s, s))

    def test_csv_bytes_match_row_wise_format(self, tmp_path):
        freqs = np.array([-1.5e6, -0.25, -1e-7, 0.0, 2.5e5, 2.5e5 + 1e-6])
        power = np.array([0.0, 1e-12, 1.0, 0.5, 3.0, 1e-300])
        psd = PsdEstimate(freqs, power, 2.5e5)
        write_psd_csv(psd, tmp_path / "psd.csv")
        rows = "".join(
            f"{f:.6f},{p:.6f}\n" for f, p in zip(psd.freqs, psd.power_db)
        )
        assert (tmp_path / "psd.csv").read_bytes() == (
            "freq_hz,power_db\n" + rows
        ).encode()
