import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import guardopt.optimizer as optimizer
import guardopt.spectrum as spectrum
from guardopt.numerology import NumerologyConfig, WindowSpec
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
    falling_taper,
    occupied_bins,
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
    p = psd.linear()
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * psd.resolution)])
    lo, hi = np.interp([f_lo, f_hi], psd.freqs, cum)
    return float(hi - lo)


@functools.lru_cache(maxsize=2)
def _rolled_comb_psd(alpha: float, cfg: NumerologyConfig) -> PsdEstimate:
    """Reference expected PSD on the Welch grid: the pulse power spectrum,
    mirrored from a real FFT, summed over the occupied subcarriers by
    pairwise doubling of np.roll copies. Cached for the few alphas a test
    reads in turn."""
    ocfg = cfg.oversampled(OVERSAMPLE)
    L = OVERSAMPLE * WindowSpec.for_config(alpha, cfg).t_cp_win
    pulse = np.concatenate(
        [rising_taper(L), np.ones(ocfg.t_cp_ch + ocfg.n_fft), falling_taper(L)]
    )
    nfft = 4 * SEGMENT_SYMBOLS * ocfg.n_fft
    step = nfft // ocfg.n_fft
    half = np.abs(np.fft.rfft(pulse, n=nfft)) ** 2
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


class TestEstimatePsd:
    def test_pure_tone_peak_location(self, small_cfg):
        k = 10
        fs = small_cfg.sample_rate
        n = np.arange(16 * 4 * small_cfg.n_fft)
        tone = np.exp(2j * np.pi * k * small_cfg.subcarrier_spacing * n / fs)
        psd = estimate_psd(tone, small_cfg)
        peak = psd.freqs[np.argmax(psd.power_db)]
        assert abs(peak - k * small_cfg.subcarrier_spacing) <= psd.resolution

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
        assert psd.resolution <= small_cfg.subcarrier_spacing / 4

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
        base = NumerologyConfig(n_fft=n_fft, n_occupied=1 + int(occupied * (n_fft - 1)),
                                t_cp_ch=int(cp * n_fft))
        gd = WindowSpec.for_config(alpha, base).t_cp_win
        assume(gd + base.t_cp_ch < base.n_fft)  # a valid alpha
        ocfg = base.oversampled(OVERSAMPLE)
        stream = symbol_stream(ocfg, WindowSpec(alpha, OVERSAMPLE * gd), PSD_SYMBOLS, 0)
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

    def test_negative_guard_rejected(self, cfg):
        psd = _flat_psd(-30.0, cfg)
        with pytest.raises(ValueError):
            measure_aci(psd, -1.0, cfg.obw_hz, 0.0)

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
            (psd.freqs[0] + 0.4 * psd.resolution, psd.freqs[0] + 2.2 * s),
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

    def test_in_band_power_is_band_power(self, cfg):
        psd = _rolled_comb_psd(0.05, cfg)
        edge = psd.band_edge_hz
        assert psd.in_band_power == band_power(psd, -edge, edge)


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

    def test_unreachable_victim_exceeds_grid(self):
        # one subcarrier on a one-bin FFT: the grid ends inside the victim slot
        tiny = NumerologyConfig(n_fft=1, n_occupied=1, t_cp_ch=0)
        with pytest.raises(ThetaUnreachableError, match="victim band alone"):
            required_guard_band(0.1, 30.0, tiny)

    def test_unreachable_within_narrow_grid(self, cfg):
        # no guard fitting the grid reaches 300 dB: the largest guard fails
        with pytest.raises(ThetaUnreachableError, match="within the grid span"):
            required_guard_band(0.0, 300.0, cfg)

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
    if gb_max < 0:
        raise ThetaUnreachableError("victim band alone exceeds the PSD grid span")
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
    tiny = NumerologyConfig(n_fft=1, n_occupied=1, t_cp_ch=0)
    outcomes = []
    for numerology, alpha in [(cfg, 0.0), (cfg, 0.05), (cfg, 0.2), (tiny, 0.1)]:
        model = LeakageModel.for_alpha(alpha, numerology)
        for theta in (5.0, 20.0, 33.3, 45.0, 80.0, 150.0, 300.0):
            got = _outcome(model.guard_band, theta)
            assert got == _outcome(
                lambda t: _reference_guard_band(model, t), theta
            ), (alpha, theta)
            outcomes.append(got)
    assert 0.0 in outcomes
    for text in ("within the grid span", "leakage model resolves",
                 "victim band alone"):
        assert any(text in str(o) for o in outcomes), text


class TestExpectedPsd:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_matches_roll_loop(self, cfg, alpha):
        # the reference's doubling against the pulse spectrum shifted onto
        # every occupied subcarrier and summed term by term, tapered over
        # OVERSAMPLE x the guard duration charged
        ocfg = cfg.oversampled(OVERSAMPLE)
        L = OVERSAMPLE * WindowSpec.for_config(alpha, cfg).t_cp_win
        pulse = np.concatenate(
            [rising_taper(L), np.ones(ocfg.t_cp_ch + ocfg.n_fft), falling_taper(L)]
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
        # the default table re-measured on the reference PSD
        table = build_lookup_table(DEFAULT_THETA_LIST, cfg)
        s = cfg.subcarrier_spacing
        achieved = revalidate(table, cfg)
        assert list(achieved) == list(DEFAULT_THETA_LIST)
        for theta, a in table.entries.items():
            ref = _rolled_comb_psd(a.alpha, cfg)
            assert achieved[theta] == pytest.approx(
                suppression_db(ref, a.gb_subcarriers * s, s), abs=1e-9
            ), theta

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


def _top_guard_hz(psd, s):
    """The largest guard band whose one-subcarrier victim slot the grid holds."""
    return psd.freqs[-1] - psd.band_edge_hz - s


@pytest.mark.parametrize("numerology", [NumerologyConfig(), ODD_CFG],
                         ids=["default", "odd"])
@pytest.mark.parametrize("alpha", DEFAULT_ALPHA_GRID)
@settings(deadline=None, derandomize=True, max_examples=3)
@given(shares=st.lists(st.floats(0.0, 1.0), max_size=4),
       aligned=st.lists(st.integers(0, 10**6), max_size=4))
def test_grid_suppression_matches_full_grid_psd(numerology, alpha, shares, aligned):
    # the band-only reading of the two integrated bands against suppression_db
    # on the whole reference grid PSD, from no guard to the grid top, at
    # fractional guards and at guards whose victim slot starts on a grid bin
    psd = _rolled_comb_psd(alpha, numerology)
    s = numerology.subcarrier_spacing
    top = _top_guard_hz(psd, s)
    bins = int(top // psd.resolution)
    guards = ([0.0, top] + [u * top for u in shares]
              + [(j % (bins + 1)) * psd.resolution for j in aligned])
    got = grid_suppression_db(numerology, [(alpha, g) for g in guards])
    for g, value in zip(guards, got):
        assert value == pytest.approx(suppression_db(psd, g, s), abs=1e-9), g


@pytest.mark.parametrize("numerology", [NumerologyConfig(), ODD_CFG],
                         ids=["default", "odd"])
def test_grid_suppression_victim_past_grid(numerology):
    psd = _rolled_comb_psd(0.05, numerology)
    s = numerology.subcarrier_spacing
    past = _top_guard_hz(psd, s) + 0.5 * psd.resolution
    with pytest.raises(ValueError, match="exceeds PSD grid coverage") as oracle:
        suppression_db(psd, past, s)
    with pytest.raises(ValueError) as band_only:
        grid_suppression_db(numerology, [(0.05, 0.0), (0.05, past)])
    assert str(band_only.value) == str(oracle.value)


def test_revalidate_takes_one_fft_per_alpha_and_no_grid_psd(cfg, monkeypatch):
    # two entries share alpha 0.05: two FFTs for three entries, and no
    # Welch draw built or read from windowed_psd's cache
    table = LookupTable({
        20.0: GuardAllocation(0.05, 55, 3.25, 0.9, 0.9, 0.81, 20.0),
        30.0: GuardAllocation(0.1, 110, 2.5, 0.9, 0.9, 0.81, 30.0),
        45.0: GuardAllocation(0.05, 55, 15.5, 0.9, 0.9, 0.81, 45.0),
    })
    s = cfg.subcarrier_spacing
    expected = {t: suppression_db(_rolled_comb_psd(a.alpha, cfg), a.gb_subcarriers * s, s)
                for t, a in table.entries.items()}
    ffts = []

    def counted(fft):
        return lambda *args, **kwargs: ffts.append(fft.__name__) or fft(*args, **kwargs)

    def no_grid(*args, **kwargs):
        raise AssertionError("grid PSD built")

    for name in ("fft", "rfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    for owner in (spectrum, optimizer):
        monkeypatch.setattr(owner, "windowed_psd", no_grid)
    achieved = revalidate(table, cfg)
    assert ffts == ["rfft", "rfft"]
    assert list(achieved) == [20.0, 30.0, 45.0]
    for theta, value in achieved.items():
        assert value == pytest.approx(expected[theta], abs=1e-9), theta


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
