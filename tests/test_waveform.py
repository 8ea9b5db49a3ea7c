import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guardopt.numerology import NumerologyConfig, WindowSpec, round_half_up
from guardopt.waveform import (
    QPSK,
    occupied_bins,
    pulse_weights,
    random_qpsk_payloads,
    rising_taper,
    symbol_stream,
)


def _reference_stream(cfg, L, n_symbols, seed):
    """Per-symbol oracle: IFFT, cyclic extension and RC weights one symbol at
    a time, each shifted by one hop and added into a zero stream."""
    weights = np.concatenate(
        [rising_taper(L), np.ones(cfg.t_cp_ch + cfg.n_fft), 1.0 - rising_taper(L)]
    )
    hop = weights.size - L
    out = np.zeros(hop * n_symbols + L if n_symbols else 0, dtype=complex)
    payloads = random_qpsk_payloads(n_symbols, cfg, np.random.default_rng(seed))
    for k, payload in enumerate(payloads):
        grid = np.zeros(cfg.n_fft, dtype=complex)
        grid[occupied_bins(cfg)] = payload
        body = np.fft.ifft(grid) * (cfg.n_fft / np.sqrt(cfg.n_occupied))
        ext = np.concatenate([body[cfg.n_fft - cfg.t_cp_ch - L:], body, body[:L]])
        out[k * hop:k * hop + ext.size] += ext * weights
    return out


def _ramps(cfg):
    """Ramp lengths 0, 1, a middle one and the largest valid one."""
    top = cfg.n_fft - cfg.t_cp_ch - 1
    return sorted({0, min(1, top), top // 2, top})


ORACLE_CONFIGS = [
    NumerologyConfig(n_fft=16, n_occupied=1, t_cp_ch=0),
    NumerologyConfig(n_fft=16, n_occupied=15, t_cp_ch=15),
    NumerologyConfig(n_fft=128, n_occupied=48, t_cp_ch=8),
    NumerologyConfig(n_fft=1024, n_occupied=600, t_cp_ch=72),
    NumerologyConfig(n_fft=4096, n_occupied=4095, t_cp_ch=1000),
]


@pytest.mark.parametrize("cfg,L", [
    pytest.param(cfg, L, id=f"n{cfg.n_fft}-{cfg.n_occupied}-{cfg.t_cp_ch}-L{L}")
    for cfg in ORACLE_CONFIGS for L in _ramps(cfg)
])
def test_symbol_stream_matches_per_symbol_oracle(cfg, L):
    win = WindowSpec(L)
    for n_symbols in (0, 1, 2, 7, 40):
        for seed in (0, 5):
            stream = symbol_stream(cfg, win, n_symbols, seed)
            assert stream.dtype == complex
            assert np.array_equal(stream, _reference_stream(cfg, L, n_symbols, seed))


class TestPulseWeights:
    def test_zero_ramp_all_ones(self, small_cfg):
        w = pulse_weights(small_cfg, 0)
        assert w.shape == (small_cfg.n_fft + small_cfg.t_cp_ch,)
        assert np.all(w == 1.0)

    def test_taper_start_is_zero(self, cfg):
        w = pulse_weights(cfg, round_half_up(0.1 * 1000))
        assert abs(w[0]) < 1e-12

    def test_taper_end_continuous_with_plateau(self, cfg):
        L = round_half_up(0.1 * 1000)
        w = pulse_weights(cfg, L)
        assert w[L] == pytest.approx(1.0, abs=1e-12)
        assert np.all(w[L:L + cfg.t_cp_ch + cfg.n_fft] == 1.0)

    def test_length_and_range(self, cfg):
        for alpha, n in [(0.05, 512), (0.25, 301), (0.5, 100)]:
            L = round_half_up(alpha * n)
            w = pulse_weights(cfg, L)
            assert w.size == cfg.n_fft + cfg.t_cp_ch + 2 * L
            assert np.all((w >= 0.0) & (w <= 1.0))

    def test_complementary_tapers_sum_to_one(self, cfg):
        # overlap-add power-preservation condition: the rising head and the
        # falling tail of the pulse, checked by direct summation
        for L in (1, 7, 55, 219):
            w = pulse_weights(cfg, L)
            assert np.max(np.abs(w[:L] + w[-L:] - 1.0)) < 1e-12

    def test_smoothness_bound(self, cfg):
        L = round_half_up(0.1 * 1096)
        w = pulse_weights(cfg, L)
        assert np.max(np.abs(np.diff(w))) <= np.pi / L

    def test_extension_exceeding_symbol_rejected(self, small_cfg):
        top = small_cfg.n_fft - small_cfg.t_cp_ch
        pulse_weights(small_cfg, top - 1)
        with pytest.raises(ValueError, match="cyclic extension exceeds symbol"):
            pulse_weights(small_cfg, top)

    @given(
        n_fft=st.integers(min_value=2, max_value=4096),
        cp=st.floats(min_value=0.0, max_value=1.0),
        ramp=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_weights_always_in_unit_range(self, n_fft, cp, ramp):
        t_cp_ch = int(cp * (n_fft - 1))
        cfg = NumerologyConfig(n_fft=n_fft, n_occupied=1, t_cp_ch=t_cp_ch)
        w = pulse_weights(cfg, int(ramp * (n_fft - t_cp_ch - 1)))
        assert np.all((w >= -1e-15) & (w <= 1.0 + 1e-15))


class TestSymbolStream:
    def test_single_tone_is_complex_exponential(self):
        cfg = NumerologyConfig(n_fft=128, n_occupied=1, t_cp_ch=0)
        stream = symbol_stream(cfg, WindowSpec(0), 1, seed=0)
        env = np.abs(stream)
        assert np.max(env) == pytest.approx(np.min(env))
        k = occupied_bins(cfg)[-1]
        n = np.arange(cfg.n_fft)
        expected = np.exp(2j * np.pi * k * n / cfg.n_fft)
        assert np.allclose(stream / stream[0], expected)

    def test_occupied_bins_skip_dc(self, small_cfg):
        bins = occupied_bins(small_cfg)
        assert 0 not in bins
        assert bins.size == small_cfg.n_occupied
        assert np.unique(bins).size == bins.size

    def test_average_power_unity(self, small_cfg):
        # Monte-Carlo Parseval check over 100 random QPSK symbols
        stream = symbol_stream(small_cfg, WindowSpec(0), 100, seed=7)
        assert np.mean(np.abs(stream) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_alpha_zero_is_classic_cp_ofdm(self, small_cfg):
        n, cp = small_cfg.n_fft, small_cfg.t_cp_ch
        stream = symbol_stream(small_cfg, WindowSpec(0), 2, seed=0)
        assert stream.size == 2 * (n + cp)
        for sym in stream.reshape(2, n + cp):
            assert np.array_equal(sym[:cp], sym[n:])

    def test_channel_cp_unweighted(self, small_cfg):
        win = WindowSpec.for_config(0.1, small_cfg)
        L, n, cp = win.t_cp_win, small_cfg.n_fft, small_cfg.t_cp_ch
        stream = symbol_stream(small_cfg, win, 1, seed=1)
        assert stream.size == n + cp + 2 * L
        assert np.array_equal(stream[L:L + cp], stream[L + n:L + n + cp])

    def test_windowing_reduces_energy(self, small_cfg):
        win = WindowSpec.for_config(0.1, small_cfg)
        L, n, cp = win.t_cp_win, small_cfg.n_fft, small_cfg.t_cp_ch
        windowed = symbol_stream(small_cfg, win, 1, seed=2)
        # the same payload unwindowed: body of the alpha = 0 stream, extended
        body = symbol_stream(small_cfg, WindowSpec(0), 1, seed=2)[cp:]
        unweighted = np.concatenate([body[n - cp - L:], body, body[:L]])
        assert np.sum(np.abs(windowed) ** 2) < np.sum(np.abs(unweighted) ** 2)

    def test_extension_exceeding_symbol_rejected(self):
        cfg = NumerologyConfig(n_fft=128, n_occupied=48, t_cp_ch=64)
        with pytest.raises(ValueError, match="cyclic extension exceeds symbol"):
            symbol_stream(cfg, WindowSpec(110), 1, seed=0)

    def test_stream_length_formula(self, small_cfg):
        # telescoping construction: K hops of (n_fft + t_cp_ch + L) plus tail L
        win = WindowSpec.for_config(0.1, small_cfg)
        L = win.t_cp_win
        for K in (1, 3, 8):
            stream = symbol_stream(small_cfg, win, K, seed=3)
            assert stream.size == K * (small_cfg.n_fft + small_cfg.t_cp_ch + L) + L

    def test_overlap_region_sums_both_ramps(self, small_cfg):
        win = WindowSpec.for_config(0.1, small_cfg)
        L, n, cp = win.t_cp_win, small_cfg.n_fft, small_cfg.t_cp_ch
        stream = symbol_stream(small_cfg, win, 2, seed=3)
        # the same two bodies unwindowed, from the alpha = 0 stream
        flat = symbol_stream(small_cfg, WindowSpec(0), 2, seed=3)
        body0, body1 = flat.reshape(2, n + cp)[:, cp:]
        hop = n + cp + L
        expected = (body0[:L] * (1.0 - rising_taper(L))
                    + body1[n - cp - L:n - cp] * rising_taper(L))
        assert np.allclose(stream[hop:hop + L], expected)

    def test_power_constant_across_boundaries(self, small_cfg):
        # per-symbol-period power stays within 2% across boundaries on average
        K = 200
        win = WindowSpec.for_config(0.1, small_cfg)
        hop = small_cfg.n_fft + small_cfg.t_cp_ch + win.t_cp_win
        stream = symbol_stream(small_cfg, win, K, seed=11)
        periods = [
            np.mean(np.abs(stream[i * hop:(i + 1) * hop]) ** 2)
            for i in range(1, K - 1)
        ]
        first_half = np.mean(periods[: len(periods) // 2])
        second_half = np.mean(periods[len(periods) // 2:])
        assert first_half == pytest.approx(second_half, rel=0.02)
        # overlap dips pointwise (complementary amplitude ramps add
        # incoherently); constancy holds per symbol period, not per sample


def test_symbol_stream_deterministic(small_cfg):
    win = WindowSpec.for_config(0.05, small_cfg)
    a = symbol_stream(small_cfg, win, 5, seed=42)
    b = symbol_stream(small_cfg, win, 5, seed=42)
    assert np.array_equal(a, b)
    c = symbol_stream(small_cfg, win, 5, seed=43)
    assert not np.array_equal(a, c)


def test_qpsk_constellation_unit_power():
    assert np.allclose(np.abs(QPSK), 1.0)
