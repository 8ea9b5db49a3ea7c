import pytest

from guardopt.numerology import NumerologyConfig, WindowSpec, round_half_up


def test_sample_rate_derived(cfg):
    assert cfg.sample_rate == cfg.n_fft * cfg.subcarrier_spacing
    assert cfg.sample_rate == pytest.approx(15.36e6)


def test_obw(cfg):
    assert cfg.obw_hz == pytest.approx(9e6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_fft=0),
        dict(n_occupied=0),
        dict(n_occupied=2000),
        dict(subcarrier_spacing=-1.0),
        dict(t_cp_ch=-1),
        dict(t_cp_ch=1024),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ValueError):
        NumerologyConfig(**kwargs)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected(spacing):
    with pytest.raises(ValueError, match="subcarrier_spacing must be finite"):
        NumerologyConfig(subcarrier_spacing=spacing)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0


def test_window_spec_alpha_zero():
    assert WindowSpec.for_config(0.0, NumerologyConfig()).t_cp_win == 0


def test_window_spec_taper_rounding(cfg):
    # 0.005 * 1096 = 5.48 -> 5
    assert WindowSpec.for_config(0.005, cfg).t_cp_win == 5
    assert WindowSpec.for_config(0.1, cfg).t_cp_win == round_half_up(0.1 * 1096)


def test_window_spec_invalid():
    with pytest.raises(ValueError):
        WindowSpec(alpha=1.5, t_cp_win=0)
    with pytest.raises(ValueError):
        WindowSpec(alpha=0.0, t_cp_win=3)


def test_oversampled(cfg):
    o = cfg.oversampled(4)
    assert o.n_fft == 4 * cfg.n_fft
    assert o.t_cp_ch == 4 * cfg.t_cp_ch
    assert o.n_occupied == cfg.n_occupied
    assert o.sample_rate == pytest.approx(4 * cfg.sample_rate)
    with pytest.raises(ValueError):
        cfg.oversampled(0)


def test_from_mapping():
    cfg = NumerologyConfig.from_mapping(
        {"n_fft": 512, "n_occupied": 300, "subcarrier_spacing_hz": 30e3,
         "t_cp_ch_samples": 36}
    )
    assert cfg.n_fft == 512
    assert cfg.t_cp_ch == 36
    assert cfg.subcarrier_spacing == 30e3
    # missing keys fall back to defaults
    assert NumerologyConfig.from_mapping({}).n_fft == 1024
