import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import guardopt
import guardopt.spectrum as spectrum
import guardopt.waveform as waveform
from guardopt.numerology import NumerologyConfig, WindowSpec, config_float, round_half_up
from guardopt.optimizer import checked_alpha_grid
from guardopt.spectrum import (
    OVERSAMPLE,
    SEGMENT_SYMBOLS,
    LeakageModel,
    required_guard_band,
    windowed_psd,
)
from guardopt.waveform import pulse_weights


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
        # DC is unused: n_fft subcarriers would put two on one bin
        dict(n_fft=8, n_occupied=8, t_cp_ch=0),
        dict(n_fft=1, n_occupied=1, t_cp_ch=0),
        dict(n_occupied=1024),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ValueError):
        NumerologyConfig(**kwargs)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected(spacing):
    with pytest.raises(ValueError, match="subcarrier_spacing must be finite"):
        NumerologyConfig(subcarrier_spacing=spacing)


# an integer past the float range, which float() and math.isfinite refuse
# with OverflowError
HUGE = 10**400


def test_integer_past_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="^expected a number, got an integer too large"):
        config_float(HUGE)
    with pytest.raises(ValueError, match="^subcarrier_spacing must be finite"):
        NumerologyConfig(subcarrier_spacing=HUGE)
    # n_fft is an int, but the sample rate is a float
    with pytest.raises(ValueError, match=r"^n_fft \* subcarrier_spacing, the sample rate"):
        NumerologyConfig(n_fft=HUGE)
    with pytest.raises(ValueError, match=r"^n_fft \* subcarrier_spacing, the sample rate"):
        NumerologyConfig(subcarrier_spacing=1e300, n_fft=10**9)
    assert config_float(2**1000) == 2.0**1000


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


def test_window_spec_invalid(cfg):
    with pytest.raises(ValueError, match=r"alpha must be a number in \[0, 1\]"):
        WindowSpec.for_config(1.5, cfg)
    with pytest.raises(ValueError, match="cyclic extension exceeds symbol length"):
        WindowSpec.for_config(0.95, cfg)
    with pytest.raises(ValueError, match="t_cp_win must be non-negative"):
        WindowSpec(t_cp_win=-1)


ALPHA_REASON = "alpha must be a number in [0, 1]"
EXTENSION_REASON = "cyclic extension exceeds symbol length"
# n_fft 64 and CP 4: a taper of round(alpha * 68) fills the symbol from 60 on
ALPHA_CFG = NumerologyConfig(n_fft=64, n_occupied=24, t_cp_ch=4)


@pytest.mark.parametrize("alpha, reason", [
    pytest.param(alpha, reason, id=repr(alpha)) for alpha, reason in [
        (float("nan"), ALPHA_REASON),
        (float("inf"), ALPHA_REASON),
        (float("-inf"), ALPHA_REASON),
        (-0.1, ALPHA_REASON),
        (1.5, ALPHA_REASON),
        (True, ALPHA_REASON),  # not the roll-off 1
        ("0.1", ALPHA_REASON),
        (None, ALPHA_REASON),
        (60 / 68, EXTENSION_REASON),
        (0.9, EXTENSION_REASON),
        (0, None),
        (0.05, None),
        (np.float64(0.1), None),
        (0.8, None),
    ]
])
def test_one_alpha_rule_everywhere(monkeypatch, alpha, reason):
    # every entry point that takes a roll-off rejects a bad one with
    # for_config's reason before it builds a pulse, and tapers a good one
    # by OVERSAMPLE x for_config's taper on the oversampled grid
    cfg, ramps = ALPHA_CFG, []

    def spy(ocfg, ramp_len):
        ramps.append(ramp_len)
        return pulse_weights(ocfg, ramp_len)

    monkeypatch.setattr(spectrum, "pulse_weights", spy)
    monkeypatch.setattr(waveform, "pulse_weights", spy)
    windowed_psd.cache_clear()  # a cached draw would build no pulse
    entry_points = {
        "for_config": lambda: WindowSpec.for_config(alpha, cfg),
        "checked_alpha_grid": lambda: checked_alpha_grid([alpha], cfg),
        "required_guard_band": lambda: required_guard_band(alpha, 10.0, cfg),
        "LeakageModel.for_alpha": lambda: LeakageModel.for_alpha(alpha, cfg),
        "windowed_psd": lambda: windowed_psd(alpha, cfg, SEGMENT_SYMBOLS),
    }
    if reason is not None:
        for name, call in entry_points.items():
            with pytest.raises(ValueError) as info:
                call()
            grid = name == "checked_alpha_grid"
            assert str(info.value) == (
                f"alpha_grid value {alpha!r}: {reason}" if grid else reason), name
        assert ramps == []
        return
    taper = round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch))
    assert entry_points.pop("for_config")() == WindowSpec(taper)
    assert entry_points.pop("checked_alpha_grid")() == [alpha]
    for name, call in entry_points.items():
        ramps.clear()
        call()
        assert ramps == [OVERSAMPLE * taper], name


def test_oversampled(cfg):
    o = cfg.oversampled(4)
    assert o.n_fft == 4 * cfg.n_fft
    assert o.t_cp_ch == 4 * cfg.t_cp_ch
    assert o.n_occupied == cfg.n_occupied
    assert o.sample_rate == pytest.approx(4 * cfg.sample_rate)
    with pytest.raises(ValueError):
        cfg.oversampled(0)


def test_cli_import_leaves_yaml_unloaded():
    # only load_yaml needs yaml; guards, psd and lookup-build read no YAML file
    code = "import sys, guardopt.cli; print('yaml' in sys.modules)"
    root = str(Path(guardopt.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
