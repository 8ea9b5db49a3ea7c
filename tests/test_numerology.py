import subprocess
import sys
from pathlib import Path

import pytest

import guardopt
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
    with pytest.raises(ValueError, match="t_cp_win must be non-negative"):
        WindowSpec(alpha=0.1, t_cp_win=-1)


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
