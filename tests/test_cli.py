import errno
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import guardopt.cli as cli
import guardopt.numerology as numerology
import guardopt.optimizer as optimizer
import guardopt.scheduler as scheduler
import guardopt.spectrum as spectrum
from guardopt.cli import CONFIG_KEYS, ExperimentConfig, main
from guardopt.numerology import NumerologyConfig
from guardopt.scheduler import load_users_yaml, schedule_interference_based
from guardopt.spectrum import LeakageModel

README = Path(__file__).resolve().parent.parent / "README.md"

# cheap but non-trivial settings shared across CLI runs
THETA = "20,30"
ALPHA = "0,0.05,0.1"


def _run(argv):
    return main(argv)


def _read_csvs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


class TestConfigLoading:
    def test_defaults(self):
        ec = ExperimentConfig()
        assert ec.seed == 0
        assert ec.numerology.n_fft == 1024

    def test_yaml_overrides(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "n_fft: 512\nn_occupied: 300\nseed: 9\n"
            "theta_list: [25, 35]\nalpha_grid: [0, 0.1]\n"
        )
        ec = ExperimentConfig.load(path)
        assert ec.numerology.n_fft == 512
        assert ec.seed == 9
        assert ec.theta_list == (25.0, 35.0)
        assert ec.alpha_grid == (0.0, 0.1)

    def test_numerology_keys(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "n_fft: 512\nn_occupied: 300\nsubcarrier_spacing_hz: 30000.0\n"
            "t_cp_ch_samples: 36\n"
        )
        assert ExperimentConfig.load(path).numerology == NumerologyConfig(
            n_fft=512, n_occupied=300, subcarrier_spacing=30e3, t_cp_ch=36
        )

    @pytest.mark.parametrize("key", ["n_fft", "n_occupied", "t_cp_ch_samples"])
    @pytest.mark.parametrize(
        "value, written",
        [("512.9", "512.9"), ("512.0", "512.0"), ("true", "True"),
         ('"512"', "'512'")],
    )
    def test_non_integer_numerology_key_fails_by_key(
        self, tmp_path, key, value, written
    ):
        path = tmp_path / "exp.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.load(path)
        assert str(exc.value) == f"{path}: {key}: expected an integer, got {written}"

    @pytest.mark.parametrize(
        "text, reported",
        [("n_fft: 1.5\nt_cp_ch_samples: true\n", "n_fft: expected an integer, got 1.5"),
         ("t_cp_ch_samples: true\nn_fft: 1.5\n",
          "t_cp_ch_samples: expected an integer, got True")],
    )
    def test_first_bad_key_in_file_order_is_reported(self, tmp_path, text, reported):
        # one reading pass over the file: the first bad value stops it
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.load(path)
        assert str(exc.value) == f"{path}: {reported}"

    def test_empty_yaml_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        ec = ExperimentConfig.load(path)
        assert ec.numerology.n_fft == 1024

    @pytest.mark.parametrize(
        "text, key", [("seed: abc\n", "seed"), ("n_fft: [1]\n", "n_fft")]
    )
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        code = main(["lookup-build", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err and key in err

    def test_non_string_users_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("users: 5\n")
        code = main(["schedule", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: users: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text, keys",
        [("mode: heuristic\n", "'mode'"),
         ("thetalist: [20]\nseed: 1\nmode: x\n", "'thetalist', 'mode'"),
         ("psd_symbols: 256\n", "'psd_symbols'")],
    )
    def test_unknown_keys_rejected(self, tmp_path, capsys, text, keys):
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        code = main(["lookup-build", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unknown key {keys} (accepted: ")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == [path]

    def test_readme_lists_the_accepted_keys(self):
        text = " ".join(README.read_text().split())
        listed = re.search(r"Config YAML keys \(all optional\): (.*?)\. ", text)
        assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == CONFIG_KEYS

    @pytest.mark.parametrize(
        "flag, value, bad", [("--theta", "20,abc", "abc"), ("--alpha", "0,x", "x")]
    )
    def test_bad_flag_number_names_flag(self, tmp_path, capsys, flag, value, bad):
        code = main(["guards", flag, value, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {flag}: could not convert string to float: '{bad}'\n"
        )

    @pytest.mark.parametrize("command", ["guards", "lookup-build", "schedule"])
    def test_theta_flag_is_read_by(self, tmp_path, capsys, command):
        # the commands that use a threshold parse --theta; psd takes none
        out = tmp_path / "o"
        code = main([command, "--theta", "20,abc", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --theta: could not convert string to float: 'abc'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--users"])
    def test_malformed_yaml_names_file(self, tmp_path, capsys, flag):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [1\n")
        code = main(["schedule", flag, str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err and "malformed YAML" in err


    @pytest.mark.parametrize("argv, config, message", [
        (["schedule", "--users", ""], None, "--users: expected a path, got ''"),
        (["lookup-build", "--config", ""], None, "--config: expected a path, got ''"),
        (["lookup-build", "--out", ""], None, "--out: expected a path, got ''"),
        (["schedule"], 'users: ""\n', "exp.yaml: users: expected a path, got ''"),
        (["lookup-build"], 'out_dir: ""\n',
         "exp.yaml: out_dir: expected a path, got ''"),
        (["guards", "--theta", "20,,30"], None, "--theta: empty item in '20,,30'"),
        (["psd", "--alpha", "0,,0.1"], None, "--alpha: empty item in '0,,0.1'"),
    ], ids=["users-flag", "config-flag", "out-flag", "users-key", "out_dir-key",
            "theta-item", "alpha-item"])
    def test_empty_value_exits_1_naming_it(
        self, tmp_path, capsys, monkeypatch, argv, config, message
    ):
        # "" is not the packaged users, the defaults or the working directory,
        # and an empty list item is not dropped
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("exp.yaml").write_text(config)
            argv = [*argv, "--config", "exp.yaml"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == (["exp.yaml"] if config else [])

    def test_non_string_out_dir_names_file_and_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "exp.yaml"
        path.write_text("out_dir: [a, b]\n")
        code = main(["lookup-build", "--config", str(path), "--theta", THETA,
                     "--alpha", ALPHA])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: out_dir: ")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "key, value",
        [("n_fft", "1024.9"), ("n_occupied", "true"), ("t_cp_ch_samples", "72.0")],
    )
    def test_non_integer_key_names_file_and_key(self, tmp_path, capsys, key, value):
        # read as written, never truncated: 1024.9 points are not 1024
        path = tmp_path / "exp.yaml"
        path.write_text(f"{key}: {value}\n")
        out = tmp_path / "o"
        code = main(["psd", "--config", str(path), "--alpha", "0", "--out", str(out)])
        assert code == 1
        written = {"true": "True"}.get(value, value)
        assert capsys.readouterr().err == (
            f"error: {path}: {key}: expected an integer, got {written}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_spacing_names_file(self, tmp_path, capsys, value):
        path = tmp_path / "exp.yaml"
        path.write_text(f"subcarrier_spacing_hz: {value}\n")
        out = tmp_path / "o"
        code = main(["guards", "--config", str(path), "--theta", "20",
                     "--alpha", "0,0.05", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {path}: subcarrier_spacing_hz must be finite and positive, got "
        )
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["guards", "lookup-build"])
    @pytest.mark.parametrize("text, message", [
        (f"theta_list: [20, {'1' * 400}]\n",
         "theta_list: expected a number, got an integer too large for a float"),
        (f"alpha_grid: [0, {'1' * 400}]\n",
         "alpha_grid: expected a number, got an integer too large for a float"),
        (f"subcarrier_spacing_hz: {'1' * 400}\n", "subcarrier_spacing_hz: expected "
         "a number, got an integer too large for a float"),
        # n_fft is an int, so it overflows only in the float sample rate
        (f"n_fft: {'1' * 400}\n",
         "n_fft * subcarrier_spacing_hz, the sample rate, must be a finite float"),
    ], ids=["theta_list", "alpha_grid", "subcarrier_spacing_hz", "n_fft"])
    def test_integer_past_float_range_names_file_and_key(self, tmp_path, capsys,
                                                         command, text, message):
        # one error line, where float() raised OverflowError past every handler
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param(f"n_fft: {cli.N_FFT_LIMIT + 1}\n", f"n_fft must be at most "
                     f"{cli.N_FFT_LIMIT}, four times NR's largest FFT, got "
                     f"{cli.N_FFT_LIMIT + 1}", id="n_fft"),
        *(pytest.param(f"{key}: {value}\n",
                       f"{key}: expected a list of numbers, got {shown}",
                       id=f"{key}_{kind}")
          for key in ("theta_list", "alpha_grid")
          for value, shown, kind in (('"20"', "'20'", "string"), ("20", "20", "number"),
                                     ("{a: 1}", "{'a': 1}", "mapping"),
                                     ("null", "None", "null"))),
    ])
    def test_bad_size_or_list_names_file_and_key(self, tmp_path, capsys, text, message):
        # a list key is never iterated unless it is a list: "20" is not the
        # thresholds 2 and 0
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["lookup-build", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_fft", [cli.N_FFT_LIMIT + 1, 10 ** 300])
    def test_n_fft_past_limit_fails_in_load(self, tmp_path, n_fft):
        # 10**300 points pass the sample-rate check; the load, which makes no
        # array, fails before any numpy allocation could
        path = tmp_path / "exp.yaml"
        path.write_text(f"n_fft: {n_fft}\n")
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: n_fft "
                               rf"must be at most {cli.N_FFT_LIMIT}, "):
                ExperimentConfig.load(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 1e6, peak

    def test_n_fft_at_limit_is_accepted(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(f"n_fft: {cli.N_FFT_LIMIT}\n")
        cfg = ExperimentConfig.load(path).numerology
        assert cfg.n_fft == cli.N_FFT_LIMIT
        assert cfg.oversampled(spectrum.OVERSAMPLE).n_fft == 4 * cli.N_FFT_LIMIT

    @pytest.mark.parametrize("key", ["power_dbm", "sir_req_db"])
    def test_user_value_past_float_range_names_file_and_key(self, tmp_path, capsys, key):
        values = {"power_dbm": 0, "sir_req_db": 20, key: "1" * 400}
        users = tmp_path / "users.yaml"
        users.write_text("users:\n" + "".join(
            f"  - {{id: {uid}, power_dbm: {values['power_dbm']}, "
            f"sir_req_db: {values['sir_req_db']}}}\n" for uid in ("a", "b")))
        out = tmp_path / "o"
        assert main(["schedule", "--users", str(users), "--theta", THETA,
                     "--alpha", ALPHA, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {users}: user 1: {key}: expected a number, "
            "got an integer too large for a float\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_cp_ch_samples: 1024\n",
             "t_cp_ch_samples must be in [0, n_fft), got 1024"),
            ("t_cp_ch_samples: 2000\n",
             "t_cp_ch_samples must be in [0, n_fft), got 2000"),
            ("n_occupied: 1025\n",
             "n_occupied must be in [1, n_fft - 1] (DC is unused), got 1025"),
            ("n_fft: 256\nn_occupied: 300\n",
             "n_occupied must be in [1, n_fft - 1] (DC is unused), got 300"),
            # a 64-point FFT with DC unused carries 63 subcarriers, not 64
            ("n_fft: 64\nn_occupied: 64\n",
             "n_occupied must be in [1, n_fft - 1] (DC is unused), got 64"),
        ],
    )
    def test_bad_numerology_names_file_and_key(self, tmp_path, capsys, text, message):
        # the numerology's own checks name its fields; a config file's
        # error names the file's keys
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        code = main(["psd", "--config", str(path), "--alpha", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, written",
        [("true", "True"), ('"15000"', "'15000'"), ("1.5e4", "'1.5e4'"),
         ("15e3", "'15e3'")],
    )
    def test_non_number_spacing_names_file_and_key(
        self, tmp_path, capsys, value, written
    ):
        # true is not 1 Hz, and text is not converted: YAML 1.1 reads 1.5e4
        # and 15e3 as strings
        path = tmp_path / "exp.yaml"
        path.write_text(f"subcarrier_spacing_hz: {value}\n")
        out = tmp_path / "o"
        code = main(["guards", "--config", str(path), "--theta", "20",
                     "--alpha", "0,0.05", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: subcarrier_spacing_hz: expected a number, got {written}\n"
        )
        assert not out.exists()

    def test_non_mapping_config_names_file(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("- seed\n")
        out = tmp_path / "o"
        assert main(["lookup-build", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: expected a mapping of config keys, got ['seed']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["psd", "schedule"])
    def test_negative_seed_flag_names_flag(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--alpha", "0", "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --seed: expected a non-negative integer, got -1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["psd", "guards", "lookup-build", "schedule"])
    @pytest.mark.parametrize("text, message", [
        ("theta_list: [20, .inf]\n",
         "theta_list values must be finite and positive, got inf"),
        ("theta_list: [30, 20]\n", "theta_list must be sorted ascending"),
        ("alpha_grid: [0.1, 2]\n",
         "alpha_grid value 2.0: alpha must be a number in [0, 1]"),
        # checked on the file's numerology: GD 6 beside a 60-sample CP
        ("n_fft: 64\nn_occupied: 37\nt_cp_ch_samples: 60\nalpha_grid: [0, 0.05]\n",
         "alpha_grid value 0.05: cyclic extension exceeds symbol length"),
    ], ids=["theta_inf", "theta_unsorted", "alpha_past_1", "alpha_past_symbol"])
    def test_bad_list_names_file(self, tmp_path, capsys, command, text, message):
        # psd reads no threshold, and still rejects a file that holds a bad one
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_default_alpha_grid_is_not_checked_on_load(self, tmp_path):
        # the file's numerology rules out the default grid's larger roll-offs;
        # the file holds no grid, so --alpha can still give one that fits
        path = tmp_path / "exp.yaml"
        path.write_text("n_fft: 64\nn_occupied: 37\nt_cp_ch_samples: 60\n")
        argv = ["guards", "--config", str(path), "--theta", "20", "--alpha", "0",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0

    @pytest.mark.parametrize("value", ["-2", "1.5"])
    def test_bad_seed_key_names_file_and_key(self, tmp_path, capsys, value):
        path = tmp_path / "exp.yaml"
        path.write_text(f"seed: {value}\n")
        out = tmp_path / "o"
        code = main(["schedule", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: seed: expected a non-negative integer, got {value}\n"
        )
        assert not out.exists()


class TestPsdCommand:
    def test_theta_flag_is_a_usage_error(self, tmp_path):
        # psd reads no threshold, so it takes no --theta
        with pytest.raises(SystemExit) as exc:
            main(["psd", "--theta", "20", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_writes_one_file_per_alpha(self, tmp_path):
        out = tmp_path / "o"
        assert _run(["psd", "--alpha", ALPHA, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("psd_alpha*.csv"))
        assert names == ["psd_alpha0.05.csv", "psd_alpha0.1.csv", "psd_alpha0.csv"]

    def test_alphas_equal_at_6_digits_write_two_files(self, tmp_path):
        # %.6g would name both draws psd_alpha0.1.csv, the second overwriting
        config = tmp_path / "small.yaml"
        config.write_text("n_fft: 128\nn_occupied: 48\nt_cp_ch_samples: 8\n")
        out = tmp_path / "o"
        argv = ["psd", "--config", str(config), "--alpha", "0.1,0.1000000001",
                "--out", str(out)]
        assert _run(argv) == 0
        names = sorted(p.name for p in out.glob("psd_alpha*.csv"))
        assert names == ["psd_alpha0.1.csv", "psd_alpha0.1000000001.csv"]

    def test_sidelobe_ordering_in_files(self, tmp_path):
        # sharper roll-off -> lower out-of-band floor in the emitted traces
        out = tmp_path / "o"
        _run(["psd", "--alpha", "0,0.1", "--out", str(out)])

        def oob_mean(name):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
            freqs, power = rows[:, 0], rows[:, 1]
            mask = np.abs(freqs) > 1.5 * 4.5e6
            return power[mask].mean()

        assert oob_mean("psd_alpha0.1.csv") < oob_mean("psd_alpha0.csv")

    def test_keeps_at_most_one_draw_cached(self, tmp_path):
        # no command reads a draw twice, so a run holds one draw, not each alpha's
        from guardopt.spectrum import windowed_psd

        config = tmp_path / "small.yaml"
        config.write_text("n_fft: 128\nn_occupied: 48\nt_cp_ch_samples: 8\n")
        windowed_psd.cache_clear()
        argv = ["psd", "--config", str(config), "--alpha", ALPHA,
                "--out", str(tmp_path / "o")]
        assert _run(argv) == 0
        assert windowed_psd.cache_info().currsize <= 1


def _count_bisections(monkeypatch) -> list:
    """The (alpha, theta) pairs the guard search bisects, as it runs."""
    calls, real = [], LeakageModel.guard_band

    def counted(model, theta, stop=None):
        calls.append((model.alpha, theta))
        return real(model, theta, stop)

    monkeypatch.setattr(LeakageModel, "guard_band", counted)
    return calls


class TestGuardsCommand:
    def test_outputs_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["guards", "--theta", THETA, "--alpha", ALPHA]
        assert _run(argv + ["--out", str(out_a)]) == 0
        assert _run(argv + ["--out", str(out_b)]) == 0
        csv_a, csv_b = _read_csvs(out_a), _read_csvs(out_b)
        assert set(csv_a) == {"guard_curves.csv", "optimal_guards.csv"}
        assert csv_a == csv_b  # byte-identical rerun

    def test_one_curve_pass(self, tmp_path, monkeypatch):
        # each (alpha, theta) is searched once; the table is the curves' optimum
        calls = _count_bisections(monkeypatch)
        out = tmp_path / "o"
        argv = ["guards", "--theta", THETA, "--alpha", ALPHA, "--revalidate"]
        assert _run(argv + ["--out", str(out)]) == 0
        assert len(calls) == len(set(calls)) == 3 * 2
        table = optimizer.build_lookup_table(
            (20.0, 30.0), NumerologyConfig(), (0.0, 0.05, 0.1)
        )
        table.save_csv(tmp_path / "built.csv", NumerologyConfig())
        assert (out / "optimal_guards.csv").read_bytes() == (
            tmp_path / "built.csv"
        ).read_bytes()

    def test_unreachable_theta_reported_absent(self, tmp_path, capsys, monkeypatch):
        # theta=300 is out of reach: reported as lookup-build reports it,
        # while theta=20 still gets its curve and table row
        calls = _count_bisections(monkeypatch)
        out = tmp_path / "o"
        argv = ["guards", "--theta", "20,300", "--alpha", "0,0.1", "--out", str(out)]
        assert _run(argv) == 0
        assert capsys.readouterr().err == (
            "theta=300: absent (unreachable at every alpha in the grid)\n"
        )
        assert len(calls) == len(set(calls)) == 2 * 2
        curves = (out / "guard_curves.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in curves} == {"20"}
        cfg = NumerologyConfig()
        optimizer.build_lookup_table((20.0, 300.0), cfg, (0.0, 0.1)).save_csv(
            tmp_path / "built.csv", cfg
        )
        assert (out / "optimal_guards.csv").read_bytes() == (
            tmp_path / "built.csv"
        ).read_bytes()

    def test_one_leakage_model_per_alpha(self, tmp_path, monkeypatch):
        # the default run builds each roll-off's model once, for all thetas
        built, real = [], LeakageModel.for_alpha.__func__

        def counted(cls, alpha, cfg):
            built.append(alpha)
            return real(cls, alpha, cfg)

        monkeypatch.setattr(LeakageModel, "for_alpha", classmethod(counted))
        assert _run(["guards", "--out", str(tmp_path / "o")]) == 0
        assert built == list(optimizer.DEFAULT_ALPHA_GRID)

    def test_unsorted_theta_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run(["guards", "--theta", "30,20", "--alpha", ALPHA, "--out", str(out)])
        assert code == 1
        assert "sorted ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_theta_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run(["guards", "--theta", "", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: theta_list must be non-empty\n"
        assert not out.exists()

    def test_curve_and_table_write_the_same_theta(self, tmp_path):
        # %.6g would round this threshold to 45 in the curves only
        out = tmp_path / "o"
        argv = ["guards", "--theta", "44.9999996", "--alpha", "0.05,0.1"]
        assert _run(argv + ["--out", str(out)]) == 0
        keys = {
            name: {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            for name in ("guard_curves.csv", "optimal_guards.csv")
        }
        assert keys == {"guard_curves.csv": {"44.9999996"},
                        "optimal_guards.csv": {"44.9999996"}}

    def test_alphas_equal_at_6_digits_write_distinct_rows(self, tmp_path):
        out = tmp_path / "o"
        argv = ["guards", "--theta", "30", "--alpha", "0.1,0.1000000001"]
        assert _run(argv + ["--out", str(out)]) == 0
        rows = (out / "guard_curves.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["30", "0.1"], ["30", "0.1000000001"]
        ]

    def test_revalidate_and_absent_lines_write_the_table_theta(
        self, tmp_path, capsys
    ):
        # %.6g would print these thresholds as 45 and 300
        out = tmp_path / "o"
        argv = ["guards", "--theta", "44.9999996,300.0000001",
                "--alpha", "0.05,0.1", "--revalidate", "--out", str(out)]
        assert _run(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"theta=44\.9999996 achieved=\d+\.\d\d dB "
                            r"margin=[+-]\d+\.\d{4} dB ok\n", captured.out)
        assert captured.err == (
            "theta=300.0000001: absent (unreachable at every alpha in the grid)\n"
        )

    def test_search_builds_no_grid_psd(self, tmp_path, monkeypatch):
        # without --revalidate no grid PSD is built: the search is closed form
        import guardopt.cli as cli
        import guardopt.spectrum as spectrum

        def no_grid(*args, **kwargs):
            raise AssertionError("grid PSD built")

        for owner in (spectrum, optimizer, cli):
            monkeypatch.setattr(owner, "windowed_psd", no_grid)
        argv = ["guards", "--theta", THETA, "--alpha", ALPHA]
        assert _run(argv + ["--out", str(tmp_path / "o")]) == 0

    def test_revalidate_reports_ok(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run(
            ["guards", "--theta", "30", "--alpha", ALPHA, "--out", str(out),
             "--revalidate"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "ok" in captured
        assert "VIOLATION" not in captured

    @pytest.mark.parametrize("config, flags, lines", [
        pytest.param("", [], [
            "theta=20 achieved=20.00 dB margin=+0.0024 dB ok",
            "theta=25 achieved=25.00 dB margin=+0.0034 dB ok",
            "theta=30 achieved=30.00 dB margin=+0.0034 dB ok",
            "theta=35 achieved=35.01 dB margin=+0.0057 dB ok",
            "theta=40 achieved=40.00 dB margin=+0.0011 dB ok",
            "theta=45 achieved=45.00 dB margin=+0.0044 dB ok",
        ], id="default"),
        # two runs of subcarriers around DC, 37 and 38 long
        pytest.param("n_fft: 128\nn_occupied: 75\nt_cp_ch_samples: 8\n", [], [
            "theta=20 achieved=20.00 dB margin=+0.0030 dB ok",
            "theta=25 achieved=25.00 dB margin=+0.0004 dB ok",
            "theta=30 achieved=30.00 dB margin=+0.0001 dB ok",
            "theta=35 achieved=35.02 dB margin=+0.0167 dB ok",
            "theta=40 achieved=40.04 dB margin=+0.0384 dB ok",
            "theta=45 achieved=45.06 dB margin=+0.0619 dB ok",
        ], id="odd"),
        # theta just below the alpha 0 model's 47.68125 dB at the search's
        # largest guard, GB 1746.5: the victim slot ends at the oversampled
        # Nyquist frequency, two fine bins past the coarse grid's last bin
        # (its exact margin is +1.0e-6 dB)
        pytest.param("", ["--theta", "47.681249531", "--alpha", "0"], [
            "theta=47.681249531 achieved=47.68 dB margin=+0.0000 dB ok",
        ], id="top"),
    ])
    def test_revalidate_prints_the_pinned_lines(self, tmp_path, capsys,
                                                config, flags, lines):
        # digit for digit, so a change to revalidation's transform or band
        # sums that moves a printed digit fails here
        path = tmp_path / "exp.yaml"
        path.write_text(config)
        argv = ["guards", "--config", str(path), "--revalidate", *flags,
                "--out", str(tmp_path / "o")]
        assert _run(argv) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_revalidate_exit_status_follows_printed_status(
        self, tmp_path, capsys, monkeypatch
    ):
        import guardopt.cli as cli

        def shortfalls(table, cfg):  # 0.05 dB short passes, 0.2 dB short fails
            return {t: t - (0.05 if t == 20.0 else 0.2) for t in table.entries}

        monkeypatch.setattr(cli, "revalidate", shortfalls)
        argv = ["guards", "--theta", THETA, "--alpha", ALPHA, "--revalidate"]
        assert _run(argv + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "theta=20 achieved=19.95 dB margin=-0.0500 dB ok",
            "theta=30 achieved=29.80 dB margin=-0.2000 dB VIOLATION",
        ]

    def test_revalidate_independent_of_seed(self, tmp_path, capsys):
        # the guard search runs on the expected PSD, which has no seed
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            argv = ["guards", "--theta", THETA, "--alpha", ALPHA, "--revalidate",
                    "--seed", seed, "--out", str(out)]
            assert _run(argv) == 0
            outputs.append((capsys.readouterr().out, _read_csvs(out)))
        assert outputs[0] == outputs[1]


SCHED_THETA = "20,30,45"


class TestScheduleCommand:
    def test_end_to_end_with_packaged_users(self, tmp_path):
        out = tmp_path / "o"
        code = _run(
            ["schedule", "--theta", SCHED_THETA, "--alpha", ALPHA, "--out", str(out),
             "--seed", "1"]
        )
        assert code == 0
        names = {p.name for p in out.glob("*.csv")}
        assert {
            "schedule_fixed_random.csv",
            "schedule_adaptive_random.csv",
            "schedule_adaptive_scheduled.csv",
            "guard_comparison.csv",
        } <= names
        # one persisted lookup table, keyed by config hash
        assert len([n for n in names if n.startswith("lookup_")]) == 1
        lines = (out / "guard_comparison.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,")
        assert len(lines) == 4

    def test_lookup_reused_across_runs(self, tmp_path):
        out = tmp_path / "o"
        argv = ["schedule", "--theta", SCHED_THETA, "--alpha", ALPHA, "--out", str(out)]
        _run(argv)
        lookup = next(out.glob("lookup_*.csv"))
        mtime = lookup.stat().st_mtime_ns
        _run(argv)
        assert lookup.stat().st_mtime_ns == mtime

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["schedule", "--theta", SCHED_THETA, "--alpha", ALPHA, "--seed", "3"]
        _run(argv + ["--out", str(out_a)])
        _run(argv + ["--out", str(out_b)])
        a, b = _read_csvs(out_a), _read_csvs(out_b)
        assert {k: v for k, v in a.items() if not k.startswith("lookup_")} == {
            k: v for k, v in b.items() if not k.startswith("lookup_")
        }

    @pytest.mark.parametrize("n, mode", [(10, "exhaustive"), (12, "heuristic")])
    def test_set_size_picks_the_search(self, tmp_path, n, mode):
        # exact up to 10 users (it beats the heuristic on the 10-user set),
        # the heuristic above
        path = tmp_path / "users.yaml"
        path.write_text("users:\n" + "".join(
            f"  - {{id: u{i}, power_dbm: {7 * i % 13}, sir_req_db: {15 + 5 * i % 11}}}\n"
            for i in range(n)
        ))
        out = tmp_path / "o"
        argv = ["schedule", "--users", str(path), "--theta", SCHED_THETA,
                "--alpha", ALPHA, "--out", str(out)]
        assert _run(argv) == 0
        lookup = optimizer.LookupTable.load_csv(next(out.glob("lookup_*.csv")))
        want = schedule_interference_based(load_users_yaml(path), lookup, mode)
        rows = (out / "schedule_adaptive_scheduled.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == [u.id for u in want]

    def test_lone_user_takes_the_smallest_entry(self, tmp_path):
        # a band with no neighbour has theta 0 dB, which ceils to the
        # smallest entry: its GD is charged, and with no boundary no GB is
        path = tmp_path / "one.yaml"
        path.write_text("users:\n  - {id: solo, power_dbm: 20, sir_req_db: 15}\n")
        out = tmp_path / "o"
        argv = ["schedule", "--users", str(path), "--theta", "30,45", "--out", str(out)]
        assert _run(argv) == 0
        for scenario in ("adaptive_random", "adaptive_scheduled"):
            rows = (out / f"schedule_{scenario}.csv").read_text().splitlines()
            assert rows[1:] == ["0,solo,0,12.571890,33"], scenario
        totals = (out / "guard_comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in totals[1:]] == [
            ["adaptive_random", "33", "0"], ["adaptive_scheduled", "33", "0"]]

    def test_layout_writes_the_theta_it_charges(self, tmp_path):
        # a needs 40.0000004 dB, which %.6g writes as 40, but it is charged
        # the 45 dB entry (the 40 dB entry is 15.303461, 55)
        path = tmp_path / "ab.yaml"
        path.write_text("users:\n  - {id: a, power_dbm: 10.0000004, sir_req_db: 15}\n"
                        "  - {id: b, power_dbm: 0, sir_req_db: 30}\n")
        out = tmp_path / "o"
        assert _run(["schedule", "--users", str(path), "--out", str(out)]) == 0
        rows = (out / "schedule_adaptive_scheduled.csv").read_text().splitlines()
        assert rows[1] == "0,a,40.0000004,16.802494,60"

    def test_config_file_sets_users_and_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("abc.yaml").write_text(
            "users:\n  - {id: a, power_dbm: 30, sir_req_db: 15}\n"
            "  - {id: b, power_dbm: 15, sir_req_db: 15}\n"
            "  - {id: c, power_dbm: 0, sir_req_db: 20}\n")
        Path("exp.yaml").write_text(
            f"users: abc.yaml\nout_dir: s5\nseed: 1\n"
            f"theta_list: [{SCHED_THETA}]\nalpha_grid: [{ALPHA}]\n")
        assert _run(["schedule", "--config", "exp.yaml"]) == 0
        rows = Path("s5/schedule_adaptive_scheduled.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["a", "b", "c"]

    def test_mode_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--mode", "heuristic", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_users_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run(
            ["schedule", "--users", str(tmp_path / "nope.yaml"), "--theta", THETA,
             "--alpha", ALPHA, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_no_reachable_theta_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run(["schedule", "--theta", "300", "--alpha", "0,0.1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: lookup table has no reachable threshold\n"
        )

    def test_unreachable_theta_reported_absent_on_miss_and_hit(self, tmp_path, capsys):
        # as guards and lookup-build report it, whether the table is built
        # or loaded, and the plan is the one without the absent theta
        out = tmp_path / "o"
        argv = ["schedule", "--theta", SCHED_THETA + ",300", "--alpha", ALPHA]
        errs = []
        for _ in range(2):
            assert _run(argv + ["--out", str(out)]) == 0
            errs.append(capsys.readouterr().err)
        assert errs == ["theta=300: absent (unreachable at every alpha in the grid)\n"] * 2
        assert _run(["schedule", "--theta", SCHED_THETA, "--alpha", ALPHA,
                     "--out", str(tmp_path / "ref")]) == 0
        assert capsys.readouterr().err == ""
        assert ((out / "guard_comparison.csv").read_bytes()
                == (tmp_path / "ref" / "guard_comparison.csv").read_bytes())

    def test_damaged_lookup_cache_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["schedule", "--theta", SCHED_THETA, "--alpha", ALPHA, "--out", str(out)]
        assert _run(argv) == 0
        lookup = next(out.glob("lookup_*.csv"))
        lines = lookup.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 3)[0]  # truncate the second entry
        lookup.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert lookup.name in err and "line 3" in err


def test_threads_variable_is_not_read(tmp_path, monkeypatch):
    # the search runs on one thread whatever the environment holds
    argv = ["lookup-build", "--theta", THETA, "--alpha", ALPHA, "--out"]
    monkeypatch.delenv("GUARDOPT_THREADS", raising=False)
    assert main(argv + [str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("GUARDOPT_THREADS", "two")
    assert main(argv + [str(tmp_path / "two")]) == 0
    assert _read_csvs(tmp_path / "two") == _read_csvs(tmp_path / "unset")


def test_lookup_build_command(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["lookup-build", "--theta", THETA, "--alpha", ALPHA, "--out", str(out)]
    )
    assert code == 0
    # written through a temporary file that is renamed into place
    assert [p.name for p in out.iterdir()] == [
        p.name for p in out.glob("lookup_*.csv")
    ]
    assert len(list(out.glob("lookup_*.csv"))) == 1


def test_lookup_cache_with_a_wrong_header_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["lookup-build", "--theta", THETA, "--alpha", ALPHA, "--out", str(out)]
    assert main(argv) == 0
    (lookup,) = out.glob("lookup_*.csv")
    lookup.write_text("theta,alpha\n" + lookup.read_text().split("\n", 1)[1])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {lookup}: unexpected lookup-table header: 'theta,alpha'\n"
    )


def test_loaded_table_keeps_the_built_alpha(tmp_path):
    # %.6g would load this roll-off back as 0.1
    out = tmp_path / "o"
    argv = ["lookup-build", "--theta", "30", "--alpha", "0.1000000001"]
    assert main(argv + ["--out", str(out)]) == 0
    (path,) = out.glob("lookup_*.csv")
    built = optimizer.build_lookup_table([30.0], NumerologyConfig(), [0.1000000001])
    loaded = optimizer.LookupTable.load_csv(path)
    assert loaded.entries[30.0].alpha == built.entries[30.0].alpha == 0.1000000001


def test_negative_zero_alpha_reads_as_zero(tmp_path):
    # -0 is written as 0 and keys the one table that 0 keys: the second
    # lookup-build loads it instead of writing another
    assert main(["guards", "--alpha=-0,0.01", "--theta", "20",
                 "--out", str(tmp_path / "g")]) == 0
    rows = (tmp_path / "g" / "optimal_guards.csv").read_text().splitlines()
    assert rows[1].startswith("20,0,0,")
    out = tmp_path / "l"
    assert main(["lookup-build", "--alpha=-0,0.01", "--theta", "20", "--out", str(out)]) == 0
    (path,) = out.glob("lookup_*.csv")
    mtime = path.stat().st_mtime_ns
    assert main(["lookup-build", "--alpha", "0,0.01", "--theta", "20", "--out", str(out)]) == 0
    assert list(out.glob("lookup_*.csv")) == [path]
    assert path.stat().st_mtime_ns == mtime
    cfg = NumerologyConfig()
    (zero, _) = optimizer.checked_alpha_grid([-0.0, 0.01], cfg)
    assert math.copysign(1.0, zero) == 1.0
    assert type(optimizer.checked_alpha_grid([0, 0.01], cfg)[0]) is int  # as given


def test_lookup_hit_reports_absent_theta_like_miss(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["lookup-build", "--theta", "20,300", "--alpha", "0,0.1", "--out", str(out)]
    errs = []
    for _ in range(2):  # a miss that builds the table, then a hit that loads it
        assert main(argv) == 0
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].splitlines() == [
        "theta=300: absent (unreachable at every alpha in the grid)"
    ]


@pytest.mark.parametrize("command", ["lookup-build", "schedule"])
@pytest.mark.parametrize("theta, alpha, message", [
    ("20,20", "0,0.1", "theta_list repeats 20.0"),
    ("20", "0,0.1,0.1", "alpha_grid repeats 0.1"),
])
def test_cached_table_does_not_pass_a_bad_list(
    tmp_path, capsys, command, theta, alpha, message
):
    # a table planted under the bad lists' fingerprint is neither read nor
    # rewritten: the lists are checked before the cache is
    cfg = NumerologyConfig()
    key = optimizer.config_fingerprint(
        cfg, [float(a) for a in alpha.split(",")],
        [float(t) for t in theta.split(",")])
    out = tmp_path / "o"
    out.mkdir()
    planted = out / f"lookup_{key}.csv"
    planted.write_text(
        optimizer.LOOKUP_COLUMNS + "\n20,0,0,0,1,1,0.9,0.9,0.81\n")
    before = planted.read_bytes(), planted.stat().st_mtime_ns
    code = main([command, "--theta", theta, "--alpha", alpha, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (planted.read_bytes(), planted.stat().st_mtime_ns) == before
    assert list(out.iterdir()) == [planted]


def test_failed_lookup_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the real save_csv fails mid-row: after the header and the first row's
    # theta, formatting that row's alpha fails
    texts, real = [], optimizer.grid_text

    def grid_text(x):
        if texts:
            raise OSError("disk full")
        texts.append(real(x))
        return texts[-1]

    monkeypatch.setattr(optimizer, "grid_text", grid_text)
    out = tmp_path / "o"
    code = main(["lookup-build", "--theta", THETA, "--alpha", ALPHA, "--out", str(out)])
    assert code == 1
    assert texts == ["20"]
    assert "disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


class _FullDisk:
    """A text file whose second write stores half its text, then fails."""

    def __init__(self, path, mode="r", **kwargs):
        self.fh, self.writes = open(path, mode, **kwargs), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _writer_inputs():
    entry = optimizer.GuardAllocation(0.0, 0, 1.5, 0.9, 0.9, 0.81, 20.0)
    lookup = optimizer.LookupTable({20.0: entry, 60.0: entry})
    users = [scheduler.UserProfile(u, 0.0, 20.0) for u in "abc"]
    rows = scheduler.compare_scenarios(users, 0, lookup)
    freqs = np.arange(4.0)
    return lookup, rows, spectrum.PsdEstimate(freqs, freqs + 1, 1.5)


def _guards_command(path):
    argv = ["guards", "--theta", "20", "--alpha", "0,0.05", "--out", str(path.parent)]
    if main(argv):
        raise OSError("guards exited 1")


# each writes the named file; guards writes guard_curves.csv first
WRITERS = {
    "psd.csv": lambda path, lookup, rows, psd: spectrum.write_psd_csv(psd, path),
    "lookup.csv": lambda path, lookup, rows, psd: lookup.save_csv(
        path, NumerologyConfig()),
    "guard_curves.csv": lambda path, lookup, rows, psd: _guards_command(path),
    "layout.csv": lambda path, lookup, rows, psd: scheduler.write_layout_csv(
        rows[0].plan, path),
    "comparison.csv": lambda path, lookup, rows, psd: scheduler.write_comparison_csv(
        rows, path),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_write_keeps_what_was_there(tmp_path, monkeypatch, capsys, name):
    # every output goes through write_csv: whole, or not written at all
    inputs = _writer_inputs()
    whole = tmp_path / "whole" / name
    whole.parent.mkdir()
    WRITERS[name](whole, *inputs)
    assert whole.read_text().count("\n") >= 2
    monkeypatch.setattr(numerology, "open", _FullDisk, raising=False)
    fresh, kept = tmp_path / "fresh" / name, tmp_path / "kept" / name
    fresh.parent.mkdir()
    kept.parent.mkdir()
    kept.write_bytes(b"old bytes\n")
    for path in (fresh, kept):
        with pytest.raises(OSError):
            WRITERS[name](path, *inputs)
    assert list(fresh.parent.iterdir()) == []
    assert list(kept.parent.iterdir()) == [kept]
    assert kept.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("command", ["lookup-build", "schedule"])
@pytest.mark.parametrize("column, text, message", [
    (1, "1.5", "alpha must be a number in [0, 1]"),
    (2, "56", "gd_samples must be alpha's taper 55, got 56"),
])
def test_lookup_cache_with_an_entry_off_its_taper_exits_1(
    tmp_path, capsys, command, column, text, message
):
    # load_csv cannot see it; the loader that knows the numerology can
    out = tmp_path / "o"
    argv = [command, "--theta", THETA, "--alpha", ALPHA, "--out", str(out)]
    assert main(argv) == 0
    (lookup,) = out.glob("lookup_*.csv")
    lines = lookup.read_text().splitlines()
    fields = lines[2].split(",")
    assert fields[:3] == ["30", "0.05", "55"]
    fields[column] = text
    lines[2] = ",".join(fields)
    lookup.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {lookup}: theta=30: {message}\n"


@pytest.mark.parametrize("command", ["lookup-build", "schedule"])
def test_lookup_cache_with_a_theta_off_its_list_exits_1(tmp_path, capsys, command):
    # a copy of the last row relabelled to a theta the fingerprinted list
    # lacks: schedule would otherwise charge a user the copy's guards at a
    # threshold no build searched
    out = tmp_path / "o"
    argv = [command, "--theta", THETA, "--alpha", ALPHA, "--out", str(out)]
    assert main(argv) == 0
    (lookup,) = out.glob("lookup_*.csv")
    lines = lookup.read_text().splitlines()
    assert lines[-1].startswith("30,")
    lines.append("50," + lines[-1].split(",", 1)[1])
    lookup.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {lookup}: theta=50: not in theta_list\n"


@pytest.mark.parametrize("command", ["lookup-build", "schedule"])
@pytest.mark.parametrize("column, text, message", [
    (4, "0.000000", "eta_freq must be 1.00000000 at gd_samples 55 and "
                    "gb_subcarriers 0.000000, got 0.97139469"),
    (4, "7.834301", "eta_freq must be 0.97455027 at gd_samples 55 and "
                    "gb_subcarriers 7.834301, got 0.97139469"),
    (6, "0.88966126", "eta_time must be 0.88966116 at gd_samples 55 and "
                      "gb_subcarriers 8.834301, got 0.88966126"),
    (7, "nan", "eta_freq must be 0.97139469 at gd_samples 55 and "
               "gb_subcarriers 8.834301, got nan"),
    (8, "0.86421203", "eta must be 0.86421213 at gd_samples 55 and "
                      "gb_subcarriers 8.834301, got 0.86421203"),
])
def test_lookup_cache_with_etas_off_its_guards_exits_1(
    tmp_path, capsys, command, column, text, message
):
    # a cached GB edited alone no longer matches the etas written beside it,
    # so schedule cannot charge a zeroed or lowered guard band
    out = tmp_path / "o"
    argv = [command, "--theta", THETA, "--alpha", ALPHA, "--out", str(out)]
    assert main(argv) == 0
    (lookup,) = out.glob("lookup_*.csv")
    lines = lookup.read_text().splitlines()
    fields = lines[2].split(",")
    assert fields[:5] == ["30", "0.05", "55", "3.580729", "8.834301"]
    fields[column] = text
    lines[2] = ",".join(fields)
    lookup.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {lookup}: theta=30: {message}\n"


@pytest.mark.parametrize("numerology", [
    "", "n_fft: 128\nn_occupied: 75\nt_cp_ch_samples: 8\n",
    "n_fft: 64\nn_occupied: 37\nt_cp_ch_samples: 5\n",
], ids=["default", "128-75", "64-37"])
def test_fresh_lookup_cache_passes_its_checks(tmp_path, monkeypatch, numerology):
    # GB's 6-decimal rounding moves eta_freq by up to 1e-6 / n_occupied: more
    # than 1e-8 at 37 occupied subcarriers, within the tolerance that allows it
    config = tmp_path / "exp.yaml"
    config.write_text(numerology)
    argv = ["lookup-build", "--config", str(config), "--theta", THETA,
            "--alpha", ALPHA, "--out", str(tmp_path / "o")]
    assert main(argv) == 0

    def no_build(*args, **kwargs):
        raise AssertionError("table rebuilt: the cache was not read")

    monkeypatch.setattr(cli, "build_lookup_table", no_build)
    assert main(argv) == 0


def test_key_error_in_a_command_propagates(tmp_path, monkeypatch):
    # guardopt raises no KeyError that reaches main, so one is a bug and
    # keeps its traceback instead of becoming an error line
    def broken(ec):
        raise KeyError("x")

    monkeypatch.setattr(cli, "_lookup_for", broken)
    with pytest.raises(KeyError, match="x"):
        main(["lookup-build", "--out", str(tmp_path / "o")])


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", ["guards", "lookup-build", "schedule"])
@pytest.mark.parametrize("theta, message", [
    ("nan", "theta_list values must be finite and positive, got nan"),
    ("20,nan", "theta_list values must be finite and positive, got nan"),
    ("0", "theta_list values must be finite and positive, got 0.0"),
    ("-5,20", "theta_list values must be finite and positive, got -5.0"),
    ("20,inf", "theta_list values must be finite and positive, got inf"),
    ("30,20", "theta_list must be sorted ascending"),
    ("20,20", "theta_list repeats 20.0"),
    ("20,20,300,300", "theta_list repeats 20.0"),
])
def test_bad_theta_list_exits_1_without_files(
    tmp_path, capsys, command, theta, message
):
    out = tmp_path / "o"
    code = main([command, f"--theta={theta}", "--alpha", ALPHA, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["guards", "lookup-build"])
def test_alpha_beyond_symbol_rejected(tmp_path, capsys, command):
    # at alpha 0.95 the cyclic extension outgrows the symbol it copies from
    argv = [command, "--theta", "20", "--alpha", "0,0.95", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: alpha_grid value 0.95: cyclic extension exceeds symbol length\n"
    )


@pytest.mark.parametrize("command", ["guards", "lookup-build", "schedule", "psd"])
@pytest.mark.parametrize("alpha, message", [
    ("0,0.95", "alpha_grid value 0.95: cyclic extension exceeds symbol length"),
    ("-0.1", "alpha_grid value -0.1: alpha must be a number in [0, 1]"),
    ("0,inf", "alpha_grid value inf: alpha must be a number in [0, 1]"),
    ("nan", "alpha_grid value nan: alpha must be a number in [0, 1]"),
    ("0.05,0.05,0.1", "alpha_grid repeats 0.05"),
    ("0,0.1,0.0", "alpha_grid repeats 0.0"),
])
def test_bad_alpha_grid_exits_1_without_files(
    tmp_path, capsys, command, alpha, message
):
    out = tmp_path / "o"
    theta = [] if command == "psd" else ["--theta", "20"]
    code = main([command, *theta, f"--alpha={alpha}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["guards", "psd"])
def test_boolean_alpha_in_config_names_key(tmp_path, capsys, command):
    # YAML true is not the roll-off 1
    path = tmp_path / "exp.yaml"
    path.write_text("alpha_grid: [0, true]\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: alpha_grid: expected a number, got True\n"
    )
    assert not out.exists()


def _user_row(**changes) -> str:
    """One user row in flow style, with some values replaced as written."""
    row = {"id": "u1", "power_dbm": "10", "sir_req_db": "20", **changes}
    return "{" + ", ".join(f"{k}: {v}" for k, v in row.items()) + "}"


@pytest.mark.parametrize("text, message", [
    ("users: []\n", "expected a non-empty `users:` list of mappings"),
    ("users:\n  - " + _user_row() + "\n  - 5\n",
     "user 2: expected a mapping of user keys, got 5"),
    ("- " + _user_row(power_dbm="true") + "\n",
     "user 1: power_dbm: expected a number, got True"),
    ("- " + _user_row(sir_req_db="'20'") + "\n",
     "user 1: sir_req_db: expected a number, got '20'"),
    ("- " + _user_row(use_case="eMBB", obw_subcarriers="600") + "\n",
     "user 1: unknown key 'use_case', 'obw_subcarriers' "
     "(accepted: id, power_dbm, sir_req_db)"),
    ("- " + _user_row(prio="3") + "\n",
     "user 1: unknown key 'prio' (accepted: id, power_dbm, sir_req_db)"),
    ("- " + _user_row(id="null") + "\n",
     "user 1: id: expected a string or an integer, got None"),
    ("users:\n  - " + _user_row() + "\nseed: 3\nuser: [oops]\n",
     "unknown key 'seed', 'user' (accepted: users)"),
])
def test_bad_users_file_names_file_row_key(tmp_path, capsys, text, message):
    # rejected before the lookup table is built or any output written
    path = tmp_path / "users.yaml"
    path.write_text(text)
    out = tmp_path / "o"
    code = main(["schedule", "--users", str(path), "--theta", THETA,
                 "--alpha", ALPHA, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()
