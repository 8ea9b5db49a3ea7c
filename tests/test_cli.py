import re
from pathlib import Path

import numpy as np
import pytest

import guardopt.optimizer as optimizer
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_cp_ch_samples: 1024\n",
             "t_cp_ch_samples must be in [0, n_fft), got 1024"),
            ("t_cp_ch_samples: 2000\n",
             "t_cp_ch_samples must be in [0, n_fft), got 2000"),
            ("n_occupied: 1025\n", "n_occupied must be in [1, n_fft], got 1025"),
            ("n_fft: 256\nn_occupied: 300\n",
             "n_occupied must be in [1, n_fft], got 300"),
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

    def counted(model, theta):
        calls.append((model.alpha, theta))
        return real(model, theta)

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

    def test_revalidate_and_absent_lines_write_the_table_theta(
        self, tmp_path, capsys
    ):
        # %.6g would print these thresholds as 45 and 300
        out = tmp_path / "o"
        argv = ["guards", "--theta", "44.9999996,300.0000001",
                "--alpha", "0.05,0.1", "--revalidate", "--out", str(out)]
        assert _run(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"theta=44\.9999996 achieved=\d+\.\d\d dB ok\n",
                            captured.out)
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
            "theta=20 achieved=19.95 dB ok",
            "theta=30 achieved=29.80 dB VIOLATION",
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


def test_failed_lookup_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    from guardopt.optimizer import LookupTable

    def half_written(self, path, cfg):
        with open(path, "w") as fh:
            fh.write("theta_db,")
        raise OSError("disk full")

    monkeypatch.setattr(LookupTable, "save_csv", half_written)
    out = tmp_path / "o"
    code = main(["lookup-build", "--theta", THETA, "--alpha", ALPHA, "--out", str(out)])
    assert code == 1
    assert "disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    ("-0.1", "alpha_grid values must be numbers in [0, 1], got -0.1"),
    ("0,inf", "alpha_grid values must be numbers in [0, 1], got inf"),
    ("nan", "alpha_grid values must be numbers in [0, 1], got nan"),
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
