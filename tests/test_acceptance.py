"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line (to the real stdout, visible under pytest capture).

Numbered criteria:
 1 window correctness          6 efficiency monotonic in threshold
 2 OOBE ordering in alpha      7 per-band threshold fixtures
 3 rectangular-pulse sidelobe  8 scheduling gains on the 8-user fixture
 4 guard-band tradeoff shape   9 CLI determinism
 5 optimizer validity
"""
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from guardopt.cli import main as cli_main
from guardopt.numerology import NumerologyConfig, WindowSpec, round_half_up
from guardopt.optimizer import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    build_lookup_table,
    optimize_guards,
    revalidate,
    spectral_efficiency,
)
from guardopt.scheduler import (
    UserProfile,
    allocate_guards,
    compare_scenarios,
    load_users_yaml,
    schedule_interference_based,
    schedule_random,
    theta_for_assignment,
)
from guardopt.spectrum import (
    measure_aci,
    required_guard_band,
    windowed_psd,
)
from guardopt.waveform import (
    occupied_bins,
    pulse_weights,
    random_qpsk_payloads,
    symbol_stream,
)

ALPHAS = (0.0, 0.05, 0.1, 0.2)
THETAS = (20.0, 30.0, 45.0)

# one line per criterion; echoed by the terminal-summary hook in conftest
RESULTS: list[str] = []


def _record(line: str) -> None:
    RESULTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s"
    _record(f"[PASS] criterion {num}: {name} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def cfg():
    return NumerologyConfig()


@pytest.fixture(scope="module")
def full_table(cfg):
    t0 = time.perf_counter()
    table = build_lookup_table(DEFAULT_THETA_LIST, cfg, DEFAULT_ALPHA_GRID)
    return table, time.perf_counter() - t0


def test_criterion_1_window_correctness(cfg):
    with criterion(1, "window correctness", budget_s=1.0):
        # the weights the synthesis applies: taper, then a unit CP and body
        for alpha, n in ((0.05, 1096), (0.1, 1096), (0.2, 512)):
            taper = round_half_up(alpha * n)
            w = pulse_weights(cfg, taper)
            assert abs(w[0] - 0.0) <= 1e-12          # taper start
            assert abs(w[taper] - 1.0) <= 1e-12      # taper end / CP start
            plateau = w[taper:taper + cfg.t_cp_ch + cfg.n_fft]
            assert np.all(np.abs(plateau - 1.0) <= 1e-12)
        # alpha = 0: the synthesis collapses to plain CP-OFDM, bit for bit
        stream = symbol_stream(cfg, WindowSpec.for_config(0.0, cfg), 4, 0)
        classic = []
        for p in random_qpsk_payloads(4, cfg, np.random.default_rng(0)):
            grid = np.zeros(cfg.n_fft, dtype=complex)
            grid[occupied_bins(cfg)] = p
            body = np.fft.ifft(grid) * (cfg.n_fft / np.sqrt(cfg.n_occupied))
            classic += [body[cfg.n_fft - cfg.t_cp_ch:], body]
        assert np.array_equal(stream, np.concatenate(classic))


def test_criterion_2_oobe_ordering(cfg):
    with criterion(2, "OOBE strictly decreasing in alpha", budget_s=30.0):
        for seed in range(5):
            leaks = []
            for alpha in ALPHAS:
                psd = windowed_psd(alpha, cfg, n_symbols=100, seed=seed)
                leaks.append(measure_aci(psd, 0.0, cfg.obw_hz, 0.0).leak_power_db)
            assert all(a > b for a, b in zip(leaks, leaks[1:])), (
                f"seed {seed}: leakage not strictly decreasing: {leaks}"
            )


def test_criterion_3_rectangular_sidelobe():
    with criterion(3, "rectangular-pulse first sidelobe", budget_s=10.0):
        # a single occupied subcarrier at alpha=0 is a train of rectangular
        # pulses: first PSD sidelobe should sit at the sinc level (~ -13 dB)
        one = NumerologyConfig(n_fft=1024, n_occupied=1, t_cp_ch=72)
        psd = windowed_psd(0.0, one, n_symbols=256)
        t_sym = (one.n_fft + one.t_cp_ch) / one.sample_rate
        lin = psd.linear()
        f0 = psd.freqs[np.argmax(psd.power_db)]
        # band means are robust to the estimator's spectral smearing, which
        # shaves sharp peaks; compare first-sidelobe mean against the mainlobe
        main = np.abs(psd.freqs - f0) < 1.0 / t_sym
        lobe = (psd.freqs > f0 + 1.0 / t_sym) & (psd.freqs < f0 + 2.0 / t_sym)
        measured = 10.0 * np.log10(lin[lobe].mean() / lin[main].mean())
        # analytic sinc oracle evaluated on the same frequency offsets
        x_lobe = (psd.freqs[lobe] - f0) * t_sym
        x_main = (psd.freqs[main] - f0) * t_sym
        oracle = 10.0 * np.log10(
            np.mean(np.sinc(x_lobe) ** 2) / np.mean(np.sinc(x_main) ** 2)
        )
        assert measured == pytest.approx(oracle, abs=1.0)
        assert measured == pytest.approx(-13.0, abs=1.0)


def test_criterion_4_tradeoff_frontier(cfg):
    with criterion(4, "guard-band tradeoff frontier", budget_s=120.0):
        gb = {
            (a, t): required_guard_band(a, t, cfg)
            for a in ALPHAS
            for t in THETAS
        }
        for t in THETAS:  # non-increasing in alpha
            for a0, a1 in zip(ALPHAS, ALPHAS[1:]):
                assert gb[a1, t] <= gb[a0, t] + 0.1, (a0, a1, t)
        for a in ALPHAS:  # non-decreasing in theta
            for t0, t1 in zip(THETAS, THETAS[1:]):
                assert gb[a, t1] >= gb[a, t0] - 0.1, (a, t0, t1)


def test_criterion_5_optimizer_validity(cfg, full_table):
    table, build_s = full_table
    with criterion(5, "optimizer validity", budget_s=120.0 - build_s):
        assert not table.failures
        assert set(table.entries) == set(DEFAULT_THETA_LIST)
        achieved = revalidate(table, cfg)
        for theta, supp in achieved.items():
            assert supp >= theta - 0.1, (theta, supp)
        # brute-force argmax oracle over the full alpha grid
        for theta in DEFAULT_THETA_LIST:
            best_eta, best_alpha = -1.0, None
            for a in DEFAULT_ALPHA_GRID:
                gb = required_guard_band(a, theta, cfg)
                gd = round(a * (cfg.n_fft + cfg.t_cp_ch))
                eta = spectral_efficiency(gd, gb, cfg)[2]
                if eta > best_eta:
                    best_eta, best_alpha = eta, a
            got = optimize_guards(theta, cfg)
            assert got.alpha == best_alpha
            assert got.eta == pytest.approx(best_eta)
            assert got == table.entries[theta]


def test_criterion_6_efficiency_monotonic(full_table):
    table, _ = full_table
    with criterion(6, "efficiency rises as threshold relaxes", budget_s=60.0):
        thetas_desc = sorted(table.entries, reverse=True)  # 45 -> 20
        etas = [table.entries[t].eta for t in thetas_desc]
        assert all(a < b for a, b in zip(etas, etas[1:])), etas


def test_criterion_7_threshold_fixtures():
    with criterion(7, "per-band threshold fixtures"):
        def u(uid, p, s):
            return UserProfile(uid, p, s, "eMBB", 100)

        # edge bands: each takes its single neighbor's SIR plus power offset
        assert theta_for_assignment([u("a", 10, 20), u("b", 0, 30)]) == [40, 10]
        # middle band maximizes over both neighbors
        assert theta_for_assignment(
            [u("a", 20, 10), u("b", 0, 30), u("c", 8, 12)]
        ) == [50, 4, 38]
        # power-offset dominated: a much stronger neighbor drives theta
        # negative on the weak side and high on the strong side
        assert theta_for_assignment([u("a", 0, 30), u("b", 40, 5)]) == [-35, 70]


def test_criterion_8_scheduling_gains(full_table):
    table, _ = full_table
    with criterion(8, "scheduling gains on 8-user fixture", budget_s=300.0):
        with resources.as_file(
            resources.files("guardopt.data") / "users_mixed8.yaml"
        ) as p:
            users = load_users_yaml(p)
        assert len(users) == 8
        rows = compare_scenarios(users, seed=1, lookup=table)
        fixed, adaptive, scheduled = (r.plan for r in rows)
        # all four reductions strictly positive
        assert rows[1].gd_reduction_pct > 0
        assert rows[1].gb_reduction_pct > 0
        assert rows[2].gd_reduction_pct > 0
        assert rows[2].gb_reduction_pct > 0
        # interference-based never loses to a random order
        best = allocate_guards(
            schedule_interference_based(users, table), table
        )
        for seed in range(100):
            rnd = allocate_guards(schedule_random(users, seed), table)
            assert best.cost <= rnd.cost, seed
        # heuristic vs exhaustive: equal, or the gap is reported here
        heur = allocate_guards(
            schedule_interference_based(users, table, mode="heuristic"), table
        )
        assert best.cost <= heur.cost
        gap = (
            heur.total_gb_subcarriers - best.total_gb_subcarriers,
            heur.total_gd_samples - best.total_gd_samples,
        )
        _record(
            f"  criterion 8 detail: exhaustive cost {best.cost}, heuristic "
            f"cost {heur.cost}, gap (gb, gd) = {gap}"
        )


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism (byte-identical reruns)"):
        cases = [
            ["psd", "--alpha", "0,0.1"],
            ["guards", "--theta", "20,30", "--alpha", "0,0.05,0.1"],
            ["schedule", "--theta", "20,30,45", "--alpha", "0,0.05,0.1",
             "--seed", "1"],
        ]
        for i, argv in enumerate(cases):
            out_a = tmp_path / f"a{i}"
            out_b = tmp_path / f"b{i}"
            assert cli_main(argv + ["--out", str(out_a)]) == 0
            assert cli_main(argv + ["--out", str(out_b)]) == 0
            files_a = sorted(p.name for p in out_a.glob("*.csv"))
            files_b = sorted(p.name for p in out_b.glob("*.csv"))
            assert files_a and files_a == files_b
            for name in files_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
