import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from guardopt.numerology import NumerologyConfig, round_half_up
from guardopt.optimizer import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    GuardAllocation,
    LookupTable,
    build_lookup_table,
    config_fingerprint,
    efficiency_curve,
    efficiency_curves,
    optimize_guards,
    revalidate,
    spectral_efficiency,
)
import guardopt.spectrum as spectrum
from guardopt.spectrum import (
    OVERSAMPLE,
    TOL_SUBCARRIERS,
    LeakageModel,
    ThetaUnreachableError,
    required_guard_band,
)

# coarse grid keeps the PSD cache small; acceptance runs the full default grid
ALPHAS = (0.0, 0.02, 0.05, 0.1, 0.2)
THETAS = [20.0, 30.0, 45.0]


class TestSpectralEfficiency:
    def test_no_overhead(self):
        cfg = NumerologyConfig(t_cp_ch=0)
        assert spectral_efficiency(0, 0.0, cfg) == (1.0, 1.0, 1.0)

    def test_time_only(self, cfg):
        eta_time, eta_freq, eta = spectral_efficiency(0, 0.0, cfg)
        assert eta_time == pytest.approx(1024 / 1096)
        assert eta_freq == 1.0
        assert eta == eta_time

    def test_freq_only(self, cfg):
        _, eta_freq, _ = spectral_efficiency(0, 30.0, cfg)
        assert eta_freq == pytest.approx(600 / 660)

    def test_product_exact(self, cfg):
        eta_time, eta_freq, eta = spectral_efficiency(110, 7.5, cfg)
        assert eta == eta_time * eta_freq

    def test_units_samples_vs_seconds(self, cfg):
        eta_time, _, _ = spectral_efficiency(110, 0.0, cfg)
        t = 1.0 / cfg.sample_rate
        seconds = (cfg.n_fft * t) / ((cfg.n_fft + cfg.t_cp_ch + 110) * t)
        assert eta_time == pytest.approx(seconds, abs=1e-15)

    def test_negative_rejected(self, cfg):
        with pytest.raises(ValueError):
            spectral_efficiency(-1, 0.0, cfg)


class TestOptimizeGuards:
    def test_degenerate_grid(self, cfg):
        best = optimize_guards(30.0, cfg, alpha_grid=(0.0,))
        assert best.alpha == 0.0
        assert best.gd_samples == 0
        assert best.gb_subcarriers == pytest.approx(
            required_guard_band(0.0, 30.0, cfg)
        )

    def test_empty_grid_rejected(self, cfg):
        with pytest.raises(ValueError):
            optimize_guards(30.0, cfg, alpha_grid=())

    def test_matches_brute_force(self, cfg):
        # independent oracle: recompute every candidate and take the argmax
        for theta in THETAS:
            candidates = []
            for a in ALPHAS:
                gb = required_guard_band(a, theta, cfg)
                gd = round_half_up(a * (cfg.n_fft + cfg.t_cp_ch))
                candidates.append((a, gd, gb, spectral_efficiency(gd, gb, cfg)[2]))
            oracle = max(candidates, key=lambda c: (c[3], -c[0]))
            best = optimize_guards(theta, cfg, ALPHAS)
            assert (best.alpha, best.gd_samples) == oracle[:2]
            assert best.eta == pytest.approx(oracle[3])

    def test_lower_theta_higher_eta(self, cfg):
        assert (
            optimize_guards(20.0, cfg, ALPHAS).eta
            > optimize_guards(45.0, cfg, ALPHAS).eta
        )


class TestEfficiencyCurve:
    def test_eta_time_strictly_decreasing(self, cfg):
        curve = efficiency_curve(30.0, cfg, ALPHAS)
        times = [a.eta_time for a in curve]
        assert all(x > y for x, y in zip(times, times[1:]))

    def test_eta_freq_non_decreasing_at_high_theta(self, cfg):
        curve = efficiency_curve(45.0, cfg, ALPHAS)
        freqs = [a.eta_freq for a in curve]
        assert all(x <= y + 1e-9 for x, y in zip(freqs, freqs[1:]))

    def test_max_equals_optimizer(self, cfg):
        curve = efficiency_curve(45.0, cfg, ALPHAS)
        best = optimize_guards(45.0, cfg, ALPHAS)
        assert max(a.eta for a in curve) == best.eta

    def test_gd_matches_alpha(self, cfg):
        for a in efficiency_curve(30.0, cfg, ALPHAS):
            assert a.gd_samples == round_half_up(a.alpha * (cfg.n_fft + cfg.t_cp_ch))


@pytest.fixture(scope="module")
def table(cfg):
    return build_lookup_table(THETAS, cfg, ALPHAS)


class TestLookupTable:
    def test_entry_count_and_monotone_eta(self, table):
        assert len(table.entries) == len(THETAS)
        etas = [table.entries[t].eta for t in sorted(table.entries)]
        assert all(x > y for x, y in zip(etas, etas[1:]))

    def test_deterministic_rebuild(self, cfg, table):
        again = build_lookup_table(THETAS, cfg, ALPHAS)
        assert again.entries == table.entries

    def test_revalidation(self, cfg, table):
        achieved = revalidate(table, cfg)
        for theta, supp in achieved.items():
            assert supp >= theta - 0.1

    def test_revalidation_flags_a_short_guard(self, cfg, table):
        # one subcarrier less guard than the search found: the re-measured
        # suppression falls clearly short of that threshold only
        entries = dict(table.entries)
        entries[45.0] = dataclasses.replace(
            entries[45.0], gb_subcarriers=entries[45.0].gb_subcarriers - 1.0
        )
        achieved = revalidate(LookupTable(entries), cfg)
        assert achieved[45.0] < 45.0 - 0.1
        assert all(achieved[t] >= t - 0.1 for t in (20.0, 30.0))

    def test_revalidation_does_not_read_the_search_model(
        self, cfg, table, monkeypatch
    ):
        def unavailable(*args):
            raise AssertionError("the closed-form leakage model was read")

        monkeypatch.setattr(LeakageModel, "for_alpha", unavailable)
        with pytest.raises(AssertionError, match="leakage model was read"):
            required_guard_band(0.05, 30.0, cfg)
        achieved = revalidate(table, cfg)
        assert all(achieved[t] >= t - 0.1 for t in THETAS)

    def test_revalidation_models_the_charged_taper(self, cfg):
        # this 45 dB entry was searched with the taper rounded again on the 4x
        # grid (241 samples at alpha 0.055); the charged 60 samples taper over
        # 240, which leaves it short
        eta = spectral_efficiency(60, 16.769182, cfg)
        entry = GuardAllocation(0.055, 60, 16.769182, *eta, 45.0)
        achieved = revalidate(LookupTable({45.0: entry}), cfg)
        assert achieved[45.0] < 45.0 - 0.1

    def test_ceil_lookup(self, table):
        assert table.ceil_lookup(22.0).theta_db == 30.0
        assert table.ceil_lookup(30.0).theta_db == 30.0
        assert table.ceil_lookup(-5.0).theta_db == 20.0
        with pytest.raises(KeyError):
            table.ceil_lookup(50.0)

    def test_empty_table_has_no_reachable_threshold(self):
        empty = LookupTable({}, (300.0,))
        for read in (lambda: empty.max_theta, lambda: empty.ceil_lookup(20.0)):
            with pytest.raises(ValueError, match="no reachable threshold"):
                read()

    def test_csv_round_trip(self, cfg, table, tmp_path):
        path = tmp_path / "lookup.csv"
        table.save_csv(path, cfg)
        back = LookupTable.load_csv(path)
        assert list(back.entries) == list(table.entries)
        for t in table.entries:
            a, b = table.entries[t], back.entries[t]
            assert a.alpha == b.alpha
            assert a.gd_samples == b.gd_samples
            assert a.gb_subcarriers == pytest.approx(b.gb_subcarriers, abs=1e-6)
            assert a.eta == pytest.approx(b.eta, abs=1e-8)

    def test_unsorted_theta_rejected(self, cfg):
        with pytest.raises(ValueError):
            build_lookup_table([30.0, 20.0], cfg, ALPHAS)

    def test_failures_recorded(self, cfg, monkeypatch):
        real = LeakageModel.guard_band

        def flaky(model, theta):
            # theta=30 unreachable at every alpha
            if theta == 30.0:
                raise ThetaUnreachableError("flaky")
            return real(model, theta)

        monkeypatch.setattr(LeakageModel, "guard_band", flaky)
        table = build_lookup_table([20.0, 30.0], cfg, ALPHAS)
        assert table.failures == (30.0,)
        assert 30.0 not in table.entries
        assert 20.0 in table.entries


def test_default_build_reads_each_guard_band_once_per_model(cfg, monkeypatch):
    # the bisections share their model's readings: one model per alpha
    reads, real = [], LeakageModel.suppression_db

    def counted(model, guard_band_hz):
        reads.append((model, guard_band_hz))  # keeps each model, and its id
        return real(model, guard_band_hz)

    monkeypatch.setattr(LeakageModel, "suppression_db", counted)
    build_lookup_table(DEFAULT_THETA_LIST, cfg)
    keys = [(id(model), g) for model, g in reads]
    assert len(keys) == len(set(keys)) == 2659
    assert len({id(model) for model, _ in reads}) == len(DEFAULT_ALPHA_GRID)


def _entry(theta, gb):
    return GuardAllocation(0.0125, 14, gb, 0.9, 0.8, 0.72, theta)


_thetas = st.one_of(
    st.floats(-20.0, 80.0),
    st.integers(-20, 80).map(float),
    # within the %.6g digits of an integer: the keys that used to collide
    st.integers(-20, 80).flatmap(
        lambda t: st.floats(t - 1e-5, t + 1e-5).filter(lambda x: x != t)
    ),
)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(keys=st.lists(_thetas, min_size=1, max_size=6, unique=True),
       gbs=st.lists(st.floats(0.0, 40.0), min_size=6, max_size=6),
       queries=st.lists(_thetas, max_size=6))
def test_csv_round_trip_preserves_keys_and_lookups(keys, gbs, queries, tmp_path_factory):
    # the loaded table has the built table's keys and answers every ceil
    # lookup with the same row (or the same refusal); values keep the
    # file's printed precision
    cfg = NumerologyConfig()
    built = LookupTable({t: _entry(t, gb) for t, gb in zip(keys, gbs)})
    path = tmp_path_factory.mktemp("rt") / "lookup.csv"
    built.save_csv(path, cfg)
    back = LookupTable.load_csv(path)
    assert list(back.entries) == list(built.entries)
    for t, a in built.entries.items():
        b = back.entries[t]
        assert b.theta_db == t
        assert b.gb_subcarriers == pytest.approx(a.gb_subcarriers, abs=5e-7)
        assert (b.alpha, b.gd_samples, b.eta) == (a.alpha, a.gd_samples, a.eta)

    def answer(table, theta):
        try:
            return table.ceil_lookup(theta).theta_db
        except KeyError:
            return None

    for q in queries + keys + [k + 1e-9 for k in keys] + [k - 2e-9 for k in keys]:
        assert answer(back, q) == answer(built, q)


def _scan_ceil_lookup(table, theta):
    """Oracle: the linear scan over ascending keys that bisection replaced."""
    for t, alloc in table.entries.items():
        if t >= theta - 1e-9:
            return alloc
    raise KeyError(
        f"theta={theta:.2f} dB exceeds the lookup table maximum "
        f"({table.max_theta:.2f} dB)"
    )


def _lookup_outcome(lookup, table, theta):
    """The entry read, or the KeyError's text."""
    try:
        return lookup(table, theta)
    except KeyError as exc:
        return str(exc)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(keys=st.lists(_thetas, min_size=1, max_size=8, unique=True),
       queries=st.lists(_thetas, max_size=6))
@example(keys=[0.0, 1.0], queries=[1e-9])  # 1e-9 - 1e-9 is the key 0.0 exactly
def test_ceil_lookup_matches_linear_scan(keys, queries):
    table = LookupTable({t: _entry(t, float(i)) for i, t in enumerate(keys)})
    near = [k + d for k in keys for d in (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9)]
    extremes = [min(keys) - 1.0, max(keys) + 1e-8, max(keys) + 1.0,
                float("inf"), float("-inf"), float("nan")]
    for theta in near + extremes + queries:
        got = _lookup_outcome(LookupTable.ceil_lookup, table, theta)
        assert got == _lookup_outcome(_scan_ceil_lookup, table, theta), theta
    assert "exceeds the lookup table maximum" in _lookup_outcome(
        LookupTable.ceil_lookup, table, max(keys) + 1.0
    )


def test_csv_near_integer_theta_not_rounded(tmp_path):
    cfg = NumerologyConfig()
    built = LookupTable({20.0: _entry(20.0, 4.0), 44.9999996: _entry(44.9999996, 9.0)})
    built.save_csv(tmp_path / "t.csv", cfg)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    # integral keys keep the %.6g text, so existing cache files are unchanged
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "44.9999996"]
    back = LookupTable.load_csv(tmp_path / "t.csv")
    for table in (built, back):
        with pytest.raises(KeyError):
            table.ceil_lookup(45.0)


@pytest.mark.parametrize("column, text, message", [
    (0, "20", "repeated theta_db 20"),
    (0, "nan", "theta_db must be finite"),
    (1, "-0.01", "alpha must be finite and non-negative"),
    (1, "nan", "alpha must be finite and non-negative"),
    (1, "inf", "alpha must be finite and non-negative"),
    (2, "-3", "gd_samples must be finite and non-negative"),
    (2, "nan", "invalid literal for int"),
    (4, "-1.5", "gb_subcarriers must be finite and non-negative"),
    (4, "inf", "gb_subcarriers must be finite and non-negative"),
    (4, "nan", "gb_subcarriers must be finite and non-negative"),
], ids=["repeated-theta", "nan-theta", "negative-alpha", "nan-alpha", "inf-alpha",
        "negative-gd", "nan-gd", "negative-gb", "inf-gb", "nan-gb"])
def test_load_csv_rejects_damaged_row(tmp_path, column, text, message):
    # a damaged last row (line 3): a repeated key used to replace the first
    # row, and a NaN key left the entries unsorted for ceil_lookup's bisection
    path = tmp_path / "t.csv"
    LookupTable({20.0: _entry(20.0, 4.0), 30.0: _entry(30.0, 6.0)}).save_csv(
        path, NumerologyConfig())
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = text
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        LookupTable.load_csv(path)
    assert str(info.value).startswith(f"{path}, line 3: ")


def test_config_fingerprint_sensitivity(cfg):
    a = config_fingerprint(cfg, ALPHAS, THETAS)
    assert a == config_fingerprint(cfg, ALPHAS, THETAS)
    assert a != config_fingerprint(cfg, ALPHAS, [20.0])
    assert a != config_fingerprint(cfg, ALPHAS[:-1], THETAS)
    assert a != config_fingerprint(NumerologyConfig(t_cp_ch=80), ALPHAS, THETAS)


class _Recorded(Exception):
    pass


def test_spectrum_tapers_over_the_charged_gd(cfg, monkeypatch):
    # the search model, revalidation's grid reading and the Welch path each
    # taper over OVERSAMPLE x the guard duration efficiency_curve charges
    charged = {a.alpha: a.gd_samples for a in efficiency_curve(20.0, cfg)}
    assert list(charged) == list(DEFAULT_ALPHA_GRID)
    tapers = []

    def record(taper):
        tapers.append(taper)
        raise _Recorded

    monkeypatch.setattr(spectrum, "pulse_weights", lambda ocfg, ramp: record(ramp))
    monkeypatch.setattr(
        spectrum, "symbol_stream", lambda ocfg, win, *rest: record(win.t_cp_win)
    )
    uncached = spectrum.windowed_psd.__wrapped__
    for alpha, gd in charged.items():
        tapers.clear()
        for view in (lambda: spectrum.LeakageModel.for_alpha(alpha, cfg),
                     lambda: spectrum.grid_suppression_db(cfg, [(alpha, 0.0)]),
                     lambda: uncached(alpha, cfg, 1, 0)):
            with pytest.raises(_Recorded):
                view()
        assert tapers == [OVERSAMPLE * gd] * 3, alpha


def test_default_fingerprint_pinned(cfg):
    # the name of every lookup_*.csv cache: a payload change must be deliberate
    digest = config_fingerprint(cfg, DEFAULT_ALPHA_GRID, DEFAULT_THETA_LIST)
    assert digest == "0c0f10623bfd"


@pytest.mark.parametrize(
    "name", ["SEARCH_VERSION", "OVERSAMPLE", "TOL_SUBCARRIERS"]
)
def test_config_fingerprint_covers_search(cfg, monkeypatch, name):
    # a table built by another spectrum model or search is never served
    import guardopt.optimizer as opt

    before = config_fingerprint(cfg, ALPHAS, THETAS)
    monkeypatch.setattr(opt, name, getattr(opt, name) * 2)
    assert config_fingerprint(cfg, ALPHAS, THETAS) != before


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    st.sampled_from(DEFAULT_ALPHA_GRID),
    st.sampled_from(DEFAULT_ALPHA_GRID),
    st.floats(15.0, 45.0),
    st.floats(15.0, 45.0),
)
def test_guard_band_monotone(a0, a1, t0, t1):
    # non-increasing in alpha, non-decreasing in theta, to the bisection
    # tolerance
    cfg = NumerologyConfig()
    (a0, a1), (t0, t1) = sorted((a0, a1)), sorted((t0, t1))
    assert required_guard_band(a1, t0, cfg) <= (
        required_guard_band(a0, t0, cfg) + TOL_SUBCARRIERS
    )
    assert required_guard_band(a0, t1, cfg) >= (
        required_guard_band(a0, t0, cfg) - TOL_SUBCARRIERS
    )


@settings(deadline=None, derandomize=True, max_examples=25)
@given(
    st.lists(st.sampled_from(DEFAULT_ALPHA_GRID), min_size=1, max_size=3,
             unique=True),
    # up to past the 113-114.6 dB the leakage model resolves; distinct, as
    # checked_theta_list requires
    st.lists(st.floats(5.0, 130.0), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_one_pass_per_alpha_matches_one_theta_search(alphas, thetas):
    cfg = NumerologyConfig()
    curves = efficiency_curves(thetas, cfg, alphas)
    for theta in thetas:
        expected = []
        for alpha in alphas:
            try:
                gb = required_guard_band(alpha, theta, cfg)
            except ThetaUnreachableError:
                continue
            gd = round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch))
            expected.append(GuardAllocation(
                alpha, gd, gb, *spectral_efficiency(gd, gb, cfg), theta
            ))
        if expected:
            assert curves[theta] == expected
        else:
            assert theta not in curves
            with pytest.raises(ThetaUnreachableError, match="absent"):
                efficiency_curve(theta, cfg, alphas)


def test_guard_allocation_product_invariant(cfg):
    best = optimize_guards(30.0, cfg, ALPHAS)
    assert best.eta == best.eta_time * best.eta_freq
    assert isinstance(best, GuardAllocation)
