import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from guardopt.numerology import NumerologyConfig, round_half_up
from guardopt.optimizer import (
    ABSENT_THETA,
    DEFAULT_ALPHA_GRID,
    DEFAULT_THETA_LIST,
    GuardAllocation,
    LookupTable,
    build_lookup_table,
    checked_alpha_grid,
    checked_theta_list,
    config_fingerprint,
    efficiency_curve,
    efficiency_curves,
    grid_text,
    optimize_guards,
    revalidate,
    spectral_efficiency,
)
from guardopt.cli import REVALIDATE_TOL_DB
import guardopt.spectrum as spectrum
from guardopt.spectrum import (
    OVERSAMPLE,
    TOL_SUBCARRIERS,
    LeakageModel,
    ThetaUnreachableError,
    required_guard_band,
)
from guardopt.waveform import pulse_weights

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

    def test_ceil_index(self, table):
        index = table.ceil_index([22.0, 30.0, -5.0])
        assert [table.allocations[k].theta_db for k in index] == [30.0, 30.0, 20.0]
        # above the maximum: one past the last allocation
        assert table.ceil_index(50.0) == len(table.allocations) == 3

    def test_empty_table_has_no_reachable_threshold(self):
        empty = LookupTable({}, (300.0,))
        assert empty.ceil_index(20.0) == len(empty.allocations) == 0
        with pytest.raises(ValueError, match="no reachable threshold"):
            empty.max_theta

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

        def flaky(model, theta, stop=None):
            # theta=30 unreachable at every alpha
            if theta == 30.0:
                raise ThetaUnreachableError("flaky")
            return real(model, theta, stop)

        monkeypatch.setattr(LeakageModel, "guard_band", flaky)
        table = build_lookup_table([20.0, 30.0], cfg, ALPHAS)
        assert table.failures == (30.0,)
        assert 30.0 not in table.entries
        assert 20.0 in table.entries


def _counted_reads(monkeypatch) -> list:
    """The (model, guard band Hz) pairs the leakage models read, as they run;
    each model is kept, so its id stays its own."""
    reads, real = [], LeakageModel.suppression_db

    def counted(model, guard_band_hz):
        reads.append((model, guard_band_hz))
        return real(model, guard_band_hz)

    monkeypatch.setattr(LeakageModel, "suppression_db", counted)
    return reads


def test_default_build_reads_each_guard_band_once_per_model(cfg, monkeypatch):
    # every curve point, as guards computes them: the bisections share their
    # model's readings, one model per alpha
    reads = _counted_reads(monkeypatch)
    efficiency_curves(DEFAULT_THETA_LIST, cfg)
    keys = [(id(model), g) for model, g in reads]
    assert len(keys) == len(set(keys)) == 2659
    assert len({id(model) for model, _ in reads}) == len(DEFAULT_ALPHA_GRID)


def test_bounded_build_skips_the_pairs_that_cannot_win(cfg, monkeypatch):
    # the table build bisects only where eta_time(alpha) still beats the
    # threshold's best eta, stops a bisection once its bracket cannot win,
    # and builds no model for an alpha with none left
    reads = _counted_reads(monkeypatch)
    build_lookup_table(DEFAULT_THETA_LIST, cfg)
    keys = [(id(model), g) for model, g in reads]
    assert len(keys) == len(set(keys)) == 545
    assert len({id(model) for model, _ in reads}) == 23


def test_bounded_build_reads_what_the_curves_read(cfg, monkeypatch):
    # a stopped bisection is a prefix of the full one: every reading of the
    # table build is, bit for bit, the same model's reading in the curves
    real = LeakageModel.suppression_db
    readings = {"build": {}, "curves": {}}
    run = "build"

    def recorded(model, guard_band_hz):
        value = real(model, guard_band_hz)
        readings[run][model.alpha, guard_band_hz] = value
        return value

    monkeypatch.setattr(LeakageModel, "suppression_db", recorded)
    build_lookup_table(DEFAULT_THETA_LIST, cfg)
    run = "curves"
    efficiency_curves(DEFAULT_THETA_LIST, cfg)
    build, curves = readings["build"], readings["curves"]
    assert len(build) == 545 and len(curves) == 2659
    for key, value in build.items():
        assert curves[key].hex() == value.hex(), key


# every GB of the default guard curves, per threshold in alpha-grid order, as
# guards writes them to guard_curves.csv: a change in the model's arithmetic
# that moves any bisection's last step changes one of these floats
DEFAULT_CURVE_GBS = {
    20.0: (
        4.343864440917969, 3.850849151611328, 3.6909523010253906, 3.5776920318603516,
        3.431119918823242, 3.0113906860351562, 2.8448314666748047, 2.764883041381836,
        2.684934616088867, 2.6249732971191406, 2.558349609375, 2.4983882904052734,
        2.4251022338867188, 2.351816177368164, 2.0586719512939453, 1.925424575805664,
        1.8588008880615234, 1.812164306640625, 1.7721900939941406, 1.7388782501220703,
        1.698904037475586, 1.6722545623779297, 1.6389427185058594, 1.6122932434082031,
        1.5856437683105469, 1.5589942932128906, 1.5390071868896484, 1.5123577117919922,
        1.485708236694336, 1.4590587615966797, 1.4390716552734375, 1.4124221801757812,
        1.385772705078125, 1.3591232299804688, 1.3324737548828125, 1.3058242797851562,
        1.272512435913086, 1.2325382232666016, 1.1925640106201172, 0.9993553161621094,
        0.9460563659667969
    ),
    25.0: (
        14.090909957885742, 12.172147750854492, 10.320009231567383, 9.274017333984375,
        8.274662017822266, 7.528476715087891, 7.102085113525391, 6.415861129760742,
        6.14936637878418, 5.569740295410156, 5.323232650756836, 5.1699981689453125,
        4.7436065673828125, 4.470449447631836, 4.330539703369141, 4.23060417175293,
        4.1040191650390625, 3.930797576904297, 3.537717819213867, 3.4511070251464844,
        3.3711585998535156, 3.304534912109375, 3.2379112243652344, 3.1712875366210938,
        3.091339111328125, 3.004728317260742, 2.678272247314453, 2.578336715698242,
        2.5250377655029297, 2.471738815307617, 2.431764602661133, 2.3851280212402344,
        2.351816177368164, 2.3118419647216797, 2.2785301208496094, 2.238555908203125,
        2.2119064331054688, 2.1719322204589844, 2.138620376586914, 2.0919837951660156,
        2.0586719512939453
    ),
    30.0: (
        43.911672592163086, 30.820117950439453, 22.9785099029541, 19.167634963989258,
        16.03632164001465, 14.304105758666992, 12.571889877319336, 11.525897979736328,
        10.44659423828125, 9.680421829223633, 8.834300994873047, 8.13475227355957,
        7.794971466064453, 7.162046432495117, 6.902214050292969, 6.675693511962891,
        6.096067428588867, 5.949495315551758, 5.75628662109375, 5.269933700561523,
        5.103374481201172, 4.996776580810547, 4.87019157409668, 4.736944198608398,
        4.29722785949707, 4.190629959106445, 4.117343902587891, 4.030733108520508,
        3.964109420776367, 3.8774986267089844, 3.7908878326416016, 3.4444446563720703,
        3.324522018432617, 3.2445735931396484, 3.191274642944336, 3.1379756927490234,
        3.091339111328125, 3.0447025299072266, 2.998065948486328, 2.9514293670654297,
        2.9047927856445312
    ),
    35.0: (
        125.89878273010254, 62.07328987121582, 39.614444732666016, 31.073287963867188,
        24.737375259399414, 21.212982177734375, 18.248228073120117, 16.362777709960938,
        14.557275772094727, 13.43133544921875, 12.352031707763672, 11.459274291992188,
        10.553192138671875, 9.813669204711914, 9.41392707824707, 8.727703094482422,
        8.421234130859375, 7.808296203613281, 7.568450927734375, 7.048786163330078,
        6.775629043579102, 6.629056930541992, 6.369224548339844, 5.929508209228516,
        5.782936096191406, 5.669675827026367, 5.5430908203125, 5.076725006103516,
        4.9568023681640625, 4.8502044677734375, 4.770256042480469, 4.670320510864258,
        4.577047348022461, 4.203954696655273, 4.077369689941406, 3.9907588958740234,
        3.930797576904297, 3.8641738891601562, 3.8108749389648438, 3.744251251220703,
        3.6842899322509766
    ),
    40.0: (
        325.9963665008545, 99.80228424072266, 57.21642303466797, 43.038902282714844,
        33.17859649658203, 28.22179412841797, 23.751344680786133, 21.359554290771484,
        18.774555206298828, 17.015689849853516, 15.303461074829102, 14.224157333374023,
        13.164840698242188, 12.285408020019531, 11.385988235473633, 10.959596633911133,
        10.246723175048828, 9.553836822509766, 9.240705490112305, 8.614442825317383,
        8.354610443115234, 7.8349456787109375, 7.548463821411133, 7.388566970825195,
        6.85557746887207, 6.6623687744140625, 6.535783767700195, 6.375886917114258,
        5.976144790649414, 5.749624252319336, 5.649688720703125, 5.536428451538086,
        5.436492919921875, 5.256608963012695, 4.890178680419922, 4.783580780029297,
        4.710294723510742, 4.630346298217773, 4.563722610473633, 4.470449447631836,
        4.383838653564453
    ),
    45.0: (
        806.233232498169, 138.37073707580566, 73.73909759521484, 53.698692321777344,
        41.08682823181152, 34.45110893249512, 28.874706268310547, 25.32366371154785,
        22.345584869384766, 20.35353660583496, 18.321514129638672, 16.802494049072266,
        15.543306350708008, 14.297443389892578, 13.231464385986328, 12.745111465454102,
        11.918977737426758, 11.179454803466797, 10.426607131958008, 10.140125274658203,
        9.440576553344727, 9.207393646240234, 8.601118087768555, 8.361272811889648,
        8.141414642333984, 7.615087509155273, 7.435203552246094, 7.268644332885742,
        7.082098007202148, 6.589082717895508, 6.469160079956055, 6.3425750732421875,
        6.21599006652832, 5.769611358642578, 5.636363983154297, 5.529766082763672,
        5.449817657470703, 5.349882125854492, 5.249946594238281, 4.883516311645508,
        4.750268936157227
    ),
}


def test_default_curves_pin_every_bisection(cfg):
    curves = efficiency_curves(DEFAULT_THETA_LIST, cfg)
    assert list(curves) == list(DEFAULT_CURVE_GBS)
    for theta, curve in curves.items():
        assert [a.alpha for a in curve] == list(DEFAULT_ALPHA_GRID), theta
        assert tuple(a.gb_subcarriers for a in curve) == DEFAULT_CURVE_GBS[theta], theta


@st.composite
def _numerologies(draw, min_fft=2):
    n_fft = draw(st.integers(min_fft, 512))
    return NumerologyConfig(n_fft=n_fft, n_occupied=draw(st.integers(1, n_fft - 1)),
                            t_cp_ch=draw(st.integers(0, n_fft - 1)))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(cfg=_numerologies(), alpha=st.floats(0.0, 1.0))
# GD 2 plus CP 2 fills the 4-sample symbol exactly
@example(cfg=NumerologyConfig(n_fft=4, n_occupied=3, t_cp_ch=2), alpha=1 / 3)
def test_alpha_check_agrees_with_pulse_weights(cfg, alpha):
    # the grid check builds no pulse, yet refuses exactly the roll-offs whose
    # pulse the synthesis and the expected PSD would refuse, with their text:
    # those whose cyclic extension, CP plus GD, fills the symbol
    gd = round_half_up(alpha * (cfg.n_fft + cfg.t_cp_ch))
    try:
        pulse_weights(cfg, gd)
        want = None
    except ValueError as exc:
        want = f"alpha_grid value {alpha!r}: {exc}"
    try:
        assert checked_alpha_grid([alpha], cfg) == [alpha]
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want
    assert (want is not None) == (cfg.t_cp_ch + gd >= cfg.n_fft)
    if want is not None:
        assert want.endswith(": cyclic extension exceeds symbol length")


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
    # read with the same row (or the same off-table index); values keep the
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

    thetas = queries + keys + [k + 1e-9 for k in keys] + [k - 2e-9 for k in keys]
    assert back.ceil_index(thetas).tolist() == built.ceil_index(thetas).tolist()


def _scan_ceil_lookup(table, theta):
    """Oracle: the linear scan over ascending keys that the search replaced;
    the index of the first key within 1e-9 dB below the request or above it,
    else the number of keys."""
    for k, t in enumerate(table.entries):
        if t >= theta - 1e-9:
            return k
    return len(table.entries)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(keys=st.lists(_thetas, min_size=1, max_size=8, unique=True),
       queries=st.lists(_thetas, max_size=6))
@example(keys=[0.0, 1.0], queries=[1e-9])  # 1e-9 - 1e-9 is the key 0.0 exactly
def test_ceil_index_matches_linear_scan(keys, queries):
    table = LookupTable({t: _entry(t, float(i)) for i, t in enumerate(keys)})
    assert table.allocations == [table.entries[t] for t in sorted(keys)]
    near = [k + d for k in keys for d in (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9)]
    extremes = [min(keys) - 1.0, max(keys) + 1e-8, max(keys) + 1.0,
                float("inf"), float("-inf"), float("nan")]
    thetas = near + extremes + queries
    want = [_scan_ceil_lookup(table, theta) for theta in thetas]
    # one threshold at a time, a list, and a 2-D array, as the kernel reads
    assert [table.ceil_index(theta) for theta in thetas] == want
    assert table.ceil_index(thetas).tolist() == want
    assert table.ceil_index(np.array([thetas, thetas])).tolist() == [want, want]


@settings(derandomize=True, max_examples=300)
@given(values=st.lists(st.one_of(_thetas, st.floats(0.0, 1.0),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=8, unique=True))
def test_grid_text_reads_back_exactly_and_is_distinct(values):
    texts = [grid_text(x) for x in values]
    assert [float(t) for t in texts] == values
    assert len(set(texts)) == len(values)


def test_grid_text_keeps_the_6_digit_text_where_exact():
    # the default grids, and every file named or keyed by them, are unchanged
    for x in DEFAULT_ALPHA_GRID + DEFAULT_THETA_LIST:
        assert grid_text(x) == f"{x:.6g}"
    x = 0.1000000001
    assert grid_text(x) == grid_text(np.float64(x)) == "0.1000000001"


def test_csv_near_integer_theta_not_rounded(tmp_path):
    cfg = NumerologyConfig()
    built = LookupTable({20.0: _entry(20.0, 4.0), 44.9999996: _entry(44.9999996, 9.0)})
    built.save_csv(tmp_path / "t.csv", cfg)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    # integral keys keep the %.6g text, so existing cache files are unchanged
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "44.9999996"]
    back = LookupTable.load_csv(tmp_path / "t.csv")
    for table in (built, back):
        assert table.ceil_index(45.0) == len(table.allocations)


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
    # row, and a NaN key left the entries unsorted for ceil_index's search
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


def test_unreachable_theta_has_no_optimum(cfg):
    # beyond the 113-114.6 dB the leakage model resolves at any roll-off
    with pytest.raises(ThetaUnreachableError) as exc:
        optimize_guards(200.0, cfg, (0.0, 0.1))
    assert str(exc.value) == ABSENT_THETA.format("200")


@pytest.mark.parametrize("theta", [True, "30", None, float("nan"), 0.0])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda t, cfg: checked_theta_list([t]), id="checked_theta_list"),
    pytest.param(lambda t, cfg: required_guard_band(0.05, t, cfg),
                 id="required_guard_band"),
    pytest.param(lambda t, cfg: efficiency_curve(t, cfg, (0.05,)), id="efficiency_curve"),
    pytest.param(lambda t, cfg: optimize_guards(t, cfg, (0.05,)), id="optimize_guards"),
    pytest.param(lambda t, cfg: build_lookup_table([t], cfg, (0.05,)),
                 id="build_lookup_table"),
])
def test_a_threshold_is_a_finite_positive_real_number(cfg, entry, theta):
    # True is not 1 dB, and a string or None is a bad value, not a TypeError
    with pytest.raises(ValueError, match="finite and positive") as info:
        entry(theta, cfg)
    assert not isinstance(info.value, ThetaUnreachableError)


def test_guard_allocation_product_invariant(cfg):
    best = optimize_guards(30.0, cfg, ALPHAS)
    assert best.eta == best.eta_time * best.eta_freq
    assert isinstance(best, GuardAllocation)


_NUMEROLOGIES = (
    NumerologyConfig(), NumerologyConfig(n_fft=128, n_occupied=75, t_cp_ch=9)
)


# on the default numerology each of these shares its taper with a grid
# neighbour (0.0004 with 0, 0.0498 and 0.0502 with 0.05), so their allocations
# tie and the smaller alpha must win whichever the walk meets first
_TIED_ALPHAS = (0.0004, 0.0498, 0.0502)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.sampled_from(_NUMEROLOGIES),
    # unsorted: the bounded build walks the grid in its own order
    st.lists(st.sampled_from(DEFAULT_ALPHA_GRID + _TIED_ALPHAS), min_size=1,
             max_size=12, unique=True),
    # up to past the 113-114.6 dB the leakage model resolves
    st.lists(st.floats(5.0, 130.0), min_size=1, max_size=4, unique=True).map(sorted),
)
@example(_NUMEROLOGIES[0], [0.2, 0.0, 0.05, 0.01], [20.0, 45.0, 120.0])
@example(_NUMEROLOGIES[1], [0.1, 0.005, 0.0], [25.0, 116.0])
@example(_NUMEROLOGIES[0], [0.0, 0.01, 0.02, 0.0498, 0.05], [30.0, 40.0, 45.0])
# one subcarrier in three costs so much band that 13 dB is best met with no
# guard band at GD 6, which 0.28 and 0.29 share; the walk meets 0.29 first
@example(NumerologyConfig(n_fft=16, n_occupied=3, t_cp_ch=4),
         [0.29, 0.28, 0.22, 0.2, 0.4, 0.0], [12.25, 13.0])
def test_bounded_build_matches_the_curves_optimum(cfg, alphas, thetas):
    built = build_lookup_table(thetas, cfg, alphas)
    expected = LookupTable.from_curves(thetas, efficiency_curves(thetas, cfg, alphas))
    assert built.entries == expected.entries
    assert built.failures == expected.failures


def test_coarse_pass_does_not_keep_a_tie_for_the_larger_alpha(cfg):
    # the coarse pass meets 0.05 before 0.0498; both taper over the same 55
    # samples, so at 40 and 45 dB they tie and the later, smaller alpha wins
    alphas = (0.0, 0.01, 0.02, 0.0498, 0.05)
    table = build_lookup_table([30.0, 40.0, 45.0], cfg, alphas)
    for theta in (40.0, 45.0):
        entry = table.entries[theta]
        assert (entry.alpha, entry.gd_samples) == (0.0498, 55)
        tied = optimize_guards(theta, cfg, (0.05,))
        assert (tied.gd_samples, tied.eta) == (55, entry.eta)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    _numerologies(min_fft=64),
    st.lists(st.sampled_from(DEFAULT_ALPHA_GRID), min_size=1, max_size=5,
             unique=True),
    st.lists(st.floats(3.0, 130.0), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_every_built_entry_revalidates(cfg, alphas, thetas):
    # the table the closed-form search builds holds on the grid expected PSD,
    # whatever the numerology; roll-offs whose extension fills the symbol go
    alphas = [a for a in alphas if cfg.t_cp_ch + round_half_up(
        a * (cfg.n_fft + cfg.t_cp_ch)) < cfg.n_fft]
    assume(alphas)
    table = build_lookup_table(thetas, cfg, alphas)
    for theta, achieved in revalidate(table, cfg).items():
        assert achieved >= theta - REVALIDATE_TOL_DB, (theta, achieved)


def test_bounded_build_breaks_a_tie_toward_the_smaller_alpha(cfg):
    # both roll-offs round to no taper, so their guard bands and eta agree;
    # 9 dB needs no guard band, so its eta meets the bound and the tie is
    # settled by the walk's order, 30 dB by the merge
    alphas = (0.0004, 0.0)
    curves = efficiency_curves([9.0, 30.0], cfg, alphas)
    for theta, gb in ((9.0, 0.0), (30.0, curves[30.0][0].gb_subcarriers)):
        guards = [(a.gd_samples, a.gb_subcarriers) for a in curves[theta]]
        assert guards == [(0, gb)] * 2
        assert curves[theta][0].eta == curves[theta][1].eta
    table = build_lookup_table([9.0, 30.0], cfg, alphas)
    assert [a.alpha for a in table.entries.values()] == [0.0, 0.0]
