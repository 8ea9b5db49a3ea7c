import itertools
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import guardopt.scheduler as scheduler
from guardopt.optimizer import GuardAllocation, LookupTable
from guardopt.scheduler import (
    SchedulePlan,
    UserProfile,
    allocate_guards,
    compare_scenarios,
    fixed_guard_plan,
    load_users_yaml,
    schedule_interference_based,
    schedule_random,
    theta_for_assignment,
    write_comparison_csv,
    write_layout_csv,
)


def _alloc(theta, gd, gb):
    return GuardAllocation(
        alpha=gd / 1096,
        gd_samples=gd,
        gb_subcarriers=gb,
        eta_time=1.0,
        eta_freq=1.0,
        eta=1.0,
        theta_db=theta,
    )


@pytest.fixture(scope="module")
def lut():
    # hand-built table: costs grow with theta, one fractional guard band
    return LookupTable(
        {
            10.0: _alloc(10.0, 0, 1.0),
            20.0: _alloc(20.0, 5, 2.5),
            30.0: _alloc(30.0, 20, 4.0),
            40.0: _alloc(40.0, 50, 8.0),
            45.0: _alloc(45.0, 80, 12.0),
        }
    )


def _user(uid, power, sir):
    return UserProfile(uid, power, sir)


class TestUserProfile:
    def test_valid(self):
        u = _user("a", 10.0, 20.0)
        assert (u.id, u.power_dbm, u.sir_req_db) == ("a", 10.0, 20.0)
        assert (u.use_case, u.obw_subcarriers) == (None, None)

    def test_unread_positional_fields_are_not_checked(self):
        # no computation reads them, so any value is kept as given
        u = UserProfile("a", 10.0, 20.0, "broadcast", 0)
        assert (u.use_case, u.obw_subcarriers) == ("broadcast", 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sir=0.0),
            dict(sir=-5.0),
            dict(sir=float("nan")),
            dict(sir=float("inf")),
            dict(power=float("nan")),
            dict(power=float("-inf")),
        ],
    )
    def test_invalid(self, kwargs):
        args = dict(power=0.0, sir=20.0)
        args.update(kwargs)
        with pytest.raises(ValueError):
            _user("bad", args["power"], args["sir"])

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "users.yaml"
        path.write_text(
            "users:\n"
            "  - {id: u1, power_dbm: 10, sir_req_db: 20}\n"
            "  - {id: u2, power_dbm: -3.5, sir_req_db: 15}\n"
        )
        users = load_users_yaml(path)
        assert [u.id for u in users] == ["u1", "u2"]
        assert users[1].power_dbm == -3.5
        assert users[1].sir_req_db == 15.0


    def test_yaml_missing_key_names_file_row_key(self, tmp_path):
        path = tmp_path / "users.yaml"
        path.write_text(
            "users:\n"
            "  - {id: u1, power_dbm: 10, sir_req_db: 20}\n"
            "  - {power_dbm: 1, sir_req_db: 15}\n"
        )
        with pytest.raises(ValueError) as exc:
            load_users_yaml(path)
        msg = str(exc.value)
        assert str(path) in msg and "user 2" in msg and "'id'" in msg

    def test_yaml_duplicate_id(self, tmp_path):
        path = tmp_path / "users.yaml"
        row = "  - {id: u1, power_dbm: 10, sir_req_db: 20}\n"
        path.write_text("users:\n" + row + row)
        with pytest.raises(ValueError, match=r"user 2: duplicate id 'u1'") as exc:
            load_users_yaml(path)
        assert str(path) in str(exc.value)

    def test_yaml_bad_value_names_row(self, tmp_path):
        path = tmp_path / "users.yaml"
        path.write_text(
            "- {id: u1, power_dbm: .nan, sir_req_db: 20}\n"
        )
        with pytest.raises(ValueError, match=r"user 1: power_dbm must be finite"):
            load_users_yaml(path)

    @pytest.mark.parametrize("uid", ['"a,b"', "'a\"b'", '"a\\nb"', '"a\\rb"', '""'])
    def test_yaml_id_that_breaks_the_layout_csv(self, tmp_path, uid):
        # the layout CSV writes ids unquoted: one row per user, one field each
        path = tmp_path / "users.yaml"
        path.write_text(
            "users:\n"
            "  - {id: u1, power_dbm: 10, sir_req_db: 20}\n"
            f"  - {{id: {uid}, power_dbm: 1, sir_req_db: 15}}\n"
        )
        with pytest.raises(ValueError, match=r"user 2: id must be non-empty") as exc:
            load_users_yaml(path)
        assert str(path) in str(exc.value)


class TestThetaForAssignment:
    def test_two_users_hand_computed(self):
        a, b = _user("a", 10.0, 20.0), _user("b", 0.0, 30.0)
        # theta_a = sir_b + (p_a - p_b); theta_b = sir_a + (p_b - p_a)
        assert theta_for_assignment([a, b]) == [40.0, 10.0]

    def test_middle_band_takes_max_neighbor(self):
        users = [
            _user("a", 20.0, 10.0),
            _user("b", 0.0, 30.0),
            _user("c", 8.0, 12.0),
        ]
        assert theta_for_assignment(users) == [50.0, 4.0, 38.0]

    def test_offset_can_push_theta_negative(self):
        a, b = _user("a", 0.0, 30.0), _user("b", 40.0, 5.0)
        assert theta_for_assignment([a, b]) == [-35.0, 70.0]

    def test_single_user_gets_floor(self):
        u = _user("solo", 10.0, 20.0)
        assert theta_for_assignment([u]) == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theta_for_assignment([])

    def test_locality_of_edit(self):
        # changing one user's power only moves thetas of bands j-1 .. j+1
        users = [_user(f"u{i}", float(i), 20.0 + i) for i in range(6)]
        base = theta_for_assignment(users)
        j = 3
        users[j] = _user("u3b", 11.0, 23.0)
        after = theta_for_assignment(users)
        for i in range(6):
            if abs(i - j) > 1:
                assert after[i] == base[i]
        assert after[j] != base[j]


class TestAllocateGuards:
    def test_totals_recomputed_from_parts(self, lut):
        users = [
            _user("a", 15.0, 18.0),
            _user("b", 0.0, 15.0),
            _user("c", 9.0, 28.0),
            _user("d", 2.0, 15.0),
        ]
        plan = allocate_guards(users, lut)
        assert plan.total_gd_samples == sum(a.gd_samples for a in plan.guard_per_band)
        assert plan.total_gb_subcarriers == sum(plan.boundary_gb)
        assert len(plan.boundary_gb) == len(users) - 1
        # independent oracle for the boundaries
        for k, gb in enumerate(plan.boundary_gb):
            a, b = plan.guard_per_band[k], plan.guard_per_band[k + 1]
            assert gb == math.ceil(max(a.gb_subcarriers, b.gb_subcarriers) - 1e-9)

    def test_boundary_uses_larger_side(self, lut):
        a, b = _user("a", 10.0, 20.0), _user("b", 0.0, 30.0)
        plan = allocate_guards([a, b], lut)
        assert plan.theta_per_band == (40.0, 10.0)
        assert plan.guard_per_band[0].theta_db == 40.0
        assert plan.guard_per_band[1].theta_db == 10.0
        assert plan.boundary_gb == (8,)
        assert plan.total_gd_samples == 50 + 0

    def test_fractional_guard_rounds_up(self, lut):
        # both sides resolve to the 20 dB row (gb = 2.5) -> boundary 3
        a, b = _user("a", 0.0, 15.0), _user("b", 0.0, 15.0)
        plan = allocate_guards([a, b], lut)
        assert plan.theta_per_band == (15.0, 15.0)
        assert plan.boundary_gb == (3,)

    def test_out_of_range_names_user(self, lut):
        a, b = _user("quiet", 0.0, 20.0), _user("loud", 60.0, 20.0)
        with pytest.raises(ValueError, match="loud"):
            allocate_guards([a, b], lut)

    def test_cost_is_gb_then_gd(self, lut):
        a, b = _user("a", 10.0, 20.0), _user("b", 0.0, 30.0)
        plan = allocate_guards([a, b], lut)
        assert plan.cost == (plan.total_gb_subcarriers, plan.total_gd_samples)


class TestFixedGuardPlan:
    def test_worst_case_everywhere(self, lut):
        users = [_user("a", 0.0, 15.0), _user("b", 1.0, 16.0), _user("c", 2.0, 15.0)]
        plan = fixed_guard_plan(users, lut)
        assert plan.theta_per_band == (45.0, 45.0, 45.0)
        assert plan.total_gd_samples == 3 * 80
        assert plan.boundary_gb == (12, 12)

    def test_empty_table(self):
        with pytest.raises(ValueError, match="no reachable threshold"):
            fixed_guard_plan([_user("a", 0.0, 15.0)], LookupTable({}))


class TestScheduleRandom:
    def test_deterministic_per_seed(self):
        users = [_user(f"u{i}", float(i), 20.0) for i in range(6)]
        a = schedule_random(users, 7)
        b = schedule_random(users, 7)
        assert [u.id for u in a] == [u.id for u in b]
        assert sorted(u.id for u in a) == sorted(u.id for u in users)

    def test_roughly_uniform_over_seeds(self):
        users = [_user("a", 0.0, 20.0), _user("b", 1.0, 20.0), _user("c", 2.0, 20.0)]
        counts = {}
        n = 6000
        for s in range(n):
            key = tuple(u.id for u in schedule_random(users, s))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        # chi-square with 5 dof; 16.75 ~ p=0.005
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.75


class TestScheduleInterferenceBased:
    def _mixed(self):
        return [
            _user("e1", 15.0, 18.0),
            _user("m1", 0.0, 15.0),
            _user("r1", 10.0, 30.0),
            _user("m2", 1.0, 16.0),
            _user("e2", 14.0, 20.0),
        ]

    def test_exhaustive_beats_every_random_order(self, lut):
        users = self._mixed()
        best = allocate_guards(schedule_interference_based(users, lut), lut)
        for seed in range(60):
            rnd = allocate_guards(schedule_random(users, seed), lut)
            assert best.cost <= rnd.cost

    def test_exhaustive_matches_permutation_oracle(self, lut):
        users = self._mixed()[:4]
        oracle = min(
            (allocate_guards(p, lut).cost for p in itertools.permutations(users))
        )
        got = allocate_guards(schedule_interference_based(users, lut), lut)
        assert got.cost == oracle

    def test_heuristic_not_better_than_exhaustive(self, lut):
        users = self._mixed()
        ex = allocate_guards(schedule_interference_based(users, lut), lut)
        he = allocate_guards(
            schedule_interference_based(users, lut, mode="heuristic"), lut
        )
        assert ex.cost <= he.cost

    def test_power_grouping_is_optimal(self, lut):
        # two power classes, one SIR demand: sorting by power is provably
        # optimal (any interleaving adds a high-offset boundary)
        users = [
            _user("lo1", 0.0, 15.0),
            _user("hi1", 14.0, 15.0),
            _user("lo2", 0.0, 15.0),
            _user("hi2", 14.0, 15.0),
            _user("lo3", 0.0, 15.0),
        ]
        sorted_cost = allocate_guards(
            sorted(users, key=lambda u: u.power_dbm), lut
        ).cost
        best = allocate_guards(schedule_interference_based(users, lut), lut)
        assert best.cost == sorted_cost

    def test_identical_users_any_order_same_cost(self, lut):
        users = [_user(f"u{i}", 5.0, 20.0) for i in range(4)]
        costs = {
            allocate_guards(p, lut).cost for p in itertools.permutations(users)
        }
        assert len(costs) == 1

    def test_exhaustive_user_limit(self, lut):
        users = [_user(f"u{i}", float(i), 20.0) for i in range(11)]
        with pytest.raises(ValueError, match="10"):
            schedule_interference_based(users, lut, "exhaustive")
        # heuristic still handles the same set
        order = schedule_interference_based(users, lut, mode="heuristic")
        assert len(order) == 11

    def test_set_size_picks_search(self, lut):
        # at 10 users the exact ordering beats the heuristic's
        users = [_user(f"u{i}", 7 * i % 13, 15 + 5 * i % 11) for i in range(11)]
        for n, mode in ((10, "exhaustive"), (11, "heuristic")):
            assert schedule_interference_based(users[:n], lut) == (
                schedule_interference_based(users[:n], lut, mode)
            )

    def test_bad_mode(self, lut):
        with pytest.raises(ValueError, match="mode"):
            schedule_interference_based(self._mixed(), lut, mode="greedy")

    def test_single_user_passthrough(self, lut):
        u = _user("solo", 0.0, 20.0)
        assert schedule_interference_based([u], lut) == [u]


def _permutation_search(users, lut):
    """Oracle: the first minimum-cost ordering over every permutation."""
    return list(min(
        itertools.permutations(users),
        key=lambda p: allocate_guards(p, lut).cost,
    ))


def _adjacent_swap_search(users, lut):
    """Oracle: the adjacent-swap heuristic, costing full plans."""
    order = sorted(users, key=lambda u: (u.power_dbm, u.sir_req_db))
    improved = True
    while improved:
        improved = False
        cost = allocate_guards(order, lut).cost
        for i in range(len(order) - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            trial = allocate_guards(order, lut).cost
            if trial < cost:
                cost = trial
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return order


def _outcome(search, *args):
    """The ordering (as object identities) or the error message."""
    try:
        return [id(u) for u in search(*args)]
    except ValueError as exc:
        return str(exc)


_levels = st.one_of(st.sampled_from([0.0, 3.0, 7.5, 15.0]), st.floats(0.0, 15.0))
_sirs = st.one_of(st.sampled_from([15.0, 20.0, 30.0]), st.floats(1.0, 30.0))


@st.composite
def _user_sets(draw, max_n):
    """Sets with tied powers/SIRs; sometimes one user object appears twice."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.tuples(_levels, _sirs), min_size=n, max_size=n))
    users = [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)]
    if len(users) < max_n and draw(st.booleans()):
        users.insert(draw(st.integers(0, len(users))), users[0])
    return users


@st.composite
def _tables(draw, top=st.just(45.0)):
    """Monotone tables: GD and GB never fall as theta rises; fractional GB."""
    top = draw(top)
    thetas = sorted(set(draw(st.lists(st.floats(-5.0, top), max_size=5))) | {top})
    entries, gd, gb = {}, 0, 0.0
    for t in thetas:
        gd += draw(st.integers(0, 30))
        gb += draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                             st.floats(0.0, 6.0)))
        entries[t] = _alloc(t, gd, gb)
    return LookupTable(entries)


class TestOrderingSearchOracles:
    """The DP and the kernel-costed heuristic return exactly the orderings of
    the permutation search and the plan-costed swap loop."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(users=_user_sets(7), lut=_tables(), floor=st.floats(-10.0, 45.0))
    def test_exhaustive_is_first_permutation_optimum(self, users, lut, floor):
        got = schedule_interference_based(users, lut, theta_floor=floor)
        want = _permutation_search(users, lut)
        assert [id(u) for u in got] == [id(u) for u in want]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(users=_user_sets(14), lut=_tables(), floor=st.floats(-10.0, 45.0))
    def test_heuristic_matches_swap_loop(self, users, lut, floor):
        got = schedule_interference_based(users, lut, "heuristic", floor)
        want = _adjacent_swap_search(users, lut)
        assert [id(u) for u in got] == [id(u) for u in want]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(users=_user_sets(6), lut=_tables(st.floats(10.0, 45.0)))
    def test_out_of_range_same_error_as_oracles(self, users, lut):
        # tables that stop short of some neighbor pairs' thresholds
        assert _outcome(schedule_interference_based, users, lut) == _outcome(
            _permutation_search, users, lut
        )
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_one_user(self, lut, mode):
        u = _user("solo", 0.0, 60.0)
        assert schedule_interference_based([u], lut, mode, 99.0) == [u]

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    @pytest.mark.parametrize("powers", [(10.0, 0.0), (0.0, 10.0), (5.0, 5.0)])
    def test_two_users(self, lut, mode, powers):
        users = [_user("a", powers[0], 20.0), _user("b", powers[1], 30.0)]
        got = schedule_interference_based(users, lut, mode)
        oracle = _permutation_search if mode == "exhaustive" else _adjacent_swap_search
        assert got == oracle(users, lut)

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_no_plan_per_candidate(self, lut, mode, monkeypatch):
        users = [_user(f"u{i}", float(i), 15.0 + 2 * i) for i in range(7)]
        want = schedule_interference_based(users, lut, mode)
        thetas = []
        real = LookupTable.ceil_lookup

        def counted(self, theta):
            thetas.append(theta)
            return real(self, theta)

        def no_plan(*args, **kwargs):
            raise AssertionError("SchedulePlan built during the search")

        monkeypatch.setattr(LookupTable, "ceil_lookup", counted)
        monkeypatch.setattr(scheduler, "SchedulePlan", no_plan)
        assert schedule_interference_based(users, lut, mode) == want
        assert len(thetas) == len(set(thetas))  # one table read per theta


_gbs = st.one_of(
    st.integers(0, 2000).map(float),
    st.builds(lambda k, d: k + d, st.integers(0, 2000), st.floats(-2e-9, 2e-9)),
    st.floats(0.0, 2000.0),
)


class TestWholeGuardBands:
    """A boundary's whole GB is the larger of its two bands' whole GBs, so a
    band's cost is the pair (whole GB, GD)."""

    @settings(derandomize=True, max_examples=300)
    @given(gb_a=_gbs, gb_b=_gbs)
    def test_boundary_is_larger_whole_gb(self, gb_a, gb_b):
        a, b = _alloc(20.0, 0, gb_a), _alloc(30.0, 0, gb_b)
        want = math.ceil(max(gb_a, gb_b) - 1e-9)
        assert scheduler._boundary_gb(a, b) == want
        assert max(scheduler._whole_gb(a), scheduler._whole_gb(b)) == want

    def test_dp_merges_entries_sharing_a_whole_gb(self):
        # the 20 and 30 dB entries both round to 3 subcarriers, so DP states
        # that differ only in which of them the last-but-one band got merge
        lut = LookupTable({
            10.0: _alloc(10.0, 0, 1.0),
            20.0: _alloc(20.0, 5, 2.2),
            30.0: _alloc(30.0, 9, 2.8),
            40.0: _alloc(40.0, 50, 8.0),
            45.0: _alloc(45.0, 80, 12.0),
        })
        users = [_user("a", 0.0, 15.0), _user("b", 5.0, 20.0),
                 _user("c", 10.0, 18.0), _user("d", 3.0, 25.0),
                 _user("e", 8.0, 16.0)]
        kernel = scheduler._OrderingCost(users, lut)
        assert kernel.guards(0, 1, 2) == (3, 5)  # b at 20 dB
        assert kernel.guards(0, 1, 3) == (3, 9)  # b at 27 dB, read at 30
        got = [users[i] for i in scheduler._exact_order(kernel)]
        assert got == _permutation_search(users, lut)


class TestOutOfRangeTheta:
    """A threshold above the table maximum names the user in every path."""

    USERS = [_user("quiet", 0.0, 20.0), _user("mid", 5.0, 20.0),
             _user("loud", 60.0, 20.0)]

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_search_names_user(self, lut, mode):
        with pytest.raises(ValueError, match="'loud' out of lookup range"):
            schedule_interference_based(self.USERS, lut, mode)

    def test_allocate_guards_names_user(self, lut):
        with pytest.raises(ValueError, match="'loud' out of lookup range"):
            allocate_guards(self.USERS, lut)

    def test_exhaustive_error_matches_permutation_search(self, lut):
        # only a next to c leaves the table (46 dB); the first permutation
        # with that pair adjacent is (a, c, b, d)
        users = [_user("a", 30.0, 15.0), _user("b", 28.0, 15.0),
                 _user("c", 0.0, 16.0), _user("d", 29.0, 15.0)]
        with pytest.raises(ValueError) as exc:
            _permutation_search(users, lut)
        with pytest.raises(ValueError) as got:
            schedule_interference_based(users, lut)
        assert str(got.value) == str(exc.value)
        assert "'a'" in str(got.value)

    @pytest.mark.parametrize("rows, user, theta", [
        # only d next to c leaves the table; the first failing permutation is
        # (a, b, c, d), whose last band is read at the full set
        ([(10.0, 15.0), (5.0, 15.0), (0.0, 20.0), (30.0, 15.0)], "d", 50),
        # a, b and d each leave the table next to c; the first out-of-range
        # pair in input order is a|c (55 dB), but (a, b, c, d) fails at b first
        ([(30.0, 15.0), (25.0, 15.0), (0.0, 25.0), (25.0, 15.0)], "b", 50),
        # c leaves the table next to a (50 dB) and d (55 dB); (a, b, c, d)
        # fails at c between b and d, so the larger threshold is reported
        ([(0.0, 20.0), (15.0, 20.0), (30.0, 15.0), (0.0, 25.0)], "c", 55),
    ], ids=["last_band", "not_first_pair", "middle_band"])
    def test_exhaustive_error_is_first_failing_permutation(
        self, lut, rows, user, theta
    ):
        users = [_user(uid, *row) for uid, row in zip("abcd", rows)]
        with pytest.raises(ValueError) as want:
            _permutation_search(users, lut)
        with pytest.raises(ValueError) as got:
            schedule_interference_based(users, lut)
        assert str(got.value) == str(want.value) == (
            f"theta for user {user!r} out of lookup range: "
            f"'theta={theta:.2f} dB exceeds the lookup table maximum (45.00 dB)'"
        )


class TestCompareScenarios:
    def test_three_rows_ordered(self, lut):
        users = [
            _user("a", 15.0, 18.0),
            _user("b", 0.0, 15.0),
            _user("c", 10.0, 30.0),
            _user("d", 2.0, 16.0),
        ]
        rows = compare_scenarios(users, seed=1, lookup=lut)
        assert [r.scenario for r in rows] == [
            "fixed_random",
            "adaptive_random",
            "adaptive_scheduled",
        ]
        fixed, adaptive, scheduled = (r.plan for r in rows)
        assert adaptive.cost <= fixed.cost
        assert scheduled.cost <= adaptive.cost
        assert rows[0].gd_reduction_pct == 0.0
        assert rows[1].gd_reduction_pct >= 0.0
        assert rows[2].gb_reduction_pct >= 0.0

    def test_identical_users_no_scheduling_gain(self, lut):
        users = [_user(f"u{i}", 5.0, 20.0) for i in range(4)]
        rows = compare_scenarios(users, seed=0, lookup=lut)
        assert rows[2].gd_reduction_pct == 0.0
        assert rows[2].gb_reduction_pct == 0.0

    def test_reduction_formula(self, lut):
        users = [
            _user("a", 15.0, 18.0),
            _user("b", 0.0, 15.0),
            _user("c", 10.0, 30.0),
        ]
        rows = compare_scenarios(users, seed=3, lookup=lut)
        fixed, adaptive = rows[0].plan, rows[1].plan
        expected = 100.0 * (
            fixed.total_gd_samples - adaptive.total_gd_samples
        ) / fixed.total_gd_samples
        assert rows[1].gd_reduction_pct == pytest.approx(expected)


class TestCsvWriters:
    def test_layout_csv(self, lut, tmp_path):
        users = [_user("a", 10.0, 20.0), _user("b", 0.0, 30.0)]
        plan = allocate_guards(users, lut)
        path = tmp_path / "layout.csv"
        write_layout_csv(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "band_index,user_id,theta_db,gb_subcarriers,gd_samples"
        assert lines[1].startswith("0,a,40,")
        assert lines[2].startswith("1,b,10,")

    def test_comparison_csv(self, lut, tmp_path):
        users = [_user("a", 10.0, 20.0), _user("b", 0.0, 30.0), _user("c", 5.0, 16.0)]
        rows = compare_scenarios(users, seed=0, lookup=lut)
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("fixed_random,")


def test_packaged_fixture_loads():
    from importlib import resources

    with resources.as_file(
        resources.files("guardopt.data") / "users_mixed8.yaml"
    ) as p:
        users = load_users_yaml(p)
        rows = yaml.safe_load(p.read_text())["users"]
    assert len(users) == 8
    # the three keys a user file holds; the old five-key format fails to load
    assert all(set(row) == {"id", "power_dbm", "sir_req_db"} for row in rows)
