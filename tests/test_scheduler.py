import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import guardopt.scheduler as scheduler
from guardopt.numerology import NumerologyConfig
from guardopt.optimizer import GuardAllocation, LookupTable
from guardopt.scheduler import (
    EXACT_LIMIT,
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


def _whole(gb):
    """A guard band in whole subcarriers: rounded up from the 6 decimals at
    which a saved table keeps it."""
    return math.ceil(round(gb, 6))


def _boundaries(plan):
    """Each internal boundary's whole GB, recomputed from the plan's bands:
    the larger facing guard band, rounded up to whole subcarriers."""
    bands = plan.guard_per_band
    return tuple(_whole(max(a.gb_subcarriers, b.gb_subcarriers))
                 for a, b in zip(bands, bands[1:]))


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

    @pytest.mark.parametrize("field", ["power_dbm", "sir_req_db"])
    @pytest.mark.parametrize("value", [True, False, "20", None, [20.0], np.bool_(True)])
    def test_non_real_value_names_its_field(self, field, value):
        # true is not read as 1; a string or None is not left to math.isfinite
        args = dict(id="a", power_dbm=0.0, sir_req_db=20.0)
        args[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "):
            UserProfile(**args)

    @pytest.mark.parametrize("field", ["power_dbm", "sir_req_db"])
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "-huge"])
    def test_integer_past_float_range_names_its_field(self, field, value):
        # math.isfinite would raise OverflowError on it
        args = dict(id="a", power_dbm=0.0, sir_req_db=20.0)
        args[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be .*finite, got -?1000"):
            UserProfile(**args)

    @pytest.mark.parametrize("field", ["power_dbm", "sir_req_db"])
    def test_yaml_integer_past_float_range_names_row_and_key(self, tmp_path, field):
        row = {"power_dbm": "10", "sir_req_db": "20"}
        row[field] = "1" * 400
        path = tmp_path / "users.yaml"
        path.write_text(f"- {{id: u1, power_dbm: {row['power_dbm']}, "
                        f"sir_req_db: {row['sir_req_db']}}}\n")
        with pytest.raises(ValueError) as exc:
            load_users_yaml(path)
        assert str(exc.value) == (f"{path}: user 1: {field}: expected a number, "
                                  "got an integer too large for a float")

    def test_integers_are_accepted(self):
        u = UserProfile("a", 10, 20)
        assert (u.power_dbm, u.sir_req_db) == (10, 20)

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

    def test_empty_rejected(self, lut):
        with pytest.raises(ValueError, match="assignment must not be empty"):
            theta_for_assignment([])
        with pytest.raises(ValueError, match="assignment must not be empty"):
            allocate_guards([], lut)
        with pytest.raises(ValueError, match="assignment must not be empty"):
            fixed_guard_plan([], lut)

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
        assert len(plan.guard_per_band) == len(users)
        # independent oracle for the boundaries
        assert plan.total_gb_subcarriers == sum(_boundaries(plan))

    def test_boundary_uses_larger_side(self, lut):
        a, b = _user("a", 10.0, 20.0), _user("b", 0.0, 30.0)
        plan = allocate_guards([a, b], lut)
        assert plan.theta_per_band == (40.0, 10.0)
        assert plan.guard_per_band[0].theta_db == 40.0
        assert plan.guard_per_band[1].theta_db == 10.0
        assert _boundaries(plan) == (8,)
        assert plan.total_gb_subcarriers == 8
        assert plan.total_gd_samples == 50 + 0

    def test_fractional_guard_rounds_up(self, lut):
        # both sides resolve to the 20 dB row (gb = 2.5) -> boundary 3
        a, b = _user("a", 0.0, 15.0), _user("b", 0.0, 15.0)
        plan = allocate_guards([a, b], lut)
        assert plan.theta_per_band == (15.0, 15.0)
        assert _boundaries(plan) == (3,)
        assert plan.total_gb_subcarriers == 3

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
        assert _boundaries(plan) == (12, 12)
        assert plan.total_gb_subcarriers == 24

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_bad_mode_with_no_pair_to_order(self, lut, n):
        # the mode is checked before a set too small to order is returned
        users = self._mixed()[:n]
        with pytest.raises(ValueError, match="^mode must be 'exhaustive' or 'heuristic'$"):
            schedule_interference_based(users, lut, "heurstic")
        with pytest.raises(ValueError, match="^mode must be 'exhaustive' or 'heuristic'$"):
            compare_scenarios(users, 0, lut, mode="exhaustve")

    def test_single_user_passthrough(self, lut):
        u = _user("solo", 0.0, 20.0)
        assert schedule_interference_based([u], lut) == [u]


def _permutation_search(users, lut):
    """Oracle: the first minimum-cost ordering among the permutations that
    allocate_guards accepts; ValueError if it accepts none."""
    plans = []
    for p in itertools.permutations(users):
        try:
            plans.append(allocate_guards(p, lut))
        except ValueError:
            pass
    if not plans:
        raise ValueError("no ordering stays on the table")
    return list(min(plans, key=lambda plan: plan.cost).assignment)


def _sentinel_cost(order, lut):
    """allocate_guards' cost, band by band, where a band above the table
    costs (n x the table's largest whole GB + 1, 0)."""
    whole = [_whole(a.gb_subcarriers) for a in lut.entries.values()]
    bands = []
    for k in lut.ceil_index(theta_for_assignment(order)):
        if k < len(lut.allocations):
            a = lut.allocations[k]
            bands.append((_whole(a.gb_subcarriers), a.gd_samples))
        else:
            bands.append((len(order) * max(whole) + 1, 0))
    return (sum(max(a[0], b[0]) for a, b in zip(bands, bands[1:])),
            sum(gd for _, gd in bands))


def _adjacent_swap_search(users, lut):
    """Oracle: the adjacent-swap heuristic, costing full plans with the
    sentinel; allocate_guards' error if its passes end off the table."""
    return _swap_loop(sorted(users, key=lambda u: (u.power_dbm, u.sir_req_db)), lut)


def _swap_loop(order, lut):
    """Adjacent-swap passes over the users of `order`, in place, as
    _adjacent_swap_search makes them from its sorted start."""
    improved = True
    while improved:
        improved = False
        cost = _sentinel_cost(order, lut)
        for i in range(len(order) - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            trial = _sentinel_cost(order, lut)
            if trial < cost:
                cost = trial
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    allocate_guards(order, lut)
    return order


def _outcome(search, *args):
    """The ordering (as object identities) or the error message."""
    try:
        return [id(u) for u in search(*args)]
    except ValueError as exc:
        return str(exc)


_levels = st.one_of(st.sampled_from([0.0, 3.0, 7.5, 15.0]), st.floats(0.0, 15.0))
# power spreads up to 30 dB: some neighbor pairs leave a 45 dB table, others not
_wide_levels = st.one_of(_levels, st.sampled_from([20.0, 30.0]), st.floats(0.0, 30.0))
_sirs = st.one_of(st.sampled_from([15.0, 20.0, 30.0]), st.floats(1.0, 30.0))


@st.composite
def _user_sets(draw, max_n, levels=_levels):
    """Sets with tied powers/SIRs; sometimes one user object appears twice."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.tuples(levels, _sirs), min_size=n, max_size=n))
    users = [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)]
    if len(users) < max_n and draw(st.booleans()):
        users.insert(draw(st.integers(0, len(users))), users[0])
    return users


# 15 to 40 distinct users, ties in power and SIR included
_long_user_sets = st.integers(15, 40).flatmap(
    lambda n: st.lists(st.tuples(_levels, _sirs), min_size=n, max_size=n)
).map(lambda rows: [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)])


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


@st.composite
def _uneven_tables(draw):
    """Non-monotone tables: GD and GB may fall as theta rises; the top entry
    is 10 to 45 dB, so some neighbor pairs of a wide set are off the table."""
    top = draw(st.floats(10.0, 45.0))
    thetas = sorted(set(draw(st.lists(st.floats(-5.0, top), max_size=5))) | {top})
    return LookupTable({t: _alloc(t, draw(st.integers(0, 30)), draw(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 12.0))))
        for t in thetas})


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

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(users=_user_sets(6, _wide_levels), lut=_tables(st.floats(10.0, 45.0)))
    def test_exhaustive_is_first_on_table_optimum(self, users, lut):
        # tables that stop short of some neighbor pairs' thresholds
        try:
            want = [id(u) for u in _permutation_search(users, lut)]
        except ValueError:
            with pytest.raises(ValueError, match=r"^theta for user 'u\d+' out of "):
                schedule_interference_based(users, lut)
        else:
            assert _outcome(schedule_interference_based, users, lut) == want

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(users=_user_sets(7, _wide_levels), lut=_uneven_tables())
    def test_exhaustive_is_first_permutation_optimum_on_uneven_tables(self, users, lut):
        # a table's GB need not rise with theta: the search must not assume it
        try:
            want = [id(u) for u in _permutation_search(users, lut)]
        except ValueError:
            with pytest.raises(ValueError, match=r"^theta for user 'u\d+' out of "):
                schedule_interference_based(users, lut, "exhaustive")
        else:
            assert _outcome(schedule_interference_based, users, lut, "exhaustive") == want

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(users=_user_sets(14), lut=_tables(st.floats(10.0, 45.0)))
    def test_heuristic_off_table_matches_swap_loop_up_to_14_users(self, users, lut):
        # an off-table band costs the sentinel in the window and in the plan
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(users=_user_sets(14), lut=_uneven_tables())
    def test_heuristic_matches_swap_loop_on_uneven_tables(self, users, lut):
        # an interior swap reads each new level's own GB and GD: it must not
        # assume that they rise with theta
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(users=_long_user_sets, lut=_uneven_tables())
    def test_heuristic_matches_swap_loop_15_to_40_users_on_uneven_tables(
            self, users, lut):
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(users=_long_user_sets, lut=_tables())
    def test_heuristic_matches_swap_loop_15_to_40_users(self, users, lut):
        # long sets accept several swaps per pass, far apart, so trials are
        # skipped between them until a swap moves a position they read
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(users=_long_user_sets, lut=_tables(st.floats(25.0, 45.0)))
    def test_heuristic_off_table_matches_swap_loop_15_to_40_users(self, users, lut):
        assert _outcome(
            schedule_interference_based, users, lut, "heuristic"
        ) == _outcome(_adjacent_swap_search, users, lut)

    @pytest.mark.parametrize("rows, entries", [
        # a swap accepted at i-4 moves position i-3, the left neighbor of band
        # i-2, whose whole GB the trial of swap i reads
        ([(0, 20), (1, 15), (0, 7), (0.6, 16), (3, 30), (0, 18), (15, 4)],
         [(17.0, 0, 3.0), (45.0, 1, 13.0)]),
        # a swap accepted at i+4 moves position i+4, the right neighbor of
        # band i+3
        ([(8, 7), (14, 24), (8, 20), (15, 15), (13.5, 20), (15, 24), (15, 21)],
         [(20.0, 0, 9.0), (23.0, 1, 9.0), (45.0, 1, 11.0)]),
    ], ids=["left_end", "right_end"])
    def test_heuristic_retries_a_swap_when_its_window_ends_move(self, rows, entries):
        users = [_user(f"u{i}", float(p), float(s)) for i, (p, s) in enumerate(rows)]
        lut = LookupTable({t: _alloc(t, gd, gb) for t, gd, gb in entries})
        got = schedule_interference_based(users, lut, "heuristic")
        assert got == _adjacent_swap_search(users, lut)

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_swaps_from_every_start_match_swap_loop(self, lut, n):
        # every ordering of 2-6 users as the start: up to 5 users, each swap's
        # window reaches a mirrored end band; at 6, swap 2 is the one interior
        # swap, costed from its four new levels, and the others are windows
        rows = [(10.0, 30.0), (0.0, 15.0), (15.0, 20.0), (5.0, 25.0),
                (12.0, 18.0), (3.0, 22.0)][:n]
        users = [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)]
        kernel = scheduler._OrderingCost(users, lut)
        for start in itertools.permutations(range(n)):
            order, on_table = scheduler._swap_order(kernel, list(start))
            want = _swap_loop([users[i] for i in start], lut)
            assert ([users[i] for i in order], on_table) == (want, True)

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_no_plan_per_candidate(self, lut, mode, monkeypatch):
        users = [_user(f"u{i}", float(i), 15.0 + 2 * i) for i in range(7)]
        want = schedule_interference_based(users, lut, mode)
        reads = []
        real = LookupTable.ceil_index

        def counted(self, thetas):
            reads.append(np.shape(thetas))
            return real(self, thetas)

        def no_plan(*args, **kwargs):
            raise AssertionError("SchedulePlan built during the search")

        monkeypatch.setattr(LookupTable, "ceil_index", counted)
        monkeypatch.setattr(scheduler, "SchedulePlan", no_plan)
        assert schedule_interference_based(users, lut, mode) == want
        assert reads == [(7, 7)]  # the kernel's one read of every term


_gbs = st.one_of(
    st.integers(0, 2000).map(float),
    # either side of an integer, and of the 5e-7 that 6 decimals round away
    st.builds(lambda k, d: k + d, st.integers(0, 2000), st.floats(-2e-9, 1e-6)),
    st.floats(0.0, 2000.0),
)


class TestWholeGuardBands:
    """A boundary's whole GB is the larger of its two bands' whole GBs, so a
    band's cost is the pair (whole GB, GD)."""

    @settings(derandomize=True, max_examples=300)
    @given(gb_a=_gbs, gb_b=_gbs)
    def test_boundary_is_larger_whole_gb(self, gb_a, gb_b):
        lut = LookupTable({20.0: _alloc(20.0, 0, gb_a), 30.0: _alloc(30.0, 0, gb_b)})
        want = _whole(max(gb_a, gb_b))
        assert max(gb for gb, _ in lut.levels) == want

    def test_loaded_table_schedules_as_built(self, tmp_path):
        # 17.0000003 is stored as 17.000000, so the built table must charge it
        # 17 whole subcarriers, as the loaded one does
        built = LookupTable({30.0: _alloc(30.0, 60, 12.5),
                             45.0: _alloc(45.0, 60, 17.0000003)})
        built.save_csv(tmp_path / "lookup.csv", NumerologyConfig())
        loaded = LookupTable.load_csv(tmp_path / "lookup.csv")
        users = [_user("a", 15.0, 30.0), _user("b", 0.0, 30.0), _user("c", 15.0, 20.0)]
        plans = [allocate_guards(schedule_interference_based(users, t), t)
                 for t in (built, loaded)]
        assert [p.cost for p in plans] == [(34, 180), (34, 180)]
        assert plans[0].assignment == plans[1].assignment

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
        assert kernel.bands((0, 1, 2))[1] == (3, 5)  # b at 20 dB
        assert kernel.bands((0, 1, 3))[1] == (3, 9)  # b at 27 dB, read at 30
        order, _ = scheduler._exact_order(kernel)
        got = [users[i] for i in order]
        assert got == _permutation_search(users, lut)


# schedule_search's synthetic table: 2.5 dB steps from 20 to 50 dB, alpha
# 0.005 per step, GD and GB rising
_STEPPED = LookupTable({
    20.0 + 2.5 * k: _alloc(20.0 + 2.5 * k, math.floor(5.48 * k + 0.5), 3.6 + 1.35 * k)
    for k in range(13)
})
# GD and GB fall and rise with theta; the table stops at 36 dB, so some
# neighbor pairs of a _drawn_users set are off it
_UNEVEN = LookupTable({t: _alloc(t, gd, gb) for t, gd, gb in [
    (20.0, 12, 4.2), (25.0, 3, 6.0), (30.0, 20, 2.5), (32.5, 8, 9.1),
    (34.0, 30, 5.0), (36.0, 0, 7.3),
]})


def _drawn_users(n, seed):
    """schedule_search's draw: 0-15 dBm power and 15-30 dB SIR, one decimal."""
    rng = random.Random(seed)
    return [_user(f"u{i}", round(rng.uniform(0.0, 15.0), 1),
                  round(rng.uniform(15.0, 30.0), 1)) for i in range(n)]


class TestExactSearchAtItsLimit:
    """The permutation oracle stops at 7 users. These orderings of 8 to
    EXACT_LIMIT users were recorded from an earlier, recursive implementation
    of the same DP."""

    @pytest.mark.parametrize("table, seed, order", [
        (_STEPPED, 0, [5, 3, 7, 1, 2, 0, 4, 6]),
        (_STEPPED, 1, [0, 4, 7, 2, 3, 1, 5, 6]),
        (_STEPPED, 0, [5, 3, 7, 1, 2, 8, 0, 4, 6]),
        (_STEPPED, 1, [0, 8, 4, 7, 2, 3, 1, 5, 6]),
        (_STEPPED, 0, [5, 3, 7, 1, 2, 0, 8, 9, 4, 6]),
        (_STEPPED, 1, [0, 8, 4, 7, 2, 3, 5, 1, 6, 9]),
        (_UNEVEN, 0, [3, 0, 1, 6, 2, 5, 7, 4]),
        (_UNEVEN, 1, [0, 4, 1, 5, 2, 7, 3, 6]),
        (_UNEVEN, 0, [0, 8, 3, 1, 6, 2, 5, 7, 4]),
        (_UNEVEN, 1, [0, 8, 4, 1, 5, 2, 7, 3, 6]),
        (_UNEVEN, 0, [0, 1, 6, 2, 3, 5, 8, 9, 7, 4]),
        (_UNEVEN, 1, [0, 8, 4, 1, 5, 2, 9, 6, 3, 7]),
    ])
    def test_orderings_pinned(self, table, seed, order):
        users = _drawn_users(len(order), seed)
        got = schedule_interference_based(users, table)
        assert [u.id for u in got] == [f"u{i}" for i in order]

    def test_sentinel_beyond_each_end(self):
        # user n: -1 in every real row, never a max; the off level toward
        # everyone in its own. Seed 1's sets are the pinned ones that must
        # route round the table's end: each has off-table pairs among its
        # real users, the n x n block the sentinel row is not part of.
        for n in (8, 9, 10):
            kernel = scheduler._OrderingCost(_drawn_users(n, 1), _UNEVEN)
            off = len(_UNEVEN.allocations)
            assert kernel.levels[off] == (kernel.off, 0)
            assert [row[n] for row in kernel.index[:n]] == [-1] * n
            assert kernel.index[n] == [off] * (n + 1)
            assert any(off in row[:n] for row in kernel.index[:n])

    def test_ten_users_peak_under_8_mb(self):
        # about 6.8 MB: every layer's edge costs and children (184,000 edges
        # in all), kept for the backward pass, and the largest layer's
        # temporaries
        kernel = scheduler._OrderingCost(_drawn_users(EXACT_LIMIT, 0), _STEPPED)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            scheduler._exact_order(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8e6, peak


@st.composite
def _users_and_near_table(draw):
    """Users, and a table whose thresholds sit within 2e-9 dB of theirs; its
    GB and GD may fall as theta rises."""
    rows = draw(st.lists(st.tuples(_levels, _sirs), min_size=2, max_size=6))
    terms = sorted({s + (p - q) for (p, _), (q, s) in itertools.permutations(rows, 2)})
    near = st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9])
    keys = {t + draw(near) for t in draw(st.lists(st.sampled_from(terms), min_size=1))}
    entries = {k: _alloc(k, draw(st.integers(0, 30)), draw(st.floats(0.0, 6.0)))
               for k in sorted(keys)}
    return [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)], LookupTable(entries)


class TestPerReadReferences:
    """Thresholds and table reads made once per set, against the per-band
    loop and the per-band ceil_index read they replace."""

    @settings(derandomize=True, max_examples=200)
    @given(rows=st.lists(st.tuples(_levels, _sirs), min_size=2, max_size=8))
    def test_theta_for_assignment_matches_per_band_loop(self, rows):
        # reference: each band's max() over the terms toward its neighbors
        users = [_user(f"u{i}", p, s) for i, (p, s) in enumerate(rows)]
        want = [
            max(users[j].sir_req_db + (u.power_dbm - users[j].power_dbm)
                for j in (i - 1, i + 1) if 0 <= j < len(users))
            for i, u in enumerate(users)
        ]
        assert theta_for_assignment(users) == want

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(case=_users_and_near_table())
    def test_guards_read_the_entry_ceil_index_reads(self, case):
        # every (band, neighbors) read, against ceil_index at the larger
        # term; a term above the table reads the sentinel
        users, lut = case
        kernel = scheduler._OrderingCost(users, lut)
        whole = [_whole(g.gb_subcarriers) for g in lut.entries.values()]
        assert kernel.off == len(users) * max(whole) + 1
        for a, b, c in itertools.product(range(len(users)), repeat=3):
            if b in (a, c):
                continue
            theta = theta_for_assignment([users[a], users[b], users[c]])[1]
            k = lut.ceil_index(theta)
            if k < len(lut.allocations):
                g = lut.allocations[k]
                want = (_whole(g.gb_subcarriers), g.gd_samples)
            else:
                want = (kernel.off, 0)
            assert kernel.bands((a, b, c))[1] == want, (a, b, c)


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

    def test_error_tells_the_request_from_the_maximum(self):
        # a 10.0000004 dBm user beside a 0 dBm user who needs 35 dB
        lut = LookupTable({40.0: _alloc(40.0, 50, 8.0), 45.0: _alloc(45.0, 80, 12.0)})
        users = [_user("a", 10.0000004, 20.0), _user("b", 0.0, 35.0)]
        with pytest.raises(ValueError) as exc:
            allocate_guards(users, lut)
        assert str(exc.value) == (
            "theta for user 'a' out of lookup range: theta=45.0000004 dB exceeds "
            "the lookup table maximum (45 dB)"
        )

    @pytest.mark.parametrize("rows, order", [
        # only a next to c leaves the table (46 dB)
        ([(30.0, 15.0), (28.0, 15.0), (0.0, 16.0), (29.0, 15.0)], "abdc"),
        # only d next to c leaves the table (50 dB)
        ([(10.0, 15.0), (5.0, 15.0), (0.0, 20.0), (30.0, 15.0)], "cabd"),
        # c leaves the table next to a (50 dB) and d (55 dB), not next to b
        ([(0.0, 20.0), (15.0, 20.0), (30.0, 15.0), (0.0, 25.0)], "adbc"),
    ], ids=["one_pair", "last_band", "middle_band"])
    def test_exhaustive_keeps_off_table_pairs_apart(self, lut, rows, order):
        users = [_user(uid, *row) for uid, row in zip("abcd", rows)]
        got = schedule_interference_based(users, lut)
        assert got == _permutation_search(users, lut)
        assert "".join(u.id for u in got) == order

    def test_exhaustive_fails_when_no_ordering_is_on_table(self, lut):
        # a, b and d each leave the table next to c, which needs a neighbor
        rows = [(30.0, 15.0), (25.0, 15.0), (0.0, 25.0), (25.0, 15.0)]
        users = [_user(uid, *row) for uid, row in zip("abcd", rows)]
        with pytest.raises(ValueError):
            _permutation_search(users, lut)
        with pytest.raises(ValueError, match=r"^theta for user '[abd]' out of "):
            schedule_interference_based(users, lut)

    USABLE = [_user("a", 30.0, 15.0), _user("b", 15.0, 15.0), _user("c", 0.0, 20.0)]

    @pytest.mark.parametrize("mode, order", [("exhaustive", "abc"),
                                             ("heuristic", "cba")])
    def test_set_with_an_on_table_ordering_schedules(self, lut, mode, order):
        # a next to c needs 50 dB; b between them keeps every band on the table
        got = schedule_interference_based(self.USABLE, lut, mode)
        assert "".join(u.id for u in got) == order

    @pytest.mark.parametrize("seed", range(6))
    def test_random_baseline_redraws_off_table_orders(self, lut, seed):
        # seed 0 draws c-a-b first, which leaves the table
        rows = compare_scenarios(self.USABLE, seed, lut)
        assert [r.scenario for r in rows] == [
            "fixed_random", "adaptive_random", "adaptive_scheduled"
        ]
        assert rows[0].plan.assignment == rows[1].plan.assignment
        assert rows[1].plan.assignment[1].id == "b"
        first = schedule_random(self.USABLE, seed)
        if first[1].id == "b":  # an on-table first draw is kept
            assert list(rows[1].plan.assignment) == first
        assert "".join(u.id for u in rows[2].plan.assignment) == "abc"

    def test_random_baseline_fails_when_every_draw_leaves_the_table(
        self, lut, monkeypatch
    ):
        # seed 0 draws c-a-b first: a next to c needs 50 dB
        monkeypatch.setattr(scheduler, "RANDOM_DRAWS", 1)
        with pytest.raises(ValueError) as exc:
            compare_scenarios(self.USABLE, 0, lut)
        assert str(exc.value) == (
            "theta for user 'a' out of lookup range: theta=50 dB exceeds "
            "the lookup table maximum (45 dB)"
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
