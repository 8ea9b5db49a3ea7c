# guardopt/scheduler.py
"""Interference-aware assignment of users to consecutive frequency bands.

Per-band thresholds follow theta_i = max over existing neighbors of
(neighbor SIR requirement + power offset toward that neighbor), with the
power offset PO = power(i) - power(neighbor) (positive = band i is the
stronger aggressor). Guards come from a prebuilt threshold -> allocation
lookup table, ceiling to the next tabulated threshold so a band is never
under-protected. The guard band at each internal boundary is shared: sized
by the larger of the two facing requirements, rounded up to whole
subcarriers, and counted once.

Scheduling cost is (total GB, total GD) lexicographic: guard carriers are
permanently lost spectrum, while guard duration is partially recovered by
the overlap-add.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerology import config_float, load_yaml, read_keys, write_csv
from .optimizer import GuardAllocation, LookupTable, grid_text

USE_CASES = ("eMBB", "mMTC", "URLLC")  # read by perfbench only
EXACT_LIMIT = 10  # largest user set the default search orders exactly
RANDOM_DRAWS = 1000  # seeded orderings compare_scenarios tries for its baseline


@dataclass(frozen=True)
class UserProfile:
    id: str
    power_dbm: float
    sir_req_db: float
    # read by no computation: a service reaches the guards only through
    # sir_req_db; kept as positional slots for callers that pass them
    use_case: str | None = None
    obw_subcarriers: int | None = None

    def __post_init__(self):
        # the id is written unquoted into the layout CSV
        if not self.id or any(c in self.id for c in ',"\r\n'):
            raise ValueError(
                f"id must be non-empty with no comma, quote, CR or LF, got {self.id!r}"
            )
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")
        if not (math.isfinite(self.sir_req_db) and self.sir_req_db > 0):
            raise ValueError(
                f"sir_req_db must be positive and finite, got {self.sir_req_db}"
            )


@dataclass(frozen=True)
class SchedulePlan:
    assignment: tuple[UserProfile, ...]
    theta_per_band: tuple[float, ...]
    guard_per_band: tuple[GuardAllocation, ...]
    total_gd_samples: int
    total_gb_subcarriers: int

    @property
    def cost(self) -> tuple[int, int]:
        return (self.total_gb_subcarriers, self.total_gd_samples)


def theta_for_assignment(assignment) -> list[float]:
    """Per-band interference thresholds from neighbor SIR demands and offsets.

    Edge bands take the max over their single neighbor; a lone user has no
    neighbor, so its threshold is 0 dB: the smallest table entry is its floor.
    """
    users = list(assignment)
    if not users:
        raise ValueError("assignment must not be empty")
    if len(users) == 1:
        return [0.0]
    # each boundary's terms toward the right and back; max() keeps the left on a tie
    right = [_theta_term(u.power_dbm, v.power_dbm, v.sir_req_db)
             for u, v in zip(users, users[1:])]
    left = [_theta_term(v.power_dbm, u.power_dbm, u.sir_req_db)
            for u, v in zip(users, users[1:])]
    return [right[0], *(r if r > l else l for l, r in zip(left, right[1:])), left[-1]]


def _theta_term(power, nb_power, nb_sir):
    """Threshold a band of `power` needs toward a neighbor of `nb_power` and
    `nb_sir`: the neighbor's SIR demand plus PO. Floats or numpy arrays."""
    return nb_sir + (power - nb_power)


def allocate_guards(assignment, lookup: LookupTable) -> SchedulePlan:
    """Adaptive per-band guards for a given band ordering."""
    users = tuple(assignment)
    return _guard_plan(users, theta_for_assignment(users), lookup)


def fixed_guard_plan(assignment, lookup: LookupTable) -> SchedulePlan:
    """Every band gets the worst-case guards: those of the table maximum."""
    users = tuple(assignment)
    return _guard_plan(users, [lookup.max_theta] * len(users), lookup)


def _guard_plan(users: tuple, thetas, lookup: LookupTable) -> SchedulePlan:
    """Guards from per-band thresholds; each internal boundary is counted once,
    sized by the larger facing guard band in whole subcarriers. A band above
    the table raises ValueError naming its user."""
    if not users:
        raise ValueError("assignment must not be empty")
    index = lookup.ceil_index(thetas).tolist()
    for user, theta, k in zip(users, thetas, index):
        if k == len(lookup.allocations):
            raise ValueError(
                f"theta for user {user.id!r} out of lookup range: "
                f"theta={grid_text(theta)} dB exceeds the lookup table maximum "
                f"({grid_text(lookup.max_theta)} dB)"
            )
    allocs = [lookup.allocations[k] for k in index]
    levels = _levels(lookup)
    total_gb, total_gd = _run_cost([levels[k] for k in index])
    return SchedulePlan(
        assignment=users,
        theta_per_band=tuple(thetas),
        guard_per_band=tuple(allocs),
        total_gd_samples=total_gd,
        total_gb_subcarriers=total_gb,
    )


def _levels(lookup: LookupTable) -> list[tuple[int, int]]:
    """(whole GB, GD) of each entry of `lookup.allocations`: the guard band
    rounded up to whole subcarriers. Rounding up is monotone, so a
    boundary's whole GB is the larger of its two bands' whole GBs."""
    return [(math.ceil(a.gb_subcarriers - 1e-9), a.gd_samples)
            for a in lookup.allocations]


class _OrderingCost:
    """Band costs of orderings of one set of two or more users.

    Orderings are lists of user indices. A band costs (whole GB, GD); a
    boundary costs the larger whole GB of its two bands. index[b][j] is the
    table entry of band b's threshold toward neighbor j, read once per set by
    one LookupTable.ceil_index; levels[k] is entry k's cost. The read is
    monotone, so band b between a and c costs levels[max(index[b][a],
    index[b][c])]: the entry of its larger threshold.
    A threshold above the table reads the last level, (off, 0), with off =
    n x the table's largest whole GB + 1: more than the n - 1 boundaries of
    any on-table ordering add up to, so an ordering's GB reaches off exactly
    when one of its bands is off the table.
    """

    def __init__(self, users, lookup: LookupTable):
        power = np.array([u.power_dbm for u in users])
        sir = np.array([u.sir_req_db for u in users])
        self.index = lookup.ceil_index(_theta_term(power[:, None], power, sir)).tolist()
        levels = _levels(lookup)
        # an empty table puts every band off it
        self.off = len(users) * max(levels, default=(0, 0))[0] + 1
        self.levels = levels + [(self.off, 0)]

    def bands(self, order, lo: int, hi: int) -> list[tuple[int, int]]:
        """(whole GB, GD) of bands lo .. hi-1 of `order`; an edge band's only
        neighbor is mirrored."""
        index, levels, last = self.index, self.levels, len(order) - 1
        out = []
        for k in range(lo, hi):
            row = index[order[k]]
            i = row[order[k - 1] if k else order[1]]
            j = row[order[k + 1] if k < last else order[k - 1]]
            out.append(levels[j if j > i else i])
        return out


def _run_cost(pairs) -> tuple[int, int]:
    """(GB of the boundaries between consecutive bands, GD of every band) of
    a run of band (whole GB, GD) pairs."""
    gb_a, total_gd = pairs[0]
    total_gb = 0
    for gb_b, gd_b in pairs[1:]:
        total_gb += gb_a if gb_a > gb_b else gb_b  # max(), but faster
        total_gd += gd_b
        gb_a = gb_b
    return total_gb, total_gd


def _swap_window(kernel: _OrderingCost, order, pairs, i: int):
    """Swap bands i and i+1 of `order` in place and cost the swap locally.

    `pairs` holds every band's (whole GB, GD) before the swap. Only bands
    i-1 .. i+2 change user or neighbor, so only bands i-2 .. i+3 and their
    boundaries change cost; costs are integers, so comparing this window
    before and after decides as comparing whole orderings does.

    Returns (before, after, lo, new): the window's cost before and after the
    swap, and the new pairs of bands lo, lo+1, ...
    """
    order[i], order[i + 1] = order[i + 1], order[i]
    lo, hi = max(i - 2, 0), min(i + 4, len(order))
    new = kernel.bands(order, lo, hi)
    return _run_cost(pairs[lo:hi]), _run_cost(new), lo, new


def _swap_order(kernel: _OrderingCost, order: list[int]) -> tuple[list[int], bool]:
    """Adjacent-swap passes over `order` until no swap lowers the cost; the
    ordering, and whether its bands are all on the table.

    A trial of swap i reads positions i-3 .. i+4 only, so a rejected swap is
    tried again only once an accepted swap has moved one of them: the swaps
    accepted are those of passes that try every swap.
    """
    n = len(order)
    pairs = kernel.bands(order, 0, n)
    retry = [True] * (n - 1)  # swap i may give a new answer
    while any(retry):
        for i in range(n - 1):
            if not retry[i]:
                continue
            before, after, lo, new = _swap_window(kernel, order, pairs, i)
            if after < before:
                pairs[lo:lo + len(new)] = new
                # positions i and i+1 moved: trials i-4 .. i+4 read them
                for j in range(max(i - 4, 0), min(i + 5, n - 1)):
                    retry[j] = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
                retry[i] = False
    return order, max(pairs)[0] < kernel.off


def _exact_order(kernel: _OrderingCost) -> tuple[list[int], bool]:
    """First minimum-cost ordering in `itertools.permutations` order, and
    whether its bands are all on the table.

    Held-Karp DP: band b's guards depend on its two neighbors and the a|b
    boundary on the whole GBs of a and b, so the cost of everything from band
    b on depends only on the state (placed set, a, b, whole GB of a). Each
    state is searched once (its caller probes the memo) and keeps its least
    (GB, GD) cost with the smallest next user reaching it; the ordering read
    off the states from the front is the lexicographically first optimal
    index sequence, the permutation search's answer.
    """
    n, index, levels = len(kernel.index), kernel.index, kernel.levels
    full = (1 << n) - 1
    # (mask, a, b, whole GB of a) -> (least GB, GD from a|b on, next user, its GB)
    memo: dict[tuple, tuple] = {}
    free = [[c for c in range(n) if not mask >> c & 1] for mask in range(full + 1)]

    def togo(mask, a, b, ga):
        row = index[b]
        if mask == full:  # b is the last band, a its only neighbor
            gb, gd = levels[row[a]]
            best = memo[mask, a, b, ga] = (gb if gb > ga else ga, gd, None, None)
            return best
        i = row[a]
        best = (math.inf, 0, None, None)
        for c in free[mask]:
            j = row[c]
            gb, gd = levels[j if j > i else i]
            child = (mask | 1 << c, b, c, gb)
            rest_gb, rest_gd, _, _ = memo.get(child) or togo(*child)
            rest_gb += gb if gb > ga else ga
            rest_gd += gd
            # cost first, ties to the smallest c
            if rest_gb < best[0] or rest_gb == best[0] and rest_gd < best[1]:
                best = (rest_gb, rest_gd, c, gb)
        memo[mask, a, b, ga] = best
        return best

    def start(a, b):
        ga, gda = levels[index[a][b]]  # b is a's only neighbor
        gb_rest, gd_rest, _, _ = togo(1 << a | 1 << b, a, b, ga)
        return (gb_rest, gd_rest + gda), a, b, ga

    # cost first, ties to the smallest (a, b)
    (gb, _), a, b, ga = min(start(a, b) for a in range(n) for b in range(n) if a != b)
    order, mask = [a, b], 1 << a | 1 << b
    while mask != full:
        _, _, c, gc = memo[mask, a, b, ga]
        order.append(c)
        mask, a, b, ga = mask | 1 << c, b, c, gc
    return order, gb < kernel.off


def schedule_random(users, seed: int) -> list[UserProfile]:
    """Seed-reproducible uniform permutation."""
    users = list(users)
    order = np.random.default_rng(seed).permutation(len(users))
    return [users[i] for i in order]


def schedule_interference_based(
    users,
    lookup: LookupTable,
    mode: str | None = None,
    theta_floor: float = 0.0,
) -> list[UserProfile]:
    """Band ordering minimizing total guard cost.

    The set size picks the search: the exact Held-Karp DP for at most
    EXACT_LIMIT users, the heuristic above. `mode` forces one, for
    comparisons: "exhaustive" (an error above EXACT_LIMIT) or "heuristic".
    exhaustive: among equal-cost orderings it returns the first in input
    order, as a search over `itertools.permutations(users)` would.
    heuristic: sort by power (SIR requirement as tie-break), then adjacent-swap
    passes until no swap improves the cost, each swap costed over the six
    bands it can change (`_swap_window`) and retried only once a position it
    reads has moved. Both read the table once per set (`_OrderingCost`), where
    an ordering with a band above the table costs more than any without one:
    exhaustive mode fails only if every ordering has such a band, heuristic
    mode if its passes end with one. The error is allocate_guards', naming
    the user.
    theta_floor is ignored: no ordering depends on it. It stays only because
    perfbench/tracer.py passes it positionally, until the next benchmark
    change removes it there.
    """
    users = list(users)
    if len(users) <= 1:
        return users
    kernel = _OrderingCost(users, lookup)
    if mode is None:
        mode = "exhaustive" if len(users) <= EXACT_LIMIT else "heuristic"
    if mode == "exhaustive":
        if len(users) > EXACT_LIMIT:
            raise ValueError(
                f"exhaustive search is limited to {EXACT_LIMIT} users; "
                "use mode='heuristic'"
            )
        order, on_table = _exact_order(kernel)
    elif mode == "heuristic":
        order = sorted(
            range(len(users)),
            key=lambda i: (users[i].power_dbm, users[i].sir_req_db),
        )
        order, on_table = _swap_order(kernel, order)
    else:
        raise ValueError("mode must be 'exhaustive' or 'heuristic'")
    ordering = [users[i] for i in order]
    if not on_table:
        allocate_guards(ordering, lookup)  # raises for its first band off the table
    return ordering


@dataclass(frozen=True)
class ScenarioRow:
    scenario: str
    plan: SchedulePlan
    gd_reduction_pct: float  # vs the previous row; 0 for the first
    gb_reduction_pct: float


def _reduction(prev: float, cur: float) -> float:
    return 100.0 * (prev - cur) / prev if prev else 0.0


def compare_scenarios(
    users, seed: int, lookup: LookupTable, mode: str | None = None
) -> list[ScenarioRow]:
    """Fixed/random vs adaptive/random vs adaptive/interference-based guards;
    `mode` as in schedule_interference_based.

    The random order is the first of up to RANDOM_DRAWS permutations drawn
    from the seed (the first is `schedule_random(users, seed)`) whose bands
    are all on the table. The scheduled search runs first, so a set with no
    such ordering fails with the search's error; if every draw leaves the
    table, the last draw's error is raised.
    """
    users = list(users)
    scheduled_order = schedule_interference_based(users, lookup, mode)
    scheduled = allocate_guards(scheduled_order, lookup)
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_DRAWS):
        order = [users[i] for i in rng.permutation(len(users))]
        try:
            adaptive = allocate_guards(order, lookup)
            break
        except ValueError as exc:
            error = exc
    else:
        raise error
    fixed = fixed_guard_plan(adaptive.assignment, lookup)
    return [
        ScenarioRow("fixed_random", fixed, 0.0, 0.0),
        ScenarioRow(
            "adaptive_random",
            adaptive,
            _reduction(fixed.total_gd_samples, adaptive.total_gd_samples),
            _reduction(fixed.total_gb_subcarriers, adaptive.total_gb_subcarriers),
        ),
        ScenarioRow(
            "adaptive_scheduled",
            scheduled,
            _reduction(adaptive.total_gd_samples, scheduled.total_gd_samples),
            _reduction(adaptive.total_gb_subcarriers, scheduled.total_gb_subcarriers),
        ),
    ]


def load_users_yaml(path) -> list[UserProfile]:
    """User-set file: a `users:` list (its only key) or a bare list of users.

    Errors name the file, the row (1-based) and the offending key.
    """
    raw = load_yaml(path)
    if isinstance(raw, dict):
        try:
            raw = read_keys(raw, {"users": lambda rows: rows}, "user-file").get("users")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: expected a non-empty `users:` list of mappings")
    users, seen = [], set()
    for row, u in enumerate(raw, start=1):
        where = f"{path}: user {row}"
        try:
            values = read_keys(u, _USER_READERS, "user")
            user = UserProfile(*(values[key] for key in _USER_READERS))
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if user.id in seen:
            raise ValueError(f"{where}: duplicate id {user.id!r}")
        seen.add(user.id)
        users.append(user)
    return users


def _user_id(value) -> str:
    """An id as written, a string or an integer; null or true is rejected."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"expected a string or an integer, got {value!r}")
    return str(value)


# every key a user row holds, in UserProfile order; any other key is rejected
_USER_READERS = {"id": _user_id, "power_dbm": config_float, "sir_req_db": config_float}


def write_layout_csv(plan: SchedulePlan, path) -> None:
    """Per-band layout: band_index, user_id, theta_db, gb_subcarriers, gd_samples."""
    bands = zip(plan.assignment, plan.theta_per_band, plan.guard_per_band)
    write_csv(path, "band_index,user_id,theta_db,gb_subcarriers,gd_samples", (
        f"{i},{u.id},{grid_text(theta)},{a.gb_subcarriers:.6f},{a.gd_samples}\n"
        for i, (u, theta, a) in enumerate(bands)
    ))


def write_comparison_csv(rows, path) -> None:
    """Scenario totals and stepwise reductions."""
    header = ("scenario,total_gd_samples,total_gb_subcarriers,"
              "gd_reduction_pct,gb_reduction_pct")
    write_csv(path, header, (
        f"{r.scenario},{r.plan.total_gd_samples},"
        f"{r.plan.total_gb_subcarriers},"
        f"{r.gd_reduction_pct:.4f},{r.gb_reduction_pct:.4f}\n"
        for r in rows
    ))
